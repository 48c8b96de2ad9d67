"""Dense-array plumbing: deterministic random numbers and the linear algebra
the rest of the pipeline relies on.

Arrays are plain numpy float64 ndarrays in row-major order and are treated as
immutable once constructed; nothing here broadcasts implicitly, and shape
problems raise eagerly.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, NotPositiveDefiniteError, ShapeError

# Largest |a - a.T| entry, relative to max(1, max |a|), that sym_eig and
# cholesky accept as symmetric.
SYMMETRY_TOL = 1e-9

# Output cells (rows x columns) at or below which OpenBLAS takes another
# kernel path, so a product's rows round differently from the same rows
# inside a larger product.  Measured with numpy 2.4.6 and scipy-openblas
# 0.3.31 (DYNAMIC_ARCH) on an AVX-512 Xeon, with a's rows and b's columns
# contiguous (b = W.T for an (N, K) weight matrix W): the rows of
# (M, K) @ (K, N) differ from the same rows of a 2,400-row product exactly
# when M * N <= 1,200, for K from 37 to 832 and N from 2 to 48 (M * N <= about
# 500 at K = 2,000; at K <= 16 only M = 1, numpy's gemv).  Every M up to 2,400
# was tried at K = 37 and 448.  A row-major b has another floor (M * N <=
# 2,232 at K = 448).  tests/test_numkit.py checks the floor on the build it
# runs on.
INVARIANT_MIN_CELLS = 1200


def derive_seed(seed: int, *keys: int) -> int:
    """Deterministically expand one seed into a per-component seed.

    The same (seed, keys) pair always yields the same value, so a single
    top-level seed reproduces every random decision in a run.
    """
    ss = np.random.SeedSequence((int(seed),) + tuple(int(k) for k in keys))
    return int(ss.generate_state(1, np.uint64)[0])


class Rng:
    """Seedable deterministic generator (PCG64 underneath).

    Identical seeds yield identical streams.  An Rng is single-owner: never
    share one across threads, derive children with :meth:`child` instead.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.seed)))

    def child(self, *keys: int) -> "Rng":
        """Independent stream derived from (seed, keys)."""
        return Rng(derive_seed(self.seed, *keys))

    def random(self, size=None):
        return self._gen.random(size)

    def normal(self, size=None, scale: float = 1.0):
        return self._gen.normal(0.0, scale, size)

    def integers(self, low: int, high: int | None = None, size=None):
        return self._gen.integers(low, high, size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def weighted_index(self, weights) -> int:
        """Draw an index with probability proportional to nonnegative weights."""
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ShapeError("weights must be a nonempty 1-d array")
        total = float(w.sum())
        if not np.isfinite(total) or total <= 0.0 or np.any(w < 0.0):
            raise ContractError("weights must be nonnegative with a positive sum")
        cdf = np.cumsum(w)
        idx = int(np.searchsorted(cdf, self.random() * total, side="right"))
        return min(idx, w.size - 1)


def as_matrix(a, name: str = "a") -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-d, got shape {arr.shape}")
    return arr


def exact_ints(a, dtype=np.int64) -> np.ndarray | None:
    """a as dtype when every value is an exact integer in dtype's range, else
    None (a fractional, non-finite, out-of-range or non-numeric value)."""
    values = np.asarray(a)
    if values.dtype.kind not in "biuf":
        return None
    with np.errstate(invalid="ignore"):  # out-of-range casts are caught below
        ints = values.astype(dtype, copy=False)
    return ints if np.array_equal(ints, values) else None


def as_ints(a, name: str = "labels") -> np.ndarray:
    """a as int64 through exact_ints; ContractError unless every value is an
    exact integer."""
    ints = exact_ints(a)
    if ints is None:
        raise ContractError(f"{name} must be integers")
    return ints


def invariant_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for 2-d a and b, each row's bytes independent of how many rows
    a has.

    The product runs in the layout the floor was measured on (a's rows and
    b's columns contiguous; no copy for a weight matrix's W.T), on rows
    padded with zeros until it has more than INVARIANT_MIN_CELLS cells, and
    the padding is sliced off.  A one-column b is widened to two: numpy
    sends it through gemv, whose rounding depends on a row's position at any
    row count.
    """
    m, n = a.shape[0], b.shape[1]
    a = np.ascontiguousarray(a)
    b = np.asfortranarray(b if n > 1 else np.hstack([b, np.zeros_like(b)]))
    rows = INVARIANT_MIN_CELLS // b.shape[1] + 1
    if m < rows:
        a = np.concatenate([a, np.zeros((rows - m, a.shape[1]), a.dtype)])
    return (a @ b)[:m, :n]


def _check_square_symmetric(a: np.ndarray, what: str) -> np.ndarray:
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"{what} requires a square matrix, got {a.shape}")
    n = a.shape[0]
    if n == 0:
        raise ShapeError(f"{what} requires a nonempty matrix")
    scale = max(1.0, float(np.max(np.abs(a))))
    if float(np.max(np.abs(a - a.T))) > SYMMETRY_TOL * scale:
        raise ContractError(f"{what} requires a symmetric matrix (tol {SYMMETRY_TOL:g})")
    return 0.5 * (a + a.T)


def sym_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix (LAPACK ``eigh``).

    Returns (eigenvalues, eigenvectors) with eigenvalues sorted descending and
    eigenvectors as matching orthonormal columns, so a == V diag(w) V.T up to
    rounding.
    """
    A = _check_square_symmetric(as_matrix(a), "sym_eig")
    eigenvalues, vectors = np.linalg.eigh(A)
    order = np.argsort(-eigenvalues, kind="stable")
    return eigenvalues[order], np.ascontiguousarray(vectors[:, order])


def cholesky(a) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite matrix."""
    A = _check_square_symmetric(as_matrix(a), "cholesky")
    try:
        return np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("matrix is not positive definite") from exc
