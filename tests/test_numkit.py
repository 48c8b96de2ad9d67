import numpy as np
import pytest

from subsetlearn import numkit
from subsetlearn.errors import ContractError, NotPositiveDefiniteError
from subsetlearn.numkit import Rng


class TestSymEig:
    def test_diagonal(self):
        w, v = numkit.sym_eig(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(w, [3.0, 2.0, 1.0])
        assert np.allclose(np.abs(v), np.eye(3)[:, [0, 2, 1]])

    def test_classic_2x2(self):
        w, v = numkit.sym_eig([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(w, [3.0, 1.0])
        ref = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert abs(abs(v[:, 0] @ ref) - 1.0) < 1e-12
        ref2 = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert abs(abs(v[:, 1] @ ref2) - 1.0) < 1e-12

    def test_reconstruction_oracle(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(6, 6))
        a = a + a.T
        w, v = numkit.sym_eig(a)
        assert np.abs(v @ np.diag(w) @ v.T - a).max() < 1e-8
        assert np.abs(v.T @ v - np.eye(6)).max() < 1e-8
        assert np.all(np.diff(w) <= 1e-12)

    def test_trace_equals_eigenvalue_sum(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(10, 10))
        a = a + a.T
        w, _ = numkit.sym_eig(a)
        assert abs(w.sum() - np.trace(a)) <= 1e-8 * max(1.0, abs(np.trace(a)))

    def test_rejects_non_symmetric(self):
        with pytest.raises(ContractError):
            numkit.sym_eig([[1.0, 2.0], [0.0, 1.0]])

    def test_rank_deficient_whitened_scatter(self):
        # the LDA case: between-class scatter of C class means in D = 64
        # dimensions, whitened by the Cholesky factor of a within-class
        # scatter, has rank C - 1 and a (D - C + 1)-fold zero eigenvalue
        rng = np.random.default_rng(13)
        d, c = 64, 12
        md = rng.normal(size=(c, d)) * np.sqrt(40.0)
        md -= md.mean(axis=0)
        s_b = md.T @ md
        m = rng.normal(size=(d, 3 * d))
        lower = np.linalg.cholesky(m @ m.T / (3 * d) + 1e-3 * np.eye(d))
        whitened = np.linalg.solve(lower, np.linalg.solve(lower, s_b).T).T
        whitened = 0.5 * (whitened + whitened.T)
        w, v = numkit.sym_eig(whitened)
        assert np.all(np.diff(w) <= 0.0)
        tol = 1e-10 * w[0]
        assert np.all(w[: c - 1] > tol)
        assert np.abs(w[c - 1 :]).max() <= tol
        assert np.abs(whitened @ v[:, c - 1 :]).max() <= tol
        assert np.abs(v @ np.diag(w) @ v.T - whitened).max() <= tol
        assert np.abs(v.T @ v - np.eye(d)).max() < 1e-12


class TestCholesky:
    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefiniteError):
            numkit.cholesky(np.diag([1.0, -1.0]))
        with pytest.raises(NotPositiveDefiniteError):
            numkit.cholesky(np.zeros((2, 2)))


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(1234).random(10_000)
        b = Rng(1234).random(10_000)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(Rng(1).random(100), Rng(2).random(100))

    def test_children_are_deterministic_and_distinct(self):
        r = Rng(7)
        assert r.child(0).seed == Rng(7).child(0).seed
        assert r.child(0).seed != r.child(1).seed

    def test_derive_seed_stable(self):
        assert numkit.derive_seed(42, 1, 2) == numkit.derive_seed(42, 1, 2)
        assert numkit.derive_seed(42, 1) != numkit.derive_seed(42, 2)

    def test_weighted_index_never_picks_zero_weight(self):
        r = Rng(3)
        draws = {r.weighted_index([0.0, 1.0, 0.0]) for _ in range(50)}
        assert draws == {1}

    def test_weighted_index_rejects_bad_weights(self):
        with pytest.raises(ContractError):
            Rng(0).weighted_index([0.0, 0.0])
        with pytest.raises(ContractError):
            Rng(0).weighted_index([1.0, -1.0])


def check_rows_match_a_large_product(a, b):
    """A row's bytes must not depend on how many rows share the product:
    every row count from 1 to past the floor, at the start, inside and at the
    end of the product over all 2,400 rows of a."""
    (k, n), whole = b.shape, a @ b
    for m in range(1, numkit.INVARIANT_MIN_CELLS // n + 4):
        for start in (0, 7, 2400 - m):
            got = numkit.invariant_matmul(a[start : start + m], b)
            assert got.shape == (m, n)
            assert got.tobytes() == whole[start : start + m].tobytes(), (k, n, m, start)


class TestInvariantMatmul:
    @pytest.mark.parametrize("k", [5, 37, 64, 448])
    def test_rows_match_a_large_product(self, k):
        rng = np.random.default_rng(k)
        a = rng.normal(size=(2400, k))
        for n in (2, 3, 4, 6, 12, 24, 48):
            b = rng.normal(size=(n, k)).T  # a transposed view, as the SVM's weights
            check_rows_match_a_large_product(a, b)

    @pytest.mark.parametrize(
        "k,n",
        [(37, 16), (97, 32), (28, 8), (73, 16), (64, 64), (64, 6), (64, 12), (64, 24)],
        ids=["paired-conv1", "paired-conv2", "one-window-conv1", "one-window-conv2",
             "fc1", "head-6", "head-12", "head-24"],
    )
    def test_net_products_match_a_large_product(self, k, n):
        # the default spec's inference products: im2col rows plus the bias
        # column against 2 or 1 windows' kernels, the hidden fc and the heads
        rng = np.random.default_rng(k * n)
        a = rng.normal(size=(2400, k))
        check_rows_match_a_large_product(a, rng.normal(size=(n, k)).T)  # a layer's W.T

    def test_row_major_b_takes_the_measured_layout(self):
        # a row-major b has another floor; the helper takes it column-major
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=(2400, 448)), rng.normal(size=(448, 24))
        whole = numkit.invariant_matmul(a, b)
        assert whole.tobytes() == (a @ np.asfortranarray(b)).tobytes()
        for m in (1, 50, 51, 93, 94):
            assert numkit.invariant_matmul(a[7 : 7 + m], b).tobytes() == whole[7 : 7 + m].tobytes()

    def test_one_column_is_widened(self):
        # numpy sends a one-column product through gemv at any row count
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(2400, 64)), rng.normal(size=(64, 1))
        whole = numkit.invariant_matmul(a, b)
        assert whole.shape == (2400, 1)
        assert np.abs(whole - a @ b).max() <= 1e-12
        for m in (1, 7, 600, 601, 1000):
            assert numkit.invariant_matmul(a[7 : 7 + m], b).tobytes() == whole[7 : 7 + m].tobytes()
