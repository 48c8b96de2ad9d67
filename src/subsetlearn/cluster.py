"""Class-level pre-clustering: multi-class LDA on penultimate features plus
k-means over per-class means, with a silhouette-based quality report so the
feature-tap comparison is measurable instead of qualitative.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numkit
from .convnet import Tap
from .errors import ContractError, ConvergenceError, ShapeError
from .numkit import Rng

# Lloyd iterations per k-means restart; a run stops early once assignments repeat.
KMEANS_MAX_ITER = 100
# k-means++ restarts of one clustering; the best inertia wins.
KMEANS_RESTARTS = 10
# The system's LDA keeps min(C - 1, LDA_MAX_DIM) directions for C classes.
LDA_MAX_DIM = 32


@dataclass(frozen=True)
class LdaModel:
    """Linear discriminant projection: columns are discriminant directions
    ordered by descending generalized eigenvalue."""

    projection: np.ndarray  # (D, d)
    global_mean: np.ndarray  # (D,)
    eigenvalues: np.ndarray  # (d,) Fisher ratios, descending

    @property
    def out_dim(self) -> int:
        return self.projection.shape[1]


@dataclass(frozen=True)
class KMeansModel:
    centroids: np.ndarray  # (k, d)
    inertia: float
    seed: int
    inertia_trace: tuple[float, ...] = field(default=())

    @property
    def k(self) -> int:
        return self.centroids.shape[0]


@dataclass(frozen=True)
class ClassClusterMap:
    """Maps each original class index to its subset index in [0, k)."""

    class_to_subset: np.ndarray

    def __post_init__(self):
        m = numkit.as_ints(self.class_to_subset, "subset indices")
        object.__setattr__(self, "class_to_subset", m)
        if m.ndim != 1 or m.size == 0:
            raise ShapeError("class_to_subset must be a nonempty 1-d array")
        if m.min() < 0 or len(np.unique(m)) != self.k:
            raise ContractError("subset indices must be 0..k-1, every subset holding a class")

    @property
    def k(self) -> int:
        return int(self.class_to_subset.max()) + 1


@dataclass(frozen=True)
class TapReport:
    """Cluster quality for one feature tap: silhouette plus size histogram."""

    tap: str
    silhouette: float
    cluster_sizes: tuple[int, ...]

    def csv_row(self) -> str:
        return f"{self.tap},{self.silhouette!r},{min(self.cluster_sizes)},{max(self.cluster_sizes)}"


def _class_stats(features: np.ndarray, labels: np.ndarray):
    classes, inverse, counts = np.unique(labels, return_inverse=True, return_counts=True)
    means = np.zeros((classes.size, features.shape[1]))
    np.add.at(means, inverse, features)
    means /= counts[:, None]
    return classes, inverse, counts, means


def lda_fit(features: np.ndarray, labels, out_dim: int) -> LdaModel:
    """Fit multi-class LDA by solving the generalized eigenproblem of
    between-class versus ridge-regularized within-class scatter.

    Parameters
    ----------
    features : (N, D) array
    labels : (N,) class indices, at least two distinct
    out_dim : number of discriminant directions, at most min(D, C - 1)

    The ridge 1e-3 * trace(S_w) / D is added to the diagonal of the
    within-class scatter S_w.  A zero scatter gets ridge 0 and raises
    NotPositiveDefiniteError.

    Columns are sign-canonicalized (largest-magnitude component positive),
    ordered by descending Fisher ratio, and scaled by the square root of
    their Fisher ratio, so euclidean distances in the projected space weight
    each direction by how discriminative it is.  The fit is deterministic and
    invariant to class relabeling.
    """
    features = numkit.as_matrix(features, "features")
    labels = numkit.as_ints(labels)
    if labels.ndim != 1 or labels.shape[0] != features.shape[0]:
        raise ShapeError("labels must be 1-d and match the feature rows")
    n, d_in = features.shape
    classes, inverse, counts, means = _class_stats(features, labels)
    c = classes.size
    if c < 2:
        raise ContractError("lda_fit needs at least two classes")
    if n <= c:
        raise ContractError("lda_fit needs more rows than classes")
    max_dim = min(d_in, c - 1)
    if not 1 <= out_dim <= max_dim:
        raise ContractError(f"out_dim must lie in [1, {max_dim}]")

    centered = features - means[inverse]
    s_w = centered.T @ centered
    mu = features.mean(axis=0)
    md = (means - mu) * np.sqrt(counts)[:, None]
    s_b = md.T @ md

    ridge = 1e-3 * float(np.trace(s_w)) / d_in
    s_w = s_w + ridge * np.eye(d_in)

    lower = numkit.cholesky(s_w)
    half = np.linalg.solve(lower, s_b)
    whitened = np.linalg.solve(lower, half.T).T
    whitened = 0.5 * (whitened + whitened.T)
    eigenvalues, eigenvectors = numkit.sym_eig(whitened)
    back = np.linalg.solve(lower.T, eigenvectors[:, :out_dim])
    norms = np.sqrt((back * back).sum(axis=0))
    norms[norms == 0.0] = 1.0
    projection = back / norms
    signs = np.sign(projection[np.abs(projection).argmax(axis=0), np.arange(out_dim)])
    signs[signs == 0.0] = 1.0
    projection = projection * signs * np.sqrt(np.maximum(eigenvalues[:out_dim], 0.0))
    return LdaModel(
        projection=np.ascontiguousarray(projection),
        global_mean=mu,
        eigenvalues=eigenvalues[:out_dim].copy(),
    )


def lda_transform(model: LdaModel, features: np.ndarray) -> np.ndarray:
    """Project feature rows onto the discriminant directions.  A row's bytes
    do not depend on how many rows share the call (numkit.invariant_matmul),
    so centroid routing of an image does not depend on its batch."""
    features = numkit.as_matrix(features, "features")
    if features.shape[1] != model.projection.shape[0]:
        raise ShapeError(
            f"feature width {features.shape[1]} does not match model width {model.projection.shape[0]}"
        )
    return numkit.invariant_matmul(features - model.global_mean, model.projection)


def silhouette_score(points: np.ndarray, assignments) -> float:
    """Mean silhouette over points (euclidean).  Singleton clusters score 0;
    a single cluster overall scores 0."""
    points = numkit.as_matrix(points, "points")
    assignments = numkit.as_ints(assignments, "assignments")
    if assignments.shape[0] != points.shape[0]:
        raise ShapeError("assignments must match point rows")
    clusters = np.unique(assignments)
    if clusters.size <= 1:
        return 0.0
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    scores = np.zeros(points.shape[0])
    for i in range(points.shape[0]):
        own = assignments[i]
        same = assignments == own
        n_same = int(same.sum())
        if n_same <= 1:
            continue  # singleton, defined as 0
        a = dist[i, same].sum() / (n_same - 1)
        b = np.inf
        for other in clusters:
            if other == own:
                continue
            mask = assignments == other
            b = min(b, float(dist[i, mask].mean()))
        denom = max(a, b)
        scores[i] = 0.0 if denom == 0.0 else (b - a) / denom
    return float(scores.mean())


def _cost(points: np.ndarray, centroids: np.ndarray, labels: np.ndarray) -> float:
    delta = points - centroids[labels]
    return float((delta * delta).sum())


def _assign(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # plain squared distances keep exact ties exact, so the lowest-index
    # tie-break is reproducible
    diff = points[:, None, :] - centroids[None, :, :]
    return np.argmin((diff * diff).sum(axis=2), axis=1)


def _kmeans_pp_init(points: np.ndarray, k: int, rng: Rng) -> np.ndarray:
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[int(rng.integers(n))]
    if k == 1:
        return centroids
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            idx = int(rng.integers(n))  # all remaining points coincide with a centroid
        else:
            idx = rng.weighted_index(d2)
        centroids[j] = points[idx]
        d2 = np.minimum(d2, ((points - centroids[j]) ** 2).sum(axis=1))
    return centroids


def _lloyd(points: np.ndarray, centroids: np.ndarray, max_iter: int):
    """One Lloyd run.  Returns (centroids, labels, trace); the inertia trace is
    recorded after every assignment step and is non-increasing."""
    centroids = centroids.copy()
    k = centroids.shape[0]
    trace: list[float] = []
    labels = None
    for _ in range(max_iter):
        new_labels = _assign(points, centroids)
        trace.append(_cost(points, centroids, new_labels))
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        counts = np.bincount(labels, minlength=k)
        sums = np.zeros_like(centroids)
        np.add.at(sums, labels, points)
        nonempty = counts > 0
        centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
        empty = np.flatnonzero(~nonempty)
        if empty.size:
            # repair: each empty cluster adopts the point farthest from its
            # current centroid (assignments refresh on the next pass)
            d = ((points - centroids[labels]) ** 2).sum(axis=1)
            order = np.argsort(-d, kind="stable")
            for slot, j in enumerate(empty):
                centroids[j] = points[order[slot % points.shape[0]]]
    return centroids, labels, trace


def kmeans_fit(
    points: np.ndarray,
    k: int,
    rng: Rng,
    restarts: int = KMEANS_RESTARTS,
) -> KMeansModel:
    """Lloyd's algorithm with k-means++ seeding and restarts.

    The best-inertia run wins; ties keep the lowest restart index.  Each
    restart draws from an independently derived child rng, so restarts may
    execute in any order without changing the result.
    """
    points = numkit.as_matrix(points, "points")
    n = points.shape[0]
    if k < 1:
        raise ContractError("k must be >= 1")
    if n < k:
        raise ContractError(f"need at least k={k} points, got {n}")
    if restarts < 1:
        raise ContractError("restarts must be >= 1")
    best = None
    for r in range(restarts):
        child = rng.child(r)
        init = _kmeans_pp_init(points, k, child)
        centroids, labels, trace = _lloyd(points, init, KMEANS_MAX_ITER)
        # hard runtime invariant: Lloyd cost never increases within a run
        if np.any(np.diff(trace) > 1e-9 * max(1.0, trace[0])):
            raise ConvergenceError("k-means inertia increased within a run")
        inertia = trace[-1]
        if best is None or inertia < best[0]:
            best = (inertia, centroids, trace, child.seed)
    inertia, centroids, trace, seed = best
    return KMeansModel(
        centroids=np.ascontiguousarray(centroids),
        inertia=float(inertia),
        seed=seed,
        inertia_trace=tuple(trace),
    )


def kmeans_assign(model: KMeansModel, points: np.ndarray) -> np.ndarray:
    """Nearest centroid by squared euclidean distance, ties to the lowest index."""
    points = numkit.as_matrix(points, "points")
    if points.shape[1] != model.centroids.shape[1]:
        raise ShapeError(
            f"point width {points.shape[1]} does not match centroid width {model.centroids.shape[1]}"
        )
    return _assign(points, model.centroids)


def precluster_classes(
    features: np.ndarray,
    labels,
    tap_used: Tap | str,
    lda: LdaModel | None,
    k: int,
    rng: Rng,
    restarts: int = KMEANS_RESTARTS,
) -> tuple[ClassClusterMap, KMeansModel, TapReport]:
    """Cluster classes into k subsets by k-means over per-class mean features.

    Each class is represented by the mean of its (optionally LDA-projected)
    feature rows, so a class lands wholly in one subset.  The report carries
    the silhouette of the class means under the final assignment plus the
    cluster-size histogram, which makes feature-tap comparisons measurable.
    """
    features = numkit.as_matrix(features, "features")
    labels = numkit.as_ints(labels)
    if labels.shape[0] != features.shape[0]:
        raise ShapeError("labels must match feature rows")
    projected = lda_transform(lda, features) if lda is not None else features
    classes, _, _, means = _class_stats(projected, labels)
    c = classes.size
    if not np.array_equal(classes, np.arange(c)):
        raise ContractError("labels must be dense class indices 0..C-1")
    if k > c:
        raise ContractError(f"k={k} exceeds the class count {c}")
    model = kmeans_fit(means, k, restarts=restarts, rng=rng)
    assignment = kmeans_assign(model, means)
    # kmeans repair makes empty subsets all but impossible; enforce the map
    # invariant anyway by donating the farthest class mean to any empty subset
    present = np.bincount(assignment, minlength=k)
    while np.any(present == 0):
        empty = int(np.flatnonzero(present == 0)[0])
        d = ((means - model.centroids[assignment]) ** 2).sum(axis=1)
        d[present[assignment] <= 1] = -np.inf  # do not empty another subset
        donor = int(np.argmax(d))
        assignment[donor] = empty
        present = np.bincount(assignment, minlength=k)
    cmap = ClassClusterMap(class_to_subset=assignment)
    sizes = tuple(int(v) for v in np.bincount(assignment, minlength=k))
    tap_name = tap_used.value if isinstance(tap_used, Tap) else str(tap_used)
    report = TapReport(tap=tap_name, silhouette=silhouette_score(means, assignment), cluster_sizes=sizes)
    return cmap, model, report
