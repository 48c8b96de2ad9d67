import itertools

import numpy as np
import pytest

from subsetlearn import cluster
from subsetlearn.cluster import ClassClusterMap, kmeans_assign, kmeans_fit, lda_fit, lda_transform
from subsetlearn.convnet import Tap
from subsetlearn.errors import ContractError, NotPositiveDefiniteError, ShapeError
from subsetlearn.numkit import Rng


def gaussian_classes(rng, means, n_per_class, scale=1.0):
    feats = []
    labels = []
    for c, mu in enumerate(means):
        feats.append(np.asarray(mu) + scale * rng.normal(size=(n_per_class, len(mu))))
        labels.append(np.full(n_per_class, c))
    return np.concatenate(feats), np.concatenate(labels)


def lda_oracle(features, labels, out_dim):
    """Independent route: symmetric inverse-square-root whitening via numpy's
    eigh, then eigh of the whitened between-class scatter.  The ridge is the
    product's rule, 1e-3 * trace(S_w) / D."""
    classes = np.unique(labels)
    mu = features.mean(axis=0)
    d = features.shape[1]
    s_w = np.zeros((d, d))
    s_b = np.zeros((d, d))
    for c in classes:
        rows = features[labels == c]
        diff = rows - rows.mean(axis=0)
        s_w += diff.T @ diff
        md = (rows.mean(axis=0) - mu)[:, None]
        s_b += rows.shape[0] * (md @ md.T)
    s_w += 1e-3 * np.trace(s_w) / d * np.eye(d)
    evals, evecs = np.linalg.eigh(s_w)
    inv_sqrt = evecs @ np.diag(evals**-0.5) @ evecs.T
    m = inv_sqrt @ s_b @ inv_sqrt
    w, u = np.linalg.eigh(m)
    order = np.argsort(w)[::-1]
    v = inv_sqrt @ u[:, order[:out_dim]]
    return v / np.sqrt((v * v).sum(axis=0))


class TestLda:
    def test_axis_aligned_separation(self):
        # large n keeps the empirical within-class scatter close to isotropic,
        # which is what makes the population direction e0 recoverable to 0.999
        rng = np.random.default_rng(0)
        feats, labels = gaussian_classes(rng, [[-5, 0, 0], [5, 0, 0]], 4000, scale=1.0)
        model = lda_fit(feats, labels, out_dim=1)
        cosine = abs(model.projection[:, 0] @ np.array([1.0, 0.0, 0.0]))
        assert cosine > 0.999

    def test_two_class_fisher_direction(self):
        rng = np.random.default_rng(1)
        feats, labels = gaussian_classes(rng, [[0, 0], [3, 1]], 80, scale=0.8)
        model = lda_fit(feats, labels, out_dim=1)
        mu0 = feats[labels == 0].mean(axis=0)
        mu1 = feats[labels == 1].mean(axis=0)
        d = feats.shape[1]
        s_w = np.zeros((d, d))
        for c in (0, 1):
            diff = feats[labels == c] - feats[labels == c].mean(axis=0)
            s_w += diff.T @ diff
        direction = np.linalg.solve(s_w + 1e-3 * np.trace(s_w) / d * np.eye(d), mu0 - mu1)
        direction /= np.linalg.norm(direction)
        cosine = abs(model.projection[:, 0] @ direction)
        assert cosine > 0.999

    def test_matches_whitened_eigen_oracle(self):
        rng = np.random.default_rng(2)
        feats, labels = gaussian_classes(rng, [[0, 0], [4, 1], [1, 5]], 50, scale=0.7)
        model = lda_fit(feats, labels, out_dim=2)
        oracle = lda_oracle(feats, labels, 2)
        for j in range(2):
            cosine = abs(model.projection[:, j] @ oracle[:, j])
            assert cosine > 0.999

    def test_transform_of_global_mean_is_zero(self):
        rng = np.random.default_rng(3)
        feats, labels = gaussian_classes(rng, [[0, 0], [2, 2]], 30)
        model = lda_fit(feats, labels, out_dim=1)
        out = lda_transform(model, model.global_mean[None, :])
        assert np.abs(out).max() < 1e-9

    def test_identity_projection_passthrough(self):
        model = cluster.LdaModel(
            projection=np.eye(2), global_mean=np.zeros(2), eigenvalues=np.ones(2)
        )
        x = np.random.default_rng(4).normal(size=(5, 2))
        assert np.allclose(lda_transform(model, x), x)

    def test_fisher_ratio_beats_random_directions(self):
        rng = np.random.default_rng(5)
        feats, labels = gaussian_classes(rng, [[0, 0, 0], [1.5, 0.5, 0], [0, 2, 0.5]], 60)
        model = lda_fit(feats, labels, out_dim=1)

        def fisher_ratio(direction):
            proj = feats @ direction
            mu = proj.mean()
            between = sum(
                (proj[labels == c]).size * (proj[labels == c].mean() - mu) ** 2
                for c in np.unique(labels)
            )
            within = sum(
                ((proj[labels == c] - proj[labels == c].mean()) ** 2).sum()
                for c in np.unique(labels)
            )
            return between / within

        best = fisher_ratio(model.projection[:, 0])
        for _ in range(100):
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            assert best >= fisher_ratio(d) - 1e-9

    def test_out_dim_too_large(self):
        rng = np.random.default_rng(6)
        feats, labels = gaussian_classes(rng, [[0, 0], [1, 1]], 20)
        with pytest.raises(ContractError):
            lda_fit(feats, labels, out_dim=2)  # C-1 == 1

    def test_singular_scatter_without_ridge(self):
        # zero within-class scatter, so the ridge rule adds nothing
        feats = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        labels = np.array([0, 0, 1, 1])
        with pytest.raises(NotPositiveDefiniteError):
            lda_fit(feats, labels, out_dim=1)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(7)
        feats, labels = gaussian_classes(rng, [[0, 0], [3, 0], [0, 3]], 40)
        model_a = lda_fit(feats, labels, out_dim=2)
        permuted = np.array([2, 0, 1])[labels]
        model_b = lda_fit(feats, permuted, out_dim=2)
        assert np.abs(model_a.projection - model_b.projection).max() < 1e-9

    def test_width_mismatch(self):
        model = cluster.LdaModel(
            projection=np.eye(2), global_mean=np.zeros(2), eigenvalues=np.ones(2)
        )
        with pytest.raises(ShapeError):
            lda_transform(model, np.zeros((3, 4)))

    def test_rows_do_not_depend_on_their_batch(self):
        # the shape of the centroid selector's product: a 64-wide base tap
        # projected to C - 1 = 11 directions, on a 360-image split
        rng = np.random.default_rng(8)
        feats, labels = gaussian_classes(rng, rng.normal(scale=2.0, size=(12, 64)), 30)
        model = lda_fit(feats, labels, out_dim=11)
        whole = lda_transform(model, feats)
        for size in (1, 7):
            for start in range(0, feats.shape[0], size):
                part = lda_transform(model, feats[start : start + size])
                assert part.tobytes() == whole[start : start + size].tobytes(), (size, start)


def brute_force_inertia(points, k):
    """Global optimum over every assignment of points to k nonempty clusters."""
    n = points.shape[0]
    best = np.inf
    for assign in itertools.product(range(k), repeat=n):
        assign = np.array(assign)
        if len(np.unique(assign)) < k:
            continue
        cost = 0.0
        for j in range(k):
            rows = points[assign == j]
            cost += ((rows - rows.mean(axis=0)) ** 2).sum()
        best = min(best, cost)
    return best


class TestKMeans:
    def test_k1_centroid_is_mean(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(12, 3))
        model = kmeans_fit(points, 1, restarts=2, rng=Rng(0))
        assert np.allclose(model.centroids[0], points.mean(axis=0))
        expected = ((points - points.mean(axis=0)) ** 2).sum()
        assert abs(model.inertia - expected) < 1e-9

    def test_k_equals_n(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(5, 2))
        model = kmeans_fit(points, 5, restarts=3, rng=Rng(1))
        assert model.inertia < 1e-18
        assigned = kmeans_assign(model, points)
        assert len(np.unique(assigned)) == 5

    def test_reaches_global_optimum_most_trials(self):
        hits = 0
        for trial in range(20):
            rng = np.random.default_rng(100 + trial)
            points = rng.normal(size=(8, 2))
            model = kmeans_fit(points, 2, restarts=20, rng=Rng(trial))
            optimum = brute_force_inertia(points, 2)
            assert np.all(np.diff(model.inertia_trace) <= 1e-9)
            if model.inertia <= optimum * (1 + 1e-9) + 1e-12:
                hits += 1
        assert hits >= 18

    def test_inertia_matches_recomputation(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(30, 4))
        model = kmeans_fit(points, 4, rng=Rng(2))
        assigned = kmeans_assign(model, points)
        recomputed = ((points - model.centroids[assigned]) ** 2).sum()
        assert abs(model.inertia - recomputed) <= 1e-9 * max(1.0, recomputed)

    def test_centroid_point_assigns_to_itself(self):
        model = kmeans_fit(np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]]), 3, rng=Rng(3))
        for j, c in enumerate(model.centroids):
            assert kmeans_assign(model, c[None])[0] == j

    def test_tie_breaks_to_lowest_index(self):
        model = cluster.KMeansModel(
            centroids=np.array([[-1.0], [5.0], [1.0]]), inertia=0.0, seed=0
        )
        assert kmeans_assign(model, np.array([[0.0]]))[0] == 0

    def test_assignment_matches_distance_matrix_oracle(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(50, 3))
        model = kmeans_fit(points, 5, rng=Rng(4))
        queries = rng.normal(size=(20, 3))
        assigned = kmeans_assign(model, queries)
        dists = ((queries[:, None, :] - model.centroids[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(assigned, dists.argmin(axis=1))

    def test_empty_cluster_repair(self):
        # duplicate initial centroids force an empty cluster on the first pass
        points = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 0.0], [10.1, 0.0]])
        init = np.array([[0.05, 0.0], [0.05, 0.0]])
        centroids, labels, trace = cluster._lloyd(points, init, max_iter=20)
        assert len(np.unique(labels)) == 2
        assert np.all(np.diff(trace) <= 1e-9)

    def test_n_less_than_k(self):
        with pytest.raises(ContractError):
            kmeans_fit(np.zeros((2, 2)), 3, rng=Rng(0))

    def test_width_mismatch(self):
        model = kmeans_fit(np.zeros((4, 2)) + np.arange(4)[:, None], 2, rng=Rng(0))
        with pytest.raises(ShapeError):
            kmeans_assign(model, np.zeros((1, 3)))


class TestPrecluster:
    def test_every_class_its_own_subset_when_k_equals_c(self):
        rng = np.random.default_rng(0)
        feats = np.repeat(np.eye(4) * 10, 5, axis=0) + 0.01 * rng.normal(size=(20, 4))
        labels = np.repeat(np.arange(4), 5)
        cmap, _, report = cluster.precluster_classes(feats, labels, Tap.FC_PENULTIMATE, None, 4, Rng(0))
        assert sorted(cmap.class_to_subset) == [0, 1, 2, 3]
        assert report.cluster_sizes == (1, 1, 1, 1)
        assert report.silhouette == 0.0  # singletons score zero by convention

    def test_recovers_two_obvious_families(self):
        rng = np.random.default_rng(1)
        base = {0: np.zeros(3), 1: np.full(3, 50.0)}
        feats = []
        labels = []
        for c in range(6):
            fam = c // 3
            center = base[fam] + rng.normal(size=3)  # intra-family spread ~1, gap ~50
            feats.append(center + 0.1 * rng.normal(size=(8, 3)))
            labels.append(np.full(8, c))
        feats = np.concatenate(feats)
        labels = np.concatenate(labels)
        cmap, _, _ = cluster.precluster_classes(feats, labels, Tap.FC_PENULTIMATE, None, 2, Rng(1))
        family = cmap.class_to_subset
        assert len(set(family[:3])) == 1
        assert len(set(family[3:])) == 1
        assert family[0] != family[3]

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(2)
        feats = rng.normal(size=(60, 5))
        labels = np.repeat(np.arange(6), 10)
        a = cluster.precluster_classes(feats, labels, Tap.CONV_LAST, None, 3, Rng(9))
        b = cluster.precluster_classes(feats, labels, Tap.CONV_LAST, None, 3, Rng(9))
        assert np.array_equal(a[0].class_to_subset, b[0].class_to_subset)
        assert np.array_equal(a[1].centroids, b[1].centroids)
        assert a[2] == b[2]

    def test_k_greater_than_class_count(self):
        feats = np.zeros((6, 2)) + np.arange(6)[:, None]
        labels = np.repeat(np.arange(3), 2)
        with pytest.raises(ContractError):
            cluster.precluster_classes(feats, labels, Tap.CONV_LAST, None, 4, Rng(0))

    def test_map_rejects_empty_subset(self):
        with pytest.raises(ContractError):
            ClassClusterMap(class_to_subset=np.array([0, 2, 2]))  # subset 1 holds no class

    def test_map_rejects_fractional_indices(self):
        with pytest.raises(ContractError, match="integers"):
            ClassClusterMap(class_to_subset=np.array([0.0, 1.7, 0.2]))
        assert ClassClusterMap(class_to_subset=np.array([0.0, 1.0, 0.0])).class_to_subset.tolist() == [0, 1, 0]

    def test_report_csv_row(self):
        report = cluster.TapReport(tap="conv_last", silhouette=0.5, cluster_sizes=(2, 1, 3))
        assert report.csv_row() == "conv_last,0.5,1,3"


class TestSilhouette:
    def test_two_tight_far_clusters_score_high(self):
        rng = np.random.default_rng(0)
        points = np.concatenate([rng.normal(size=(10, 2)), 100 + rng.normal(size=(10, 2))])
        labels = np.repeat([0, 1], 10)
        assert cluster.silhouette_score(points, labels) > 0.95

    def test_single_cluster_scores_zero(self):
        assert cluster.silhouette_score(np.random.default_rng(1).normal(size=(5, 2)), np.zeros(5)) == 0.0

    def test_shuffled_labels_score_lower(self):
        rng = np.random.default_rng(2)
        points = np.concatenate([rng.normal(size=(12, 2)), 10 + rng.normal(size=(12, 2))])
        labels = np.repeat([0, 1], 12)
        shuffled = labels[rng.permutation(24)]
        assert cluster.silhouette_score(points, labels) > cluster.silhouette_score(points, shuffled)
