import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from subsetlearn import fusion
from subsetlearn.errors import ContractError, ShapeError


class TestL2Normalize:
    def test_three_four_five(self):
        assert np.allclose(fusion.l2_normalize_rows(np.array([[3.0, 4.0]])), [[0.6, 0.8]])

    def test_zero_vector_passes_through(self):
        out = fusion.l2_normalize_rows(np.zeros((1, 4)))
        assert np.array_equal(out, np.zeros((1, 4)))

    def test_unit_norm_output(self):
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(50, 7)) * 10.0 ** rng.integers(-3, 4, size=(50, 1)).astype(float)
        norms = np.linalg.norm(fusion.l2_normalize_rows(rows), axis=1)
        assert np.abs(norms - 1.0).max() < 1e-9


class TestFuse:
    def test_hand_computed_chosen_zero(self):
        out = fusion.fuse_batch(np.array([[1.0, 0.0]]), np.array([[0.0, 2.0]]), np.array([0]), 2)
        assert np.array_equal(out, [[1, 0, 0, 1, 0, 0]])

    def test_hand_computed_chosen_one(self):
        out = fusion.fuse_batch(np.array([[1.0, 0.0]]), np.array([[3.0, 0.0]]), np.array([1]), 2)
        assert np.array_equal(out, [[1, 0, 0, 0, 1, 0]])

    def test_output_width(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            b, dg, k, ds = rng.integers(1, 4), rng.integers(1, 6), rng.integers(1, 5), rng.integers(1, 6)
            out = fusion.fuse_batch(
                rng.normal(size=(b, dg)), rng.normal(size=(b, ds)), rng.integers(0, k, size=b), k
            )
            assert out.shape == (b, dg + k * ds)

    def test_exactly_one_nonzero_block(self):
        rng = np.random.default_rng(2)
        n, k, ds = 200, 4, 3
        chosen = rng.integers(0, k, size=n)
        feats = rng.normal(size=(n, ds))
        out = fusion.fuse_batch(rng.normal(size=(n, 2)), feats, chosen, k)
        blocks = out[:, 2:].reshape(n, k, ds)
        for i in range(n):
            nonzero_blocks = [j for j in range(k) if np.any(blocks[i, j] != 0.0)]
            assert nonzero_blocks == [chosen[i]]
        assert np.array_equal(blocks[np.arange(n), chosen], fusion.l2_normalize_rows(feats))

    def test_positive_scaling_invariance(self):
        rng = np.random.default_rng(3)
        base = rng.normal(size=(1, 4))
        feats = rng.normal(size=(1, 5))
        chosen = np.array([1])
        ref = fusion.fuse_batch(base, feats, chosen, 3)
        for scale in (0.25, 4.0, 3.7, 1e-3, 1e3):
            scaled = fusion.fuse_batch(scale * base, scale * feats, chosen, 3)
            assert np.abs(scaled - ref).max() < 1e-12

    def test_fuse_batch_shape_checks(self):
        with pytest.raises(ShapeError):
            fusion.fuse_batch(np.zeros((3, 2)), np.zeros((4, 2)), np.zeros(3, dtype=int), 2)
        with pytest.raises(ShapeError):
            fusion.fuse_batch(np.zeros((3, 2)), np.zeros((3, 2, 2)), np.zeros(3, dtype=int), 2)
        with pytest.raises(ContractError):
            fusion.fuse_batch(np.zeros((3, 2)), np.zeros((3, 2)), np.array([0, 1, 2]), 2)


def blobs(rng, centers, n, spread=0.4):
    x = np.concatenate([np.asarray(c) + spread * rng.normal(size=(n, len(c))) for c in centers])
    y = np.repeat(np.arange(len(centers)), n)
    return x, y


def svm_objective(w: np.ndarray, b: float, features: np.ndarray, y: np.ndarray, lam: float) -> float:
    """Regularized mean hinge for one binary problem with labels in {-1, +1}.
    The bias is unregularized."""
    margins = y * (features @ w + b)
    return float(np.maximum(0.0, 1.0 - margins).mean() + 0.5 * lam * (w @ w))


def reference_svm_train(features, labels, lam, epochs):
    """Reference solver for ``TestSvmOracle``: the same algorithm with
    row-major scores, a separate bias update and a third product for the
    averaged iterate."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels).astype(np.int64)
    c = np.unique(labels).size
    n, d = features.shape

    y = np.where(labels[:, None] == np.arange(c)[None, :], 1.0, -1.0)  # (N, C)
    w = np.zeros((c, d))
    bias = np.zeros(c)
    w_sum = np.zeros((c, d))
    b_sum = np.zeros(c)
    radius = 1.0 / np.sqrt(lam)

    best_w = np.zeros((c, d))
    best_b = np.zeros(c)
    best_obj = np.full(c, 1.0)  # objective of the zero model: mean hinge is exactly 1

    checkpoints = tuple(sorted({1, max(1, epochs // 2), epochs}))
    recorded = np.zeros((len(checkpoints), c))
    for t in range(1, epochs + 1):
        eta = 1.0 / (1.0 + lam * t)
        margins = y * (features @ w.T + bias)  # (N, C)
        viol = (margins < 1.0).astype(np.float64)
        grad_w = lam * w - ((y * viol).T @ features) / n
        w = w - eta * grad_w
        norms = np.sqrt((w * w).sum(axis=1))
        over = norms > radius
        if np.any(over):
            w[over] *= (radius / norms[over])[:, None]
        bias = bias + eta * (y * viol).sum(axis=0) / n
        w_sum += w
        b_sum += bias
        avg_w = w_sum / t
        avg_b = b_sum / t
        avg_margins = y * (features @ avg_w.T + avg_b)
        hinge = np.maximum(0.0, 1.0 - avg_margins).mean(axis=0)
        obj = hinge + 0.5 * lam * (avg_w * avg_w).sum(axis=1)
        better = obj < best_obj
        if np.any(better):
            best_obj = np.where(better, obj, best_obj)
            best_w[better] = avg_w[better]
            best_b[better] = avg_b[better]
        if t in checkpoints:
            recorded[checkpoints.index(t)] = best_obj
    return fusion.SvmModel(
        weights=best_w,
        biases=best_b,
        lam=float(lam),
        checkpoint_epochs=checkpoints,
        checkpoint_objectives=recorded,
    )


def oracle_problem(seed, n, d, c, scale):
    """n Gaussian rows of width d times scale; labels cover all c classes."""
    rng = np.random.default_rng(seed)
    return scale * rng.normal(size=(n, d)), rng.permutation(np.arange(n) % c)


# problems whose first step leaves the ball of radius 1/sqrt(lam) at lam = 10
# and feature scale 10, so the projection binds
BINDING = (dict(seed=2, c=12, extra_rows=48, d=16), dict(seed=3, c=2, extra_rows=20, d=6))


class TestSvmTrain:
    def test_separable_reaches_full_accuracy(self):
        rng = np.random.default_rng(0)
        x, y = blobs(rng, [[0, 0], [4, 0], [0, 4]], 30)
        model = fusion.svm_train(x, y, lam=1e-4, epochs=200)
        pred, _ = fusion.svm_predict_batch(model, x)
        assert (pred == y).mean() == 1.0

    def test_huge_lambda_shrinks_weights(self):
        rng = np.random.default_rng(1)
        x, y = blobs(rng, [[0, 0], [3, 3]], 20)
        model = fusion.svm_train(x, y, lam=1e6, epochs=60)
        assert np.sqrt((model.weights**2).sum(axis=1)).max() < 1e-2

    def test_final_objective_never_worse_than_zero_model(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            x = rng.normal(size=(30, 4))
            y = rng.integers(0, 3, size=30)
            if len(np.unique(y)) < 3:
                continue
            model = fusion.svm_train(x, y, lam=1e-4, epochs=50)
            for c in range(3):
                yc = np.where(y == c, 1.0, -1.0)
                obj = svm_objective(model.weights[c], model.biases[c], x, yc, model.lam)
                assert obj <= 1.0 + 1e-12

    def test_checkpoint_objectives_non_increasing(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(40, 5))
        y = rng.integers(0, 4, size=40)
        model = fusion.svm_train(x, y, lam=1e-3, epochs=120)
        assert model.checkpoint_epochs == (1, 60, 120)
        diffs = np.diff(model.checkpoint_objectives, axis=0)
        assert np.all(diffs <= 1e-9)

    def test_matches_grid_search_oracle(self):
        # 2-feature instance: the oracle sweeps the 2-d weight plane and, per
        # grid point, minimizes the bias exactly.  For fixed w the objective
        # is convex and piecewise linear in b, so its minimum lies at one of
        # the n breakpoints b = y_i - w.x_i.
        rng = np.random.default_rng(4)
        x = rng.normal(size=(20, 2))
        y = rng.integers(0, 3, size=20)
        y[:3] = [0, 1, 2]
        lam = 0.1
        model = fusion.svm_train(x, y, lam=lam, epochs=2000)
        grid = np.linspace(-4.0, 4.0, 321)
        w1, w2 = np.meshgrid(grid, grid, indexing="ij")
        scores = w1[..., None] * x[:, 0][None, None, :] + w2[..., None] * x[:, 1][None, None, :]
        for c in range(3):
            yc = np.where(y == c, 1.0, -1.0)
            hinge = np.full(w1.shape, np.inf)
            for i in range(x.shape[0]):  # one breakpoint at a time keeps the arrays 3-d
                b = yc[i] - scores[..., i]
                margins = yc[None, None, :] * (scores + b[..., None])
                hinge = np.minimum(hinge, np.maximum(0.0, 1.0 - margins).mean(axis=-1))
            objective = hinge + 0.5 * lam * (w1**2 + w2**2)
            oracle = objective.min()
            got = svm_objective(model.weights[c], model.biases[c], x, yc, lam)
            assert got <= oracle * 1.02 + 1e-9
            assert got >= oracle * 0.98 - 1e-9

    def test_single_class_rejected(self):
        with pytest.raises(ContractError):
            fusion.svm_train(np.zeros((5, 2)), np.zeros(5, dtype=int))

    def test_fractional_labels_rejected(self):
        rng = np.random.default_rng(8)
        x, y = blobs(rng, [[0, 0], [4, 0], [0, 4]], 10)
        with pytest.raises(ContractError, match="integers"):
            fusion.svm_train(x, y + 0.7)
        assert fusion.svm_train(x, y.astype(np.float64), epochs=5).weights.shape == (3, 2)

    def test_non_finite_feature_rejected_with_its_row(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(30, 4))
        y = np.arange(30) % 3
        for bad in (np.nan, np.inf, -np.inf):
            x_bad = x.copy()
            x_bad[17, 2] = bad
            with pytest.raises(ContractError, match="row 17 "):
                fusion.svm_train(x_bad, y)


class TestSvmOracle:
    """``svm_train`` agrees with ``reference_svm_train`` to rounding."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        c=st.integers(2, 12),
        extra_rows=st.integers(0, 40),
        d=st.integers(1, 16),
        lam=st.sampled_from([1e-4, 1e-2, 1.0, 10.0]),
        scale=st.sampled_from([0.1, 1.0, 10.0]),
        epochs=st.integers(1, 60),
    )
    @example(seed=0, c=2, extra_rows=30, d=5, lam=1e-4, scale=1.0, epochs=200)
    @example(seed=1, c=12, extra_rows=48, d=16, lam=1e-4, scale=1.0, epochs=200)
    @example(**BINDING[0], lam=10.0, scale=10.0, epochs=60)
    @example(**BINDING[1], lam=10.0, scale=10.0, epochs=60)
    def test_matches_reference(self, seed, c, extra_rows, d, lam, scale, epochs):
        x, y = oracle_problem(seed, c + extra_rows, d, c, scale)
        got = fusion.svm_train(x, y, lam=lam, epochs=epochs)
        want = reference_svm_train(x, y, lam, epochs)
        np.testing.assert_allclose(got.weights, want.weights, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.biases, want.biases, rtol=0, atol=1e-12)
        assert got.checkpoint_epochs == want.checkpoint_epochs
        np.testing.assert_allclose(got.checkpoint_objectives, want.checkpoint_objectives, rtol=0, atol=1e-12)
        assert np.array_equal(fusion.svm_predict_batch(got, x)[0], fusion.svm_predict_batch(want, x)[0])
        for k in range(c):
            yk = np.where(y == k, 1.0, -1.0)
            objective = svm_objective(got.weights[k], got.biases[k], x, yk, lam)
            assert abs(got.checkpoint_objectives[-1, k] - objective) <= 1e-12

    @pytest.mark.parametrize("case", BINDING)
    def test_binding_examples_leave_the_ball_at_the_first_step(self, case):
        # at t = 1 every margin is 0, so the unprojected step is eta * Y^T X / n
        lam, c = 10.0, case["c"]
        x, y = oracle_problem(case["seed"], c + case["extra_rows"], case["d"], c, 10.0)
        y_pm = np.where(y[:, None] == np.arange(c), 1.0, -1.0)
        step = (y_pm.T @ x) / x.shape[0] / (1.0 + lam)
        assert np.linalg.norm(step, axis=1).max() > 1.0 / np.sqrt(lam)


class TestSvmPredict:
    def test_zero_model_ties_to_class_zero(self):
        model = fusion.SvmModel(
            weights=np.zeros((3, 2)),
            biases=np.zeros(3),
            lam=1.0,
            checkpoint_epochs=(1,),
            checkpoint_objectives=np.ones((1, 3)),
        )
        cls, scores = fusion.svm_predict_batch(model, np.array([[1.0, 2.0]]))
        assert cls.tolist() == [0]
        assert np.array_equal(scores, np.zeros((1, 3)))

    def test_hand_built_model(self):
        model = fusion.SvmModel(
            weights=np.array([[1.0, 0.0], [0.0, 1.0]]),
            biases=np.zeros(2),
            lam=1.0,
            checkpoint_epochs=(1,),
            checkpoint_objectives=np.ones((1, 2)),
        )
        cls, scores = fusion.svm_predict_batch(model, np.array([[2.0, 1.0], [1.0, 3.0]]))
        assert cls.tolist() == [0, 1]
        assert np.array_equal(scores, [[2.0, 1.0], [1.0, 3.0]])

    def test_zero_padding_invariance(self):
        rng = np.random.default_rng(5)
        x, y = blobs(rng, [[0, 0], [3, 1]], 15)
        model = fusion.svm_train(x, y, lam=1e-2, epochs=100)
        padded = fusion.SvmModel(
            weights=np.concatenate([model.weights, np.zeros((2, 1))], axis=1),
            biases=model.biases,
            lam=model.lam,
            checkpoint_epochs=model.checkpoint_epochs,
            checkpoint_objectives=model.checkpoint_objectives,
        )
        a, _ = fusion.svm_predict_batch(model, x)
        b, _ = fusion.svm_predict_batch(padded, np.concatenate([x, np.zeros((x.shape[0], 1))], axis=1))
        assert np.array_equal(a, b)

    def test_common_bias_shift_keeps_argmax(self):
        rng = np.random.default_rng(6)
        x, y = blobs(rng, [[0, 0], [3, 1], [1, 4]], 10)
        model = fusion.svm_train(x, y, lam=1e-2, epochs=100)
        shifted = fusion.SvmModel(
            weights=model.weights,
            biases=model.biases + 13.7,
            lam=model.lam,
            checkpoint_epochs=model.checkpoint_epochs,
            checkpoint_objectives=model.checkpoint_objectives,
        )
        assert np.array_equal(fusion.svm_predict_batch(model, x)[0], fusion.svm_predict_batch(shifted, x)[0])

    def test_width_mismatch(self):
        model = fusion.SvmModel(
            weights=np.zeros((2, 3)),
            biases=np.zeros(2),
            lam=1.0,
            checkpoint_epochs=(1,),
            checkpoint_objectives=np.ones((1, 2)),
        )
        with pytest.raises(ShapeError):
            fusion.svm_predict_batch(model, np.zeros((1, 4)))

    def test_scaling_before_fuse_keeps_svm_argmax(self):
        rng = np.random.default_rng(7)
        base = rng.normal(size=(30, 3))
        feats = rng.normal(size=(30, 3))
        chosen = rng.integers(0, 2, size=30)
        fused = fusion.fuse_batch(base, feats, chosen, 2)
        y = rng.integers(0, 2, size=30)
        y[:2] = [0, 1]
        model = fusion.svm_train(fused, y, lam=1e-2, epochs=80)
        scaled = fusion.fuse_batch(2.5 * base, 0.3 * feats, chosen, 2)
        a, _ = fusion.svm_predict_batch(model, fused)
        b, _ = fusion.svm_predict_batch(model, scaled)
        assert np.array_equal(a, b)

    def test_scores_do_not_depend_on_batch_mates(self):
        # eval-k6's sizes: 24 classes on 448-wide fused rows
        rng = np.random.default_rng(8)
        model = fusion.SvmModel(
            weights=rng.normal(size=(24, 448)),
            biases=rng.normal(size=24),
            lam=1.0,
            checkpoint_epochs=(1,),
            checkpoint_objectives=np.ones((1, 24)),
        )
        x = rng.normal(size=(2400, 448))
        preds, scores = fusion.svm_predict_batch(model, x)
        for start, m in [(0, 1), (1234, 1), (2399, 1), (0, 7), (1000, 7), (2393, 7)]:
            got_preds, got_scores = fusion.svm_predict_batch(model, x[start : start + m])
            assert got_scores.tobytes() == scores[start : start + m].tobytes()
            assert np.array_equal(got_preds, preds[start : start + m])
