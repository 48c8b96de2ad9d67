import numpy as np
import pytest

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
        out = fusion.fuse_batch(np.array([[1.0, 0.0]]), np.array([[[0.0, 2.0], [3.0, 0.0]]]), np.array([0]))
        assert np.array_equal(out, [[1, 0, 0, 1, 0, 0]])

    def test_hand_computed_chosen_one(self):
        out = fusion.fuse_batch(np.array([[1.0, 0.0]]), np.array([[[0.0, 2.0], [3.0, 0.0]]]), np.array([1]))
        assert np.array_equal(out, [[1, 0, 0, 0, 1, 0]])

    def test_output_width(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            b, dg, k, ds = rng.integers(1, 4), rng.integers(1, 6), rng.integers(1, 5), rng.integers(1, 6)
            out = fusion.fuse_batch(
                rng.normal(size=(b, dg)), rng.normal(size=(b, k, ds)), rng.integers(0, k, size=b)
            )
            assert out.shape == (b, dg + k * ds)

    def test_exactly_one_nonzero_block(self):
        rng = np.random.default_rng(2)
        n, k, ds = 200, 4, 3
        chosen = rng.integers(0, k, size=n)
        out = fusion.fuse_batch(rng.normal(size=(n, 2)), rng.normal(size=(n, k, ds)), chosen)
        blocks = out[:, 2:].reshape(n, k, ds)
        for i in range(n):
            nonzero_blocks = [j for j in range(k) if np.any(blocks[i, j] != 0.0)]
            assert nonzero_blocks == [chosen[i]]

    def test_positive_scaling_invariance(self):
        rng = np.random.default_rng(3)
        base = rng.normal(size=(1, 4))
        feats = rng.normal(size=(1, 3, 5))
        chosen = np.array([1])
        ref = fusion.fuse_batch(base, feats, chosen)
        for scale in (0.25, 4.0, 3.7, 1e-3, 1e3):
            scaled = fusion.fuse_batch(scale * base, scale * feats, chosen)
            assert np.abs(scaled - ref).max() < 1e-12

    def test_fuse_batch_shape_checks(self):
        with pytest.raises(ShapeError):
            fusion.fuse_batch(np.zeros((3, 2)), np.zeros((4, 2, 2)), np.zeros(3, dtype=int))
        with pytest.raises(ContractError):
            fusion.fuse_batch(np.zeros((3, 2)), np.zeros((3, 2, 2)), np.array([0, 1, 2]))


def blobs(rng, centers, n, spread=0.4):
    x = np.concatenate([np.asarray(c) + spread * rng.normal(size=(n, len(c))) for c in centers])
    y = np.repeat(np.arange(len(centers)), n)
    return x, y


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
                obj = fusion.svm_objective(model.weights[c], model.biases[c], x, yc, model.lam)
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
        # 2-feature instance with the bias pinned at zero so the weight space
        # is exactly the 2-d plane the oracle sweeps
        rng = np.random.default_rng(4)
        x = rng.normal(size=(20, 2))
        y = rng.integers(0, 3, size=20)
        y[:3] = [0, 1, 2]
        lam = 0.1
        model = fusion.svm_train(x, y, lam=lam, epochs=2000, fit_bias=False)
        grid = np.linspace(-4.0, 4.0, 321)
        for c in range(3):
            yc = np.where(y == c, 1.0, -1.0)
            w1, w2 = np.meshgrid(grid, grid, indexing="ij")
            margins = yc[None, None, :] * (
                w1[..., None] * x[:, 0][None, None, :] + w2[..., None] * x[:, 1][None, None, :]
            )
            hinge = np.maximum(0.0, 1.0 - margins).mean(axis=-1)
            objective = hinge + 0.5 * lam * (w1**2 + w2**2)
            oracle = objective.min()
            got = fusion.svm_objective(model.weights[c], 0.0, x, yc, lam)
            assert got <= oracle * 1.02 + 1e-9
            assert got >= oracle * 0.98 - 1e-9

    def test_single_class_rejected(self):
        with pytest.raises(ContractError):
            fusion.svm_train(np.zeros((5, 2)), np.zeros(5, dtype=int))


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
        feats = rng.normal(size=(30, 2, 3))
        chosen = rng.integers(0, 2, size=30)
        fused = fusion.fuse_batch(base, feats, chosen)
        y = rng.integers(0, 2, size=30)
        y[:2] = [0, 1]
        model = fusion.svm_train(fused, y, lam=1e-2, epochs=80)
        scaled = fusion.fuse_batch(2.5 * base, 0.3 * feats, chosen)
        a, _ = fusion.svm_predict_batch(model, fused)
        b, _ = fusion.svm_predict_batch(model, scaled)
        assert np.array_equal(a, b)
