import math
import threading
import tracemalloc

import numpy as np
import pytest

from subsetlearn import convnet
from subsetlearn.convnet import (
    Conv,
    Fc,
    Flatten,
    LayerParams,
    MaxPool,
    NetParams,
    NetSpec,
    Relu,
    Softmax,
    Tap,
    TrainConfig,
)
from subsetlearn.errors import ContractError, ShapeError
from subsetlearn.numkit import Rng


def tiny_spec(class_count=3):
    return NetSpec(
        layers=(
            Conv(2, 3, 1),
            Relu(),
            MaxPool(2, 2),
            Conv(3, 2, 1),
            Relu(),
            Flatten(),
            Fc(5),
            Relu(),
            Fc(class_count),
            Softmax(),
        ),
        input_shape=(2, 8, 8),
    )


def strided_spec(class_count=3):
    """A stride-2 conv, then an overlapping 3x3/2 max-pool that crops the last
    row and column of its 6x6 input."""
    return NetSpec(
        layers=(
            Conv(2, 3, 2),
            Relu(),
            MaxPool(3, 2),
            Conv(3, 2, 1),
            Relu(),
            Flatten(),
            Fc(5),
            Relu(),
            Fc(class_count),
            Softmax(),
        ),
        input_shape=(2, 13, 13),
    )


def paired_stride_spec(class_count=3):
    """A 2x2 stride-2 conv with 4 outputs over an even output width, then a
    2x2 conv over an even one: inference pairs the output columns of both."""
    return NetSpec(
        layers=(
            Conv(4, 2, 2),
            Relu(),
            MaxPool(2, 2),
            Conv(3, 2, 1),
            Relu(),
            Flatten(),
            Fc(5),
            Relu(),
            Fc(class_count),
            Softmax(),
        ),
        input_shape=(2, 12, 12),
    )


def params_equal(a: NetParams, b: NetParams) -> bool:
    for la, lb in zip(a.layers, b.layers):
        if (la is None) != (lb is None):
            return False
        if la is not None:
            if not np.array_equal(la.weight, lb.weight) or not np.array_equal(la.bias, lb.bias):
                return False
    return True


def grad_bytes(grads: NetParams) -> list:
    return [None if g is None else (g.weight.tobytes(), g.bias.tobytes()) for g in grads.layers]


def nhwc(a):
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1))


def nchw(a):
    return a.transpose(0, 3, 1, 2)


def relu_pool_spec(k, stride, size=8):
    """An identity 1x1 conv that hands the input to relu -> max-pool unchanged."""
    spec = NetSpec(
        layers=(Conv(2, 1, 1), Relu(), MaxPool(k, stride), Flatten(), Fc(3), Fc(2), Softmax()),
        input_shape=(2, size, size),
    )
    layers = list(convnet.init_params(spec, Rng(0)).layers)
    layers[0] = LayerParams(np.eye(2).reshape(2, 2, 1, 1), np.zeros(2))
    return spec, NetParams(tuple(layers))


def tied_batch(rows, size=8):
    """Small integers with many ties, at zero too; the first 3 images add
    all-negative windows, a channel of tied negative maxima and windows tied
    at a positive and at a zero max."""
    big = Rng(1).integers(-3, 3, (rows, 2, size, size)).astype(float)
    x = big[:3]
    x[0, :, :5, :5] = -1.0 - Rng(2).integers(0, 4, (2, 5, 5))
    x[1, 1] = -2.0
    x[2, 0, :, ::2] = 2.0
    x[2, 1] = -1.0
    x[2, 1, ::2, ::2] = 0.0
    return big


def reference_loss_and_grads(spec, params, batch, labels):
    """loss_and_grads' loss and gradients from Layer.forward and
    Layer.backward run in spec order on the uncropped batch."""
    x = nhwc(batch)
    caches = []
    for layer, lp in zip(spec.layers, params.layers):
        logits = x
        x, cache = layer.forward(x, lp)
        caches.append(cache)
    n = batch.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1)) + logits.max(axis=1)
    loss = float(np.mean(logsumexp - logits[np.arange(n), labels]))
    grad = x.copy()
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    grads = [None] * len(spec.layers)
    for i in reversed(range(len(spec.layers))):
        grad, grads[i] = spec.layers[i].backward(grad, caches[i], params.layers[i], i > 0)
    return loss, NetParams(tuple(grads))


def reference_train(spec, params, images, labels, cfg, freeze_below=None):
    """convnet.train's SGD as a loop over each trained array, on copies of
    params, driving convnet.loss_and_grads itself."""
    current = params.map(np.copy)
    velocity = params.map(np.zeros_like)
    rng = Rng(cfg.seed)
    n = images.shape[0]
    history = []
    for epoch in range(cfg.epochs):
        lr = cfg.lr_at(epoch)
        order = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss, grads = convnet.loss_and_grads(spec, current, images[idx], labels[idx], freeze_below)
            loss_sum += loss * idx.size
            for i, lp in enumerate(current.layers):
                if lp is None or i < (freeze_below or 0):
                    continue
                vp, gp = velocity.layers[i], grads.layers[i]
                for p, v, g in ((lp.weight, vp.weight, gp.weight), (lp.bias, vp.bias, gp.bias)):
                    v *= convnet.MOMENTUM
                    v += g + convnet.WEIGHT_DECAY * p
                    p -= lr * v
        history.append(loss_sum / n)
    return current, history


class TestSpecValidation:
    def test_default_spec_shapes(self):
        spec = convnet.default_spec((3, 16, 16), 12)
        shapes = spec.layer_shapes
        assert shapes[0] == (8, 14, 14)
        assert shapes[2] == (8, 7, 7)
        assert shapes[3] == (16, 5, 5)
        assert shapes[5] == (16, 2, 2)
        assert spec.tap_dim(Tap.CONV_LAST) == 64
        assert spec.tap_dim(Tap.FC_PENULTIMATE) == 64
        assert spec.tap_dim(Tap.HEAD) == 12

    def test_softmax_must_be_last(self):
        with pytest.raises(ContractError):
            NetSpec(
                layers=(Conv(1, 3), Flatten(), Fc(4), Softmax(), Fc(3)),
                input_shape=(1, 8, 8),
            )

    def test_too_small_input_rejected(self):
        with pytest.raises(ShapeError):
            NetSpec(
                layers=(Conv(1, 5), Flatten(), Fc(4), Fc(2), Softmax()),
                input_shape=(1, 4, 4),
            )


class TestInit:
    def test_deterministic(self):
        spec = tiny_spec()
        assert params_equal(convnet.init_params(spec, Rng(9)), convnet.init_params(spec, Rng(9)))

    def test_fc_shapes(self):
        spec = NetSpec(
            layers=(Conv(1, 3), Relu(), Flatten(), Fc(4), Relu(), Fc(3), Softmax()),
            input_shape=(1, 5, 5),
        )
        params = convnet.init_params(spec, Rng(0))
        head = params.layers[5]
        assert head.weight.shape == (3, 4)
        assert head.bias.shape == (3,)
        assert np.all(head.bias == 0.0)

    def test_fan_in_variance(self):
        spec = NetSpec(
            layers=(Conv(1, 3), Relu(), Flatten(), Fc(256), Relu(), Fc(256), Softmax()),
            input_shape=(1, 18, 18),
        )
        params = convnet.init_params(spec, Rng(5))
        block = params.layers[5].weight  # 256 x 256 fc
        var = block.var()
        assert 1.0 / 256 / 1.5 < var < 1.0 / 256 * 1.5


class TestForward:
    def test_head_rows_sum_to_one(self):
        spec = tiny_spec()
        params = convnet.init_params(spec, Rng(1))
        x = Rng(2).normal((6, 2, 8, 8))
        out = convnet.forward(spec, params, x, Tap.HEAD)
        assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-9
        assert np.all((out > 0.0) & (out < 1.0))

    def test_zero_weight_conv_tap_is_zero(self):
        spec = tiny_spec()
        params = convnet.init_params(spec, Rng(1)).map(np.zeros_like)
        out = convnet.forward(spec, params, Rng(3).normal((2, 2, 8, 8)), Tap.CONV_LAST)
        assert np.all(out == 0.0)

    def test_one_by_one_conv_is_affine(self):
        # conv layer kernel: y = w * x + b computed by hand
        x = np.full((1, 1, 1, 1), 3.0)
        w = np.full((1, 1, 1, 1), 2.0)
        b = np.array([1.0])
        y, _ = Conv(1, 1).forward(x, LayerParams(w, b))
        assert y[0, 0, 0, 0] == 7.0

    def test_conv_tap_applies_affine_through_net(self):
        spec = NetSpec(
            layers=(Conv(1, 1), Relu(), Flatten(), Fc(2), Relu(), Fc(2), Softmax()),
            input_shape=(1, 2, 2),
        )
        params = convnet.init_params(spec, Rng(0))
        layers = list(params.layers)
        layers[0] = LayerParams(np.full((1, 1, 1, 1), 2.0), np.array([1.0]))
        params = NetParams(tuple(layers))
        x = np.full((1, 1, 2, 2), 3.0)
        out = convnet.forward(spec, params, x, Tap.CONV_LAST)
        assert np.all(out == 7.0)

    def test_forward_is_pure(self):
        spec = tiny_spec()
        params = convnet.init_params(spec, Rng(4))
        x = Rng(5).normal((3, 2, 8, 8))
        assert np.array_equal(convnet.forward(spec, params, x), convnet.forward(spec, params, x))

    def test_softmax_large_logits(self):
        z = Rng(6).normal((40, 7), scale=25.0)
        z = np.clip(z, -50, 50)
        p, _ = Softmax().forward(z, None)
        assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-9

    def test_shape_mismatch(self):
        spec = tiny_spec()
        params = convnet.init_params(spec, Rng(1))
        with pytest.raises(ShapeError):
            convnet.forward(spec, params, np.zeros((2, 2, 9, 8)))

    def test_forward_runs_only_up_to_the_tap(self):
        # a head the forward never reaches cannot break it
        spec = tiny_spec()
        layers = list(convnet.init_params(spec, Rng(1)).layers)
        layers[spec.head_index()] = LayerParams(np.zeros((2, 2)), np.zeros(2))
        params = NetParams(tuple(layers))
        x = Rng(2).normal((3, 2, 8, 8))
        assert convnet.forward(spec, params, x, Tap.FC_PENULTIMATE).shape == (3, 5)
        assert convnet.forward(spec, params, x, Tap.CONV_LAST).shape == (3, spec.tap_dim(Tap.CONV_LAST))
        with pytest.raises(ValueError):
            convnet.forward(spec, params, x, Tap.HEAD)


class TestLossAndGrads:
    def test_uniform_predictions_loss_is_log_c(self):
        spec = tiny_spec(class_count=3)
        params = convnet.init_params(spec, Rng(1)).map(np.zeros_like)
        x = Rng(2).normal((4, 2, 8, 8))
        loss, _ = convnet.loss_and_grads(spec, params, x, np.array([0, 1, 2, 0]))
        assert abs(loss - math.log(3)) < 1e-12

    @pytest.mark.parametrize("make_spec", [tiny_spec, strided_spec], ids=["tiny", "strided"])
    def test_gradients_match_finite_differences(self, make_spec):
        spec = make_spec()
        params = convnet.init_params(spec, Rng(7))
        x = Rng(11).normal((4,) + spec.input_shape)
        y = np.array([0, 1, 2, 1])
        _, grads = convnet.loss_and_grads(spec, params, x, y)
        h = 1e-5
        rng = np.random.default_rng(0)
        for li, lp in enumerate(params.layers):
            if lp is None:
                continue
            for attr in ("weight", "bias"):
                arr = getattr(lp, attr)
                g = getattr(grads.layers[li], attr)
                flat = arr.reshape(-1)
                for idx in rng.choice(flat.size, size=min(10, flat.size), replace=False):
                    orig = flat[idx]
                    flat[idx] = orig + h
                    up, _ = convnet.loss_and_grads(spec, params, x, y)
                    flat[idx] = orig - h
                    down, _ = convnet.loss_and_grads(spec, params, x, y)
                    flat[idx] = orig
                    fd = (up - down) / (2 * h)
                    ga = g.reshape(-1)[idx]
                    assert abs(fd - ga) / max(abs(fd), abs(ga), 1e-8) < 1e-4

    def test_frozen_layers_get_zero_grads(self):
        spec = tiny_spec()
        params = convnet.init_params(spec, Rng(7))
        x = Rng(8).normal((3, 2, 8, 8))
        _, grads = convnet.loss_and_grads(spec, params, x, np.array([0, 1, 2]), freeze_below=4)
        for i in range(4):
            if grads.layers[i] is not None:
                assert np.all(grads.layers[i].weight == 0.0)
                assert np.all(grads.layers[i].bias == 0.0)
        assert np.any(grads.layers[6].weight != 0.0)

    @pytest.mark.parametrize("freeze_below", range(len(strided_spec().layers) + 2))
    def test_frozen_gradients_match_unfrozen_ones(self, freeze_below):
        spec = strided_spec()
        params = convnet.init_params(spec, Rng(7))
        x = Rng(8).normal((5,) + spec.input_shape)
        y = np.array([0, 1, 2, 1, 0])
        loss, full = convnet.loss_and_grads(spec, params, x, y)
        frozen_loss, frozen = convnet.loss_and_grads(spec, params, x, y, freeze_below=freeze_below)
        assert frozen_loss == loss
        for i, (g, f) in enumerate(zip(full.layers, frozen.layers)):
            if g is None:
                assert f is None
            elif i < freeze_below:
                assert np.all(f.weight == 0.0) and np.all(f.bias == 0.0)
            else:
                assert np.array_equal(f.weight, g.weight) and np.array_equal(f.bias, g.bias)

    @pytest.mark.parametrize("freeze_below,col2im_calls", [(None, 1), (1, 1), (3, 0), (4, 0)])
    def test_no_input_gradient_below_the_lowest_trained_layer(self, monkeypatch, freeze_below, col2im_calls):
        # tiny_spec has convs at 0 and 3: the lowest trained layer needs no
        # input gradient, and nothing below it is back-propagated
        calls = []
        col2im = convnet._col2im
        monkeypatch.setattr(convnet, "_col2im", lambda *a: calls.append(1) or col2im(*a))
        spec = tiny_spec()
        params = convnet.init_params(spec, Rng(7))
        convnet.loss_and_grads(spec, params, Rng(8).normal((3, 2, 8, 8)), np.array([0, 1, 2]), freeze_below)
        assert len(calls) == col2im_calls

    def test_cropped_pixels_are_never_read(self, monkeypatch):
        spec = convnet.default_spec((3, 16, 16), 12)
        params = convnet.init_params(spec, Rng(5))
        x = Rng(15).normal((7,) + spec.input_shape)
        y = np.arange(7) % spec.class_count
        dirty = x.copy()
        dirty[:, :, 14:] = np.nan
        dirty[:, :, :, 14:] = np.nan
        conv_inputs = []
        conv_forward = Conv.forward

        def recording(self, z, lp):
            conv_inputs.append(z.shape)
            return conv_forward(self, z, lp)

        monkeypatch.setattr(Conv, "forward", recording)
        loss, grads = convnet.loss_and_grads(spec, params, x, y)
        assert conv_inputs == [(7, 14, 14, 3), (7, 6, 6, 8)]
        dirty_loss, dirty_grads = convnet.loss_and_grads(spec, params, dirty, y)
        assert np.float64(dirty_loss).tobytes() == np.float64(loss).tobytes()
        assert grad_bytes(dirty_grads) == grad_bytes(grads)

    @pytest.mark.parametrize(
        "pool", [None, (2, 2, 8), (3, 2, 9), "wide-logits"], ids=["tiny", "disjoint-2-2", "overlapping-3-2", "wide-logits"]
    )
    def test_inference_order_matches_the_spec_order_reference(self, monkeypatch, pool):
        # the crop drops nothing here, so relu after the pool and the
        # disjoint-window backward are all that differ from the reference;
        # the loss from the softmax's own max and exp-sum must equal the
        # reference's two-pass logsumexp, also where exp underflows
        if pool in (None, "wide-logits"):
            spec = tiny_spec()
            params = convnet.init_params(spec, Rng(7))
            x = Rng(8).normal((6,) + spec.input_shape)
            if pool == "wide-logits":
                head = spec.head_index()
                layers = list(params.layers)
                layers[head] = LayerParams(3e3 * params.layers[head].weight, params.layers[head].bias)
                params = NetParams(tuple(layers))
                logits = training_activations(spec, params, x)[head + 1]
                assert (logits.max(axis=1) - logits.min(axis=1)).max() > 700
        else:
            k, stride, size = pool
            spec, params = relu_pool_spec(k, stride, size)
            x = tied_batch(32, size)
            pooled = MaxPool(k, stride).forward(nhwc(x[:3]), None)[0]
            assert (pooled < 0).any() and (pooled == 0).any()
        assert spec.input_extent == spec.input_shape[1:]
        y = np.arange(x.shape[0]) % spec.class_count
        ref_loss, ref_grads = reference_loss_and_grads(spec, params, x, y)
        relu_inputs = []
        relu_forward = Relu.forward

        def recording(self, z, lp):
            relu_inputs.append(z.shape)
            return relu_forward(self, z, lp)

        monkeypatch.setattr(Relu, "forward", recording)
        loss, grads = convnet.loss_and_grads(spec, params, x, y)
        c, h, w = spec.layer_shapes[2]  # relu at 1 runs on the output of the pool at 2
        assert relu_inputs[0] == (x.shape[0], h, w, c)
        assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
        assert grad_bytes(grads) == grad_bytes(ref_grads)

    def test_out_of_range_label(self):
        spec = tiny_spec(class_count=3)
        params = convnet.init_params(spec, Rng(1))
        with pytest.raises(ContractError):
            convnet.loss_and_grads(spec, params, np.zeros((1, 2, 8, 8)), np.array([3]))


def conv_oracle(x, w, b, stride, dy):
    """Explicit-loop conv on (B, C, H, W): output, and dx, dw, db for dy."""
    n, c, h, wd = x.shape
    o, _, k, _ = w.shape
    ho, wo = (h - k) // stride + 1, (wd - k) // stride + 1
    y = np.zeros((n, o, ho, wo))
    dx, dw, db = np.zeros_like(x), np.zeros_like(w), np.zeros_like(b)
    for bi in range(n):
        for oi in range(o):
            for r in range(ho):
                for q in range(wo):
                    patch = x[bi, :, r * stride : r * stride + k, q * stride : q * stride + k]
                    y[bi, oi, r, q] = np.sum(patch * w[oi]) + b[oi]
                    g = dy[bi, oi, r, q]
                    dw[oi] += g * patch
                    db[oi] += g
                    dx[bi, :, r * stride : r * stride + k, q * stride : q * stride + k] += g * w[oi]
    return y, dx, dw, db


def maxpool_oracle(x, k, stride, dy):
    """Explicit-loop max-pool on (B, C, H, W): output, and dx for dy, each
    gradient going to the window's argmax (its first max in row-major order)."""
    n, c, h, w = x.shape
    ho, wo = (h - k) // stride + 1, (w - k) // stride + 1
    y = np.zeros((n, c, ho, wo))
    dx = np.zeros_like(x)
    for bi in range(n):
        for ci in range(c):
            for r in range(ho):
                for q in range(wo):
                    window = x[bi, ci, r * stride : r * stride + k, q * stride : q * stride + k]
                    i, j = divmod(int(np.argmax(window)), k)
                    y[bi, ci, r, q] = window[i, j]
                    dx[bi, ci, r * stride + i, q * stride + j] += dy[bi, ci, r, q]
    return y, dx


class TestKernels:
    # output widths 4, 3, 4, 5 and 4: infer pairs the output columns of the
    # even ones, including a stride above the kernel, whose windows leave gaps
    @pytest.mark.parametrize(
        "k,stride,h,w", [(3, 2, 11, 9), (2, 2, 9, 7), (3, 1, 7, 6), (3, 1, 6, 7), (2, 3, 8, 11)]
    )
    def test_conv_matches_loop_oracle(self, k, stride, h, w):
        rng = np.random.default_rng(k * 100 + h)
        x = rng.normal(size=(3, 4, h, w))
        lp = LayerParams(rng.normal(size=(5, 4, k, k)), rng.normal(size=5))
        layer = Conv(5, k, stride)
        y, cache = layer.forward(nhwc(x), lp)
        dy = rng.normal(size=nchw(y).shape)
        ref_y, ref_dx, ref_dw, ref_db = conv_oracle(x, lp.weight, lp.bias, stride, dy)
        dx, grads = layer.backward(nhwc(dy), cache, lp, True)
        np.testing.assert_allclose(nchw(y), ref_y, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(nchw(layer.infer(nhwc(x), lp)), ref_y, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(nchw(dx), ref_dx, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(grads.weight, ref_dw, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(grads.bias, ref_db, rtol=1e-12, atol=1e-12)
        assert layer.backward(nhwc(dy), cache, lp, False)[0] is None

    @pytest.mark.parametrize("k,stride", [(3, 1), (2, 2)])
    def test_conv_reads_a_non_contiguous_view_like_its_copy(self, k, stride):
        # a channels-last view of a sliced, cropped NCHW batch; both output
        # widths are even, so infer pairs its rows
        rng = np.random.default_rng(k)
        batch = rng.normal(size=(6, 3, 12, 11))
        view = batch[::2, :, 1:, :-1].transpose(0, 2, 3, 1)
        assert not view.flags.c_contiguous
        copy = np.ascontiguousarray(view)
        layer = Conv(4, k, stride)
        lp = LayerParams(rng.normal(size=(4, 3, k, k)), rng.normal(size=4))
        assert layer.forward(view, lp)[0].tobytes() == layer.forward(copy, lp)[0].tobytes()
        assert layer.infer(view, lp).tobytes() == layer.infer(copy, lp).tobytes()

    @pytest.mark.parametrize(
        "k,stride,size", [(3, 2, 8), (2, 2, 7), (2, 2, 8)], ids=["overlapping-3-2", "cropped-2-2", "tiled-2-2"]
    )
    def test_maxpool_ties_go_to_the_first_max(self, k, stride, size):
        layer = MaxPool(k, stride)
        # an all-equal first window, and a pair equal to the max that only the
        # second window holds: row-major order picks (0, last), column-major
        # order would pick (1, last - 1)
        last = stride + k - 1
        x = np.zeros((1, 1, size, size))
        x[0, 0, 0, last] = x[0, 0, 1, last - 1] = 5.0
        y, cache = layer.forward(nhwc(x), None)
        dy = np.zeros(nchw(y).shape)
        dy[0, 0, 0, :2] = (2.0, 3.0)
        dx = nchw(layer.backward(nhwc(dy), cache, None, True)[0])
        expected = np.zeros_like(x)
        expected[0, 0, 0, 0] = 2.0
        expected[0, 0, 0, last] = 3.0
        assert np.array_equal(dx, expected)

    @pytest.mark.parametrize(
        "k,stride,size,fill",
        [
            (3, 2, 10, "random"),
            (2, 2, 9, "random"),
            (2, 1, 6, "random"),
            (2, 2, 8, "random"),
            (2, 2, 8, "all-tie"),
            (3, 2, 9, "all-tie"),
            (2, 2, 8, "last-slot"),
            (3, 2, 9, "last-slot"),
        ],
        ids=[
            "3-2-10",
            "2-2-9",
            "2-1-6",
            "2-2-8",
            "all-tie-tiled-2-2",
            "all-tie-overlapping-3-2",
            "last-slot-tiled-2-2",
            "last-slot-overlapping-3-2",
        ],
    )
    def test_maxpool_matches_argmax_oracle_with_many_ties(self, k, stride, size, fill):
        # all-tie: every window's k * k slots hold its max, and slot 0 takes
        # the gradient; last-slot: values rise in row-major order, so only
        # each window's last slot holds its max
        rng = np.random.default_rng(size)
        shape = (2, 3, size, size + 1)
        x = {
            "random": rng.integers(0, 3, size=shape).astype(float),
            "all-tie": np.ones(shape),
            "last-slot": np.arange(math.prod(shape), dtype=float).reshape(shape),
        }[fill]
        layer = MaxPool(k, stride)
        y, cache = layer.forward(nhwc(x), None)
        dy = rng.integers(-4, 5, size=nchw(y).shape).astype(float)  # exact sums in any order
        ref_y, ref_dx = maxpool_oracle(x, k, stride, dy)
        assert np.array_equal(nchw(y), ref_y)
        if fill != "random":
            slot = 0 if fill == "all-tie" else k - 1
            ho, wo = ref_y.shape[2:]
            chosen = np.zeros(x.shape, np.bool_)
            chosen[:, :, slot : slot + stride * ho : stride, slot : slot + stride * wo : stride] = True
            assert ref_dx[chosen].any() and not ref_dx[~chosen].any()
        assert np.array_equal(nchw(layer.backward(nhwc(dy), cache, None, True)[0]), ref_dx)


def training_activations(spec, params, batch):
    """[input] + every layer's output of the Layer.forward chain in spec
    order on the uncropped batch, the index space of NetSpec.tap_index."""
    x = nhwc(batch)
    outs = [x]
    for layer, lp in zip(spec.layers, params.layers):
        x = layer.forward(x, lp)[0]
        outs.append(x)
    return outs


class TestInference:
    """convnet.forward (input crop, Conv.infer, Fc.infer, relu after max-pool)
    against training's forward chain.

    Byte equality holds over the floor: every inference product is
    batch-invariant, while training's products round as rows of a large
    product only when they have more than INVARIANT_MIN_CELLS cells, so the
    reference is training's forward on a batch that contains the test rows
    and puts every product over the floor."""

    @pytest.mark.parametrize("batch", [1, 7, 64])
    def test_default_spec_matches_training_bit_for_bit(self, batch):
        spec = convnet.default_spec((3, 16, 16), 12)
        for seed in range(3):
            params = convnet.init_params(spec, Rng(seed))
            x = Rng(10 + seed).normal((256,) + spec.input_shape)
            outs = training_activations(spec, params, x)
            rows = slice(100, 100 + batch)
            for tap in Tap:
                ref = outs[spec.tap_index(tap)]
                assert convnet.forward(spec, params, x[rows], tap).tobytes() == ref[rows].tobytes()

    def test_batch_sizes_give_the_same_bytes(self):
        spec = convnet.default_spec((3, 16, 16), 12)
        params = convnet.init_params(spec, Rng(4))
        x = Rng(14).normal((64,) + spec.input_shape)
        for tap in Tap:
            whole = convnet.forward(spec, params, x, tap)
            for batch in (1, 7):
                for start in (0, 30, 64 - batch):
                    part = convnet.forward(spec, params, x[start : start + batch], tap)
                    assert part.tobytes() == whole[start : start + batch].tobytes(), (tap, batch, start)

    def test_forward_holds_one_chunk(self):
        # a forward of more than two chunks equals its per-chunk forwards byte
        # for byte, and holds no more than its output and one chunk's work
        spec = convnet.default_spec((3, 16, 16), 12)
        params = convnet.init_params(spec, Rng(6))
        chunk = convnet.FORWARD_CHUNK
        x = Rng(16).normal((2 * chunk + 5,) + spec.input_shape)

        def traced_peak(batch, tap):
            tracemalloc.start()
            try:
                convnet.forward(spec, params, batch, tap)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for tap in Tap:
            parts = [convnet.forward(spec, params, x[i : i + chunk], tap) for i in range(0, x.shape[0], chunk)]
            whole = convnet.forward(spec, params, x, tap)
            assert whole.tobytes() == np.concatenate(parts).tobytes(), tap
            assert traced_peak(x, tap) <= whole.nbytes + traced_peak(x[:chunk], tap), tap

    def test_input_extent_is_what_reaches_flatten(self):
        # 16 -> conv3 14 -> pool2 7 -> conv3 5 -> pool2 2: pool 2 reads 4 of
        # conv2's 5 outputs, so 6 of pool 1's 7, 12 of conv1's 14, and 14 inputs
        assert convnet.default_spec((3, 16, 16), 12).input_extent == (14, 14)
        assert convnet.default_spec((3, 17, 15), 12).input_extent == (14, 14)
        assert tiny_spec().input_extent == (8, 8)  # nothing dropped
        assert strided_spec().input_extent == (11, 11)
        assert paired_stride_spec().input_extent == (12, 12)

    def test_cropped_pixels_are_never_read(self, monkeypatch):
        spec = convnet.default_spec((3, 16, 16), 12)
        params = convnet.init_params(spec, Rng(5))
        x = Rng(15).normal((7,) + spec.input_shape)
        dirty = x.copy()
        dirty[:, :, 14:] = np.nan
        dirty[:, :, :, 14:] = np.nan
        conv_inputs = []
        conv_infer = Conv.infer

        def recording(self, y, lp):
            conv_inputs.append(y.shape)
            return conv_infer(self, y, lp)

        monkeypatch.setattr(Conv, "infer", recording)
        for tap in Tap:
            assert convnet.forward(spec, params, dirty, tap).tobytes() == convnet.forward(spec, params, x, tap).tobytes()
        assert conv_inputs[:2] == [(7, 14, 14, 3), (7, 6, 6, 8)]

    @pytest.mark.parametrize(
        "make_spec", [tiny_spec, strided_spec, paired_stride_spec], ids=["tiny", "strided", "paired-stride"]
    )
    def test_matches_training(self, make_spec):
        spec = make_spec()
        params = convnet.init_params(spec, Rng(3))
        for batch in (1, 7, 64):
            x = Rng(batch).normal((batch,) + spec.input_shape)
            outs = training_activations(spec, params, x)
            for tap in Tap:
                np.testing.assert_allclose(
                    convnet.forward(spec, params, x, tap), outs[spec.tap_index(tap)], rtol=1e-12, atol=1e-12
                )

    @pytest.mark.parametrize("k,stride", [(2, 2), (3, 2)], ids=["disjoint-2-2", "overlapping-3-2"])
    def test_relu_after_the_pool_is_bit_identical(self, monkeypatch, k, stride):
        spec, params = relu_pool_spec(k, stride)
        # 601 rows put the Fc(2) head's product over the floor; the designed
        # rows are the first 3
        big = tied_batch(601)
        x = big[:3]
        pooled = MaxPool(k, stride).forward(nhwc(x), None)[0]
        assert (pooled < 0).any() and (pooled == 0).any()
        relu_inputs = []
        relu_forward = Relu.forward

        def recording(self, y, lp):
            relu_inputs.append(y.shape)
            return relu_forward(self, y, lp)

        monkeypatch.setattr(Relu, "forward", recording)
        outs = training_activations(spec, params, big)
        relu_inputs.clear()
        for tap in Tap:
            assert convnet.forward(spec, params, x, tap).tobytes() == outs[spec.tap_index(tap)][:3].tobytes()
        assert relu_inputs[0] == pooled.shape


class TestTrain:
    def test_concurrent_trains_are_bit_identical(self):
        spec = convnet.default_spec((3, 16, 16), 4)
        params = convnet.init_params(spec, Rng(1))
        images = Rng(2).normal((40, 3, 16, 16))  # a last step of 8
        labels = np.arange(40) % 4
        cfg = TrainConfig(epochs=2, batch_size=16, seed=5)
        alone = convnet.train(spec, params, images, labels, cfg)
        results = [None, None]

        def run(slot):
            results[slot] = convnet.train(spec, params, images, labels, cfg)

        threads = [threading.Thread(target=run, args=(slot,)) for slot in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
        for out, history in results:
            assert params_equal(out, alone[0])
            assert history == alone[1]

    @pytest.mark.parametrize("freeze_below", [None, 7])
    @pytest.mark.parametrize(
        "make_spec", [tiny_spec, lambda: convnet.default_spec((3, 16, 16), 4)], ids=["tiny", "default"]
    )
    def test_flat_update_matches_the_per_array_reference(self, make_spec, freeze_below):
        spec = make_spec()
        params = convnet.init_params(spec, Rng(1))
        before = grad_bytes(params)
        images = Rng(2).normal((22,) + spec.input_shape)  # batches of 8, then a last one of 6
        labels = np.arange(22) % spec.class_count
        cfg = TrainConfig(learning_rate=0.05, epochs=2, batch_size=8, seed=3)
        out, history = convnet.train(spec, params, images, labels, cfg, freeze_below)
        ref, ref_history = reference_train(spec, params, images, labels, cfg, freeze_below)
        assert grad_bytes(out) == grad_bytes(ref)
        assert np.array(history).tobytes() == np.array(ref_history).tobytes()
        assert grad_bytes(params) == before
        assert not params_equal(out, params)

    def test_every_step_calls_the_module_loss_and_grads(self, monkeypatch):
        # perfbench counts convnet.sgd_steps and times convnet.step_ms by
        # patching this module global
        calls = []
        real = convnet.loss_and_grads
        monkeypatch.setattr(convnet, "loss_and_grads", lambda *a: calls.append(1) or real(*a))
        spec = tiny_spec()
        params = convnet.init_params(spec, Rng(1))
        n, epochs, batch_size = 22, 3, 8
        cfg = TrainConfig(epochs=epochs, batch_size=batch_size, seed=0)
        convnet.train(spec, params, Rng(2).normal((n, 2, 8, 8)), np.arange(n) % 3, cfg)
        assert len(calls) == epochs * math.ceil(n / batch_size)

    def test_zero_learning_rate_is_identity(self):
        spec = tiny_spec()
        params = convnet.init_params(spec, Rng(1))
        images = Rng(2).normal((10, 2, 8, 8))
        labels = np.arange(10) % 3
        cfg = TrainConfig(learning_rate=0.0, epochs=2, batch_size=5, seed=3)
        out, _ = convnet.train(spec, params, images, labels, cfg)
        assert params_equal(out, params)

    def test_single_step_matches_hand_update(self):
        # zero weights: logits equal the head bias and every other gradient
        # is zero, so each full-batch step moves the head bias alone, by
        # -lr * v with v = MOMENTUM * v + (softmax(bias) - onehot) + WEIGHT_DECAY * bias;
        # the second step carries the first one's velocity and decays its bias
        spec = tiny_spec(class_count=3)
        params = convnet.init_params(spec, Rng(1)).map(np.zeros_like)
        images = Rng(2).normal((1, 2, 8, 8))
        labels = np.array([1])
        lr = 0.25
        cfg = TrainConfig(learning_rate=lr, epochs=2, batch_size=1, seed=0)
        out, _ = convnet.train(spec, params, images, labels, cfg)
        bias, velocity = np.zeros(3), np.zeros(3)
        for _ in range(2):
            probs = np.exp(bias - bias.max()) / np.exp(bias - bias.max()).sum()
            velocity = convnet.MOMENTUM * velocity + (probs - [0.0, 1.0, 0.0]) + convnet.WEIGHT_DECAY * bias
            bias = bias - lr * velocity
        head = out.layers[spec.head_index()]
        assert np.abs(head.bias - bias).max() < 1e-12
        for i, lp in enumerate(out.layers):
            if lp is not None:
                assert not lp.weight.any() and (i == spec.head_index() or not lp.bias.any())

    def test_loss_improves_on_separable_toy(self):
        rng = Rng(0)
        spec = tiny_spec(class_count=2)
        params = convnet.init_params(spec, rng)
        n = 40
        images = 0.2 * Rng(1).normal((n, 2, 8, 8))
        labels = np.arange(n) % 2
        images[labels == 0, 0, :4, :] += 1.0
        images[labels == 1, 1, 4:, :] += 1.0
        cfg = TrainConfig(learning_rate=0.05, epochs=8, batch_size=8, seed=4)
        _, history = convnet.train(spec, params, images, labels, cfg)
        assert history[-1] < history[0]
        assert len(history) == 8

    def test_frozen_layers_do_not_move(self):
        spec = tiny_spec()
        params = convnet.init_params(spec, Rng(1))
        images = Rng(2).normal((8, 2, 8, 8))
        labels = np.arange(8) % 3
        cfg = TrainConfig(epochs=1, batch_size=4, seed=0)
        out, _ = convnet.train(spec, params, images, labels, cfg, freeze_below=6)
        for i in range(6):
            if params.layers[i] is not None:
                assert np.array_equal(out.layers[i].weight, params.layers[i].weight)
        assert not np.array_equal(out.layers[6].weight, params.layers[6].weight)

    def test_batch_size_larger_than_dataset(self):
        spec = tiny_spec()
        params = convnet.init_params(spec, Rng(1))
        cfg = TrainConfig(batch_size=64, epochs=1)
        with pytest.raises(ContractError):
            convnet.train(spec, params, np.zeros((4, 2, 8, 8)), np.zeros(4, dtype=int), cfg)

    def test_empty_dataset(self):
        spec = tiny_spec()
        params = convnet.init_params(spec, Rng(1))
        cfg = TrainConfig(batch_size=1, epochs=1)
        with pytest.raises((ContractError, ShapeError)):
            convnet.train(spec, params, np.zeros((0, 2, 8, 8)), np.zeros(0, dtype=int), cfg)

    def test_training_is_reproducible(self):
        spec = tiny_spec()
        params = convnet.init_params(spec, Rng(1))
        images = Rng(2).normal((12, 2, 8, 8))
        labels = np.arange(12) % 3
        cfg = TrainConfig(epochs=3, batch_size=4, seed=9)
        a, ha = convnet.train(spec, params, images, labels, cfg)
        b, hb = convnet.train(spec, params, images, labels, cfg)
        assert params_equal(a, b)
        assert ha == hb


class TestReinitHead:
    def test_shrink_head_preserves_trunk(self):
        spec = tiny_spec(class_count=5)
        params = convnet.init_params(spec, Rng(1))
        new_spec, new_params = convnet.reinit_head(spec, params, 3, Rng(2))
        assert new_spec.class_count == 3
        head = new_spec.head_index()
        for i, lp in enumerate(params.layers):
            if i == head or lp is None:
                continue
            assert np.array_equal(new_params.layers[i].weight, lp.weight)
            assert np.array_equal(new_params.layers[i].bias, lp.bias)
        assert new_params.layers[head].weight.shape == (3, 5)

    def test_same_count_refreshes_head(self):
        spec = tiny_spec(class_count=3)
        params = convnet.init_params(spec, Rng(1))
        new_spec, new_params = convnet.reinit_head(spec, params, 3, Rng(99))
        head = spec.head_index()
        assert not np.array_equal(new_params.layers[head].weight, params.layers[head].weight)
        assert np.array_equal(new_params.layers[0].weight, params.layers[0].weight)

    def test_selector_style_head(self):
        spec = tiny_spec(class_count=5)
        params = convnet.init_params(spec, Rng(1))
        new_spec, new_params = convnet.reinit_head(spec, params, 6, Rng(2))
        assert new_spec.class_count == 6
        assert new_params.layers[new_spec.head_index()].weight.shape[0] == 6

    def test_penultimate_features_survive_surgery_bit_exactly(self):
        spec = tiny_spec(class_count=4)
        params = convnet.init_params(spec, Rng(3))
        x = Rng(4).normal((5, 2, 8, 8))
        before = convnet.forward(spec, params, x, Tap.FC_PENULTIMATE)
        new_spec, new_params = convnet.reinit_head(spec, params, 2, Rng(5))
        after = convnet.forward(new_spec, new_params, x, Tap.FC_PENULTIMATE)
        assert np.array_equal(before, after)


class TestTrainConfig:
    def test_validation(self):
        for bad in (
            {"learning_rate": -1.0}, {"batch_size": 0}, {"epochs": 0},
            {"learning_rate": math.nan}, {"learning_rate": math.inf},
        ):
            with pytest.raises(ContractError):
                TrainConfig(**bad)
        with pytest.raises(ContractError):
            TrainConfig().for_run(1, epochs=0)  # a derived config is checked too
        TrainConfig()

    def test_step_schedule(self):
        # a tenth of the rate every 20 epochs
        cfg = TrainConfig(learning_rate=1.0)
        rates = [cfg.lr_at(e) for e in range(61)]
        assert rates == [1.0] * 20 + [0.1] * 20 + [0.010000000000000002] * 20 + [0.0010000000000000002]

    def test_finetune_config_policy(self):
        cfg = TrainConfig(learning_rate=0.05, epochs=30)
        ft = cfg.for_run(7, finetune=True, epochs=10)
        assert ft.learning_rate == pytest.approx(0.005)
        assert ft.seed == 7 and ft.epochs == 10
