"""Miniature convolutional classifier with hand-derived backpropagation.

Layer vocabulary: valid (unpadded) convolution, relu, max pooling, flatten,
fully connected, softmax.  Every shape is inferred when a NetSpec is built and
mismatches raise immediately; nothing broadcasts silently.

Three named feature taps are exposed:

* ``Tap.CONV_LAST``       activations entering the flatten layer, flattened
                          (the last spatially-structured feature map),
* ``Tap.FC_PENULTIMATE``  activations entering the final fully connected
                          layer (the classification feature),
* ``Tap.HEAD``            softmax class probabilities.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ContractError, ShapeError
from .numkit import Rng, derive_seed


# Fine-tuned stages and nets train at this multiple of the scratch learning rate.
FINETUNE_LR_FACTOR = 0.1


class Tap(str, Enum):
    CONV_LAST = "conv_last"
    FC_PENULTIMATE = "fc_penultimate"
    HEAD = "head"


@dataclass(frozen=True)
class Conv:
    out_channels: int
    kernel: int
    stride: int = 1


@dataclass(frozen=True)
class Relu:
    pass


@dataclass(frozen=True)
class MaxPool:
    kernel: int
    stride: int


@dataclass(frozen=True)
class Flatten:
    pass


@dataclass(frozen=True)
class Fc:
    out_dim: int


@dataclass(frozen=True)
class Softmax:
    pass


Layer = Conv | Relu | MaxPool | Flatten | Fc | Softmax


@dataclass(frozen=True)
class NetSpec:
    """Architecture description: ordered layers plus input shape and head size."""

    layers: tuple[Layer, ...]
    input_shape: tuple[int, int, int]  # channels, height, width
    class_count: int

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "input_shape", tuple(int(v) for v in self.input_shape))
        self.validate()

    def validate(self) -> None:
        if len(self.input_shape) != 3 or any(v <= 0 for v in self.input_shape):
            raise ShapeError(f"input_shape must be positive (C, H, W), got {self.input_shape}")
        if self.class_count < 1:
            raise ContractError("class_count must be >= 1")
        if not self.layers or not isinstance(self.layers[-1], Softmax):
            raise ContractError("the last layer must be softmax")
        if sum(isinstance(l, Softmax) for l in self.layers) != 1:
            raise ContractError("exactly one softmax layer is allowed")
        if sum(isinstance(l, Flatten) for l in self.layers) != 1:
            raise ContractError("exactly one flatten layer is required")
        fc_count = sum(isinstance(l, Fc) for l in self.layers)
        if fc_count < 2:
            raise ContractError("at least two fc layers are required (penultimate feature tap)")
        flat_idx = self.flatten_index()
        if not any(isinstance(l, Conv) for l in self.layers[:flat_idx]):
            raise ContractError("at least one conv layer is required before flatten")
        for i, layer in enumerate(self.layers):
            if isinstance(layer, (Conv, MaxPool)) and i > flat_idx:
                raise ContractError("conv/maxpool layers must come before flatten")
            if isinstance(layer, Fc) and i < flat_idx:
                raise ContractError("fc layers must come after flatten")
        last_fc = self.layers[self.head_index()]
        if last_fc.out_dim != self.class_count:
            raise ContractError(
                f"final fc out_dim {last_fc.out_dim} must equal class_count {self.class_count}"
            )
        self.layer_shapes()  # raises if any intermediate extent is non-positive

    def flatten_index(self) -> int:
        return next(i for i, l in enumerate(self.layers) if isinstance(l, Flatten))

    def head_index(self) -> int:
        """Index of the final fc layer (the classification head)."""
        return max(i for i, l in enumerate(self.layers) if isinstance(l, Fc))

    def layer_shapes(self) -> list[tuple[int, ...]]:
        """Output shape after each layer, excluding the batch axis."""
        shapes: list[tuple[int, ...]] = []
        cur: tuple[int, ...] = self.input_shape
        for layer in self.layers:
            if isinstance(layer, Conv):
                c, h, w = cur
                if layer.kernel < 1 or layer.stride < 1:
                    raise ContractError("conv kernel and stride must be >= 1")
                ho = (h - layer.kernel) // layer.stride + 1
                wo = (w - layer.kernel) // layer.stride + 1
                if layer.out_channels < 1 or ho < 1 or wo < 1:
                    raise ShapeError(f"conv output shape is not positive for input {cur}")
                cur = (layer.out_channels, ho, wo)
            elif isinstance(layer, MaxPool):
                c, h, w = cur
                if layer.kernel < 1 or layer.stride < 1:
                    raise ContractError("maxpool kernel and stride must be >= 1")
                ho = (h - layer.kernel) // layer.stride + 1
                wo = (w - layer.kernel) // layer.stride + 1
                if ho < 1 or wo < 1:
                    raise ShapeError(f"maxpool output shape is not positive for input {cur}")
                cur = (c, ho, wo)
            elif isinstance(layer, Relu):
                pass
            elif isinstance(layer, Flatten):
                cur = (int(np.prod(cur)),)
            elif isinstance(layer, Fc):
                if len(cur) != 1:
                    raise ShapeError("fc layer requires a flattened input")
                if layer.out_dim < 1:
                    raise ContractError("fc out_dim must be >= 1")
                cur = (layer.out_dim,)
            elif isinstance(layer, Softmax):
                if len(cur) != 1:
                    raise ShapeError("softmax requires a flattened input")
            else:  # pragma: no cover
                raise ContractError(f"unknown layer {layer!r}")
            shapes.append(cur)
        return shapes

    def tap_dim(self, tap: Tap) -> int:
        shapes = self.layer_shapes()
        if tap is Tap.HEAD:
            return self.class_count
        if tap is Tap.FC_PENULTIMATE:
            idx = self.head_index()
            shape = shapes[idx - 1] if idx > 0 else self.input_shape
            return int(np.prod(shape))
        if tap is Tap.CONV_LAST:
            idx = self.flatten_index()
            shape = shapes[idx - 1] if idx > 0 else self.input_shape
            return int(np.prod(shape))
        raise ContractError(f"unknown tap {tap!r}")


def default_spec(input_shape: tuple[int, int, int] = (3, 16, 16), class_count: int = 12) -> NetSpec:
    """Desk-scale default: two conv blocks, then a 64-wide hidden fc."""
    return NetSpec(
        layers=(
            Conv(8, 3, 1),
            Relu(),
            MaxPool(2, 2),
            Conv(16, 3, 1),
            Relu(),
            MaxPool(2, 2),
            Flatten(),
            Fc(64),
            Relu(),
            Fc(class_count),
            Softmax(),
        ),
        input_shape=input_shape,
        class_count=class_count,
    )


@dataclass(frozen=True)
class LayerParams:
    weight: np.ndarray
    bias: np.ndarray


@dataclass(frozen=True)
class NetParams:
    """Per-layer weights aligned with a NetSpec's layers (None for stateless ones).

    Treated as immutable: training copies before updating, arrays are never
    mutated in place, so params are safe to share across threads for reading.
    """

    layers: tuple[LayerParams | None, ...]

    def copy(self) -> "NetParams":
        return NetParams(
            tuple(
                LayerParams(lp.weight.copy(), lp.bias.copy()) if lp is not None else None
                for lp in self.layers
            )
        )

    def zeros_like(self) -> "NetParams":
        return NetParams(
            tuple(
                LayerParams(np.zeros_like(lp.weight), np.zeros_like(lp.bias))
                if lp is not None
                else None
                for lp in self.layers
            )
        )


@dataclass(frozen=True)
class Network:
    """A NetSpec paired with trained NetParams."""

    spec: NetSpec
    params: NetParams

    def forward(self, batch: np.ndarray, tap: Tap = Tap.HEAD) -> np.ndarray:
        return forward(self.spec, self.params, batch, tap)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 5e-4
    batch_size: int = 32
    epochs: int = 30
    lr_schedule: str = "step"  # "constant" or "step"
    lr_step_factor: float = 0.1
    lr_step_every: int = 20
    seed: int = 0
    freeze_below: int | None = None

    def validate(self) -> None:
        if self.learning_rate < 0:
            raise ContractError("learning_rate must be >= 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ContractError("momentum must be in [0, 1)")
        if self.weight_decay < 0:
            raise ContractError("weight_decay must be >= 0")
        if self.batch_size < 1 or self.epochs < 1:
            raise ContractError("batch_size and epochs must be >= 1")
        if self.lr_schedule not in ("constant", "step"):
            raise ContractError(f"unknown lr_schedule {self.lr_schedule!r}")
        if self.lr_schedule == "step" and (self.lr_step_every < 1 or self.lr_step_factor <= 0):
            raise ContractError("step schedule needs lr_step_every >= 1 and lr_step_factor > 0")

    def lr_at(self, epoch: int) -> float:
        if self.lr_schedule == "step":
            return self.learning_rate * self.lr_step_factor ** (epoch // self.lr_step_every)
        return self.learning_rate


def expected_param_shapes(spec: NetSpec) -> list[tuple[tuple[int, ...], tuple[int, ...]] | None]:
    """Per layer: (weight shape, bias shape) for parametric layers, else None."""
    shapes: list[tuple[tuple[int, ...], tuple[int, ...]] | None] = []
    cur: tuple[int, ...] = spec.input_shape
    for layer, out_shape in zip(spec.layers, spec.layer_shapes()):
        if isinstance(layer, Conv):
            shapes.append(((layer.out_channels, cur[0], layer.kernel, layer.kernel), (layer.out_channels,)))
        elif isinstance(layer, Fc):
            shapes.append(((layer.out_dim, cur[0]), (layer.out_dim,)))
        else:
            shapes.append(None)
        cur = out_shape
    return shapes


def check_params(spec: NetSpec, params: NetParams) -> None:
    """Raise ShapeError unless params align with spec (shapes and finiteness)."""
    if len(params.layers) != len(spec.layers):
        raise ShapeError("params do not align with the spec's layers")
    for lp, expected in zip(params.layers, expected_param_shapes(spec)):
        if (lp is None) != (expected is None):
            raise ShapeError("params do not align with the spec's layers")
        if lp is None:
            continue
        if lp.weight.shape != expected[0] or lp.bias.shape != expected[1]:
            raise ShapeError(
                f"parameter shapes {lp.weight.shape}/{lp.bias.shape} do not match {expected}"
            )
        if not (np.all(np.isfinite(lp.weight)) and np.all(np.isfinite(lp.bias))):
            raise ContractError("parameters contain non-finite values")


def init_params(spec: NetSpec, rng: Rng) -> NetParams:
    """Scaled-normal fan-in initialization (variance 1/fan_in), zero biases.

    Deterministic for a given rng seed: draws happen in layer order.
    """
    params: list[LayerParams | None] = []
    for shapes in expected_param_shapes(spec):
        if shapes is None:
            params.append(None)
            continue
        w_shape, b_shape = shapes
        fan_in = int(np.prod(w_shape[1:]))
        params.append(LayerParams(rng.normal(w_shape, scale=1.0 / np.sqrt(fan_in)), np.zeros(b_shape)))
    return NetParams(tuple(params))


# ---------------------------------------------------------------------------
# per-layer forward/backward kernels


def _im2col(x: np.ndarray, k: int, stride: int) -> tuple[np.ndarray, int, int]:
    b, c, h, w = x.shape
    win = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
    win = win[:, :, ::stride, ::stride, :, :]
    ho, wo = win.shape[2], win.shape[3]
    cols = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(b, ho * wo, c * k * k)
    return cols, ho, wo


def _col2im(dcols: np.ndarray, x_shape, k: int, stride: int, ho: int, wo: int) -> np.ndarray:
    b, c, h, w = x_shape
    dwin = dcols.reshape(b, ho, wo, c, k, k).transpose(0, 3, 1, 2, 4, 5)
    dx = np.zeros(x_shape)
    for i in range(k):
        for j in range(k):
            dx[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += dwin[:, :, :, :, i, j]
    return dx


def _conv_forward(x, weight, bias, stride):
    o, c, k, _ = weight.shape
    cols, ho, wo = _im2col(x, k, stride)
    wmat = weight.reshape(o, c * k * k)
    y = cols @ wmat.T + bias
    y = y.reshape(x.shape[0], ho, wo, o).transpose(0, 3, 1, 2)
    return np.ascontiguousarray(y), (cols, x.shape, weight, stride, ho, wo)


def _conv_backward(dy, cache):
    cols, x_shape, weight, stride, ho, wo = cache
    b = x_shape[0]
    o, c, k, _ = weight.shape
    dym = dy.transpose(0, 2, 3, 1).reshape(b, ho * wo, o)
    wmat = weight.reshape(o, c * k * k)
    dw = np.tensordot(dym, cols, axes=([0, 1], [0, 1])).reshape(weight.shape)
    db = dy.sum(axis=(0, 2, 3))
    dcols = dym @ wmat
    dx = _col2im(dcols, x_shape, k, stride, ho, wo)
    return dx, dw, db


def _maxpool_forward(x, k, stride):
    b, c, h, w = x.shape
    win = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
    win = win[:, :, ::stride, ::stride, :, :]
    ho, wo = win.shape[2], win.shape[3]
    flat = win.reshape(b, c, ho, wo, k * k)
    idx = flat.argmax(axis=-1)
    y = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
    return np.ascontiguousarray(y), (idx, x.shape, k, stride, ho, wo)


def _maxpool_backward(dy, cache):
    idx, x_shape, k, stride, ho, wo = cache
    b, c, h, w = x_shape
    di, dj = np.divmod(idx, k)
    rows = stride * np.arange(ho)[None, None, :, None] + di
    cols = stride * np.arange(wo)[None, None, None, :] + dj
    bi = np.arange(b)[:, None, None, None]
    ci = np.arange(c)[None, :, None, None]
    dx = np.zeros(x_shape)
    np.add.at(dx, (bi, ci, rows, cols), dy)
    return dx


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _run_layers(spec: NetSpec, params: NetParams, x: np.ndarray):
    """Forward pass collecting per-layer inputs and backward caches."""
    caches = []
    inputs = []
    for layer, lp in zip(spec.layers, params.layers):
        inputs.append(x)
        if isinstance(layer, Conv):
            x, cache = _conv_forward(x, lp.weight, lp.bias, layer.stride)
        elif isinstance(layer, Relu):
            cache = x > 0
            x = np.maximum(x, 0.0)
        elif isinstance(layer, MaxPool):
            x, cache = _maxpool_forward(x, layer.kernel, layer.stride)
        elif isinstance(layer, Flatten):
            cache = x.shape
            x = x.reshape(x.shape[0], -1)
        elif isinstance(layer, Fc):
            cache = x
            x = x @ lp.weight.T + lp.bias
        elif isinstance(layer, Softmax):
            cache = None
            x = _softmax(x)
        caches.append(cache)
    return x, inputs, caches


def _check_batch(spec: NetSpec, batch: np.ndarray) -> np.ndarray:
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 4 or batch.shape[1:] != spec.input_shape:
        raise ShapeError(
            f"batch shape {batch.shape} does not match input shape {('B',) + spec.input_shape}"
        )
    return batch


def forward(spec: NetSpec, params: NetParams, batch: np.ndarray, tap: Tap = Tap.HEAD) -> np.ndarray:
    """Activations at the requested tap for a batch.  Pure and reentrant."""
    batch = _check_batch(spec, batch)
    out, inputs, _ = _run_layers(spec, params, batch)
    if tap is Tap.HEAD:
        return out
    if tap is Tap.FC_PENULTIMATE:
        feat = inputs[spec.head_index()]
        return feat.reshape(feat.shape[0], -1)
    if tap is Tap.CONV_LAST:
        feat = inputs[spec.flatten_index()]
        return feat.reshape(feat.shape[0], -1)
    raise ContractError(f"unknown tap {tap!r}")


def _check_labels(labels, class_count: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ShapeError("labels must be 1-d")
    labels = labels.astype(np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= class_count):
        raise ContractError(f"labels must lie in [0, {class_count})")
    return labels


def loss_and_grads(
    spec: NetSpec,
    params: NetParams,
    batch: np.ndarray,
    labels,
    freeze_below: int | None = None,
) -> tuple[float, NetParams]:
    """Mean cross-entropy and its exact analytic gradients.

    Layers with index below ``freeze_below`` get exactly-zero gradients.
    """
    batch = _check_batch(spec, batch)
    labels = _check_labels(labels, spec.class_count)
    if labels.shape[0] != batch.shape[0]:
        raise ShapeError("batch and labels disagree on length")
    n = batch.shape[0]

    probs, inputs, caches = _run_layers(spec, params, batch)
    logits = inputs[-1]  # input of the softmax layer
    shifted = logits - logits.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1)) + logits.max(axis=1)
    loss = float(np.mean(logsumexp - logits[np.arange(n), labels]))

    grad = probs.copy()
    grad[np.arange(n), labels] -= 1.0
    grad /= n

    grads: list[LayerParams | None] = [None] * len(spec.layers)
    frozen = freeze_below if freeze_below is not None else 0
    for i in range(len(spec.layers) - 1, -1, -1):
        layer = spec.layers[i]
        lp = params.layers[i]
        if isinstance(layer, Softmax):
            continue  # combined with cross-entropy above; grad is w.r.t. logits
        if isinstance(layer, Conv):
            grad, dw, db = _conv_backward(grad, caches[i])
            grads[i] = LayerParams(dw, db)
        elif isinstance(layer, Relu):
            grad = grad * caches[i]
        elif isinstance(layer, MaxPool):
            grad = _maxpool_backward(grad, caches[i])
        elif isinstance(layer, Flatten):
            grad = grad.reshape(caches[i])
        elif isinstance(layer, Fc):
            x = caches[i]
            grads[i] = LayerParams(grad.T @ x, grad.sum(axis=0))
            grad = grad @ lp.weight
    for i in range(min(frozen, len(spec.layers))):
        if params.layers[i] is not None:
            lp = params.layers[i]
            grads[i] = LayerParams(np.zeros_like(lp.weight), np.zeros_like(lp.bias))
    return loss, NetParams(tuple(grads))


def train(
    spec: NetSpec,
    params: NetParams,
    images: np.ndarray,
    labels,
    cfg: TrainConfig,
) -> tuple[NetParams, list[float]]:
    """SGD with momentum and weight decay; returns new params and per-epoch mean loss.

    The epoch shuffle order is fully determined by cfg.seed, so identical
    inputs and config reproduce the run bit for bit.  Input params are never
    mutated.
    """
    cfg.validate()
    images = _check_batch(spec, images)
    labels = _check_labels(labels, spec.class_count)
    n = images.shape[0]
    if n == 0:
        raise ContractError("training set is empty")
    if labels.shape[0] != n:
        raise ShapeError("images and labels disagree on length")
    if cfg.batch_size > n:
        raise ContractError(f"batch_size {cfg.batch_size} exceeds training set size {n}")

    current = params.copy()
    velocity = params.zeros_like()
    rng = Rng(cfg.seed)
    frozen = cfg.freeze_below if cfg.freeze_below is not None else 0
    history: list[float] = []
    for epoch in range(cfg.epochs):
        lr = cfg.lr_at(epoch)
        order = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss, grads = loss_and_grads(spec, current, images[idx], labels[idx], cfg.freeze_below)
            loss_sum += loss * idx.size
            new_layers = []
            new_velocity = []
            for i, (lp, vp, gp) in enumerate(zip(current.layers, velocity.layers, grads.layers)):
                if lp is None or i < frozen:
                    new_layers.append(lp)
                    new_velocity.append(vp)
                    continue
                vw = cfg.momentum * vp.weight + (gp.weight + cfg.weight_decay * lp.weight)
                vb = cfg.momentum * vp.bias + (gp.bias + cfg.weight_decay * lp.bias)
                new_layers.append(LayerParams(lp.weight - lr * vw, lp.bias - lr * vb))
                new_velocity.append(LayerParams(vw, vb))
            current = NetParams(tuple(new_layers))
            velocity = NetParams(tuple(new_velocity))
        history.append(loss_sum / n)
    return current, history


def reinit_head(
    spec: NetSpec,
    params: NetParams,
    new_class_count: int,
    rng: Rng,
) -> tuple[NetSpec, NetParams]:
    """Replace the classification head with a freshly initialized one.

    Every non-head parameter is preserved bit-exactly, so penultimate-tap
    features are unchanged by the surgery.
    """
    if new_class_count < 1:
        raise ContractError("new_class_count must be >= 1")
    head = spec.head_index()
    new_layers = list(spec.layers)
    new_layers[head] = Fc(new_class_count)
    new_spec = NetSpec(tuple(new_layers), spec.input_shape, new_class_count)
    in_dim = params.layers[head].weight.shape[1]
    new_params = list(params.layers)
    new_params[head] = LayerParams(
        rng.normal((new_class_count, in_dim), scale=1.0 / np.sqrt(in_dim)),
        np.zeros(new_class_count),
    )
    return new_spec, NetParams(tuple(new_params))


def finetune_config(cfg: TrainConfig, seed: int, epochs: int | None = None) -> TrainConfig:
    """Fine-tuning policy: continue from an existing trunk at FINETUNE_LR_FACTOR
    times the scratch learning rate."""
    return dataclasses.replace(
        cfg,
        learning_rate=cfg.learning_rate * FINETUNE_LR_FACTOR,
        seed=seed,
        epochs=cfg.epochs if epochs is None else epochs,
    )


def subset_train_seeds(seed: int, index: int) -> tuple[int, int]:
    """(head init seed, training seed) for the index-th member of a seeded group."""
    return derive_seed(seed, index, 0), derive_seed(seed, index, 1)
