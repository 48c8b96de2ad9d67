"""Miniature convolutional classifier with hand-derived backpropagation.

Layer vocabulary: valid (unpadded) convolution, relu, max pooling, flatten,
fully connected, softmax.  Every shape is inferred when a NetSpec is built and
mismatches raise immediately; nothing broadcasts silently.

Three named feature taps are exposed:

* ``Tap.CONV_LAST``       the flatten layer's output: the last
                          spatially-structured feature map in (C, H, W) order,
* ``Tap.FC_PENULTIMATE``  activations entering the final fully connected
                          layer (the classification feature),
* ``Tap.HEAD``            softmax class probabilities.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import ClassVar

import numpy as np

from . import numkit
from .errors import ContractError, ShapeError
from .numkit import Rng


# Fine-tuned stages and nets train at this multiple of the scratch learning rate.
FINETUNE_LR_FACTOR = 0.1
# SGD keeps MOMENTUM of its velocity and adds WEIGHT_DECAY times the weights to
# each gradient; the learning rate is multiplied by LR_STEP_FACTOR every
# LR_STEP_EVERY epochs.
MOMENTUM = 0.9
WEIGHT_DECAY = 5e-4
LR_STEP_FACTOR = 0.1
LR_STEP_EVERY = 20

# Images per inference forward: at 64 a 16 x 16 input's first-conv im2col rows
# take about 1.8 MiB (7.1 MiB at 256), and a forward is no slower per image.
FORWARD_CHUNK = 64


class Tap(str, Enum):
    CONV_LAST = "conv_last"
    FC_PENULTIMATE = "fc_penultimate"
    HEAD = "head"


@dataclass(frozen=True)
class LayerParams:
    weight: np.ndarray
    bias: np.ndarray


def _window_shape(layer, in_shape: tuple[int, ...], channels: int) -> tuple[int, int, int]:
    """(channels, Ho, Wo) after sliding a conv or maxpool layer's window over (C, H, W)."""
    if layer.kernel < 1 or layer.stride < 1:
        raise ContractError(f"{layer.tag} kernel and stride must be >= 1")
    out = (channels,) + tuple((n - layer.kernel) // layer.stride + 1 for n in in_shape[1:])
    if min(out) < 1:
        raise ShapeError(f"{layer.tag} output shape is not positive for input {in_shape}")
    return out


def _shifted(x: np.ndarray, i: int, j: int, stride: int, ho: int, wo: int) -> np.ndarray:
    """(B, Ho, Wo, C) view of channels-last x: element (b, r, q, c) is the
    (i, j) entry of the window whose top-left corner is (r * stride, q * stride)."""
    return x[:, i : i + stride * ho : stride, j : j + stride * wo : stride]


def _im2col(x: np.ndarray, cols: np.ndarray, stride: int, col_stride: int) -> None:
    """Copy the kh x kw windows of x (B, H, W, C) into cols (B, Ho, Wo, kh, kw, C):
    window (r, q) has its top-left corner at (r * stride, q * col_stride); x may be any strided view."""
    sb, sh, sw, sc = x.strides
    np.copyto(cols, np.lib.stride_tricks.as_strided(x, cols.shape, (sb, stride * sh, col_stride * sw, sh, sw, sc)))


def _col2im(dcols: np.ndarray, x_shape: tuple[int, ...], k: int, stride: int) -> np.ndarray:
    """Adjoint of ``_im2col``: dcols (B, Ho, Wo, k, k, C) summed into a new
    array of x_shape (B, H, W, C).

    One add per window row and output column, so both sides of each add run
    over k * C contiguous numbers."""
    ho, wo = dcols.shape[1:3]
    dx = np.zeros(x_shape)
    for i in range(k):
        rows = dx[:, i : i + stride * ho : stride]
        for col in range(wo):
            rows[:, :, col * stride : col * stride + k] += dcols[:, :, col, i]
    return dx


class Layer:
    """One layer type.  Its JSON form is its tag followed by its dataclass
    fields, all integers.  Shapes exclude the batch axis and are given as
    (C, H, W) up to flatten, but the kernels hold those activations
    channels-last, (B, H, W, C); flatten emits (C, H, W) order.

    ``forward(x, lp)`` returns the output and the cache that ``backward``
    needs; ``backward(dy, cache, lp, need_dx)`` returns the gradient w.r.t.
    the input (None unless ``need_dx``) and the parameter gradients (None for
    a stateless layer).  ``infer(x, lp)`` returns forward's output alone, for
    inference, which keeps no cache; conv and fc run it through
    ``numkit.invariant_matmul``, so a row's bytes do not depend on its batch
    and equal forward's on a batch whose products are over the floor.
    """

    tag: ClassVar[str]

    def to_json(self) -> list:
        return [self.tag, *(getattr(self, f.name) for f in dataclasses.fields(self))]

    def out_shape(self, in_shape: tuple[int, ...]) -> tuple[int, ...]:
        return in_shape

    def param_shapes(self, in_shape: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        return None

    def infer(self, x: np.ndarray, lp: LayerParams | None) -> np.ndarray:
        return self.forward(x, lp)[0]


@dataclass(frozen=True)
class Conv(Layer):
    """Valid (unpadded) convolution, as one matmul over the im2col rows
    (Chellapilla, Puri & Simard, IWFHR 2006)."""

    out_channels: int
    kernel: int
    stride: int = 1
    tag = "conv"

    def out_shape(self, in_shape):
        return _window_shape(self, in_shape, self.out_channels)

    def param_shapes(self, in_shape):
        return (self.out_channels, in_shape[0], self.kernel, self.kernel), (self.out_channels,)

    def _operands(self, x, lp, paired):
        """The im2col rows of x, the weight matrix they multiply and the
        (B, Ho, Wo, O) shape of the product.  Unpaired, a row is one window
        and the matrix is (O, kkC + 1).  Paired, a row holds p = 2 outputs for
        an even output width (1 for an odd one): the k x (k + (p-1)s) union
        of p neighbouring windows, and the matrix is (pO, k(k + (p-1)s)C + 1)
        with output j's kernel at column offset j*s, zeros elsewhere.  Each
        row ends in a constant one and the matrix in the bias column."""
        b, h, w, c = x.shape
        o, k, s = self.out_channels, self.kernel, self.stride
        ho, wo = (h - k) // s + 1, (w - k) // s + 1
        p = 2 - wo % 2 if paired else 1
        span = k + (p - 1) * s
        rows = np.empty((b * ho * (wo // p), k * span * c + 1))
        _im2col(x, rows[:, :-1].reshape(b, ho, wo // p, k, span, c), s, p * s)
        rows[:, -1] = 1.0
        if p == 1:  # the kernel matrix and the bias column: no zeros to fill
            return rows, np.column_stack((lp.weight.transpose(0, 2, 3, 1).reshape(o, -1), lp.bias)), (b, ho, wo, o)
        weights = np.zeros((p, o, rows.shape[1]))
        kernels = weights[:, :, :-1].reshape(p, o, k, span, c)
        for j in range(p):
            kernels[j, :, :, j * s : j * s + k] = lp.weight.transpose(0, 2, 3, 1)
        weights[:, :, -1] = lp.bias
        # row (b, r, q) holds outputs (r, pq) to (r, pq + p - 1), all O channels each
        return rows, weights.reshape(p * o, -1), (b, ho, wo, o)

    def forward(self, x, lp):
        # With the bias as the weight of the constant-one column, one matmul
        # gives y, and in backward one gives dw and the bias gradient together.
        cols, weights, shape = self._operands(x, lp, paired=False)
        return (cols @ weights.T).reshape(shape), (cols, x.shape)

    def infer(self, x, lp):
        """forward's output from paired rows.  Each output sums the same
        nonzero terms in the same order as forward, and the product is
        ``numkit.invariant_matmul``, so its rows do not depend on the batch.
        Two outputs per input tile as in Lavin & Gray's F(2, 3) (CVPR 2016),
        but without their transforms, which would move rounding."""
        rows, weights, shape = self._operands(x, lp, paired=True)
        return numkit.invariant_matmul(rows, weights.T).reshape(shape)

    def backward(self, dy, cache, lp, need_dx):
        cols, x_shape = cache
        o, c, k, _ = lp.weight.shape
        dym = dy.reshape(-1, o)
        dwb = dym.T @ cols
        grads = LayerParams(dwb[:, :-1].reshape(o, k, k, c).transpose(0, 3, 1, 2), dwb[:, -1])
        if not need_dx:
            return None, grads
        dcols = dym @ lp.weight.transpose(0, 2, 3, 1).reshape(o, -1)  # the (O, kkC) kernel matrix
        return _col2im(dcols.reshape(dy.shape[:3] + (k, k, c)), x_shape, k, self.stride), grads


@dataclass(frozen=True)
class Relu(Layer):
    tag = "relu"

    def forward(self, x, lp):
        y = np.maximum(x, 0.0)
        return y, y

    def backward(self, dy, y, lp, need_dx):
        # y > 0 exactly where the input was > 0, so forward keeps no mask
        return (dy * (y > 0.0) if need_dx else None), None


@dataclass(frozen=True)
class MaxPool(Layer):
    kernel: int
    stride: int
    tag = "maxpool"

    def out_shape(self, in_shape):
        return _window_shape(self, in_shape, in_shape[0])

    def _offsets(self):
        return [(i, j) for i in range(self.kernel) for j in range(self.kernel)]

    def forward(self, x, lp):
        b, h, w, c = x.shape
        k, s = self.kernel, self.stride
        ho, wo = (h - k) // s + 1, (w - k) // s + 1
        y = _shifted(x, 0, 0, s, ho, wo).copy()
        for i, j in self._offsets()[1:]:
            np.maximum(y, _shifted(x, i, j, s, ho, wo), out=y)
        return y, (x, y)

    def backward(self, dy, cache, lp, need_dx):
        """Each output's gradient goes to the first input of its window, in
        row-major order, that equals the max: argmax's choice for finite
        inputs.  Overlapping windows add up; windows that do not overlap
        (kernel == stride) write each of their slots once, and the rows and
        columns past the last window are zeroed alone."""
        if not need_dx:
            return None, None
        x, y = cache
        k, s = self.kernel, self.stride
        ho, wo = y.shape[1:3]
        if k == s:
            dx = np.empty(x.shape)
            dx[:, k * ho :] = 0.0
            dx[:, :, k * wo :] = 0.0
        else:
            dx = np.zeros(x.shape)
        for n, (i, j) in enumerate(self._offsets()):
            hit = _shifted(x, i, j, s, ho, wo) == y
            if n == 0:  # the first slot takes every max it holds
                pending = ~hit  # outputs whose gradient is not yet placed
            else:
                hit &= pending
                if n < k * k - 1:  # the last slot leaves no output to track
                    pending ^= hit  # hit is a subset of pending
            dxs = _shifted(dx, i, j, s, ho, wo)
            if k == s:
                np.multiply(dy, hit, out=dxs)
            else:
                dxs += dy * hit
        return dx, None


@dataclass(frozen=True)
class Flatten(Layer):
    """(B, H, W, C) in, (B, C*H*W) out in (C, H, W) order: the order of the
    fc weights and of the conv tap."""

    tag = "flatten"

    def out_shape(self, in_shape):
        return (int(np.prod(in_shape)),)

    def forward(self, x, lp):
        b, h, w, c = x.shape
        return x.transpose(0, 3, 1, 2).reshape(b, c * h * w), x.shape

    def backward(self, dy, x_shape, lp, need_dx):
        if not need_dx:
            return None, None
        b, h, w, c = x_shape
        return np.ascontiguousarray(dy.reshape(b, c, h, w).transpose(0, 2, 3, 1)), None


@dataclass(frozen=True)
class Fc(Layer):
    """Fully connected."""

    out_dim: int
    tag = "fc"

    def out_shape(self, in_shape):
        if len(in_shape) != 1:
            raise ShapeError("fc layer requires a flattened input")
        if self.out_dim < 1:
            raise ContractError("fc out_dim must be >= 1")
        return (self.out_dim,)

    def param_shapes(self, in_shape):
        return (self.out_dim, in_shape[0]), (self.out_dim,)

    def forward(self, x, lp):
        return x @ lp.weight.T + lp.bias, x

    def infer(self, x, lp):
        return numkit.invariant_matmul(x, lp.weight.T) + lp.bias

    def backward(self, dy, x, lp, need_dx):
        return (dy @ lp.weight if need_dx else None), LayerParams(dy.T @ x, dy.sum(axis=0))


@dataclass(frozen=True)
class Softmax(Layer):
    """Class probabilities.  Training combines it with the cross-entropy, so
    the gradient handed to ``backward`` is already w.r.t. its input."""

    tag = "softmax"

    def out_shape(self, in_shape):
        if len(in_shape) != 1:
            raise ShapeError("softmax requires a flattened input")
        return in_shape

    def forward(self, z, lp):
        top = z.max(axis=1, keepdims=True)
        e = np.exp(z - top)
        total = e.sum(axis=1, keepdims=True)
        return e / total, (top, total)  # the loss's logsumexp is log(total) + top

    def backward(self, dy, cache, lp, need_dx):
        return dy, None


_LAYER_TYPES = {cls.tag: cls for cls in (Conv, Relu, MaxPool, Flatten, Fc, Softmax)}


def layer_from_json(entry) -> Layer:
    """Inverse of ``Layer.to_json``: a known tag, then exactly one JSON integer
    per field of its class.  Raises ContractError otherwise."""
    tag = entry[0] if isinstance(entry, list) and entry else None
    cls = _LAYER_TYPES.get(tag) if isinstance(tag, str) else None
    if cls is None:
        raise ContractError(f"unknown layer {entry!r}")
    args = entry[1:]
    if len(args) != len(dataclasses.fields(cls)) or any(type(a) is not int for a in args):
        names = [f.name for f in dataclasses.fields(cls)]
        raise ContractError(f"layer {entry!r} must give integers for exactly {names}")
    return cls(*args)


@dataclass(frozen=True)
class NetSpec:
    """Architecture description: ordered layers plus input shape."""

    layers: tuple[Layer, ...]
    input_shape: tuple[int, int, int]  # channels, height, width

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "input_shape", tuple(int(v) for v in self.input_shape))
        self.validate()

    def validate(self) -> None:
        if len(self.input_shape) != 3 or any(v <= 0 for v in self.input_shape):
            raise ShapeError(f"input_shape must be positive (C, H, W), got {self.input_shape}")
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
        self.layer_shapes  # raises if any intermediate extent is non-positive

    @property
    def class_count(self) -> int:
        return self.layers[self.head_index()].out_dim

    def flatten_index(self) -> int:
        return next(i for i, l in enumerate(self.layers) if isinstance(l, Flatten))

    def head_index(self) -> int:
        """Index of the final fc layer (the classification head)."""
        return max(i for i, l in enumerate(self.layers) if isinstance(l, Fc))

    @functools.cached_property
    def layer_shapes(self) -> tuple[tuple[int, ...], ...]:
        """Output shape after each layer, excluding the batch axis."""
        shapes: list[tuple[int, ...]] = []
        cur: tuple[int, ...] = self.input_shape
        for layer in self.layers:
            cur = layer.out_shape(cur)
            shapes.append(cur)
        return tuple(shapes)

    @functools.cached_property
    def input_extent(self) -> tuple[int, int]:
        """(H, W) of the input's top-left corner that reaches the flatten
        layer: walking back from it, a conv or max-pool with n needed outputs
        needs (n - 1) * stride + kernel inputs (Araujo, Norris & Sim,
        "Computing Receptive Fields of Convolutional Neural Networks",
        Distill 2019).  Floor division in the windows drops the rest."""
        flat = self.flatten_index()
        extent = self.layer_shapes[flat - 1][1:]
        for layer in reversed(self.layers[:flat]):
            if isinstance(layer, (Conv, MaxPool)):
                extent = tuple((n - 1) * layer.stride + layer.kernel for n in extent)
        return extent

    @functools.cached_property
    def run_order(self) -> tuple[int, ...]:
        """Indices of layers in the order they run: a relu directly followed
        by a max-pool runs after it, on 1/k^2 as many values.  Relu is
        nondecreasing, so the max commutes with it; and where relu passes a
        gradient the max is positive, so first-max routing picks the same
        input.  Only layers before flatten move, so every tap runs a prefix."""
        order = list(range(len(self.layers)))
        for p in range(len(order) - 1):
            if isinstance(self.layers[order[p]], Relu) and isinstance(self.layers[order[p + 1]], MaxPool):
                order[p], order[p + 1] = order[p + 1], order[p]
        return tuple(order)

    @functools.cached_property
    def first_parametric(self) -> int:
        return next(i for i, shapes in enumerate(self.param_shapes()) if shapes is not None)

    def param_shapes(self) -> list[tuple[tuple[int, ...], tuple[int, ...]] | None]:
        """Per layer: (weight shape, bias shape) for parametric layers, else None."""
        in_shapes = (self.input_shape,) + self.layer_shapes
        return [layer.param_shapes(s) for layer, s in zip(self.layers, in_shapes)]

    def tap_index(self, tap: Tap) -> int:
        """Where a tap reads in [input] + each layer's output: the output of
        the flatten layer, the input of the head, or the softmax output."""
        index = {
            Tap.CONV_LAST: self.flatten_index() + 1,
            Tap.FC_PENULTIMATE: self.head_index(),
            Tap.HEAD: len(self.layers),
        }.get(tap)
        if index is None:
            raise ContractError(f"unknown tap {tap!r}")
        return index

    def tap_dim(self, tap: Tap) -> int:
        return math.prod(((self.input_shape,) + self.layer_shapes)[self.tap_index(tap)])


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
    )


@dataclass(frozen=True)
class NetParams:
    """Per-layer weights aligned with a NetSpec's layers (None for stateless ones).

    Treated as immutable: ``train`` updates only its own private copies in
    place, so params are safe to share across threads for reading.
    """

    layers: tuple[LayerParams | None, ...]

    def map(self, fn) -> "NetParams":
        """New params holding fn(weight) and fn(bias) of every parametric layer."""
        return NetParams(
            tuple(None if lp is None else LayerParams(fn(lp.weight), fn(lp.bias)) for lp in self.layers)
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
    batch_size: int = 32
    epochs: int = 30
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.learning_rate < math.inf:
            raise ContractError("learning_rate must be >= 0 and finite")
        if self.batch_size < 1 or self.epochs < 1:
            raise ContractError("batch_size and epochs must be >= 1")

    def for_run(self, seed: int, finetune: bool = False, epochs=None, learning_rate=None) -> TrainConfig:
        """This config with one run's seed and overrides.  An override left at
        None keeps this config's value, except that a fine-tune run trains at
        FINETUNE_LR_FACTOR times this config's learning rate."""
        if learning_rate is None:
            learning_rate = self.learning_rate * FINETUNE_LR_FACTOR if finetune else self.learning_rate
        epochs = self.epochs if epochs is None else epochs
        return dataclasses.replace(self, seed=seed, epochs=epochs, learning_rate=learning_rate)

    def lr_at(self, epoch: int) -> float:
        return self.learning_rate * LR_STEP_FACTOR ** (epoch // LR_STEP_EVERY)


def check_params(spec: NetSpec, params: NetParams) -> None:
    """Raise ShapeError unless params align with spec (shapes and finiteness)."""
    if len(params.layers) != len(spec.layers):
        raise ShapeError("params do not align with the spec's layers")
    for lp, expected in zip(params.layers, spec.param_shapes()):
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


def _fan_in_init(shapes: tuple[tuple[int, ...], tuple[int, ...]], rng: Rng) -> LayerParams:
    w_shape, b_shape = shapes
    fan_in = int(np.prod(w_shape[1:]))
    return LayerParams(rng.normal(w_shape, scale=1.0 / np.sqrt(fan_in)), np.zeros(b_shape))


def init_params(spec: NetSpec, rng: Rng) -> NetParams:
    """Scaled-normal fan-in initialization (variance 1/fan_in), zero biases.

    Deterministic for a given rng seed: draws happen in layer order.
    """
    return NetParams(
        tuple(None if shapes is None else _fan_in_init(shapes, rng) for shapes in spec.param_shapes())
    )


def _check_batch(spec: NetSpec, batch: np.ndarray) -> np.ndarray:
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 4 or batch.shape[1:] != spec.input_shape:
        raise ShapeError(
            f"batch shape {batch.shape} does not match input shape {('B',) + spec.input_shape}"
        )
    return batch


def forward(spec: NetSpec, params: NetParams, batch: np.ndarray, tap: Tap = Tap.HEAD) -> np.ndarray:
    """Activations at the requested tap for a batch of any size, computed
    FORWARD_CHUNK images at a time into one array.  Pure and reentrant.

    Runs the layers up to the tap only, through ``Layer.infer``, and keeps no
    activation beyond the layer that needs it.  The batch is cropped to
    ``spec.input_extent`` first: valid windows on a top-left crop give
    exactly the top-left outputs that reach the flatten layer.  The layers
    run in ``spec.run_order``.  Every product is batch-invariant, so an image's
    result does not depend on its batch-mates or on the chunks."""
    batch = _check_batch(spec, batch)
    h, w = spec.input_extent
    index = spec.tap_index(tap)
    steps = [(spec.layers[i], params.layers[i]) for i in spec.run_order[:index]]
    out = np.empty((batch.shape[0],) + spec.layer_shapes[index - 1])  # the tap's shape, flat for every tap
    for start in range(0, batch.shape[0], FORWARD_CHUNK):
        x = np.ascontiguousarray(batch[start : start + FORWARD_CHUNK, :, :h, :w].transpose(0, 2, 3, 1))
        for layer, lp in steps:
            x = layer.infer(x, lp)
        out[start : start + x.shape[0]] = x
    return out


def _check_labels(labels, class_count: int) -> np.ndarray:
    labels = numkit.as_ints(labels)
    if labels.ndim != 1:
        raise ShapeError("labels must be 1-d")
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

    As in ``forward``, the batch is cropped to ``spec.input_extent``, the
    top-left pixels that reach the flatten layer (the rest would get exactly
    zero gradient), and the layers run in ``spec.run_order``; backward walks the
    same order in reverse.  Layers with index below ``freeze_below`` get
    exactly-zero gradients.  Backpropagation stops at the lowest layer that
    needs a gradient, and the gradient w.r.t. that layer's input is not
    computed.
    """
    batch = _check_batch(spec, batch)
    labels = _check_labels(labels, spec.class_count)
    if labels.shape[0] != batch.shape[0]:
        raise ShapeError("batch and labels disagree on length")
    rows = np.arange(batch.shape[0])

    h, w = spec.input_extent
    x = np.ascontiguousarray(batch[:, :, :h, :w].transpose(0, 2, 3, 1))
    order = spec.run_order
    caches: list = [None] * len(spec.layers)  # indexed by spec layer, like grads
    for i in order:
        logits = x
        x, caches[i] = spec.layers[i].forward(x, params.layers[i])
    top, total = caches[order[-1]]  # the softmax's row max and exp-sum
    loss = float(np.mean((np.log(total) + top)[:, 0] - logits[rows, labels]))

    grad = x  # the probabilities, which nothing else reads
    grad[rows, labels] -= 1.0
    grad /= rows.size

    stop = max(freeze_below or 0, spec.first_parametric)
    grads: list[LayerParams | None] = [None] * len(spec.layers)
    # only stateless layers leave their position, so walking down to position
    # stop reaches every parametric layer from stop up
    for p in range(len(order) - 1, stop - 1, -1):
        i = order[p]
        grad, grads[i] = spec.layers[i].backward(grad, caches[i], params.layers[i], p > stop)
    for i, lp in enumerate(params.layers[:stop]):
        if lp is not None:  # frozen
            grads[i] = LayerParams(np.zeros_like(lp.weight), np.zeros_like(lp.bias))
    return loss, NetParams(tuple(grads))


def train(
    spec: NetSpec,
    params: NetParams,
    images: np.ndarray,
    labels,
    cfg: TrainConfig,
    freeze_below: int | None = None,
) -> tuple[NetParams, list[float]]:
    """SGD with momentum and weight decay; returns new params and per-epoch mean loss.

    Layers with index below ``freeze_below`` keep their parameters.  The epoch
    shuffle order is fully determined by cfg.seed, so identical inputs and
    config reproduce the run bit for bit.  Input params are never mutated.
    """
    images = _check_batch(spec, images)
    labels = _check_labels(labels, spec.class_count)
    n = images.shape[0]
    if n == 0:
        raise ContractError("training set is empty")
    if labels.shape[0] != n:
        raise ShapeError("images and labels disagree on length")
    if cfg.batch_size > n:
        raise ContractError(f"batch_size {cfg.batch_size} exceeds training set size {n}")

    rng = Rng(cfg.seed)
    trainable = [i for i, lp in enumerate(params.layers) if lp is not None and i >= (freeze_below or 0)]
    if not trainable:
        head = spec.head_index()
        raise ContractError(f"freeze_below {freeze_below} leaves nothing to train: the head is layer {head}")
    arrays = [a for lp in params.layers if lp is not None for a in (lp.weight, lp.bias)]
    theta = np.concatenate(arrays, axis=None)  # a private copy, which current's arrays view
    views = iter(np.split(theta, np.cumsum([a.size for a in arrays[:-1]])))
    current = params.map(lambda a: next(views).reshape(a.shape))
    live = theta[-sum(a.size for a in arrays[-2 * len(trainable) :]) :]  # the trainable layers' suffix
    velocity, grad = np.zeros_like(live), np.empty_like(live)
    history: list[float] = []
    for epoch in range(cfg.epochs):
        lr = cfg.lr_at(epoch)
        order = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss, grads = loss_and_grads(spec, current, images[idx], labels[idx], freeze_below)
            loss_sum += loss * idx.size
            parts = [a for i in trainable for a in (grads.layers[i].weight, grads.layers[i].bias)]
            np.concatenate(parts, axis=None, out=grad)
            grad += WEIGHT_DECAY * live
            velocity *= MOMENTUM
            velocity += grad
            live -= lr * velocity
        history.append(loss_sum / n)
    return current.map(np.copy), history  # nets kept viewing theta took 1.2 MiB more peak RSS on transfer-sweep


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
    new_spec = NetSpec(tuple(new_layers), spec.input_shape)
    new_params = list(params.layers)
    new_params[head] = _fan_in_init(new_spec.param_shapes()[head], rng)
    return new_spec, NetParams(tuple(new_params))


def fit(
    images,
    labels,
    n_classes: int,
    cfg: TrainConfig,
    init_seed: int,
    trunk: Network | None = None,
    freeze_below: int | None = None,
) -> tuple[Network, list[float]]:
    """Build a net with an n_classes head, train it on (images, labels) and
    return it with its per-epoch mean loss.  The only place a net is built
    for training.

    With no trunk the net is the default spec, initialized from init_seed;
    with one it is the trunk with a fresh head drawn from init_seed.  The
    batch is capped at the training set size.  Layers below freeze_below do
    not train.
    """
    if trunk is None:
        spec = default_spec(images.shape[1:], n_classes)
        params = init_params(spec, Rng(init_seed))
    else:
        spec, params = reinit_head(trunk.spec, trunk.params, n_classes, Rng(init_seed))
    cfg = dataclasses.replace(cfg, batch_size=min(cfg.batch_size, len(labels)))
    params, history = train(spec, params, images, labels, cfg, freeze_below)
    return Network(spec, params), history
