"""End-to-end orchestration: synthetic benchmark generation, staged transfer
training, the full subset-feature system build, evaluation, and persistence of
datasets and model bundles.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from . import cluster as _cluster
from . import container, convnet, fusion, subset
from .cluster import ClassClusterMap, KMeansModel, LdaModel
from .convnet import NetParams, NetSpec, Network, Tap, TrainConfig
from .errors import ContractError, InvariantError, ShapeError
from .fusion import SvmModel
from .numkit import Rng, derive_seed
from .subset import CentroidSelector, NetSelector, SubsetEnsemble

TRAIN, TEST = 0, 1
_GLYPH = 5


@dataclass(frozen=True)
class DatasetHandle:
    """In-memory dataset: images, dense labels, train/test split tags."""

    images: np.ndarray  # (N, C, H, W) float64 in [0, 1]
    labels: np.ndarray  # (N,) int64
    split: np.ndarray  # (N,) uint8, 0 train / 1 test
    class_names: tuple[str, ...]
    generator: dict | None = None

    def __post_init__(self):
        if self.images.ndim != 4:
            raise ShapeError("images must be (N, C, H, W)")
        n = self.images.shape[0]
        if self.labels.shape != (n,) or self.split.shape != (n,):
            raise ShapeError("labels and split must align with images")
        if n and (self.labels.min() < 0 or self.labels.max() >= len(self.class_names)):
            raise InvariantError("labels must index class_names")
        if n and not np.all(np.isin(self.split, (TRAIN, TEST))):
            raise InvariantError("split tags must be 0 (train) or 1 (test)")

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def rows(self, split: str) -> np.ndarray:
        tag = {"train": TRAIN, "test": TEST}.get(split)
        if tag is None:
            raise ContractError(f"unknown split {split!r}")
        idx = np.flatnonzero(self.split == tag)
        if idx.size == 0:
            raise ContractError(f"split {split!r} is empty")
        return idx


def _draw_style(rng: Rng, channels: int) -> dict:
    return {
        "color": 0.25 + 0.5 * rng.random(channels),
        "amp": 0.10 + 0.10 * float(rng.random()),
        "fx": 0.5 + 2.5 * float(rng.random()),
        "fy": 0.5 + 2.5 * float(rng.random()),
        "phase": 2.0 * np.pi * float(rng.random()),
        "chan_mod": 0.4 + 0.6 * rng.random(channels),
    }


def _blend(group: dict, own: dict, weight: float) -> dict:
    return {key: weight * group[key] + (1.0 - weight) * own[key] for key in group}


def generate_synthetic(
    n_groups: int = 3,
    classes_per_group: int = 4,
    train_per_class: int = 100,
    test_per_class: int = 30,
    image_size: int = 16,
    channels: int = 3,
    intra_group_similarity: float = 0.85,
    seed: int = 0,
    style_seed: int | None = None,
    noise: float = 0.13,
    jitter: int = 3,
    glyph_contrast: float = 0.15,
) -> DatasetHandle:
    """Deterministic synthetic fine-grained benchmark.

    Classes come in groups that share a base color/texture family; classes
    within a group differ only by a small glyph stamped into the image, so
    groups are easy to tell apart while classes inside a group are not.
    Position jitter of the glyph and additive noise create intra-class
    variation.  ``intra_group_similarity`` blends the group style against a
    per-class style: at 0 the group structure disappears entirely.

    Group appearance depends only on (style_seed, group index), so datasets
    generated with a shared style_seed live in the same visual domain even
    when their class sets differ.
    """
    if min(n_groups, classes_per_group, train_per_class, test_per_class) < 1:
        raise ContractError("all counts must be positive")
    if not 0.0 <= intra_group_similarity <= 1.0:
        raise ContractError("intra_group_similarity must lie in [0, 1]")
    if channels < 1 or image_size < _GLYPH + 2 * max(jitter, 0) + 1:
        raise ContractError("image_size too small for the glyph and jitter")
    if jitter < 0 or noise < 0:
        raise ContractError("noise and jitter must be nonnegative")
    style_seed = seed if style_seed is None else style_seed

    n_classes = n_groups * classes_per_group
    per_class = train_per_class + test_per_class
    group_styles = [_draw_style(Rng(derive_seed(style_seed, 7, g)), channels) for g in range(n_groups)]

    yy, xx = np.mgrid[0:image_size, 0:image_size].astype(np.float64)
    images = np.empty((n_classes * per_class, channels, image_size, image_size))
    labels = np.repeat(np.arange(n_classes, dtype=np.int64), per_class)
    split = np.tile(
        np.concatenate(
            [np.full(train_per_class, TRAIN, np.uint8), np.full(test_per_class, TEST, np.uint8)]
        ),
        n_classes,
    )
    center = (image_size - _GLYPH) // 2
    row = 0
    for c in range(n_classes):
        g = c // classes_per_group
        own = _draw_style(Rng(derive_seed(seed, 13, c)), channels)
        style = _blend(group_styles[g], own, intra_group_similarity)
        glyph_rng = Rng(derive_seed(seed, 11, c))
        mask = (glyph_rng.random((_GLYPH, _GLYPH)) < 0.5).astype(np.float64)
        if mask.sum() == 0:
            mask[_GLYPH // 2, _GLYPH // 2] = 1.0
        chan_w = glyph_rng.normal(channels)
        chan_w = chan_w / max(1e-9, float(np.max(np.abs(chan_w))))
        base = (
            style["color"][:, None, None]
            + style["amp"]
            * style["chan_mod"][:, None, None]
            * np.sin(2.0 * np.pi * (style["fx"] * xx + style["fy"] * yy) / image_size + style["phase"])
        )
        img_rng = Rng(derive_seed(seed, 17, c))
        for _ in range(per_class):
            img = base.copy()
            dy, dx = (int(v) for v in img_rng.integers(-jitter, jitter + 1, size=2)) if jitter else (0, 0)
            py, px = center + dy, center + dx
            img[:, py : py + _GLYPH, px : px + _GLYPH] += glyph_contrast * chan_w[:, None, None] * mask
            if noise:
                img += noise * img_rng.normal(img.shape)
            images[row] = np.clip(img, 0.0, 1.0)
            row += 1
    names = tuple(f"g{c // classes_per_group:02d}c{c % classes_per_group:02d}" for c in range(n_classes))
    generator = {
        "n_groups": n_groups,
        "classes_per_group": classes_per_group,
        "train_per_class": train_per_class,
        "test_per_class": test_per_class,
        "image_size": image_size,
        "channels": channels,
        "intra_group_similarity": intra_group_similarity,
        "seed": seed,
        "style_seed": style_seed,
        "noise": noise,
        "jitter": jitter,
        "glyph_contrast": glyph_contrast,
    }
    return DatasetHandle(images=images, labels=labels, split=split, class_names=names, generator=generator)


# ---------------------------------------------------------------------------
# staged transfer training


@dataclass(frozen=True)
class StageSpec:
    dataset: str
    mode: str  # "rt" (train from scratch) or "ft" (fine-tune the previous net)
    epochs: int | None = None
    learning_rate: float | None = None
    freeze_below: int | None = None  # freeze layers below this index during the stage


@dataclass(frozen=True)
class StageGraph:
    stages: tuple[StageSpec, ...]

    def __post_init__(self):
        if not self.stages:
            raise ContractError("stage graph must have at least one stage")
        if self.stages[0].mode != "rt":
            raise ContractError("the first stage must be rt")
        for stage in self.stages[1:]:
            if stage.mode != "ft":
                raise ContractError("every stage after the first must be ft")
        for stage in self.stages:
            if stage.epochs is not None and stage.epochs < 1:
                raise ContractError(f"stage {stage.dataset}:{stage.mode} epochs must be >= 1")

    @property
    def name(self) -> str:
        return "-".join(f"{s.dataset}-{s.mode}" for s in self.stages)

    @property
    def steps(self) -> int:
        return len(self.stages)


def default_stage_graph(target: str, with_domain: bool) -> StageGraph:
    """The "domain" dataset rt then the target ft when there is a domain, else target rt."""
    if with_domain:
        return StageGraph((StageSpec("domain", "rt"), StageSpec(target, "ft")))
    return StageGraph((StageSpec(target, "rt"),))


@dataclass
class StageResult:
    net: Network
    histories: list[list[float]]
    name: str
    steps: int


def parse_stage_graph(text: str) -> StageGraph:
    """Parse "domain:rt, target:ft" or "domain:rt:30" (trailing epochs) form."""
    stages = []
    for token in text.replace(",", " ").split():
        parts = token.split(":")
        if len(parts) == 2:
            stages.append(StageSpec(parts[0], parts[1]))
        elif len(parts) == 3:
            try:
                epochs = int(parts[2])
            except ValueError as exc:
                raise ContractError(f"bad stage epochs in {token!r}") from exc
            stages.append(StageSpec(parts[0], parts[1], epochs=epochs))
        else:
            raise ContractError(f"bad stage token {token!r}")
    return StageGraph(tuple(stages))


# Stage outputs this process has trained, most recently used last: prefix key ->
# (net, per-epoch loss history).  A default-spec net is about 50 KB.
STAGE_CACHE_SIZE = 8
_STAGE_CACHE: OrderedDict[str, tuple[Network, list[float]]] = OrderedDict()
_STAGE_CACHE_LOCK = threading.Lock()


def _cached_stage(key: str) -> tuple[Network, list[float]] | None:
    with _STAGE_CACHE_LOCK:
        hit = _STAGE_CACHE.get(key)
        if hit is not None:
            _STAGE_CACHE.move_to_end(key)
        return hit


def _cache_stage(key: str, net: Network, history: list[float]) -> None:
    for lp in net.params.layers:
        if lp is not None:
            lp.weight.setflags(write=False)
            lp.bias.setflags(write=False)
    with _STAGE_CACHE_LOCK:
        _STAGE_CACHE[key] = (net, list(history))
        _STAGE_CACHE.move_to_end(key)
        while len(_STAGE_CACHE) > STAGE_CACHE_SIZE:
            _STAGE_CACHE.popitem(last=False)


def run_stage_graph(
    graph: StageGraph,
    datasets: dict[str, DatasetHandle],
    base_cfg: TrainConfig,
) -> StageResult:
    """Execute a progressive-transfer stage graph on the train splits.

    Stage one trains from scratch; every later stage re-initializes the head
    for its dataset's class count and fine-tunes at a tenth of the scratch
    learning rate (unless the stage overrides it).

    Training is deterministic in ``base_cfg``, the stage specs so far and the
    train tensors they read, so each stage prefix is keyed by a SHA-256 chain
    over exactly those (not dataset names or object identity).  A prefix this
    process has already trained is reused bit-identically from an LRU of
    STAGE_CACHE_SIZE stage outputs; the returned net's arrays are read-only.
    """
    for stage in graph.stages:
        if stage.dataset not in datasets:
            raise ContractError(f"stage graph references missing dataset {stage.dataset!r}")
    net: Network | None = None
    histories: list[list[float]] = []
    prefix = hashlib.sha256(repr(base_cfg).encode())
    for i, stage in enumerate(graph.stages):
        ds = datasets[stage.dataset]
        rows = ds.rows("train")
        images = labels = None  # let the last stage's train copy go before this one is made
        images, labels = ds.images[rows], ds.labels[rows]
        cfg = base_cfg.for_run(
            derive_seed(base_cfg.seed, 2000 + i),
            finetune=stage.mode == "ft",
            epochs=stage.epochs,
            learning_rate=stage.learning_rate,
            freeze_below=stage.freeze_below,
        )
        knobs = (i, stage.mode, cfg.epochs, stage.learning_rate, stage.freeze_below, ds.n_classes)
        prefix.update(repr(knobs + (images.shape, images.dtype, labels.dtype)).encode())
        prefix.update(np.ascontiguousarray(images))
        prefix.update(np.ascontiguousarray(labels))
        key = prefix.hexdigest()
        hit = _cached_stage(key)
        if hit is not None:
            net, history = hit
            histories.append(list(history))
            continue
        # net is None exactly at the first stage, the only rt one
        net, history = convnet.fit(
            images, labels, ds.n_classes, cfg, derive_seed(base_cfg.seed, 1000 + i), trunk=net
        )
        _cache_stage(key, net, history)
        histories.append(history)
    return StageResult(net=net, histories=histories, name=graph.name, steps=graph.steps)


# ---------------------------------------------------------------------------
# metrics


@dataclass(frozen=True)
class Metrics:
    mean_accuracy: float  # unweighted mean of per-class accuracies
    overall_accuracy: float
    confusion: np.ndarray  # (C, C) counts, rows = true class


def metrics_from_predictions(y_true, y_pred, n_classes: int) -> Metrics:
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape or y_true.ndim != 1 or y_true.size == 0:
        raise ShapeError("predictions must be a nonempty 1-d array matching the truth")
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(confusion, (y_true, y_pred), 1)
    row_sums = confusion.sum(axis=1)
    present = row_sums > 0
    per_class = np.diag(confusion)[present] / row_sums[present]
    return Metrics(
        mean_accuracy=float(per_class.mean()),
        overall_accuracy=float(np.trace(confusion) / confusion.sum()),
        confusion=confusion,
    )


# Images per inference forward.  At 64 a 16 x 16 input's first-conv im2col
# rows take 2.8 MiB (11 MiB at 256), and a forward is no slower per image.
FORWARD_CHUNK = 64


def extract_features(net: Network, images: np.ndarray, tap: Tap) -> np.ndarray:
    """Tap features of images, forwarded FORWARD_CHUNK at a time."""
    chunks = [
        net.forward(images[i : i + FORWARD_CHUNK], tap) for i in range(0, images.shape[0], FORWARD_CHUNK)
    ]
    return np.concatenate(chunks, axis=0)


# ---------------------------------------------------------------------------
# full system


@dataclass
class ModelBundle:
    """Everything the classifier needs at test time, plus provenance."""

    base: Network
    lda: LdaModel
    cluster_map: ClassClusterMap
    kmeans: KMeansModel
    ensemble: SubsetEnsemble
    svm: SvmModel
    provenance: dict

    def validate(self) -> None:
        try:
            base_dim = self.base.spec.tap_dim(Tap.FC_PENULTIMATE)
            if self.lda.projection.shape[0] != base_dim:
                raise ContractError("lda width does not match the base feature tap")
            if self.kmeans.centroids.shape[1] != self.lda.out_dim:
                raise ContractError("kmeans centroid width does not match the lda output")
            if not (self.cluster_map.k == self.kmeans.k == self.ensemble.k):
                raise ContractError("cluster map, kmeans and ensemble disagree on k")
            self.ensemble.validate()
            if self.ensemble.selector is None:
                raise ContractError("bundle requires a trained selector")
            if self.svm.weights.shape[1] != fused_width(self.base, self.ensemble):
                raise ContractError("svm width does not match the fused feature width")
            if self.svm.weights.shape[0] != self.cluster_map.class_to_subset.size:
                raise ContractError("svm class count does not match the cluster map")
        except ContractError as exc:
            raise InvariantError(str(exc)) from exc


@dataclass(frozen=True)
class SystemConfig:
    """Build-time knobs for the full subset-feature system."""

    k: int = 6
    selector: str = "network"  # "network" or "centroid"
    train: TrainConfig = field(default_factory=TrainConfig)
    subset_epochs: int | None = None
    subset_lr: float | None = None  # None follows the x0.1 fine-tune policy
    selector_epochs: int | None = None
    svm_lambda: float = fusion.SVM_LAMBDA
    svm_epochs: int = fusion.SVM_EPOCHS
    lda_out_dim: int | None = None
    kmeans_restarts: int = _cluster.KMEANS_RESTARTS

    def __post_init__(self):
        if self.k < 1:
            raise ContractError("k must be >= 1")
        if self.selector not in ("network", "centroid"):
            raise ContractError(f"unknown selector {self.selector!r}")
        if self.svm_lambda <= 0:
            raise ContractError("svm_lambda must be > 0")
        for name in ("svm_epochs", "kmeans_restarts", "subset_epochs", "selector_epochs", "lda_out_dim"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ContractError(f"{name} must be >= 1")

    def lda_dim(self, n_classes: int) -> int:
        """LDA output width: lda_out_dim when set, else min(C - 1, 32)."""
        return self.lda_out_dim if self.lda_out_dim is not None else min(n_classes - 1, 32)


def precluster(config: SystemConfig, feats: np.ndarray, labels, tap: Tap | str, lda: LdaModel | None):
    """The system's class pre-clustering: k-means into config.k subsets with
    config.kmeans_restarts restarts, seeded from the run seed."""
    rng = Rng(derive_seed(config.train.seed, 101))
    return _cluster.precluster_classes(
        feats, labels, tap, lda, config.k, rng, restarts=config.kmeans_restarts
    )


def fused_width(bundle_base: Network, ensemble: SubsetEnsemble) -> int:
    """Width of a fused feature row: the base feature, then K subset blocks
    (the layout of fusion.fuse_batch)."""
    return bundle_base.spec.tap_dim(Tap.FC_PENULTIMATE) + ensemble.k * ensemble.feature_dim


def fuse_dataset_features(
    bundle_base: Network,
    ensemble: SubsetEnsemble,
    images: np.ndarray,
    rows: np.ndarray,
) -> np.ndarray:
    """Base feature + the ensemble selector's choice + the chosen subset
    net's feature, fused per image, for images[rows].

    Per chunk of FORWARD_CHUNK rows the chunk's images are gathered, the
    selector routes first, then each subset net runs only on the images
    routed to it: every image passes through the base net, the selector (a
    network selector's own net; the centroid selector reuses the base
    feature) and exactly one subset net.  Each fused chunk is written into
    one (len(rows), D) matrix, so the selected images are never held whole.
    """
    fused = np.empty((rows.size, fused_width(bundle_base, ensemble)))
    for i in range(0, rows.size, FORWARD_CHUNK):
        chunk = images[rows[i : i + FORWARD_CHUNK]]
        base_feats = bundle_base.forward(chunk, Tap.FC_PENULTIMATE)
        chosen = subset.select_batch(ensemble.selector, chunk, base_feats)
        subset_feats = subset.extract_subset_features(ensemble, chunk, chosen)
        fused[i : i + chunk.shape[0]] = fusion.fuse_batch(base_feats, subset_feats, chosen)
    return fused


def build_system(
    target: DatasetHandle,
    config: SystemConfig | None = None,
    graph: StageGraph | None = None,
    extra_datasets: dict[str, DatasetHandle] | None = None,
    workers: int = 1,
) -> ModelBundle:
    """Train the complete system on the target's train split.

    Steps: base network via the stage graph (default: domain rt then target
    ft when extra_datasets has a "domain" entry, else target rt), penultimate
    features, LDA, class pre-clustering into k subsets, per-subset
    fine-tuning, selector training, feature fusion for every train image,
    one-vs-all SVM.
    """
    config = config or SystemConfig()
    if config.k > target.n_classes:
        raise ContractError("k must not exceed the target class count")
    datasets = {"target": target, **(extra_datasets or {})}
    if graph is None:
        graph = default_stage_graph("target", "domain" in datasets)
    stage = run_stage_graph(graph, datasets, config.train)
    base = stage.net

    rows = target.rows("train")
    images, labels = target.images[rows], target.labels[rows]
    feats = extract_features(base, images, Tap.FC_PENULTIMATE)

    lda = _cluster.lda_fit(feats, labels, out_dim=config.lda_dim(target.n_classes))
    cmap, kmeans, _ = precluster(config, feats, labels, Tap.FC_PENULTIMATE, lda)

    partition = subset.build_partition(cmap, labels)
    subset_cfg = config.train.for_run(
        derive_seed(config.train.seed, 201),
        finetune=True,
        epochs=config.subset_epochs,
        learning_rate=config.subset_lr,
    )
    ensemble = subset.train_subset_nets(partition, images, base, subset_cfg, workers=workers)

    if config.selector == "network":
        selector_cfg = config.train.for_run(
            derive_seed(config.train.seed, 301), finetune=True, epochs=config.selector_epochs
        )
        ensemble.selector = subset.train_selector_net(cmap, images, labels, base, selector_cfg)
    else:
        ensemble.selector = CentroidSelector(kmeans=kmeans, lda=lda)

    fused = fuse_dataset_features(base, ensemble, target.images, rows)
    svm = fusion.svm_train(fused, labels, lam=config.svm_lambda, epochs=config.svm_epochs)
    bundle = ModelBundle(
        base=base,
        lda=lda,
        cluster_map=cmap,
        kmeans=kmeans,
        ensemble=ensemble,
        svm=svm,
        provenance={
            "graph": stage.name,
            "steps": stage.steps,
            "seed": config.train.seed,
            "k": config.k,
            "selector": config.selector,
        },
    )
    bundle.validate()
    return bundle


def evaluate(bundle: ModelBundle, dataset: DatasetHandle, split: str = "test") -> Metrics:
    """Classify one split with the bundle.  Pure: the bundle is never mutated."""
    if dataset.n_classes != bundle.svm.weights.shape[0]:
        raise ShapeError(
            f"bundle has {bundle.svm.weights.shape[0]} classes, dataset has {dataset.n_classes}"
        )
    rows = dataset.rows(split)
    fused = fuse_dataset_features(bundle.base, bundle.ensemble, dataset.images, rows)
    preds, _ = fusion.svm_predict_batch(bundle.svm, fused)
    return metrics_from_predictions(dataset.labels[rows], preds, dataset.n_classes)


def evaluate_feature_svm(net: Network, dataset: DatasetHandle, epochs: int = fusion.SVM_EPOCHS) -> Metrics:
    """Feature-protocol baseline: one-vs-all SVM on l2-normalized penultimate
    features of the train split, scored on the test split."""
    tr = dataset.rows("train")
    te = dataset.rows("test")
    train_feats = fusion.l2_normalize_rows(extract_features(net, dataset.images[tr], Tap.FC_PENULTIMATE))
    test_feats = fusion.l2_normalize_rows(extract_features(net, dataset.images[te], Tap.FC_PENULTIMATE))
    svm = fusion.svm_train(train_feats, dataset.labels[tr], epochs=epochs)
    preds, _ = fusion.svm_predict_batch(svm, test_feats)
    return metrics_from_predictions(dataset.labels[te], preds, dataset.n_classes)


# ---------------------------------------------------------------------------
# persistence


def _spec_to_json(spec: NetSpec) -> dict:
    layers = [layer.to_json() for layer in spec.layers]
    return {"input": list(spec.input_shape), "classes": spec.class_count, "layers": layers}


def _spec_from_json(obj: dict) -> NetSpec:
    try:
        layers = tuple(convnet.layer_from_json(entry) for entry in obj["layers"])
        shape, classes = obj["input"], obj["classes"]
        if not (isinstance(shape, list) and len(shape) == 3 and all(type(v) is int for v in shape)):
            raise ContractError(f"input must be a list of 3 integers, got {shape!r}")
        if type(classes) is not int:
            raise ContractError(f"classes must be an integer, got {classes!r}")
        return NetSpec(layers, tuple(shape), classes)
    except (KeyError, TypeError, ValueError, ContractError, ShapeError) as exc:
        raise InvariantError(f"malformed network description: {exc}") from exc


def _json_int(value, what: str) -> int:
    if type(value) is not int:
        raise ContractError(f"{what} must be a JSON integer, got {value!r}")
    return value


def _int_tensor(path, tensors: dict, name: str, dtype) -> np.ndarray:
    """A stored float64 tensor as dtype; every value must be an exact integer
    in dtype's range."""
    values = tensors[name]
    with np.errstate(invalid="ignore"):  # out-of-range casts are caught below
        ints = values.astype(dtype)
    if not np.array_equal(ints, values):
        raise InvariantError(f"{path}: tensor {name!r} must hold {np.dtype(dtype).name} integers")
    return ints


def _params_to_tensors(prefix: str, params: NetParams, out: dict) -> None:
    for i, lp in enumerate(params.layers):
        if lp is not None:
            out[f"{prefix}/{i}/weight"] = lp.weight
            out[f"{prefix}/{i}/bias"] = lp.bias


def _params_from_tensors(prefix: str, spec: NetSpec, tensors: dict) -> NetParams:
    try:
        params = NetParams(
            tuple(
                None if shapes is None
                else convnet.LayerParams(tensors[f"{prefix}/{i}/weight"], tensors[f"{prefix}/{i}/bias"])
                for i, shapes in enumerate(spec.param_shapes())
            )
        )
    except KeyError as exc:
        raise InvariantError(f"bundle is missing tensor {exc.args[0]!r}") from exc
    try:
        convnet.check_params(spec, params)
    except (ShapeError, ContractError) as exc:
        raise InvariantError(f"stored parameters do not match the network description: {exc}") from exc
    return params


def save_dataset(path, dataset: DatasetHandle) -> None:
    meta = json.dumps(
        {
            "kind": "dataset",
            "class_names": list(dataset.class_names),
            "generator": dataset.generator,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    tensors = {
        "images": dataset.images,
        "labels": dataset.labels.astype(np.float64),
        "splits": dataset.split.astype(np.float64),
    }
    container.write_container(path, tensors, meta)


def load_dataset(path) -> DatasetHandle:
    tensors, meta = container.read_container(path)
    try:
        info = json.loads(meta)
        if not isinstance(info, dict):
            raise InvariantError(f"{path}: dataset metadata is not a JSON object")
        if info.get("kind") != "dataset":
            raise InvariantError(f"{path}: not a dataset container")
        names = info["class_names"]
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise InvariantError(f"{path}: class_names must be a JSON list of strings")
        images = tensors["images"]
        labels = _int_tensor(path, tensors, "labels", np.int64)
        split = _int_tensor(path, tensors, "splits", np.uint8)
        return DatasetHandle(
            images=images, labels=labels, split=split, class_names=tuple(names), generator=info.get("generator")
        )
    except InvariantError:
        raise
    except (KeyError, ValueError, TypeError, ShapeError) as exc:
        raise InvariantError(f"{path}: malformed dataset container: {exc}") from exc


def save_bundle(path, bundle: ModelBundle) -> None:
    bundle.validate()
    selector = bundle.ensemble.selector
    selector_kind = "network" if isinstance(selector, NetSelector) else "centroid"
    meta = {
        "kind": "bundle",
        "k": bundle.ensemble.k,
        "tap": Tap.FC_PENULTIMATE.value,
        "selector": selector_kind,
        "base_spec": _spec_to_json(bundle.base.spec),
        "subset_specs": [_spec_to_json(net.spec) for net in bundle.ensemble.nets],
        "selector_spec": _spec_to_json(selector.net.spec) if selector_kind == "network" else None,
        "lda_out_dim": bundle.lda.out_dim,
        "kmeans_seed": bundle.kmeans.seed,
        "svm_lambda": bundle.svm.lam,
        "svm_checkpoint_epochs": list(bundle.svm.checkpoint_epochs),
        "provenance": bundle.provenance,
    }
    tensors: dict[str, np.ndarray] = {}
    _params_to_tensors("base", bundle.base.params, tensors)
    tensors["lda/projection"] = bundle.lda.projection
    tensors["lda/global_mean"] = bundle.lda.global_mean
    tensors["lda/eigenvalues"] = bundle.lda.eigenvalues
    tensors["cluster/class_to_subset"] = bundle.cluster_map.class_to_subset.astype(np.float64)
    tensors["kmeans/centroids"] = bundle.kmeans.centroids
    tensors["kmeans/inertia"] = np.asarray(bundle.kmeans.inertia)
    for i, net in enumerate(bundle.ensemble.nets):
        _params_to_tensors(f"subset/{i}", net.params, tensors)
    if selector_kind == "network":
        _params_to_tensors("selector", selector.net.params, tensors)
    tensors["svm/weights"] = bundle.svm.weights
    tensors["svm/biases"] = bundle.svm.biases
    tensors["svm/checkpoint_objectives"] = bundle.svm.checkpoint_objectives
    container.write_container(path, tensors, json.dumps(meta, sort_keys=True, separators=(",", ":")))


def load_bundle(path) -> ModelBundle:
    tensors, meta = container.read_container(path)
    try:
        info = json.loads(meta)
    except json.JSONDecodeError as exc:
        raise InvariantError(f"{path}: malformed bundle metadata") from exc
    if not isinstance(info, dict):
        raise InvariantError(f"{path}: bundle metadata is not a JSON object")
    if info.get("kind") != "bundle":
        raise InvariantError(f"{path}: not a bundle container")
    try:
        k = _json_int(info["k"], "k")
        if info["tap"] != Tap.FC_PENULTIMATE.value:
            raise InvariantError(f"{path}: subset feature tap must be {Tap.FC_PENULTIMATE.value!r}")
        provenance = info["provenance"]
        if not isinstance(provenance, dict):
            raise InvariantError(f"{path}: provenance must be a JSON object")
        _json_int(provenance["seed"], "provenance seed")
        if not (isinstance(provenance["graph"], str) and isinstance(provenance["selector"], str)):
            raise InvariantError(f"{path}: provenance graph and selector must be strings")
        base_spec = _spec_from_json(info["base_spec"])
        base = Network(base_spec, _params_from_tensors("base", base_spec, tensors))
        lda = LdaModel(
            projection=tensors["lda/projection"],
            global_mean=tensors["lda/global_mean"],
            out_dim=_json_int(info["lda_out_dim"], "lda_out_dim"),
            eigenvalues=tensors["lda/eigenvalues"],
        )
        cmap = ClassClusterMap(
            class_to_subset=_int_tensor(path, tensors, "cluster/class_to_subset", np.int64),
            k=k,
        )
        kmeans = KMeansModel(
            centroids=tensors["kmeans/centroids"],
            inertia=float(tensors["kmeans/inertia"]),
            k=k,
            seed=_json_int(info["kmeans_seed"], "kmeans_seed"),
        )
        nets = []
        for i, spec_obj in enumerate(info["subset_specs"]):
            spec_i = _spec_from_json(spec_obj)
            nets.append(Network(spec_i, _params_from_tensors(f"subset/{i}", spec_i, tensors)))
        ensemble = SubsetEnsemble(k=k, nets=tuple(nets))
        if info["selector"] == "network":
            spec_s = _spec_from_json(info["selector_spec"])
            ensemble.selector = NetSelector(
                net=Network(spec_s, _params_from_tensors("selector", spec_s, tensors))
            )
        elif info["selector"] == "centroid":
            ensemble.selector = CentroidSelector(kmeans=kmeans, lda=lda)
        else:
            raise InvariantError(f"{path}: unknown selector kind {info['selector']!r}")
        svm = SvmModel(
            weights=tensors["svm/weights"],
            biases=tensors["svm/biases"],
            lam=float(info["svm_lambda"]),
            checkpoint_epochs=tuple(
                _json_int(e, "svm_checkpoint_epochs") for e in info["svm_checkpoint_epochs"]
            ),
            checkpoint_objectives=tensors["svm/checkpoint_objectives"],
        )
        bundle = ModelBundle(
            base=base,
            lda=lda,
            cluster_map=cmap,
            kmeans=kmeans,
            ensemble=ensemble,
            svm=svm,
            provenance=provenance,
        )
    except InvariantError:
        raise
    except (KeyError, ValueError, TypeError, ContractError, ShapeError) as exc:
        raise InvariantError(f"{path}: malformed bundle container: {exc}") from exc
    bundle.validate()
    return bundle


# ---------------------------------------------------------------------------
# CSV export


def write_metrics_csv(path, rows: list[tuple[str, int, float, float]]) -> None:
    lines = ["system_name,seed,mean_accuracy,overall_accuracy"]
    for name, seed, mean_acc, overall in rows:
        lines.append(f"{name},{seed},{mean_acc!r},{overall!r}")
    container.atomic_write_text(path, "\n".join(lines) + "\n")


def write_confusion_csv(path, confusion: np.ndarray, class_names) -> None:
    header = "true\\pred," + ",".join(class_names)
    lines = [header]
    for name, row in zip(class_names, confusion):
        lines.append(name + "," + ",".join(str(int(v)) for v in row))
    container.atomic_write_text(path, "\n".join(lines) + "\n")
