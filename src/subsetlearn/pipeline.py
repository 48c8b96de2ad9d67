"""End-to-end orchestration: synthetic benchmark generation, staged transfer
training, the full subset-feature system build, evaluation, and persistence of
datasets and model bundles.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from . import cluster as _cluster
from . import container, convnet, fusion, numkit, subset
from .cluster import ClassClusterMap, KMeansModel, LdaModel, TapReport
from .convnet import NetParams, NetSpec, Network, Tap, TrainConfig
from .errors import ContractError, InvariantError, ShapeError
from .fusion import SvmModel
from .numkit import Rng, derive_seed
from .subset import CentroidSelector, SubsetEnsemble

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
        for name in ("images", "labels", "split"):  # a list is taken like an array
            object.__setattr__(self, name, np.asarray(getattr(self, name)))
        if self.images.ndim != 4:
            raise ShapeError("images must be (N, C, H, W)")
        n = self.images.shape[0]
        if self.labels.shape != (n,) or self.split.shape != (n,):
            raise ShapeError("labels and split must align with images")
        labels = numkit.exact_ints(self.labels)
        if labels is None:
            raise InvariantError("labels must be integers")
        object.__setattr__(self, "labels", labels)
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
    if jitter < 0 or not 0 <= noise < math.inf:
        raise ContractError("jitter must be >= 0, and noise >= 0 and finite")
    if not math.isfinite(glyph_contrast):
        raise ContractError("glyph_contrast must be finite")
    style_seed = seed if style_seed is None else style_seed
    arguments = locals()
    generator = {name: arguments[name] for name in inspect.signature(generate_synthetic).parameters}

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
            for knob, low in (("epochs", 1), ("learning_rate", 0), ("freeze_below", 0)):
                value = getattr(stage, knob)
                if value is not None and not low <= value < math.inf:
                    raise ContractError(f"stage {stage.dataset}:{stage.mode} {knob} must be >= {low} and finite")

    @property
    def name(self) -> str:
        """Each stage's dataset, mode and the knobs it sets, joined by "-";
        metrics.csv holds it unquoted, so it has no comma."""
        parts = []
        for s in self.stages:
            knobs = {"epochs": s.epochs, "learning_rate": s.learning_rate, "freeze_below": s.freeze_below}
            parts += [s.dataset, s.mode] + [f"{k}{v!r}" for k, v in knobs.items() if v is not None]
        return "-".join(parts)

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
        seed = derive_seed(base_cfg.seed, 2000 + i)
        cfg = base_cfg.for_run(seed, stage.mode == "ft", stage.epochs, stage.learning_rate)
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
        init_seed = derive_seed(base_cfg.seed, 1000 + i)
        net, history = convnet.fit(images, labels, ds.n_classes, cfg, init_seed, net, stage.freeze_below)
        _cache_stage(key, net, history)
        histories.append(history)
    return StageResult(net=net, histories=histories)


# ---------------------------------------------------------------------------
# metrics


@dataclass(frozen=True)
class Metrics:
    mean_accuracy: float  # unweighted mean of per-class accuracies
    overall_accuracy: float
    confusion: np.ndarray  # (C, C) counts, rows = true class


def metrics_from_predictions(y_true, y_pred, n_classes: int) -> Metrics:
    y_true = numkit.as_ints(y_true, "true labels")
    y_pred = numkit.as_ints(y_pred, "predicted labels")
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
        """Check every array's shape against four sizes read off the arrays: the
        base tap width D, the LDA width d (columns of lda/projection), k (subset
        nets) and C (rows of svm/weights); InvariantError names the first misfit."""
        nets, selector, svm = self.ensemble.nets, self.ensemble.selector, self.svm
        if not nets:
            raise InvariantError("bundle requires at least one subset net")
        if self.lda.projection.ndim != 2 or svm.weights.ndim != 2:
            raise InvariantError("lda/projection and svm/weights must be matrices")
        base = self.base.spec
        big_d, d, k, c = base.tap_dim(Tap.FC_PENULTIMATE), self.lda.out_dim, len(nets), svm.weights.shape[0]
        sizes, tap_width = np.bincount(self.cluster_map.class_to_subset, minlength=k), self.ensemble.feature_dim
        table = [
            ("lda/projection", self.lda.projection.shape, (big_d, d)),
            ("lda/global_mean", self.lda.global_mean.shape, (big_d,)),
            ("lda/eigenvalues", self.lda.eigenvalues.shape, (d,)),
            ("kmeans/centroids", self.kmeans.centroids.shape, (k, d)),
            ("cluster/class_to_subset", self.cluster_map.class_to_subset.shape, (c,)),
            ("cluster map subsets", self.cluster_map.k, k),
        ]
        for j, net in enumerate(nets):
            table += [
                (f"subset {j} head", net.spec.class_count, sizes[j]),
                (f"subset {j} tap width", net.spec.tap_dim(Tap.FC_PENULTIMATE), tap_width),
                (f"subset {j} input", net.spec.input_shape, base.input_shape),
            ]
        if isinstance(selector, Network):
            table += [
                ("selector head", selector.spec.class_count, k),
                ("selector input", selector.spec.input_shape, base.input_shape),
            ]
        else:
            table.append(("selector kmeans/centroids", selector.kmeans.centroids.shape, (k, d)))
        table += [
            ("svm/weights", svm.weights.shape, (c, big_d + k * tap_width)),
            ("svm/biases", svm.biases.shape, (c,)),
            ("svm/checkpoint_objectives", svm.checkpoint_objectives.shape, (len(svm.checkpoint_epochs), c)),
        ]
        for name, got, expected in table:
            if got != expected:
                raise InvariantError(f"{name} is {got}, expected {expected}")

    @property
    def selector_kind(self) -> str:
        return "network" if isinstance(self.ensemble.selector, Network) else "centroid"


@dataclass(frozen=True)
class SystemConfig:
    """Build-time knobs for the full subset-feature system."""

    k: int = 6
    selector: str = "network"  # "network" or "centroid"
    train: TrainConfig = field(default_factory=TrainConfig)
    subset_epochs: int | None = None
    subset_lr: float | None = None  # None follows the x0.1 fine-tune policy
    selector_epochs: int | None = None
    svm_epochs: int = fusion.SVM_EPOCHS
    kmeans_restarts: int = _cluster.KMEANS_RESTARTS

    def __post_init__(self):
        if self.k < 1:
            raise ContractError("k must be >= 1")
        if self.selector not in ("network", "centroid"):
            raise ContractError(f"unknown selector {self.selector!r}")
        if self.subset_lr is not None and not 0 <= self.subset_lr < math.inf:
            raise ContractError("subset_lr must be >= 0 and finite")
        for name in ("svm_epochs", "kmeans_restarts", "subset_epochs", "selector_epochs"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ContractError(f"{name} must be >= 1")


def precluster(
    feats: np.ndarray, labels, tap: Tap | str, lda: LdaModel | None, k: int, seed: int, restarts: int
):
    """The system's class pre-clustering into k subsets, seeded from the run
    seed: build_system and tap_reports both cluster through here."""
    rng = Rng(derive_seed(seed, 101))
    return _cluster.precluster_classes(feats, labels, tap, lda, k, rng, restarts=restarts)


def fuse_dataset_features(bundle_base: Network, ensemble: SubsetEnsemble, images: np.ndarray) -> np.ndarray:
    """Base feature + the ensemble selector's choice + the chosen subset
    net's feature, fused per image into one (len(images), D) matrix.

    The selector routes first, then each subset net runs only on the images
    routed to it: every image passes through the base net, the selector (a
    network selector's own net; the centroid selector reuses the base
    feature) and exactly one subset net.
    """
    base_feats = bundle_base.forward(images, Tap.FC_PENULTIMATE)
    chosen = subset.select_batch(ensemble.selector, images, base_feats)
    subset_feats = subset.extract_subset_features(ensemble, images, chosen)
    return fusion.fuse_batch(base_feats, subset_feats, chosen, ensemble.k)


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
    base = run_stage_graph(graph, datasets, config.train).net

    rows = target.rows("train")
    images, labels = target.images[rows], target.labels[rows]
    feats = base.forward(images, Tap.FC_PENULTIMATE)

    lda = _cluster.lda_fit(feats, labels, out_dim=min(target.n_classes - 1, _cluster.LDA_MAX_DIM))
    cmap, kmeans, _ = precluster(
        feats, labels, Tap.FC_PENULTIMATE, lda, config.k, config.train.seed, config.kmeans_restarts
    )

    partition = subset.build_partition(cmap, labels)
    subset_cfg = config.train.for_run(
        derive_seed(config.train.seed, 201),
        finetune=True,
        epochs=config.subset_epochs,
        learning_rate=config.subset_lr,
    )
    nets = subset.train_subset_nets(partition, images, base, subset_cfg, workers=workers)

    if config.selector == "network":
        selector_cfg = config.train.for_run(
            derive_seed(config.train.seed, 301), finetune=True, epochs=config.selector_epochs
        )
        selector = subset.train_selector_net(cmap, images, labels, base, selector_cfg)
    else:
        selector = CentroidSelector(kmeans=kmeans, lda=lda)
    ensemble = SubsetEnsemble(nets=nets, selector=selector)

    fused = fuse_dataset_features(base, ensemble, images)
    svm = fusion.svm_train(fused, labels, epochs=config.svm_epochs)
    bundle = ModelBundle(
        base=base,
        lda=lda,
        cluster_map=cmap,
        kmeans=kmeans,
        ensemble=ensemble,
        svm=svm,
        provenance={
            "graph": graph.name,
            "steps": graph.steps,
            "seed": config.train.seed,
            "kmeans_restarts": config.kmeans_restarts,
        },
    )
    bundle.validate()
    return bundle


def _check_class_count(bundle: ModelBundle, dataset: DatasetHandle) -> None:
    if dataset.n_classes != bundle.svm.weights.shape[0]:
        raise ShapeError(
            f"bundle has {bundle.svm.weights.shape[0]} classes, dataset has {dataset.n_classes}"
        )


def evaluate(bundle: ModelBundle, dataset: DatasetHandle, split: str = "test") -> Metrics:
    """Classify one split, convnet.FORWARD_CHUNK images at a time: each chunk's
    images are gathered, fused and scored before the next, so only one chunk's
    images and fused features are held.  Pure: the bundle is never mutated."""
    _check_class_count(bundle, dataset)
    rows = dataset.rows(split)
    preds = np.empty(rows.size, dtype=np.int64)
    for i in range(0, rows.size, convnet.FORWARD_CHUNK):
        chunk = rows[i : i + convnet.FORWARD_CHUNK]
        fused = fuse_dataset_features(bundle.base, bundle.ensemble, dataset.images[chunk])
        preds[i : i + chunk.size] = fusion.svm_predict_batch(bundle.svm, fused)[0]
    return metrics_from_predictions(dataset.labels[rows], preds, dataset.n_classes)


def tap_reports(bundle: ModelBundle, dataset: DatasetHandle) -> tuple[TapReport, ...]:
    """Pre-clustering quality of the bundle base net's conv tap, raw
    penultimate tap and LDA-projected penultimate tap on the dataset's train
    split.  Nothing trains: k, seed, restarts and the LDA are the bundle's, so
    on the dataset it was trained on the LDA row reproduces its cluster map."""
    _check_class_count(bundle, dataset)
    restarts = bundle.provenance.get("kmeans_restarts")
    if type(restarts) is not int or restarts < 1:
        raise InvariantError(f"bundle provenance kmeans_restarts must be an integer >= 1, got {restarts!r}")
    rows = dataset.rows("train")
    images, labels = dataset.images[rows], dataset.labels[rows]
    fc_feats = bundle.base.forward(images, Tap.FC_PENULTIMATE)
    taps = (
        (Tap.CONV_LAST.value, bundle.base.forward(images, Tap.CONV_LAST), None),
        (Tap.FC_PENULTIMATE.value, fc_feats, None),
        ("lda_" + Tap.FC_PENULTIMATE.value, fc_feats, bundle.lda),
    )
    k, seed = bundle.cluster_map.k, bundle.provenance["seed"]
    return tuple(precluster(feats, labels, tap, lda, k, seed, restarts)[2] for tap, feats, lda in taps)


def evaluate_feature_svm(net: Network, dataset: DatasetHandle) -> Metrics:
    """Feature-protocol baseline: one-vs-all SVM on l2-normalized penultimate
    features of the train split, scored on the test split."""
    tr = dataset.rows("train")
    te = dataset.rows("test")
    train_feats = fusion.l2_normalize_rows(net.forward(dataset.images[tr], Tap.FC_PENULTIMATE))
    test_feats = fusion.l2_normalize_rows(net.forward(dataset.images[te], Tap.FC_PENULTIMATE))
    svm = fusion.svm_train(train_feats, dataset.labels[tr])
    preds, _ = fusion.svm_predict_batch(svm, test_feats)
    return metrics_from_predictions(dataset.labels[te], preds, dataset.n_classes)


# ---------------------------------------------------------------------------
# persistence


def _spec_to_json(spec: NetSpec) -> dict:
    layers = [layer.to_json() for layer in spec.layers]
    return {"input": list(spec.input_shape), "layers": layers}


def _spec_from_json(obj: dict) -> NetSpec:
    try:
        layers = tuple(convnet.layer_from_json(entry) for entry in obj["layers"])
        shape = obj["input"]
        if not (isinstance(shape, list) and len(shape) == 3 and all(type(v) is int for v in shape)):
            raise ContractError(f"input must be a list of 3 integers, got {shape!r}")
        return NetSpec(layers, tuple(shape))
    except (KeyError, TypeError, ValueError) as exc:  # ContractError and ShapeError are ValueErrors
        raise InvariantError(f"malformed network description: {exc}") from exc


def _json_int(value, what: str) -> int:
    if type(value) is not int:
        raise ContractError(f"{what} must be a JSON integer, got {value!r}")
    return value


def _int_tensor(path, tensors: dict, name: str, dtype) -> np.ndarray:
    """A stored float64 tensor as dtype; every value must be an exact integer
    in dtype's range."""
    ints = numkit.exact_ints(tensors[name], dtype)
    if ints is None:
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
    except (KeyError, ValueError, TypeError) as exc:  # ContractError and ShapeError are ValueErrors
        raise InvariantError(f"{path}: malformed dataset container: {exc}") from exc


def save_bundle(path, bundle: ModelBundle) -> None:
    bundle.validate()
    selector, selector_kind = bundle.ensemble.selector, bundle.selector_kind
    meta = {
        "kind": "bundle",
        "selector": selector_kind,
        "base_spec": _spec_to_json(bundle.base.spec),
        "subset_specs": [_spec_to_json(net.spec) for net in bundle.ensemble.nets],
        "selector_spec": _spec_to_json(selector.spec) if selector_kind == "network" else None,
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
        _params_to_tensors("selector", selector.params, tensors)
    tensors["svm/weights"] = bundle.svm.weights
    tensors["svm/biases"] = bundle.svm.biases
    tensors["svm/checkpoint_objectives"] = bundle.svm.checkpoint_objectives
    container.write_container(path, tensors, json.dumps(meta, sort_keys=True, separators=(",", ":")))


def load_bundle(path) -> ModelBundle:
    """Read a bundle written by save_bundle.  Older files also hold "k", "tap",
    "lda_out_dim" and each net's "classes", which the arrays give; they are ignored."""
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
        provenance = info["provenance"]
        if not isinstance(provenance, dict):
            raise InvariantError(f"{path}: provenance must be a JSON object")
        _json_int(provenance["seed"], "provenance seed")
        if not isinstance(provenance["graph"], str):
            raise InvariantError(f"{path}: provenance graph must be a string")
        base_spec = _spec_from_json(info["base_spec"])
        base = Network(base_spec, _params_from_tensors("base", base_spec, tensors))
        lda = LdaModel(
            projection=tensors["lda/projection"],
            global_mean=tensors["lda/global_mean"],
            eigenvalues=tensors["lda/eigenvalues"],
        )
        cmap = ClassClusterMap(_int_tensor(path, tensors, "cluster/class_to_subset", np.int64))
        kmeans = KMeansModel(
            centroids=tensors["kmeans/centroids"],
            inertia=float(tensors["kmeans/inertia"]),
            seed=_json_int(info["kmeans_seed"], "kmeans_seed"),
        )
        nets = []
        for i, spec_obj in enumerate(info["subset_specs"]):
            spec_i = _spec_from_json(spec_obj)
            nets.append(Network(spec_i, _params_from_tensors(f"subset/{i}", spec_i, tensors)))
        if info["selector"] == "network":
            spec_s = _spec_from_json(info["selector_spec"])
            selector = Network(spec_s, _params_from_tensors("selector", spec_s, tensors))
        elif info["selector"] == "centroid":
            selector = CentroidSelector(kmeans=kmeans, lda=lda)
        else:
            raise InvariantError(f"{path}: unknown selector kind {info['selector']!r}")
        ensemble = SubsetEnsemble(nets=tuple(nets), selector=selector)
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
    except (KeyError, ValueError, TypeError) as exc:  # ContractError and ShapeError are ValueErrors
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
