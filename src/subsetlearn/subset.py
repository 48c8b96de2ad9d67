"""Subset machinery: route images into class subsets, fine-tune one feature
network per subset, and pick the most relevant subset per image with either a
centroid-based or a network-based selector.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import convnet, numkit
from .cluster import ClassClusterMap, KMeansModel, LdaModel, kmeans_assign, lda_transform
from .convnet import Network, Tap, TrainConfig
from .errors import ContractError, ShapeError
from .numkit import derive_seed

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SubsetInfo:
    classes: np.ndarray  # original class ids, ascending
    rows: np.ndarray  # indices into the training arrays, in row order
    local_labels: np.ndarray  # per row, dense in [0, len(classes))


@dataclass(frozen=True)
class CentroidSelector:
    """Routes an image to the nearest pre-clustering centroid of its
    lda-projected penultimate base feature."""

    kmeans: KMeansModel
    lda: LdaModel


# A network selector is a softmax net over subset labels, one head output per subset.
Selector = CentroidSelector | Network


@dataclass(frozen=True)
class SubsetEnsemble:
    """k subset nets, each contributing its Tap.FC_PENULTIMATE feature, and the selector."""

    nets: tuple[Network, ...]
    selector: Selector

    @property
    def k(self) -> int:
        return len(self.nets)

    @property
    def feature_dim(self) -> int:
        return self.nets[0].spec.tap_dim(Tap.FC_PENULTIMATE)


def build_partition(cmap: ClassClusterMap, labels) -> tuple[SubsetInfo, ...]:
    """Split rows by their class's subset, one SubsetInfo per subset in subset
    order; local labels are dense per subset.

    Membership depends only on classes, so permuting row order permutes each
    subset's row list but never its membership set.
    """
    labels = numkit.as_ints(labels)
    if labels.ndim != 1 or labels.size == 0:
        raise ShapeError("labels must be a nonempty 1-d array")
    n_classes = cmap.class_to_subset.size
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ContractError("dataset contains a class that the cluster map does not cover")
    subsets = []
    for k in range(cmap.k):
        classes = np.flatnonzero(cmap.class_to_subset == k)
        rows = np.flatnonzero(np.isin(labels, classes))
        if rows.size == 0:
            raise ContractError(f"subset {k} has no rows in this dataset")
        local = np.searchsorted(classes, labels[rows])  # classes ascend, so this is the dense rank
        subsets.append(SubsetInfo(classes=classes, rows=rows, local_labels=local))
    return tuple(subsets)


def _fine_tune(
    base: Network, images: np.ndarray, labels, n_classes: int, cfg: TrainConfig, index: int
) -> Network:
    """The base trunk with a fresh n_classes head, fine-tuned on (images,
    labels).  Member ``index`` of the group seeded by cfg.seed draws its head
    from derive_seed(cfg.seed, index, 0) and its shuffles from
    derive_seed(cfg.seed, index, 1)."""
    run_cfg = cfg.for_run(derive_seed(cfg.seed, index, 1))
    net, _ = convnet.fit(images, labels, n_classes, run_cfg, derive_seed(cfg.seed, index, 0), trunk=base)
    return net


def train_subset_nets(
    partition: tuple[SubsetInfo, ...],
    images: np.ndarray,
    base: Network,
    cfg: TrainConfig,
    workers: int = 1,
) -> tuple[Network, ...]:
    """Fine-tune one feature network per subset from the shared base trunk.

    Each net starts from the base trunk with its head re-initialized to the
    subset's class count and trains only on that subset's rows.  Per-subset
    seeds derive from cfg.seed, so results do not depend on scheduling order.
    """

    def _train_one(k: int) -> Network:
        info = partition[k]
        if info.classes.size == 1:
            log.warning(
                "subset %d contains a single class; its softmax head is degenerate", k
            )
        return _fine_tune(base, images[info.rows], info.local_labels, int(info.classes.size), cfg, k)

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            return tuple(pool.map(_train_one, range(len(partition))))
    return tuple(_train_one(k) for k in range(len(partition)))


def train_selector_net(
    cmap: ClassClusterMap,
    images: np.ndarray,
    labels,
    base: Network,
    cfg: TrainConfig,
) -> Network:
    """Train the network selector: subset indices become the class labels and
    the head is resized to k outputs, starting from the base trunk."""
    subset_labels = cmap.class_to_subset[numkit.as_ints(labels)]
    return _fine_tune(base, images, subset_labels, cmap.k, cfg, 0)


def select_batch(selector: Selector, images: np.ndarray, base_feats: np.ndarray) -> np.ndarray:
    """The chosen subset index of each image in a batch: (B,) int64.

    Network selector: argmax of the k softmax outputs on the images.  Centroid
    selector: nearest pre-clustering centroid of the lda-projected base
    features, the penultimate base-net activations of the same images.  Ties
    break to the lowest index either way.
    """
    if isinstance(selector, Network):
        return np.argmax(selector.forward(images, Tap.HEAD), axis=1)
    if isinstance(selector, CentroidSelector):
        return kmeans_assign(selector.kmeans, lda_transform(selector.lda, base_feats))
    raise ContractError(f"unknown selector {selector!r}")


def extract_subset_features(ensemble: SubsetEnsemble, images: np.ndarray, chosen) -> np.ndarray:
    """Tap activation of each image's chosen subset net: row b is net
    chosen[b]'s feature of image b, (B, D).

    Each net runs once, on the rows routed to it, and a net no row chose does
    not run.
    """
    chosen = numkit.as_ints(chosen, "chosen")
    if chosen.shape != (images.shape[0],) or (chosen.size and (chosen.min() < 0 or chosen.max() >= ensemble.k)):
        raise ContractError("chosen indices must be (B,) values in [0, K)")
    feats = np.empty((images.shape[0], ensemble.feature_dim))
    for j, net in enumerate(ensemble.nets):
        rows = np.flatnonzero(chosen == j)
        if rows.size:
            feats[rows] = net.forward(images[rows], Tap.FC_PENULTIMATE)
    return feats
