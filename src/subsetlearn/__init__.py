"""Subset feature learning for fine-grained classification at desk scale.

The package builds a full classification system from scratch: a small
convolutional feature extractor trained with staged transfer learning,
LDA + k-means pre-clustering of visually similar classes, one fine-tuned
feature network per subset with a max-voting subset selector, and an
l2-normalized fused feature feeding a one-vs-all linear SVM.
"""

from .cluster import ClassClusterMap, KMeansModel, LdaModel, TapReport
from .convnet import NetParams, NetSpec, Network, Tap, TrainConfig
from .fusion import SvmModel
from .numkit import Rng, derive_seed
from .pipeline import (
    DatasetHandle,
    Metrics,
    ModelBundle,
    StageGraph,
    StageSpec,
    SystemConfig,
    build_system,
    evaluate,
    generate_synthetic,
    load_bundle,
    load_dataset,
    run_stage_graph,
    save_bundle,
    save_dataset,
)
from .subset import SubsetEnsemble

__version__ = "0.1.0"

__all__ = [
    "ClassClusterMap",
    "DatasetHandle",
    "KMeansModel",
    "LdaModel",
    "Metrics",
    "ModelBundle",
    "NetParams",
    "NetSpec",
    "Network",
    "Rng",
    "StageGraph",
    "StageSpec",
    "SubsetEnsemble",
    "SvmModel",
    "SystemConfig",
    "Tap",
    "TapReport",
    "TrainConfig",
    "build_system",
    "derive_seed",
    "evaluate",
    "generate_synthetic",
    "load_bundle",
    "load_dataset",
    "run_stage_graph",
    "save_bundle",
    "save_dataset",
    "__version__",
]
