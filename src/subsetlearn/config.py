"""Run configuration: one INI-style file captures every knob of an experiment
so a single seed reproduces it end to end."""

from __future__ import annotations

import configparser
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path

from .convnet import TrainConfig
from .errors import ConfigError, ContractError
from .numkit import derive_seed
from .pipeline import (
    DatasetHandle,
    StageGraph,
    SystemConfig,
    default_stage_graph,
    generate_synthetic,
    load_dataset,
    parse_stage_graph,
)

_GENERATOR_KEYS = {
    "n_groups": int,
    "classes_per_group": int,
    "train_per_class": int,
    "test_per_class": int,
    "image_size": int,
    "channels": int,
    "intra_group_similarity": float,
    "noise": float,
    "jitter": int,
    "glyph_contrast": float,
    "style_seed": int,
    "seed": int,
}

# (section, key) -> (SystemConfig field, type); an absent key keeps the field's default
_SYSTEM_KEYS = {
    ("run", "k"): ("k", int),
    ("run", "selector"): ("selector", str),
    ("subset", "epochs"): ("subset_epochs", int),
    ("subset", "learning_rate"): ("subset_lr", float),
    ("selector", "epochs"): ("selector_epochs", int),
    ("svm", "lambda"): ("svm_lambda", float),
    ("svm", "epochs"): ("svm_epochs", int),
    ("cluster", "lda_out_dim"): ("lda_out_dim", int),
    ("cluster", "restarts"): ("kmeans_restarts", int),
}


@dataclass
class RunConfig:
    seeds: tuple[int, ...]
    target: str
    datasets: dict[str, dict] = field(default_factory=dict)  # id -> {"file": ...} or generator params
    graph: StageGraph | None = None
    system: SystemConfig = field(default_factory=SystemConfig)  # train.seed is set per run seed

    def system_config(self, seed: int) -> SystemConfig:
        return replace(self.system, train=replace(self.system.train, seed=seed))

    def stage_graph(self) -> StageGraph:
        if self.graph is not None:
            return self.graph
        return default_stage_graph(self.target, "domain" in self.datasets)

    def build_datasets(self, seed: int) -> dict[str, DatasetHandle]:
        """Materialize every configured dataset for one run seed.

        Generated datasets derive their generator seed from (run seed, id) and
        share a style seed, so domain and target stay in the same visual
        domain; file-backed datasets are loaded as-is.
        """
        shared_style = derive_seed(seed, 9999)
        out: dict[str, DatasetHandle] = {}
        for ds_id, conf in self.datasets.items():
            if "file" in conf:
                out[ds_id] = load_dataset(conf["file"])
                continue
            params = dict(conf)
            params.setdefault("seed", derive_seed(seed, zlib.crc32(ds_id.encode("utf-8"))))
            params.setdefault("style_seed", shared_style)
            try:
                out[ds_id] = generate_synthetic(**params)
            except ContractError as exc:
                raise ConfigError(f"dataset {ds_id!r}: {exc}") from exc
        return out


def _parse_value(section: str, key: str, raw: str, cast):
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a valid {cast.__name__}") from exc


def parse_config(path, seed_override: int | None = None) -> RunConfig:
    """Parse and validate a run configuration file.

    Every problem raises ConfigError: unknown sections or keys, unparsable
    values, missing datasets, values SystemConfig or the stage graph rejects,
    no seeds, or referenced files that do not exist.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file {path} does not exist")
    parser = configparser.ConfigParser()
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    if "run" not in parser:
        raise ConfigError("config requires a [run] section")
    allowed = {"run": {"seeds", "seed", "target"}, "graph": {"stages"}}
    for section, key in _SYSTEM_KEYS:
        allowed.setdefault(section, set()).add(key)
    for section in parser.sections():
        if section not in allowed and section != "train" and not section.startswith("dataset."):
            raise ConfigError(f"unknown section [{section}]")
    for section, keys in allowed.items():
        unknown = sorted(set(parser[section]) - keys) if section in parser else []
        if unknown:
            raise ConfigError(f"[{section}] unknown key {unknown[0]!r}")
    run = parser["run"]
    if seed_override is not None:
        seeds: tuple[int, ...] = (int(seed_override),)
    else:
        raw_seeds = run.get("seeds", run.get("seed", "")).replace(",", " ").split()
        if not raw_seeds:
            raise ConfigError("[run] must list at least one seed")
        seeds = tuple(_parse_value("run", "seeds", s, int) for s in raw_seeds)
    target = run.get("target", "target").strip()

    datasets: dict[str, dict] = {}
    for section in parser.sections():
        if not section.startswith("dataset."):
            continue
        ds_id = section[len("dataset.") :]
        body = parser[section]
        if "file" in body:
            file_path = Path(body["file"])
            if not file_path.is_file():
                raise ConfigError(f"[{section}] file {file_path} does not exist")
            extra = set(body) - {"file"}
            if extra:
                raise ConfigError(f"[{section}] file-backed dataset cannot also set {sorted(extra)}")
            datasets[ds_id] = {"file": str(file_path)}
            continue
        params = {}
        for key, raw in body.items():
            if key not in _GENERATOR_KEYS:
                raise ConfigError(f"[{section}] unknown key {key!r}")
            params[key] = _parse_value(section, key, raw, _GENERATOR_KEYS[key])
        for key in ("n_groups", "classes_per_group", "train_per_class", "test_per_class"):
            if params.get(key, 1) < 1:
                raise ConfigError(f"[{section}] {key} must be >= 1")
        datasets[ds_id] = params
    if not datasets:
        raise ConfigError("config defines no [dataset.*] sections")
    if target not in datasets:
        raise ConfigError(f"[run] target {target!r} has no [dataset.{target}] section")

    graph = None
    if "graph" in parser:
        stages = parser["graph"].get("stages", "").strip()
        if not stages:
            raise ConfigError("[graph] requires a stages entry")
        try:
            graph = parse_stage_graph(stages)
        except ContractError as exc:
            raise ConfigError(f"[graph] {exc}") from exc
        for stage in graph.stages:
            if stage.dataset not in datasets:
                raise ConfigError(f"[graph] references unknown dataset {stage.dataset!r}")

    train: dict = {}
    if "train" in parser:
        casts = {
            "learning_rate": float,
            "momentum": float,
            "weight_decay": float,
            "batch_size": int,
            "epochs": int,
            "lr_schedule": str,
            "lr_step_factor": float,
            "lr_step_every": int,
        }
        for key, raw in parser["train"].items():
            if key not in casts:
                raise ConfigError(f"[train] unknown key {key!r}")
            train[key] = _parse_value("train", key, raw, casts[key])
    overrides = {
        name: _parse_value(section, key, parser[section][key], cast)
        for (section, key), (name, cast) in _SYSTEM_KEYS.items()
        if parser.has_option(section, key)
    }
    try:
        system = SystemConfig(train=TrainConfig(**train), **overrides)
        system.validate()
    except ContractError as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(seeds=seeds, target=target, datasets=datasets, graph=graph, system=system)
