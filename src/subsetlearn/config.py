"""Run configuration: one INI-style file captures every knob of an experiment
so a single seed reproduces it end to end."""

from __future__ import annotations

import configparser
import inspect
import math
import re
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

# A [dataset.*] section's keys are generate_synthetic's arguments, each read
# as its default's type; style_seed's None default stands for a seed.
_GENERATOR_KEYS = {
    name: int if arg.default is None else type(arg.default)
    for name, arg in inspect.signature(generate_synthetic).parameters.items()
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


# (section, key) -> (owner, field, type) for every key of the fixed sections.
# A TrainConfig or SystemConfig key sets that field, and an absent one keeps
# its default; parse_config reads the RunConfig keys itself.
_KEYS = {
    ("run", "seeds"): (RunConfig, "seeds", str),
    ("run", "target"): (RunConfig, "target", str),
    ("graph", "stages"): (RunConfig, "graph", str),
    ("run", "k"): (SystemConfig, "k", int),
    ("run", "selector"): (SystemConfig, "selector", str),
    ("train", "learning_rate"): (TrainConfig, "learning_rate", float),
    ("train", "batch_size"): (TrainConfig, "batch_size", int),
    ("train", "epochs"): (TrainConfig, "epochs", int),
    ("subset", "epochs"): (SystemConfig, "subset_epochs", int),
    ("subset", "learning_rate"): (SystemConfig, "subset_lr", float),
    ("selector", "epochs"): (SystemConfig, "selector_epochs", int),
    ("svm", "epochs"): (SystemConfig, "svm_epochs", int),
    ("cluster", "restarts"): (SystemConfig, "kmeans_restarts", int),
}


def _parse_value(section: str, key: str, raw: str, cast):
    """raw as cast; a float must be finite, since no knob has a use for nan or inf."""
    try:
        value = cast(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a valid {cast.__name__}") from exc
    if cast is float and not math.isfinite(value):
        raise ConfigError(f"[{section}] {key} = {raw!r} is not finite")
    return value


def parse_config(path, seed_override: int | None = None) -> RunConfig:
    """Parse and validate a run configuration file.

    Every problem raises ConfigError: unknown sections or keys, unparsable
    or non-finite values, dataset ids with a comma, colon or whitespace,
    missing datasets, values SystemConfig or the stage graph rejects, no
    seeds, or referenced files that do not exist.  Dataset counts are
    checked when build_datasets generates them.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file {path} does not exist")
    # A section header cannot span lines, so no file can name this default
    # section: a [DEFAULT] section is then an unknown section like any other,
    # instead of copying its keys into every section.
    parser = configparser.ConfigParser(default_section="\n")
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    if "run" not in parser:
        raise ConfigError("config requires a [run] section")
    section_keys: dict[str, set[str]] = {}
    for section, key in _KEYS:
        section_keys.setdefault(section, set()).add(key)
    for section in parser.sections():
        body = parser[section]
        if section.startswith("dataset."):
            allowed = {"file"} if "file" in body else set(_GENERATOR_KEYS)
        elif section in section_keys:
            allowed = section_keys[section]
        else:
            raise ConfigError(f"unknown section [{section}]")
        unknown = sorted(set(body) - allowed)
        if unknown:
            raise ConfigError(f"[{section}] unknown key {unknown[0]!r}")
    values: dict[type, dict] = {RunConfig: {}, TrainConfig: {}, SystemConfig: {}}
    for (section, key), (owner, name, cast) in _KEYS.items():
        if parser.has_option(section, key):
            values[owner][name] = _parse_value(section, key, parser[section][key], cast)

    raw = values[RunConfig]  # strings, read below
    if seed_override is not None:
        seeds: tuple[int, ...] = (int(seed_override),)
    else:
        raw_seeds = raw.get("seeds", "").replace(",", " ").split()
        if not raw_seeds:
            raise ConfigError("[run] must list at least one seed")
        seeds = tuple(_parse_value("run", "seeds", s, int) for s in raw_seeds)
    target = raw.get("target", "target").strip()

    datasets: dict[str, dict] = {}
    for section in parser.sections():
        if not section.startswith("dataset."):
            continue
        ds_id = section[len("dataset.") :]
        if not re.fullmatch(r"[^,:\s]+", ds_id):  # a stage token or a metrics.csv row could not hold it
            raise ConfigError(f"[{section}] dataset id must be nonempty, without commas, colons or whitespace")
        body = parser[section]
        if "file" in body:
            file_path = Path(body["file"])
            if not file_path.is_file():
                raise ConfigError(f"[{section}] file {file_path} does not exist")
            conf = {"file": str(file_path)}
        else:
            conf = {key: _parse_value(section, key, value, _GENERATOR_KEYS[key]) for key, value in body.items()}
        datasets[ds_id] = conf
    if not datasets:
        raise ConfigError("config defines no [dataset.*] sections")
    if target not in datasets:
        raise ConfigError(f"[run] target {target!r} has no [dataset.{target}] section")

    graph = None
    if "graph" in parser:
        stages = raw.get("graph", "").strip()
        if not stages:
            raise ConfigError("[graph] requires a stages entry")
        try:
            graph = parse_stage_graph(stages)
        except ContractError as exc:
            raise ConfigError(f"[graph] {exc}") from exc
        for stage in graph.stages:
            if stage.dataset not in datasets:
                raise ConfigError(f"[graph] references unknown dataset {stage.dataset!r}")

    try:
        system = SystemConfig(train=TrainConfig(**values[TrainConfig]), **values[SystemConfig])
    except ContractError as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(seeds=seeds, target=target, datasets=datasets, graph=graph, system=system)
