"""The benchmark's three workloads, the output checks each operation must pass,
and their sizes.

A workload has a ``setup`` phase, timed as ``setup_s``, and a ``unit``: one
measured operation, repeated until the run's time is up.  Each workload takes
its seed from the command line and generates its inputs with
``generate_synthetic``; the program under test sees only those inputs.

Scoring calls are short (0.1 to 1.5 s), and on a shared host their speed
drifts by a quarter over tens of seconds, so every workload makes many of them
spread over its run: the benchmark reports the fastest.  Every repeat must
score exactly like the first, which doubles as a determinism check.

* ``train-k3``: what ``subsetlearn train`` does for one seed on the
  acceptance benchmark (3 x 4 classes, 100 train / 30 test per class, k=3,
  network selector, 30/50/20 epochs, graph ``target:rt``): ``build_system``,
  ``evaluate``, ``save_bundle``; then the built and the reloaded bundle score
  the test split in turn for ``score_seconds``.  Training is almost all of
  it, so it isolates the training layers; no training input repeats, so a
  stage cache has nothing to reuse here.
* ``eval-k6``: a closed loop with one caller doing what ``subsetlearn eval``
  does: ``load_bundle``, ``load_dataset``, ``evaluate`` of 2,400 test images
  on a k=6 bundle (the ``SystemConfig`` default) built in set-up with a short
  schedule.  Each set-up builds one bundle in a child process, so the peak
  memory of the run is that of the eval passes, and a share of the passes
  follows each set-up.  Inference cost does not depend on the epochs, and at k=6 running
  the subset nets dominates a pass.
* ``transfer-sweep``: the four stage graphs of acceptance criterion 08, each
  scored ``scorings`` times with ``evaluate_feature_svm``.  The ``g3`` graph
  retrains the ``g2b`` prefix, so a stage cache shows here; subset routing
  and feature fusion never run.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import multiprocessing
import statistics
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from subsetlearn import container, fusion, pipeline
from subsetlearn.convnet import TrainConfig
from subsetlearn.numkit import derive_seed
from subsetlearn.pipeline import StageGraph, StageSpec, SystemConfig


class Run:
    """Samples, counts and check failures collected during one benchmark run.

    ``isolate`` lets a workload run its set-up builds in a child process.
    """

    def __init__(self, workdir: Path, isolate: bool = True):
        self.workdir = workdir
        self.isolate = isolate
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.notes: dict[str, list] = defaultdict(list)
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        """An output check; a failed one fails the enclosing operation."""
        if not ok:
            self.problems.append(what)

    @contextmanager
    def operation(self, what: str):
        """Count one operation; it fails if it raises or one of its checks fails."""
        self.attempted += 1
        before = len(self.problems)
        try:
            yield
        except Exception as exc:  # the run goes on and reports the failure
            traceback.print_exc()
            self.problems.append(f"{what}: {type(exc).__name__}: {exc}")
        if len(self.problems) > before:
            self.failed += 1


@contextmanager
def predictions_made():
    """Collect the predictions of every ``svm_predict_batch`` call in the block."""
    made: list[np.ndarray] = []
    predict = fusion.svm_predict_batch

    def recording(model, features):
        preds, scores = predict(model, features)
        made.append(preds.copy())
        return preds, scores

    fusion.svm_predict_batch = recording
    try:
        yield made
    finally:
        fusion.svm_predict_batch = predict


def _child_main(send, fn, args) -> None:
    try:
        send.send((True, fn(*args)))
    except BaseException as exc:  # reported by the parent
        send.send((False, f"{type(exc).__name__}: {exc}"))


def in_child(fn, *args):
    """``fn(*args)`` in a forked child process, which has ended when this returns.

    The child's memory never counts towards this process's peak resident set.
    """
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    child = context.Process(target=_child_main, args=(send, fn, args))
    child.start()
    send.close()
    try:
        ok, value = receive.recv()
    except EOFError:
        ok, value = False, "the child process died"
    finally:
        receive.close()
        child.join()
    if not ok:
        raise RuntimeError(f"in child process: {value}")
    return value


def _same_metrics(a: pipeline.Metrics, b: pipeline.Metrics) -> bool:
    return (
        a.mean_accuracy == b.mean_accuracy
        and a.overall_accuracy == b.overall_accuracy
        and np.array_equal(a.confusion, b.confusion)
    )


def warm_up(workdir: Path) -> None:
    """A tiny build, save, load and evaluate: initialises BLAS and takes every
    timed function through its first call before anything is measured."""
    data = pipeline.generate_synthetic(n_groups=2, classes_per_group=2, train_per_class=4, test_per_class=2)
    config = SystemConfig(k=2, train=TrainConfig(epochs=1, batch_size=4), svm_epochs=5, kmeans_restarts=1)
    bundle = pipeline.build_system(data, config=config)
    path = workdir / "warm-up.sfl"
    pipeline.save_bundle(path, bundle)
    pipeline.evaluate(pipeline.load_bundle(path), data)


@dataclasses.dataclass(frozen=True)
class TrainK3:
    data: dict
    system: dict
    train: dict
    score_seconds: float  # how long the two bundles score the test split in turn
    setups = 15  # a set-up only generates data, so the median needs many
    min_units = 1
    inputs_per_unit = True  # each unit trains on data of its own seed

    def setup(self, run: Run, seed: int):
        return pipeline.generate_synthetic(seed=seed, **self.data)

    def unit(self, run: Run, dataset, seed: int) -> None:
        config = SystemConfig(train=TrainConfig(seed=seed, **self.train), **self.system)
        graph = StageGraph((StageSpec("target", "rt"),))
        path = run.workdir / f"bundle-seed{seed}.sfl"
        n_test = dataset.rows("test").size

        t0 = time.perf_counter()
        bundle = pipeline.build_system(dataset, config=config, graph=graph, workers=1)
        t1 = time.perf_counter()
        metrics = pipeline.evaluate(bundle, dataset, "test")
        t2 = time.perf_counter()
        pipeline.save_bundle(path, bundle)
        t3 = time.perf_counter()
        run.samples["build_s"].append(t1 - t0)
        run.samples["eval_images_per_s"].append(n_test / (t2 - t1))
        run.samples["sweep_s"].append(t3 - t0)
        run.samples["mean_accuracy"].append(metrics.mean_accuracy)

        bundle.validate()
        run.notes["bundle_crc32"].append(f"{container.container_checksum(path):08x}")
        loaded = pipeline.load_bundle(path)
        resaved = run.workdir / "resaved.sfl"
        pipeline.save_bundle(resaved, loaded)
        run.check(resaved.read_bytes() == path.read_bytes(), f"seed {seed}: load_bundle + save_bundle changed the bytes")

        # The loaded and the in-memory bundle score in turn, the loaded first.
        deadline = time.perf_counter() + self.score_seconds
        for scored in itertools.cycle((loaded, bundle)):
            t4 = time.perf_counter()
            again = pipeline.evaluate(scored, dataset, "test")
            run.samples["eval_images_per_s"].append(n_test / (time.perf_counter() - t4))
            which = "loaded" if scored is loaded else "in-memory"
            run.check(_same_metrics(metrics, again), f"seed {seed}: the {which} bundle scored differently")
            if time.perf_counter() >= deadline and scored is bundle:
                break


@dataclasses.dataclass(frozen=True)
class EvalK6:
    data: dict
    system: dict
    train: dict
    setups = 3
    min_units = 2  # the first pass on a bundle is the reference for the others
    inputs_per_unit = False  # the passes after a set-up read the bundle it built

    def build(self, seed: int, bundle_path: Path, dataset_path: Path) -> tuple[float, str]:
        """Build and save one bundle and its dataset; returns (build seconds, bundle CRC32)."""
        dataset = pipeline.generate_synthetic(seed=seed, **self.data)
        config = SystemConfig(train=TrainConfig(seed=seed, **self.train), **self.system)
        t0 = time.perf_counter()
        bundle = pipeline.build_system(dataset, config=config, workers=1)
        build_s = time.perf_counter() - t0
        pipeline.save_bundle(bundle_path, bundle)
        pipeline.save_dataset(dataset_path, dataset)
        return build_s, f"{container.container_checksum(bundle_path):08x}"

    def setup(self, run: Run, seed: int):
        state = {"bundle": run.workdir / f"bundle-seed{seed}.sfl", "dataset": run.workdir / f"data-seed{seed}.sfl"}
        paths = (seed, state["bundle"], state["dataset"])
        build_s, crc = in_child(self.build, *paths) if run.isolate else self.build(*paths)
        run.samples["build_s"].append(build_s)
        run.notes["bundle_crc32"].append(crc)
        state["first"] = None
        return state

    def unit(self, run: Run, state: dict, seed: int) -> None:
        with predictions_made() as made:
            t0 = time.perf_counter()
            bundle = pipeline.load_bundle(state["bundle"])
            dataset = pipeline.load_dataset(state["dataset"])
            t1 = time.perf_counter()
            metrics = pipeline.evaluate(bundle, dataset, "test")
            t2 = time.perf_counter()
        run.samples["eval_images_per_s"].append(dataset.rows("test").size / (t2 - t1))
        run.samples["sweep_s"].append(t2 - t0)

        if state["first"] is None:
            state["first"] = (metrics, made)
            run.samples["mean_accuracy"].append(metrics.mean_accuracy)
            return
        # Both the returned metrics and every prediction made on the way must
        # repeat those of the first pass.
        first_metrics, first_made = state["first"]
        same = (
            _same_metrics(metrics, first_metrics)
            and len(made) == len(first_made)
            and all(np.array_equal(a, b) for a, b in zip(made, first_made))
        )
        run.check(same, f"{state['bundle'].name}: an eval pass predicted differently from the first")


@dataclasses.dataclass(frozen=True)
class TransferSweep:
    general: dict
    domain: dict
    target: dict
    train: dict
    gentle_ft: dict
    scorings: int  # evaluate_feature_svm calls per graph
    setups = 15  # a set-up only generates data, so the median needs many
    min_units = 1
    inputs_per_unit = True

    def setup(self, run: Run, seed: int):
        return {
            "general": pipeline.generate_synthetic(seed=derive_seed(seed, 1), style_seed=seed, **self.general),
            "domain": pipeline.generate_synthetic(seed=derive_seed(seed, 2), style_seed=seed, **self.domain),
            "target": pipeline.generate_synthetic(seed=derive_seed(seed, 3), style_seed=seed, **self.target),
        }

    def graphs(self) -> dict[str, StageGraph]:
        gentle = self.gentle_ft
        return {
            "g1": StageGraph((StageSpec("target", "rt"),)),
            "g2": StageGraph((StageSpec("domain", "rt"), StageSpec("target", "ft", **gentle))),
            "g2b": StageGraph((StageSpec("general", "rt"), StageSpec("domain", "ft"))),
            "g3": StageGraph(
                (StageSpec("general", "rt"), StageSpec("domain", "ft"), StageSpec("target", "ft", **gentle))
            ),
        }

    def unit(self, run: Run, datasets: dict, seed: int) -> None:
        target = datasets["target"]
        cfg = TrainConfig(seed=seed, **self.train)
        n_test = target.rows("test").size
        accuracies = {}
        build_s = sweep_s = 0.0
        for name, graph in self.graphs().items():
            t0 = time.perf_counter()
            result = pipeline.run_stage_graph(graph, datasets, cfg)
            build_s += time.perf_counter() - t0
            scores = []
            for _ in range(self.scorings):
                t1 = time.perf_counter()
                scores.append(pipeline.evaluate_feature_svm(result.net, target))
                run.samples["eval_images_per_s"].append(n_test / (time.perf_counter() - t1))
                if len(scores) == 1:
                    sweep_s += time.perf_counter() - t0  # the graph trained and scored once
            accuracies[name] = scores[0].mean_accuracy
            run.check(
                all(_same_metrics(score, scores[0]) for score in scores[1:]),
                f"seed {seed}: {name} scored differently on a repeat",
            )
        run.samples["build_s"].append(build_s)
        run.samples["sweep_s"].append(sweep_s)
        run.samples["mean_accuracy"].append(statistics.fmean(accuracies.values()))
        run.notes["accuracies"].append(accuracies)

        chance = 1.0 / target.n_classes
        for name, acc in accuracies.items():
            run.check(math.isfinite(acc) and acc > chance, f"seed {seed}: {name} accuracy {acc!r} is not above chance")


_BENCH_TRAIN = dict(epochs=30, learning_rate=0.02)
_BENCH_SYSTEM = dict(k=3, selector="network", subset_lr=0.01, subset_epochs=50, selector_epochs=20)
_GENTLE_FT = dict(epochs=10, learning_rate=1e-3, freeze_below=7)  # fc layers only

WORKLOADS = {
    "train-k3": TrainK3(
        data=dict(n_groups=3, classes_per_group=4, train_per_class=100, test_per_class=30),
        system=_BENCH_SYSTEM,
        train=_BENCH_TRAIN,
        score_seconds=10.0,
    ),
    "eval-k6": EvalK6(
        data=dict(n_groups=6, classes_per_group=4, train_per_class=40, test_per_class=100),
        system=dict(k=6, selector="network", subset_lr=0.01, subset_epochs=5, selector_epochs=5),
        train=dict(epochs=10, learning_rate=0.02),
    ),
    "transfer-sweep": TransferSweep(
        general=dict(n_groups=4, classes_per_group=4, train_per_class=60, test_per_class=2),
        domain=dict(n_groups=3, classes_per_group=4, train_per_class=100, test_per_class=2),
        target=dict(n_groups=3, classes_per_group=4, train_per_class=10, test_per_class=30),
        train=_BENCH_TRAIN,
        gentle_ft=_GENTLE_FT,
        scorings=25,
    ),
}

# The same workloads at sizes that run in seconds, for the self-check.
TINY_WORKLOADS = {
    "train-k3": TrainK3(
        data=dict(n_groups=3, classes_per_group=2, train_per_class=8, test_per_class=4),
        system=dict(_BENCH_SYSTEM, subset_epochs=1, selector_epochs=1),
        train=dict(_BENCH_TRAIN, epochs=2),
        score_seconds=0.0,
    ),
    "eval-k6": EvalK6(
        data=dict(n_groups=6, classes_per_group=2, train_per_class=6, test_per_class=4),
        system=dict(k=6, selector="network", subset_lr=0.01, subset_epochs=1, selector_epochs=1),
        train=dict(epochs=2, learning_rate=0.02),
    ),
    "transfer-sweep": TransferSweep(
        general=dict(n_groups=2, classes_per_group=2, train_per_class=12, test_per_class=2),
        domain=dict(n_groups=2, classes_per_group=2, train_per_class=12, test_per_class=2),
        target=dict(n_groups=2, classes_per_group=2, train_per_class=6, test_per_class=6),
        train=dict(_BENCH_TRAIN, epochs=2),
        gentle_ft=dict(_GENTLE_FT, epochs=1),
        scorings=2,
    ),
}
