"""Benchmark of the subsetlearn system.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload train-k3 --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.py``): ``train-k3``, ``eval-k6``, ``transfer-sweep``.
The run builds the program from ``src/`` of the same checkout, warms up,
times several set-ups, then repeats the workload's measured unit for
``--seconds`` seconds (at least once) and checks every unit's outputs.

Output: one JSON line with the environment and the raw samples, then, as the
last line, ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``.  With
``--trace 1`` they are the per-layer ones: the tracer times every call of the
functions in ``tracer.LAYERS`` (warm-up and one set-up included), writes the
spans to ``.perfbench/trace-<workload>-seed<seed>.jsonl``, and then repeats
the measured loop untraced to report the tracing overhead.

End-to-end metrics.  A shared host slows this program by up to a quarter
for tens of seconds at a time, and never speeds it up, so a timing is the
fastest of its samples in the run (the only one, where there is one):

    setup_s            set-up of one unit: data generation, plus build_system,
                       save_bundle and save_dataset on eval-k6; the median of
                       the run's set-ups
    build_s            training: build_system (train-k3, and the eval-k6
                       set-up), or the four run_stage_graph calls of a sweep
                       (transfer-sweep)
    eval_images_per_s  test images per second of one scoring call: evaluate,
                       or evaluate_feature_svm (transfer-sweep), which also
                       fits its SVM; the fastest call
    sweep_s            one measured unit: build_system + evaluate +
                       save_bundle for one seed (train-k3), a load_bundle +
                       load_dataset + evaluate pass (eval-k6), the four stage
                       graphs each trained and scored once (transfer-sweep)
    peak_rss_mb        peak resident memory of the process; eval-k6 builds
                       its bundles in child processes, so this is the peak of
                       its eval passes
    mean_accuracy      test mean per-class accuracy, the mean over the run's
                       seeds (train-k3), bundles (eval-k6) or the four graphs
                       of a sweep (transfer-sweep)

BLAS runs on one thread and training on one worker, so a run uses one core.
"""

from __future__ import annotations

import os

# The pin must be in place before numpy loads OpenBLAS.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import ExitStack, nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "subsetlearn" / "__init__.py").is_file():
    sys.exit(f"perfbench: no program to measure: {SRC / 'subsetlearn'} is missing")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import subsetlearn  # noqa: E402
from subsetlearn.numkit import derive_seed  # noqa: E402
from tracer import UNIT_SPAN, Tracer  # noqa: E402
from workloads import TINY_WORKLOADS, WORKLOADS, Run, warm_up  # noqa: E402

OUT_DIR = ROOT / ".perfbench"


def unit_seed(seed: int, index: int) -> int:
    """Seed of the index-th measured unit; the first unit uses the run's seed."""
    return seed if index == 0 else derive_seed(seed, index)


def environment(seed: int, workload: str, seconds: float, trace: bool) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "workers": 1,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "program": str(Path(subsetlearn.__file__).resolve().parent.relative_to(ROOT)),
    }


def _measure(workload, run: Run, span, states: list, seed: int, seconds: float, first: int) -> tuple[int, list[float]]:
    """Repeat the measured unit for ``seconds`` (at least ``min_units`` times).

    Unit ``i`` runs on the inputs of set-up ``i`` when there is one, else on
    inputs prepared inside the unit; a workload whose units share inputs runs
    every unit on those of ``states[0]``.  Returns the next unit index and the
    wall time of each unit run.
    """
    start = time.perf_counter()
    index = first
    times = []
    while True:
        s = unit_seed(seed, index)
        before = len(run.samples["sweep_s"])
        with run.operation(f"unit {index} (seed {s})"), span(UNIT_SPAN):
            if not workload.inputs_per_unit:
                inputs = states[0]
            else:
                inputs = states[index] if index < len(states) else workload.setup(run, s)
            workload.unit(run, inputs, s)
        times += run.samples["sweep_s"][before:]
        index += 1
        if index - first >= workload.min_units and time.perf_counter() - start >= seconds:
            return index, times


def _set_up(workload, run: Run, span, seed: int):
    t0 = time.perf_counter()
    with span("bench.setup"):
        state = workload.setup(run, seed)
    run.samples["setup_s"].append(time.perf_counter() - t0)
    return state


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> tuple[dict, dict]:
    """Run one workload; returns (details, result) where result is the last output line."""
    workload = (TINY_WORKLOADS if tiny else WORKLOADS)[name]
    workdir = OUT_DIR / f"{name}-seed{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = Run(workdir, isolate=not trace)  # a traced set-up runs here, where the tracer sees it
    tracer = Tracer() if trace else None
    details = {"environment": environment(seed, name, seconds, trace)}
    try:
        with ExitStack() as stack:
            if tracer:
                stack.enter_context(tracer.installed())
            span = tracer.span if tracer else lambda _name: nullcontext()  # tracer.span is a no-op once disabled

            t0 = time.perf_counter()
            with span("bench.warmup"):
                warm_up(workdir)
            details["warmup_s"] = time.perf_counter() - t0

            # Each set-up prepares the inputs of one unit seed, so no two
            # set-ups repeat the same work.
            setups = 1 if trace else workload.setups
            if workload.inputs_per_unit:
                # Only the first set-up's inputs are kept: a later unit makes
                # its inputs again, and the others would only hold memory.
                states = [_set_up(workload, run, span, seed)]
                for index in range(1, setups):
                    _set_up(workload, run, span, unit_seed(seed, index))
                index, unit_times = _measure(workload, run, span, states, seed, seconds, 0)
            else:
                # The units share a set-up's inputs.  Each set-up is followed
                # by its share of the measured time, so that both set-ups and
                # units spread over the whole run.
                index, unit_times = 0, []
                for n in range(setups):
                    states = [_set_up(workload, run, span, unit_seed(seed, n))]
                    index, times = _measure(workload, run, span, states, seed, seconds / setups, index)
                    unit_times += times
            if tracer:
                tracer.enabled = False
                index, untraced_times = _measure(workload, run, span, states, seed, seconds, index)
        details["unit_seeds"] = [unit_seed(seed, i) for i in range(index if workload.inputs_per_unit else setups)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer:
        trace_path = OUT_DIR / f"trace-{name}-seed{seed}.jsonl"
        tracer.write(trace_path)
        details["trace_file"] = str(trace_path.relative_to(ROOT))
        metrics = tracer.layer_metrics()
        traced, untraced = statistics.median(unit_times), statistics.median(untraced_times)
        metrics["trace.traced_unit_s"] = (traced, "s")
        metrics["trace.untraced_unit_s"] = (untraced, "s")
        metrics["trace.overhead_share"] = ((traced - untraced) / untraced, "share")
    else:
        samples = run.samples
        metrics = {
            "setup_s": (statistics.median(samples["setup_s"]), "s"),
            "build_s": (min(samples["build_s"]), "s"),
            "eval_images_per_s": (max(samples["eval_images_per_s"]), "1/s"),
            "sweep_s": (min(samples["sweep_s"]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            "mean_accuracy": (statistics.fmean(samples["mean_accuracy"]), "share"),
        }
    details.update(samples=run.samples, notes=run.notes, problems=run.problems)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    return details, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    details, result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
