"""Fast self-check of the benchmark at tiny sizes.

Run from the root of a checkout:

    python3 perfbench/selfcheck.py

It runs every workload at tiny sizes, untraced and traced, and confirms that
each run passes its output checks and emits exactly the metrics of
``BENCHMARK.json`` with their units.  It then corrupts one output of each
workload and confirms that an output check fails the operation.  Finally it
confirms that ``predictions.json`` names only known metrics and workloads.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import run  # sets the BLAS pin and puts src/ on the path; keep it first
from subsetlearn import fusion, pipeline

HERE = Path(__file__).resolve().parent
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def expect(ok: bool, what: str) -> None:
    if not ok:
        sys.exit(f"selfcheck: FAIL: {what}")
    print(f"selfcheck: ok: {what}")


@contextmanager
def patched(module, name: str, make):
    """Replace ``module.name`` with ``make(original)`` inside the block."""
    original = getattr(module, name)
    setattr(module, name, make(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def corrupt_loaded_bundle(load):
    """Every loaded bundle has its SVM weights negated."""

    def load_corrupted(path):
        bundle = load(path)
        bundle.svm = dataclasses.replace(bundle.svm, weights=-bundle.svm.weights)
        return bundle

    return load_corrupted


def corrupt_predictions(predict):
    """Each call shifts the first prediction by a different amount."""
    calls = []

    def predict_corrupted(model, features):
        preds, scores = predict(model, features)
        calls.append(None)
        preds = preds.copy()
        preds[0] = (preds[0] + len(calls)) % model.weights.shape[0]
        return preds, scores

    return predict_corrupted


def corrupt_accuracy(score):
    """Every feature-SVM score comes back as NaN."""

    def score_corrupted(*args, **kwargs):
        return dataclasses.replace(score(*args, **kwargs), mean_accuracy=float("nan"))

    return score_corrupted


CORRUPTIONS = {
    "train-k3": (pipeline, "load_bundle", corrupt_loaded_bundle),
    "eval-k6": (fusion, "svm_predict_batch", corrupt_predictions),
    "transfer-sweep": (pipeline, "evaluate_feature_svm", corrupt_accuracy),
}


def main() -> int:
    for trace, group in ((False, "end_to_end"), (True, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in SPEC[group]}
        for workload in SPEC["workloads"]:
            name = workload["name"]
            _, result = run.run_benchmark(name, seed=1, seconds=0.0, trace=trace, tiny=True)
            expect(result["correct"] and result["failed"] == 0, f"{name} trace={int(trace)} passes its checks")
            emitted = {key: m["unit"] for key, m in result["metrics"].items()}
            expect(emitted == wanted, f"{name} trace={int(trace)} emits every {group} metric with its unit")
            values = [m["value"] for m in result["metrics"].values()]
            expect(all(isinstance(v, (int, float)) for v in values), f"{name} trace={int(trace)} values are numbers")

    for name, (module, attr, corruption) in CORRUPTIONS.items():
        with patched(module, attr, corruption):
            _, result = run.run_benchmark(name, seed=1, seconds=0.0, trace=False, tiny=True)
        expect(not result["correct"] and result["failed"] >= 1, f"{name}: a corrupted output fails an operation")

    predictions = json.loads((HERE / "predictions.json").read_text())
    workloads = {w["name"] for w in SPEC["workloads"]}
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    layer = {m["name"] for m in SPEC["per_layer"]}
    pairs = [p for entry in predictions["layers"] for p in entry["moves"]] + predictions["unchanged"]
    expect(
        all(set(entry["metrics"]) <= layer for entry in predictions["layers"])
        and all(p["metric"] in e2e and p["workload"] in workloads for p in pairs),
        "predictions.json names only metrics and workloads of BENCHMARK.json",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
