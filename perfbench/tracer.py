"""In-memory span tracer for the benchmark's traced run.

The tracer replaces the public functions listed in ``LAYERS`` on their
``subsetlearn`` modules with wrappers that record one span per call: name,
start, end, parent span and whether the call raised.  The package calls these
functions through module attributes (``convnet.train``, ``fusion.svm_train``)
or through module globals (``train`` calling ``loss_and_grads``), so patching
the module attribute times every call, including the ones the package makes
internally.  Spans stay in memory and are written out once, when the run ends.

The benchmark runs single-threaded (``workers=1``), so one stack of open spans
gives each new span its parent.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import import_module

# The layers of the system and the public functions timed in each.
LAYERS = (
    ("convnet", ("train", "loss_and_grads", "forward")),
    ("subset", ("extract_subset_features", "select_batch", "train_subset_nets", "train_selector_net")),
    ("cluster", ("lda_fit", "precluster_classes", "kmeans_fit")),
    ("numkit", ("sym_eig",)),
    ("fusion", ("svm_train", "fuse_batch", "svm_predict_batch")),
    ("pipeline", ("run_stage_graph", "fuse_dataset_features", "evaluate")),
    ("container", ("read_container", "write_container")),
)
FUNCTIONS = tuple(f"{module}.{name}" for module, names in LAYERS for name in names)

# Name of the root span of each measured unit; eval.forwards_per_image counts
# only the evaluate calls made inside one.
UNIT_SPAN = "bench.unit"


def _digest(*parts) -> str:
    """Content hash of strings and arrays, used to spot repeated train inputs."""
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        if isinstance(part, str):
            h.update(part.encode())
        else:
            h.update(f"{part.dtype}{part.shape}".encode())
            h.update(part.tobytes())
    return h.hexdigest()


def _train_attrs(args: dict, result) -> dict:
    arrays = [a for lp in args["params"].layers if lp is not None for a in (lp.weight, lp.bias)]
    key = _digest(repr(args["spec"]), repr(args["cfg"]), args["images"], args["labels"], *arrays)
    return {"key": key}


def _evaluate_attrs(args: dict, result) -> dict:
    return {"images": int(args["dataset"].rows(args["split"]).size)}


# Per-call attributes, computed after the call returns and outside its span.
_ATTRS = {
    "convnet.train": _train_attrs,
    "convnet.forward": lambda args, result: {"images": int(args["batch"].shape[0])},
    "pipeline.evaluate": _evaluate_attrs,
    "container.read_container": lambda args, result: {"bytes": os.path.getsize(args["path"])},
    "container.write_container": lambda args, result: {"bytes": os.path.getsize(args["path"])},
}


@dataclass
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    error: bool = False
    attrs: dict | None = None


class Tracer:
    """Records spans while ``enabled``; calls pass straight through otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = True
        self._open: list[int] = []

    @contextmanager
    def installed(self):
        """Wrap every function in ``LAYERS``; restore the originals on exit."""
        originals = []
        try:
            for module_name, names in LAYERS:
                module = import_module(f"subsetlearn.{module_name}")
                for name in names:
                    original = getattr(module, name)
                    originals.append((module, name, original))
                    setattr(module, name, self._wrap(f"{module_name}.{name}", original))
            yield self
        finally:
            for module, name, original in reversed(originals):
                setattr(module, name, original)

    @contextmanager
    def span(self, name: str):
        """A span around the enclosed block; a no-op while tracing is off."""
        if not self.enabled:
            yield None
            return
        index = len(self.spans)
        span = Span(name, self._open[-1] if self._open else None)
        self.spans.append(span)
        self._open.append(index)
        span.start = time.perf_counter()
        try:
            yield span
        except BaseException:
            span.error = True
            raise
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def _wrap(self, name: str, fn):
        attrs = _ATTRS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if attrs is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs = attrs(bound.arguments, result)
            return result

        return traced

    def write(self, path) -> None:
        """Write every span as one JSON line, times in seconds from the first span."""
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": span.name,
                    "start": span.start - origin,
                    "end": span.end - origin,
                    "parent": span.parent,
                    "error": span.error,
                }
                if span.attrs:
                    record.update(span.attrs)
                handle.write(json.dumps(record) + "\n")

    def _root(self, index: int) -> Span:
        while self.spans[index].parent is not None:
            index = self.spans[index].parent
        return self.spans[index]

    def _has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index].parent
        while parent is not None:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer statistics over every span recorded: ``name -> (value, unit)``.

        Self time is a span's duration minus the time its child spans cover,
        that is, time not spent inside another timed function.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        steps = [0] * len(spans)
        for span in spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
                if span.name == "convnet.loss_and_grads" and spans[span.parent].name == "convnet.train":
                    steps[span.parent] += 1
        out: dict[str, tuple[float, str]] = {}
        for name in FUNCTIONS:
            mine = [i for i, s in enumerate(spans) if s.name == name]
            out[f"{name}.calls"] = (len(mine), "count")
            out[f"{name}.busy_s"] = (sum(spans[i].end - spans[i].start for i in mine), "s")
            out[f"{name}.self_s"] = (sum(spans[i].end - spans[i].start - child_time[i] for i in mine), "s")
            out[f"{name}.errors"] = (sum(spans[i].error for i in mine), "count")

        step_times = [s.end - s.start for s in spans if s.name == "convnet.loss_and_grads"]
        out["convnet.sgd_steps"] = (sum(steps), "count")
        out["convnet.step_ms"] = (1e3 * statistics.median(step_times) if step_times else 0.0, "ms")
        out["convnet.optimizer_s"] = (out["convnet.train.self_s"][0], "s")

        seen: set[str] = set()
        repeated = 0
        for i, span in enumerate(spans):
            if span.name == "convnet.train" and span.attrs:
                if span.attrs["key"] in seen:
                    repeated += steps[i]
                seen.add(span.attrs["key"])
        total_steps = sum(steps)
        out["convnet.train.duplicate_step_share"] = (repeated / total_steps if total_steps else 0.0, "share")

        forward = [i for i, s in enumerate(spans) if s.name == "convnet.forward" and s.attrs]
        images = sum(spans[i].attrs["images"] for i in forward)
        out["convnet.forward.images"] = (images, "count")
        busy = out["convnet.forward.busy_s"][0]
        out["convnet.forward.us_per_image"] = (1e6 * busy / images if images else 0.0, "us")

        in_unit = lambda i: self._root(i).name == UNIT_SPAN  # noqa: E731
        classified = sum(
            s.attrs["images"] for i, s in enumerate(spans) if s.name == "pipeline.evaluate" and s.attrs and in_unit(i)
        )
        eval_forwards = sum(
            spans[i].attrs["images"] for i in forward if in_unit(i) and self._has_ancestor(i, "pipeline.evaluate")
        )
        out["eval.forwards_per_image"] = (eval_forwards / classified if classified else 0.0, "ratio")

        for kind in ("read", "write"):
            moved = sum(s.attrs["bytes"] for s in spans if s.name == f"container.{kind}_container" and s.attrs)
            out[f"container.{kind}_bytes"] = (moved, "B")
        return out
