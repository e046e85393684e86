"""Spans around detlab's public functions, recorded from outside the program.

`Tracer.install()` replaces each traced function at the places its callers
look it up (a module attribute or a name imported into another module) with a
wrapper that records a span, and `uninstall()` puts the originals back. No
file of detlab is changed: the patches live only in the benchmark process.

Spans are kept in memory as (name, start, end, parent) and written out by the
caller when the run ends. Counts (rows, pairs, bytes, ...) are recorded at the
same boundaries, from the arguments and results of the call.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from collections import defaultdict


def _count_generate_proposals(args, kwargs, out):
    return {"rows": len(out)}


def _count_save_dataset(args, kwargs, out):
    return {"bytes": os.path.getsize(args[1])}


def _count_load_dataset(args, kwargs, out):
    return {"bytes": os.path.getsize(args[0])}


def _count_iou_matrix(args, kwargs, out):
    return {"pairs": int(out.size)}


def _count_sample(args, kwargs, out):
    return {"pos_unique": int(out.pos_count_unique),
            "pos_effective": int(out.pos_count_effective)}


def _count_rows_arg(index):
    def count(args, kwargs, out):
        return {"rows": len(args[index])}
    return count


def _count_nms(args, kwargs, out):
    return {"in": len(args[0]), "kept": len(out)}


def _count_compute_ap(args, kwargs, out):
    return {"dets": len(args[0])}


# (span name, defining module, attribute, modules whose namespace holds a
# reference the callers use, count function). Each listed lookup site is
# patched with the same wrapper around the original function.
TRACE_POINTS = [
    ("config.load_config", "detlab.config", "load_config", ["detlab.cli"], None),
    ("synthdata.generate_dataset", "detlab.synthdata", "generate_dataset",
     ["detlab.harness"], None),
    ("synthdata.save_dataset", "detlab.synthdata", "save_dataset",
     ["detlab.harness"], _count_save_dataset),
    ("synthdata.load_dataset", "detlab.synthdata", "load_dataset",
     ["detlab.harness"], _count_load_dataset),
    ("synthdata.generate_proposals", "detlab.synthdata", "generate_proposals",
     ["detlab.harness"], _count_generate_proposals),
    # geometry's own namespace is patched too: label_arrays calls iou_matrix
    # there, and evaluate_model imports decode_deltas_array at call time.
    ("geometry.iou_matrix", "detlab.geometry", "iou_matrix",
     ["detlab.geometry", "detlab.synthdata", "detlab.metrics"], _count_iou_matrix),
    ("geometry.label_arrays", "detlab.geometry", "label_arrays",
     ["detlab.synthdata"], None),
    ("geometry.decode_deltas_array", "detlab.geometry", "decode_deltas_array",
     ["detlab.geometry", "detlab.prm"], None),
    ("sampler.sample", "detlab.sampler", "sample", ["detlab.prm"], _count_sample),
    # prm calls net.forward etc. through the module object; harness and cli
    # import save_params/load_params from the module at call time.
    ("net.forward", "detlab.net", "forward", ["detlab.net"], _count_rows_arg(2)),
    ("net.backward", "detlab.net", "backward", ["detlab.net"], _count_rows_arg(1)),
    ("net.total_loss", "detlab.net", "total_loss", ["detlab.net"], None),
    ("net.sgd_step", "detlab.net", "sgd_step", ["detlab.net"], None),
    ("net.save_params", "detlab.net", "save_params", ["detlab.net"], None),
    ("net.load_params", "detlab.net", "load_params", ["detlab.net"], None),
    ("rga.apply_rga", "detlab.rga", "apply_rga", ["detlab.prm"], None),
    ("prm.prm_train_step", "detlab.prm", "prm_train_step", ["detlab.harness"], None),
    ("prm.prm_predict", "detlab.prm", "prm_predict", ["detlab.harness"], None),
    ("metrics.nms", "detlab.metrics", "nms", ["detlab.harness"], _count_nms),
    ("metrics.compute_ap", "detlab.metrics", "compute_ap", ["detlab.harness"],
     _count_compute_ap),
    ("metrics.proposal_accuracy", "detlab.metrics", "proposal_accuracy",
     ["detlab.prm"], None),
    ("metrics.score_gap_stats", "detlab.metrics", "score_gap_stats",
     ["detlab.harness"], None),
    ("harness.evaluate_model", "detlab.harness", "evaluate_model",
     ["detlab.harness", "detlab.cli"], None),
    ("harness.run_experiment", "detlab.harness", "run_experiment", ["detlab.cli"], None),
    ("harness.write_eval_report", "detlab.harness", "write_eval_report",
     ["detlab.harness", "detlab.cli"], None),
    ("harness.write_gradnorm_csv", "detlab.harness", "write_gradnorm_csv",
     ["detlab.harness"], None),
]

# Methods are patched on their class, which is where every caller finds them.
TRACE_METHODS = [
    ("metrics.MetricsLog.to_csv", "detlab.metrics", "MetricsLog", "to_csv"),
]

# A span of this name takes a variant from its parent, so the training and
# prediction forwards are reported apart.
PARENT_VARIANTS = {
    "net.forward": {"prm.prm_train_step": "train", "prm.prm_predict": "predict"},
}


class Tracer:
    """Records nested spans and per-span counts while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: list = []  # counts dict of span i (or None), parallel to spans
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # --- recording ------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        variants = PARENT_VARIANTS.get(name)
        if variants is not None and parent >= 0:
            variant = variants.get(self.spans[parent][0])
            if variant is not None:
                name = f"{name}.{variant}"
        self.spans.append([name, time.perf_counter(), None, parent])
        self.counts.append(None)
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the caller's own; yields its index."""
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    def _wrap(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if count is not None:
                tracer.counts[index] = count(args, kwargs, out)
            return out

        return traced

    # --- patching -------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for name, home, attr, sites, count in TRACE_POINTS:
            original = getattr(importlib.import_module(home), attr)
            wrapper = self._wrap(name, original, count)
            for site in sites:
                module = importlib.import_module(site)
                if getattr(module, attr) is not original:
                    raise RuntimeError(f"{site}.{attr} is not {home}.{attr}")
                self._restore.append((module, attr, original))
                setattr(module, attr, wrapper)
        for name, home, cls_name, attr in TRACE_METHODS:
            cls = getattr(importlib.import_module(home), cls_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, None))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    # --- summaries ------------------------------------------------------

    def stats(self, root: int) -> dict[str, dict[str, float]]:
        """Per span name in the subtree of span `root`, the root included:
        calls, self seconds (span time minus its children's) and the summed
        counts."""
        members = self._subtree(root)
        child_time: dict[int, float] = defaultdict(float)
        for i in members[1:]:
            _, start, end, parent = self.spans[i]
            child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i in members:
            name, start, end, _ = self.spans[i]
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[i]
            for key, value in (self.counts[i] or {}).items():
                entry[key] = entry.get(key, 0) + value
        return out

    def _subtree(self, root: int) -> list[int]:
        # spans are appended in start order, so a subtree is a contiguous run
        members = [root]
        inside = {root}
        for i in range(root + 1, len(self.spans)):
            if self.spans[i][3] not in inside:
                break
            inside.add(i)
            members.append(i)
        return members

    def dump(self) -> dict:
        """Every span as [name, start, end, parent index, counts or None];
        start and end are `time.perf_counter` seconds."""
        return {
            "fields": ["name", "start", "end", "parent", "counts"],
            "spans": [[*span, counts] for span, counts in zip(self.spans, self.counts)],
        }

