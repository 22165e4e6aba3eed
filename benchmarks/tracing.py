"""Per-layer spans recorded by wrapping library functions from outside.

Each wrapped name gets a span per call: its busy time, and its self time
(busy time minus the time covered by spans of other wrapped calls made
inside it).  Names are wrapped in the module that looks them up at call
time: ``training`` imports ``chain_backward`` by name, so the span for
the training hot path wraps ``compound_kge.training.chain_backward``.

A name that no longer exists (a later refactor removed or renamed it) is
reported as absent: its metrics are ``None``, never zero.  So are the
counts of a name whose arguments or result no longer fit its counter.
Spans are kept as running sums in memory; nothing is written until the
run ends.
"""

from __future__ import annotations

import dataclasses
import os
import time
from collections import defaultdict

import numpy as np


def array_bytes(*objs) -> int:
    """Bytes of every array in ``objs``, looking one level into tuples,
    lists and dataclasses (computed from array sizes)."""
    total = 0
    for obj in objs:
        if isinstance(obj, np.ndarray):
            total += obj.nbytes
        elif isinstance(obj, (tuple, list)):
            total += array_bytes(*obj)
        elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            total += sum(
                getattr(obj, f.name).nbytes
                for f in dataclasses.fields(obj)
                if isinstance(getattr(obj, f.name), np.ndarray)
            )
    return total


def _leading_rows(x) -> int:
    x = np.asarray(x)
    return int(x.size // x.shape[-1]) if x.ndim else 1


# Counters computed from (args, result) at each call of a wrapped name.
def _io_bytes(args, result):
    return {"bytes_computed": array_bytes(args, result)}


def _candidate_rows(args, result):
    return {"rows": _leading_rows(args[0]), "bytes_computed": array_bytes(args, result)}


def _accumulated_rows(args, result):
    return {"rows_in": len(args[0]), "rows_out": len(result[0])}


def _updated_rows(args, result):
    # Adam.update(self, name, param, rows, grads)
    return {"rows": len(args[3])}


def _file_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


# (label, module or class path, attribute, counters).  One label may be
# installed at several sites when several modules look the name up.
TARGETS = (
    ("training.train_step", "training", "train_step", None),
    ("training.batch_loss_and_grads", "training", "batch_loss_and_grads", None),
    ("transforms.chain_forward_tape", "training", "chain_forward_tape", _io_bytes),
    ("transforms.chain_backward", "training", "chain_backward", _io_bytes),
    ("scoring.norm_and_grad", "training", "_norm_and_grad", None),
    ("training.accumulate_rows", "training", "_accumulate_rows", _accumulated_rows),
    ("training.optimizer_update", "training.Adam", "update", _updated_rows),
    ("dataset.build_filter_index", "training", "build_filter_index", None),
    ("dataset.build_filter_index", "evaluation", "build_filter_index", None),
    ("dataset.build_filter_index", "dataset", "build_filter_index", None),
    ("model.copy", "model.KGEModel", "copy", None),
    ("evaluation.evaluate", "evaluation", "evaluate", None),
    ("evaluation.filtered_rank", "evaluation", "filtered_rank", None),
    ("evaluation.score_block", "evaluation", "_score_block", None),
    ("transforms.apply_chain", "evaluation", "apply_chain", _candidate_rows),
    ("dataset.load_dataset", "dataset", "load_dataset", None),
    ("dataset.categorize_relations", "dataset", "categorize_relations", None),
    ("model.init_model", "model", "init_model", None),
    ("checkpoint.save_checkpoint", "checkpoint", "save_checkpoint", _file_bytes),
    ("checkpoint.load_checkpoint", "checkpoint", "load_checkpoint", None),
    ("diagnostics.relation_diagnostics", "diagnostics", "relation_diagnostics", None),
)


@dataclasses.dataclass
class SpanStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    # None once a call stopped fitting the counter
    counts: dict | None = dataclasses.field(default_factory=lambda: defaultdict(int))


class Tracer:
    """Installs span wrappers on the library and restores the originals."""

    def __init__(self, package):
        self.package = package
        self.stats: dict[str, SpanStats] = {}
        self.absent: set[str] = set()
        self._child_time: list[float] = []
        self._installed: list[tuple[object, str, object]] = []

    def _resolve(self, path: str):
        obj = self.package
        for part in path.split("."):
            obj = getattr(obj, part, None)
            if obj is None:
                return None
        return obj

    def _wrap(self, label, fn, counters):
        stats = self.stats.setdefault(label, SpanStats())
        child_time = self._child_time

        def wrapper(*args, **kwargs):
            child_time.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                busy = time.perf_counter() - t0
                inner = child_time.pop()
                if child_time:
                    child_time[-1] += busy
                stats.calls += 1
                stats.busy_s += busy
                stats.self_s += busy - inner
            if counters is not None and stats.counts is not None:
                try:
                    counts = counters(args, result)
                except (TypeError, IndexError, AttributeError, OSError):
                    # the call no longer has the shape the counter expects
                    stats.counts = None
                else:
                    for key, value in counts.items():
                        stats.counts[key] += value
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for label, path, attr, counters in TARGETS:
            owner = self._resolve(path)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.absent.add(label)
                continue
            self._installed.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(label, fn, counters))
        # a label counts as present if any of its sites exists
        self.absent -= set(self.stats)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()

    def value(self, label: str, field: str):
        """A recorded figure, or None when the label's name is absent."""
        if label in self.absent or label not in self.stats:
            return None
        stats = self.stats[label]
        if field in ("calls", "busy_s", "self_s"):
            return getattr(stats, field)
        return None if stats.counts is None else stats.counts.get(field, 0)
