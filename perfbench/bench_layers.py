"""Outside-in layer timing for the traced benchmark pass.

The program under test carries no benchmark spans of its own.  Instead
:func:`instrument` replaces the public functions at each layer boundary
of the perception pipeline with thin wrappers that record a span —
layer name, start, end, parent span and drive id — and restores the
originals when the block exits.  Spans stay in memory, one list per
thread, and are written as JSONL once the run ends.

A layer's *self time* is its span's duration minus the time its direct
child spans cover; spans of one thread nest strictly, so the children
never overlap and the subtraction is exact.  Summed over all spans the
self times equal the time the outermost spans cover, which is how the
benchmark checks that the layers account for the traced wall.
"""

from __future__ import annotations

import functools
import json
import threading
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# Field positions of one span record.
NAME, START, END, PARENT, DRIVE, ROWS = range(6)

# Every layer the traced pass times, in pipeline order.  ``shard`` is the
# sweep engine's per-scenario work outside the runner; ``runner`` is the
# closed-loop runner's own time outside every other layer.
LAYERS = (
    "render", "stems", "gate", "branches", "wbf", "map",
    "decide", "accounting", "runner", "shard",
)
# Layers whose calls carry a batch: their rows are reported too.
BATCHED = ("stems", "gate", "branches")


class SpanRecorder:
    """In-memory span store with one span list and call stack per thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.threads: list[list[list]] = []
        self.counts: Counter = Counter()

    def _thread_spans(self) -> tuple[list, list]:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = self._local.spans = []
            self._local.stack = []
            with self._lock:
                self.threads.append(spans)
        return spans, self._local.stack

    def call(self, layer: str, fn, args, kwargs, drive=None, rows=0):
        """Run ``fn(*args, **kwargs)`` inside a span of ``layer``."""
        spans, stack = self._thread_spans()
        parent = stack[-1] if stack else -1
        if drive is None and parent >= 0:
            drive = spans[parent][DRIVE]
        record = [layer, perf_counter(), None, parent, drive, rows]
        stack.append(len(spans))
        spans.append(record)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()
            record[END] = perf_counter()

    def write_jsonl(self, path: Path, header: dict) -> None:
        """One header line, then one line per span (thread-local indices)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write(json.dumps({"header": header}) + "\n")
            for thread, spans in enumerate(self.threads):
                for index, s in enumerate(spans):
                    out.write(json.dumps({
                        "thread": thread, "index": index, "name": s[NAME],
                        "start": s[START], "end": s[END],
                        "parent": s[PARENT], "drive": s[DRIVE],
                        "rows": s[ROWS],
                    }) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Self time of every span of one thread (duration minus children)."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            covered[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - covered[i] for i, s in enumerate(spans)]


def summarize(threads: list[list[list]]) -> tuple[dict[str, dict], float]:
    """Per-layer ``calls``, ``rows`` and ``self_s``, and the covered time.

    A call nested inside a span of its own layer (a wrapper calling a
    wrapped base-class method, say) adds self time but no call or rows,
    so ``calls`` counts entries into the layer.  The covered time is the
    time the outermost spans of all threads cover.
    """
    table = {layer: {"calls": 0, "rows": 0, "self_s": 0.0} for layer in LAYERS}
    covered = 0.0
    for spans in threads:
        for s, own in zip(spans, self_times(spans)):
            entry = table[s[NAME]]
            entry["self_s"] += own
            parent = s[PARENT]
            if parent < 0:
                covered += s[END] - s[START]
            if parent < 0 or spans[parent][NAME] != s[NAME]:
                entry["calls"] += 1
                entry["rows"] += s[ROWS]
    return table, covered


# ----------------------------------------------------------------------
# Wrapping the program's layer boundaries
# ----------------------------------------------------------------------
def _drive_of(args, kwargs) -> str | None:
    """Drive id of ``runner.run/close_drive(spec, policy, ...)`` calls."""
    spec = args[1] if len(args) > 1 else kwargs.get("spec")
    policy = args[2] if len(args) > 2 else kwargs.get("policy")
    if spec is None or policy is None:
        return None
    return f"{spec.name}/{policy.name}"


def _rows_of(position: int):
    """Rows = length of positional argument ``position`` (self included)."""
    def rows(args, kwargs):
        return len(args[position]) if len(args) > position else 0
    return rows


def _subclasses(cls) -> list[type]:
    found, todo = [], [cls]
    while todo:
        klass = todo.pop()
        found.append(klass)
        todo.extend(klass.__subclasses__())
    return found


def targets() -> list[tuple[object, str, str, object, object]]:
    """``(owner, attribute, layer, rows_fn, drive_fn)`` for every wrapper."""
    from repro.core.ecofusion import EcoFusionModel
    from repro.core.gating import Gate
    from repro.hardware.battery import BatteryState
    from repro.policies import PerceptionPolicy
    from repro.resilience.monitor import HealthMonitor
    from repro.simulation import closed_loop, drive, sweep

    found = [
        (drive.DriveCursor, "__next__", "render", None, None),
        (EcoFusionModel, "stem_features", "stems", _rows_of(1), None),
        (EcoFusionModel, "stem_features_cached", "stems", _rows_of(1), None),
        (EcoFusionModel, "gate_features", "gate", None, None),
        (EcoFusionModel, "branch_outputs", "branches", _rows_of(1), None),
        (EcoFusionModel, "branch_outputs_windowed", "branches",
         _rows_of(1), None),
        (EcoFusionModel, "fuse_single", "wbf", None, None),
        (closed_loop, "evaluate_map", "map", None, None),
        (BatteryState, "drive_step", "accounting", None, None),
        (HealthMonitor, "observe", "accounting", None, None),
        (closed_loop.ClosedLoopRunner, "run", "runner", None, _drive_of),
        (closed_loop.ClosedLoopRunner, "serve_batch", "runner",
         _rows_of(1), None),
        (closed_loop.ClosedLoopRunner, "close_drive", "runner", None,
         _drive_of),
        (sweep, "run_shard", "shard", None, None),
    ]
    gate_rows = {
        "predict_losses": _rows_of(2),
        "predict_losses_windowed": _rows_of(2),
        "select_direct": _rows_of(1),
        "smooth": None,
    }
    for klass in _subclasses(Gate):
        for name, rows in gate_rows.items():
            if name in vars(klass):
                found.append((klass, name, "gate", rows, None))
    for klass in _subclasses(PerceptionPolicy):
        if "decide" in vars(klass):
            found.append((klass, "decide", "decide", None, None))
    return found


# Branch-output cache lookups: a non-None return is a hit.
CACHE_GETS = ("get", "get_stem", "get_loss", "get_fused")


def _span_wrapper(recorder: SpanRecorder, layer: str, fn, rows_fn, drive_fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.call(
            layer, fn, args, kwargs,
            drive=drive_fn(args, kwargs) if drive_fn is not None else None,
            rows=rows_fn(args, kwargs) if rows_fn is not None else 0,
        )
    return wrapper


def _count_wrapper(counts: Counter, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        counts["cache.hits" if out is not None else "cache.misses"] += 1
        return out
    return wrapper


_MISSING = object()


@contextmanager
def instrument(recorder: SpanRecorder):
    """Wrap every layer boundary for the block; originals restored after.

    Each attribute is replaced on the object that defines it and put
    back from the saved ``__dict__`` entry, so restoring leaves every
    class and module exactly as it was, even when the block raises.
    """
    from repro.core.ecofusion import BranchOutputCache

    saved: list[tuple[object, str, object]] = []

    def patch(owner, name, wrapper_of):
        original = vars(owner).get(name, _MISSING)
        saved.append((owner, name, original))
        setattr(owner, name, wrapper_of(getattr(owner, name)))

    try:
        for owner, name, layer, rows_fn, drive_fn in targets():
            patch(owner, name, lambda fn, layer=layer, r=rows_fn, d=drive_fn:
                  _span_wrapper(recorder, layer, fn, r, d))
        for name in CACHE_GETS:
            patch(BranchOutputCache, name,
                  lambda fn: _count_wrapper(recorder.counts, fn))
        yield recorder
    finally:
        for owner, name, original in reversed(saved):
            if original is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
