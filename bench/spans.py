"""In-memory span recorder and the arithmetic the benchmark reports from it.

A `Tracer` replaces functions by attribute (on a module or a class) with
wrappers that record one span per call: its name, its thread, its parent
span on that thread, its wall interval (`time.perf_counter`) and its thread
CPU interval (`time.thread_time`). Both clocks are needed because the
simulated devices are threads sharing a few cores and the interpreter lock:
wall time alone would charge waiting to whichever layer happened to be
running. Busy time is CPU time, wait time is wall minus CPU, and a span's
self time subtracts what its child spans cover.

Spans stay in per-thread float arrays while the program runs and are
written out by `save` when the run ends.
"""

from __future__ import annotations

import json
import math
import threading
import time
from array import array
from fractions import Fraction

import numpy as np

# One span is FIELDS in a row of a float64 array; `index` and `parent`
# number spans within their thread log (parent -1 for a root span).
FIELDS = ("index", "parent", "name", "t0", "t1", "c0", "c1", "elements")
WIDTH = len(FIELDS)
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)
MIN_BEYOND = 10


class ThreadLog:
    """The spans one thread recorded, in the order they ended."""

    def __init__(self, thread: str):
        self.thread = thread
        self.data = array("d")
        self.stack: list[int] = []
        self.count = 0

    def table(self) -> np.ndarray:
        return np.frombuffer(self.data, dtype=np.float64).reshape(-1, WIDTH).copy()


class Patches:
    """Attribute replacements that `restore` undoes in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def install(self, owner, attr: str, make) -> None:
        """Replace `owner.attr` with `make(original)`."""
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    """Records a span for every call of the functions it wraps."""

    def __init__(self):
        self.names: list[str] = []
        self.logs: list[ThreadLog] = []
        self._local = threading.local()

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _log(self) -> ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = ThreadLog(threading.current_thread().name)
            self._local.log = log
            self.logs.append(log)
        return log

    def wrap(self, fn, name: str, elements=None):
        """`fn` recording a span per call; `elements(args)` sizes its payload."""
        nid = self._name_id(name)
        clock, cpu, get_log = time.perf_counter, time.thread_time, self._log

        def traced(*args, **kwargs):
            log = get_log()
            idx = log.count
            log.count += 1
            parent = log.stack[-1] if log.stack else -1
            log.stack.append(idx)
            # the wall interval encloses the CPU interval, so wait >= 0
            t0 = clock()
            c0 = cpu()
            try:
                return fn(*args, **kwargs)
            finally:
                c1 = cpu()
                t1 = clock()
                log.stack.pop()
                n = elements(args) if elements is not None else 0
                log.data.extend((idx, parent, nid, t0, t1, c0, c1, n))

        return traced


def child_coverage(parent, t0, t1) -> np.ndarray:
    """Per span, the length of its interval covered by its child spans.

    `parent[i]` is the position of span i's parent in the same arrays, or
    -1. Overlapping children are counted once (the union of their
    intervals), and a child's part outside its parent is not counted.
    """
    parent, t0, t1 = (np.asarray(a).tolist() for a in (parent, t0, t1))
    n = len(parent)
    cover = np.zeros(n)
    children = sorted((i for i in range(n) if parent[i] >= 0),
                      key=lambda i: (parent[i], t0[i]))
    current, reached = -1, 0.0
    for i in children:
        p = parent[i]
        if p != current:
            current, reached = p, t0[p]
        lo, hi = max(t0[i], reached), min(t1[i], t1[p])
        if hi > lo:
            cover[p] += hi - lo
            reached = hi
    return cover


def child_sum(parent, values) -> np.ndarray:
    """Per span, the sum of `values` over its direct children."""
    parent = np.asarray(parent, dtype=np.int64)
    has = parent >= 0
    return np.bincount(parent[has], weights=np.asarray(values, dtype=float)[has],
                       minlength=len(parent))


def span_columns(table: np.ndarray) -> dict:
    """Derived per-span columns of one thread log's table.

    wall and cpu are the span's own intervals; wait = wall - cpu;
    self_wall subtracts the child coverage and self_cpu the children's CPU.
    """
    index = table[:, 0].astype(np.int64)
    pos = np.empty(len(index), dtype=np.int64)
    pos[index] = np.arange(len(index))
    raw_parent = table[:, 1].astype(np.int64)
    parent = np.where(raw_parent >= 0, pos[np.maximum(raw_parent, 0)], -1)
    t0, t1, c0, c1 = table[:, 3], table[:, 4], table[:, 5], table[:, 6]
    wall, cpu = t1 - t0, c1 - c0
    return {
        "name": table[:, 2].astype(np.int64),
        "parent": parent,
        "t0": t0,
        "t1": t1,
        "wall": wall,
        "cpu": cpu,
        "wait": wall - cpu,
        "self_wall": wall - child_coverage(parent, t0, t1),
        "self_cpu": cpu - child_sum(parent, cpu),
        "elements": table[:, 7],
    }


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile p among n samples, in exact arithmetic."""
    return max(math.ceil(Fraction(str(p)) * n / 100), 1)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with p% of samples at or below it."""
    s = np.sort(np.asarray(values, dtype=float))
    if len(s) == 0:
        raise ValueError("percentile of no samples")
    return float(s[_rank(p, len(s)) - 1])


def tail_percentile(values):
    """(p, value) for the highest ladder percentile with >= 10 samples beyond it.

    None when even the median has fewer than ten samples above its rank.
    """
    n = len(values)
    usable = [p for p in PERCENTILE_LADDER if n - _rank(p, n) >= MIN_BEYOND]
    if not usable:
        return None
    return usable[-1], percentile(values, usable[-1])


def save(path, tracers: list) -> None:
    """Write every span of `tracers` (one per traced repetition) to an .npz."""
    arrays, index = {}, []
    for rep, tracer in enumerate(tracers):
        for k, log in enumerate(tracer.logs):
            key = f"rep{rep}_log{k}"
            arrays[key] = log.table()
            index.append({"key": key, "rep": rep, "thread": log.thread,
                          "names": tracer.names})
    arrays["index"] = np.frombuffer(
        json.dumps({"fields": FIELDS, "logs": index}).encode(), dtype=np.uint8)
    np.savez_compressed(path, **arrays)
