"""Measurement primitives: percentiles, harness-side spans, self times.

Nothing here imports ``repro``.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from contextlib import contextmanager

from benchmarks.suite.spec import MIN_SAMPLES


def p50(values) -> float:
    return statistics.median(values)


def p90(values) -> float | None:
    """Nearest-rank 90th percentile, or ``None`` below MIN_SAMPLES samples:
    a p90 needs at least ten samples beyond it and is never interpolated."""
    n = len(values)
    if n < MIN_SAMPLES:
        return None
    return sorted(values)[math.ceil(0.9 * n) - 1]


class _Cell:
    __slots__ = ("value", "next")

    def __init__(self, value, next_cell) -> None:
        self.value = value
        self.next = next_cell


def _kernel() -> None:
    rows = [[j, float(j), None] for j in range(600)]
    total = 0
    for row in rows:
        total += row[0]
    index = {row[0]: row for row in rows}
    head = None
    for i in range(400):
        head = _Cell(i, head)
    seen = {}
    cell = head
    while cell is not None:
        seen[id(cell)] = cell.value
        cell = cell.next
    out = bytearray()
    for k in range(200):
        out += k.to_bytes(4, "big")


def calibrate() -> float:
    """Microseconds a fixed kernel takes right now.

    The sandbox's CPUs slow down by a third or more for seconds at a time (a
    noisy neighbour) and drift for minutes, and a raw time taken in such an
    episode says nothing about the code.  The harness runs this kernel
    right before and right after every timed region and reports the
    region's time as a ratio to it.

    The kernel does what a migration keeps the interpreter busy with:
    it allocates small objects, links and walks them, fills dicts, and
    builds bytes.  A bare arithmetic loop will not do: when the neighbour
    loads the memory system it slows down far less than the migrations,
    and times normalized by it moved twice as much from window to window
    (README, "Reference speed").  The kernel runs twice and the second run
    is timed: the first one pays for whatever ran before it (a full
    ``gc.collect()``, a migration's cache footprint) and reads 15-50 %
    higher depending on the workload, which the normalizer must not."""
    _kernel()
    t0 = time.perf_counter_ns()
    _kernel()
    return (time.perf_counter_ns() - t0) / 1e3


def calibrate_p50() -> float:
    """Median of 21 kernel runs (about 10 ms): the machine's speed next to
    a region too long for a single run on either side to speak for."""
    return p50([calibrate() for _ in range(21)])


class Recorder:
    """In-memory span log: ``{name, start_ns, end_ns, span_id, parent_id,
    op_id, workload}``.  With ``enabled`` off, :meth:`span` still runs the
    body but records nothing — the untraced side of the overhead measure."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict] = []
        self.enabled = True
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str):
        """Record one span, nested under the span open on this recorder
        (single-threaded by design); a root span opens a new op_id."""
        if not self.enabled:
            yield
            return
        parent = self._open[-1] if self._open else None
        span_id = len(self.spans) + len(self._open) + 1
        rec = {
            "name": name,
            "start_ns": 0,
            "end_ns": 0,
            "span_id": span_id,
            "parent_id": parent["span_id"] if parent else None,
            "op_id": parent["op_id"] if parent else span_id,
            "workload": self.workload,
        }
        self._open.append(rec)
        rec["start_ns"] = time.perf_counter_ns()
        try:
            yield
        finally:
            rec["end_ns"] = time.perf_counter_ns()
            self._open.pop()
            self.spans.append(rec)

    def durations_ms(self, name: str) -> list[float]:
        return [(s["end_ns"] - s["start_ns"]) / 1e6 for s in self.spans if s["name"] == name]

    def append_jsonl(self, path) -> None:
        """Append the spans to *path*, one JSON object a line (``run`` empties
        the file once and every workload's traced run adds to it)."""
        with open(path, "a") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def self_times_ns(spans: list[dict]) -> dict[int, int]:
    """Self time per span id: the span's duration minus the part of its
    interval that its child spans cover (an interval union, so overlapping
    children are not subtracted twice)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s["parent_id"] is not None:
            children.setdefault(s["parent_id"], []).append((s["start_ns"], s["end_ns"]))
    out = {}
    for s in spans:
        lo, hi = s["start_ns"], s["end_ns"]
        covered = 0
        reach = lo
        for c_lo, c_hi in sorted(children.get(s["span_id"], ())):
            c_lo, c_hi = max(c_lo, reach), min(c_hi, hi)
            if c_hi > c_lo:
                covered += c_hi - c_lo
                reach = c_hi
        out[s["span_id"]] = (hi - lo) - covered
    return out


def check_self_times(spans: list[dict], tolerance: float = 0.01) -> list[str]:
    """Per operation, the self times must add up to the root span's
    duration within *tolerance*; returns one message per violation."""
    selfs = self_times_ns(spans)
    total: dict[int, int] = {}
    root: dict[int, int] = {}
    for s in spans:
        total[s["op_id"]] = total.get(s["op_id"], 0) + selfs[s["span_id"]]
        if s["parent_id"] is None:
            root[s["op_id"]] = s["end_ns"] - s["start_ns"]
    return [
        f"op {op}: self times sum to {total[op]} ns, root is {dur} ns"
        for op, dur in root.items()
        if abs(total[op] - dur) > tolerance * dur
    ]
