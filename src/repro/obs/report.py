"""Offline analysis of JSONL migration traces — the ``repro obs`` CLI.

A trace file (written by ``repro migrate --trace``) is a self-contained
record of one migration: header, events, the flattened span tree, the
per-type attribution table when profiling was on, and the final metrics
snapshot.  This module loads one into a :class:`TraceDocument` and
renders the three analyses the CLI exposes:

- :func:`render_report` — per-phase timing breakdown plus the
  attribution table (the paper's Table 1 view of a single trace);
- :func:`render_top` — the heaviest rows by type, block class, or phase;
- :func:`render_diff` — A-vs-B regression deltas of phases and counters.

Everything is stdlib-only and raises the typed :class:`TraceReadError`
on malformed input — the CLI turns that into a clean exit-2 message,
never a traceback.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.events import TRACE_SCHEMA_VERSION

__all__ = [
    "TraceReadError",
    "TraceDocument",
    "load_trace",
    "render_report",
    "render_top",
    "render_diff",
]

#: phase spans the report reads out of the span lines (summed over
#: attempts; ``codec.*`` spans are matched by prefix)
PHASES = ("collect", "feed", "tx", "restore", "pipeline")


class TraceReadError(Exception):
    """The trace file is missing, not JSONL, or not a migration trace."""


class TraceDocument:
    """One parsed JSONL trace."""

    def __init__(self, lines: list[dict], path: str = "<trace>") -> None:
        self.path = path
        self.lines = lines
        self.header: dict = {}
        self.spans: list[dict] = []
        self.events: list[dict] = []
        self.attribution: dict | None = None
        self.metrics: dict = {"counters": {}}
        for obj in lines:
            kind = obj.get("event")
            if kind == "trace_header":
                self.header = obj
            elif kind == "span":
                self.spans.append(obj)
            elif kind == "attribution":
                self.attribution = obj
            elif kind == "metrics":
                self.metrics = obj
            else:
                self.events.append(obj)
        if not self.header:
            raise TraceReadError(f"{path}: no trace_header line — not a migration trace")

    @property
    def trace_id(self) -> str:
        return self.header.get("trace_id", "?")

    def phase_seconds(self) -> dict[str, float]:
        """Summed seconds per phase span name (all attempts), plus the
        prefix-summed ``codec`` bucket."""
        out = {name: 0.0 for name in PHASES}
        out["codec"] = 0.0
        for sp in self.spans:
            name = sp.get("name", "")
            seconds = sp.get("seconds", 0.0)
            if not isinstance(seconds, (int, float)):
                continue
            if name in out:
                out[name] += seconds
            elif isinstance(name, str) and name.startswith("codec."):
                out["codec"] += seconds
        return {k: v for k, v in out.items() if v > 0.0}

    def counter(self, name: str, default: int = 0) -> int:
        value = self.metrics.get("counters", {}).get(name, default)
        return value if isinstance(value, int) else default

    def events_of(self, kind: str) -> list[dict]:
        return [e for e in self.events if e.get("event") == kind]


def load_trace(path) -> TraceDocument:
    """Parse the JSONL trace at *path* (typed errors, never a traceback)."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise TraceReadError(f"{path}: cannot read trace ({exc})") from None
    lines: list[dict] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise TraceReadError(f"{path}:{lineno}: not valid JSON ({exc})") from None
        if not isinstance(obj, dict):
            raise TraceReadError(f"{path}:{lineno}: line is not a JSON object")
        lines.append(obj)
    if not lines:
        raise TraceReadError(f"{path}: trace is empty")
    doc = TraceDocument(lines, path=str(path))
    schema = doc.header.get("schema")
    if schema != TRACE_SCHEMA_VERSION:
        raise TraceReadError(
            f"{path}: trace schema {schema!r} != {TRACE_SCHEMA_VERSION} "
            f"(re-record the trace with this version of repro)"
        )
    return doc


# -- rendering helpers ---------------------------------------------------------


def _fmt_s(seconds: float) -> str:
    return f"{seconds * 1e3:10.3f} ms"


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(r) for r in rows)
    return "\n".join(out)


def _attribution_rows(doc: TraceDocument) -> list[dict]:
    if doc.attribution is None:
        return []
    rows = doc.attribution.get("rows", [])
    return [r for r in rows if isinstance(r, dict)]


def render_report(doc: TraceDocument) -> str:
    """The single-trace breakdown: identity, phases, wire, attribution."""
    out: list[str] = []
    out.append(f"trace {doc.trace_id}  ({doc.path})")
    tcx = doc.events_of("trace_context")
    if tcx:
        joined = sum(1 for e in tcx if e.get("joined"))
        offsets = [e.get("clock_offset_s") for e in tcx
                   if isinstance(e.get("clock_offset_s"), (int, float))]
        line = (f"propagation: {len(tcx)} context(s) received, "
                f"{joined} joined")
        if offsets:
            line += f", clock offset <= {max(offsets) * 1e3:.3f} ms"
        out.append(line)
    dropped = doc.events_of("events_dropped")
    if dropped:
        out.append(
            f"WARNING: event ring buffer overflowed — "
            f"{dropped[0].get('dropped')} event(s) dropped "
            f"(capacity {dropped[0].get('capacity')})"
        )

    phases = doc.phase_seconds()
    if phases:
        out.append("")
        out.append("phases (all attempts):")
        for name, seconds in sorted(phases.items(), key=lambda kv: -kv[1]):
            out.append(f"  {name:10s}{_fmt_s(seconds)}")

    precopy = _render_precopy(doc)
    if precopy:
        out.append("")
        out.extend(precopy)

    counters = doc.metrics.get("counters", {})
    wire_keys = [
        "engine.payload_bytes", "engine.blocks", "engine.attempts",
        "engine.retries", "engine.chunks", "codec.bytes_saved",
        "wire.chunks_sent", "wire.context_frames_sent",
        "msrlt.searches", "events.dropped",
    ]
    shown = [(k, counters[k]) for k in wire_keys if k in counters]
    if shown:
        out.append("")
        out.append("counters:")
        for name, value in shown:
            out.append(f"  {name:26s}{value:>12}")

    rows = _attribution_rows(doc)
    if rows:
        out.append("")
        payload = doc.attribution.get("payload_bytes", 0)
        total = sum(r.get("bytes", 0) for r in rows)
        out.append(f"attribution ({total} of {payload} payload bytes):")
        table_rows = []
        for r in sorted(rows, key=lambda r: -r.get("bytes", 0)):
            eng = max(
                ("flat", "codec", "percell"), key=lambda k: r.get(k, 0)
            ) if (r.get("flat", 0) + r.get("codec", 0) + r.get("percell", 0)) else "-"
            table_rows.append([
                str(r.get("type", "?")),
                str(r.get("class", "?")),
                str(r.get("bytes", 0)),
                str(r.get("blocks", 0)),
                f"{(r.get('collect_s', 0.0)) * 1e3:.3f}",
                f"{(r.get('restore_s', 0.0)) * 1e3:.3f}",
                eng,
                str(r.get("msrlt_searches", 0)),
            ])
        out.append(_table(
            ["type", "class", "bytes", "blocks", "collect_ms",
             "restore_ms", "path", "lookups"],
            table_rows,
        ))
    else:
        out.append("")
        out.append("attribution: not recorded "
                   "(run with --attribution / migrate(attribution=True))")
    return "\n".join(out)


def _render_precopy(doc: TraceDocument) -> list[str]:
    """The iterative pre-copy read-out: per-round delta bytes and
    modeled tx seconds, the convergence outcome, and the stop-and-copy
    downtime span (empty list when the migration did not pre-copy)."""
    rounds = doc.events_of("precopy_round")
    begin = doc.events_of("precopy_begin")
    if not rounds and not begin:
        return []
    out: list[str] = ["pre-copy rounds:"]
    if rounds:
        out.append(_table(
            ["round", "bytes", "tx_ms", "dirty", "deferred", "freed"],
            [[
                "snapshot" if r.get("round") == 0 else str(r.get("round")),
                str(r.get("bytes", 0)),
                f"{r.get('tx_s', 0.0) * 1e3:.3f}",
                str(r.get("dirty_blocks", 0)),
                str(r.get("deferred", 0)),
                str(r.get("freed", 0)),
            ] for r in rounds],
        ))
    for end in doc.events_of("precopy_end"):
        out.append(
            f"converged after {end.get('rounds')} round(s): "
            f"{end.get('bytes')} round bytes, "
            f"{end.get('dirty_blocks')} residual dirty block(s), "
            f"{end.get('cached_blocks')} block(s) elided as cached"
        )
    for deg in doc.events_of("precopy_degraded"):
        out.append(
            f"DEGRADED to plain stop-and-copy: "
            f"{deg.get('error_type')}: {deg.get('error')}"
        )
    downtime = [
        sp for sp in doc.spans
        if sp.get("name") == "precopy.downtime_seconds"
    ]
    if downtime:
        out.append(
            "stop-and-copy downtime: "
            + _fmt_s(sum(sp.get("seconds", 0.0) for sp in downtime)).strip()
        )
    return out


def render_top(doc: TraceDocument, by: str = "type", n: int = 10) -> str:
    """The *n* heaviest cost centers, grouped *by* type | block | phase."""
    if by == "phase":
        phases = doc.phase_seconds()
        if not phases:
            return "no phase spans in trace"
        rows = [[name, _fmt_s(seconds).strip()]
                for name, seconds in sorted(phases.items(), key=lambda kv: -kv[1])[:n]]
        return _table(["phase", "seconds"], rows)

    rows = _attribution_rows(doc)
    if not rows:
        return ("no attribution table in trace "
                "(run with --attribution / migrate(attribution=True))")
    if by == "type":
        groups: dict[str, dict] = {}
        for r in rows:
            key = str(r.get("type", "?"))
            g = groups.setdefault(key, {"bytes": 0, "blocks": 0, "s": 0.0})
            g["bytes"] += r.get("bytes", 0)
            g["blocks"] += r.get("blocks", 0)
            g["s"] += r.get("collect_s", 0.0) + r.get("restore_s", 0.0)
        head = ["type", "bytes", "blocks", "collect+restore"]
    elif by == "block":
        groups = {}
        for r in rows:
            key = str(r.get("class", "?"))
            g = groups.setdefault(key, {"bytes": 0, "blocks": 0, "s": 0.0})
            g["bytes"] += r.get("bytes", 0)
            g["blocks"] += r.get("blocks", 0)
            g["s"] += r.get("collect_s", 0.0) + r.get("restore_s", 0.0)
        head = ["class", "bytes", "blocks", "collect+restore"]
    else:
        raise TraceReadError(f"unknown --by {by!r}; choose type, block, or phase")
    ordered = sorted(groups.items(), key=lambda kv: -kv[1]["bytes"])[:n]
    return _table(head, [
        [key, str(g["bytes"]), str(g["blocks"]), f"{g['s'] * 1e3:.3f} ms"]
        for key, g in ordered
    ])


def render_diff(a: TraceDocument, b: TraceDocument) -> str:
    """A-vs-B deltas: phase seconds and the load-bearing counters.

    Positive deltas mean *b* is bigger (slower / more) than *a* — the
    reading a perf-regression check wants when *a* is the baseline.
    """
    out = [f"diff {a.path} -> {b.path}"]
    pa, pb = a.phase_seconds(), b.phase_seconds()
    names = sorted(set(pa) | set(pb))
    if names:
        rows = []
        for name in names:
            va, vb = pa.get(name, 0.0), pb.get(name, 0.0)
            delta = vb - va
            pct = f"{delta / va * 100.0:+.1f}%" if va > 0 else "new"
            rows.append([
                name, f"{va * 1e3:.3f}", f"{vb * 1e3:.3f}",
                f"{delta * 1e3:+.3f}", pct,
            ])
        out.append(_table(["phase", "a_ms", "b_ms", "delta_ms", "delta"], rows))
    ca = a.metrics.get("counters", {})
    cb = b.metrics.get("counters", {})
    changed = []
    for name in sorted(set(ca) | set(cb)):
        va, vb = ca.get(name, 0), cb.get(name, 0)
        if va != vb and isinstance(va, int) and isinstance(vb, int):
            changed.append([name, str(va), str(vb), f"{vb - va:+d}"])
    if changed:
        out.append("")
        out.append(_table(["counter", "a", "b", "delta"], changed))
    if len(out) == 1:
        out.append("traces are equivalent (no phase or counter deltas)")
    return "\n".join(out)
