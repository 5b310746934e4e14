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

Everything is stdlib-only.  A trace is read only once the validator
(:func:`~repro.obs.events.validate_trace_lines`) accepts it, so the
renderers compute with the fields it checked; anything else is the
typed :class:`TraceReadError` — the CLI turns that into a clean exit-2
message, never a traceback.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.events import validate_trace_lines

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
PHASES = ("collect", "frame", "deframe", "tx", "restore")


class TraceReadError(Exception):
    """The trace file is missing, not JSONL, or not a migration trace."""


class TraceDocument:
    """One parsed JSONL trace, as the validator accepted it."""

    def __init__(self, lines: list[dict], path: str = "<trace>") -> None:
        self.path = path
        self.lines = lines
        self.header: dict = {}
        self.spans: list[dict] = []
        self.events: list[dict] = []
        self.attribution: dict | None = None
        self.metrics: dict = {"counters": {}}
        for obj in lines:
            kind = obj["event"]
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

    @property
    def trace_id(self) -> str:
        return self.header["trace_id"]

    def phase_seconds(self) -> dict[str, float]:
        """Summed seconds per phase span name (all attempts), plus the
        prefix-summed ``codec`` bucket."""
        out = {name: 0.0 for name in PHASES}
        out["codec"] = 0.0
        for sp in self.spans:
            name = sp["name"]
            if name in out:
                out[name] += sp["seconds"]
            elif name.startswith("codec."):
                out["codec"] += sp["seconds"]
        return {k: v for k, v in out.items() if v > 0.0}

    def counter(self, name: str, default: int = 0) -> int:
        return self.metrics["counters"].get(name, default)

    def events_of(self, kind: str) -> list[dict]:
        return [e for e in self.events if e["event"] == kind]


def load_trace(path) -> TraceDocument:
    """Parse the JSONL trace at *path*: one the validator accepts, or a
    :class:`TraceReadError` naming the first thing it refused."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise TraceReadError(f"{path}: cannot read trace ({exc})") from None
    errors = validate_trace_lines(text)
    if errors:
        more = f" (and {len(errors) - 1} more)" if len(errors) > 1 else ""
        raise TraceReadError(f"{path}: {errors[0]}{more}")
    lines = [json.loads(raw) for raw in text.splitlines() if raw.strip()]
    return TraceDocument(lines, path=str(path))


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
    return [] if doc.attribution is None else doc.attribution["rows"]


def render_report(doc: TraceDocument) -> str:
    """The single-trace breakdown: identity, phases, wire, attribution."""
    out: list[str] = [f"trace {doc.trace_id}  ({doc.path})"]

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

    counters = doc.metrics["counters"]
    wire_keys = [
        "engine.payload_bytes", "engine.blocks", "engine.attempts",
        "engine.retries", "engine.chunks", "codec.bytes_saved",
        "wire.chunks_sent", "msrlt.searches",
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
        payload = doc.attribution["payload_bytes"]
        total = sum(r["bytes"] for r in rows)
        out.append(f"attribution ({total} of {payload} payload bytes):")
        table_rows = []
        for r in sorted(rows, key=lambda r: -r["bytes"]):
            paths = ("flat", "codec", "percell")
            eng = max(paths, key=r.get) if sum(r[k] for k in paths) else "-"
            table_rows.append([
                r["type"],
                r["class"],
                str(r["bytes"]),
                str(r["blocks"]),
                f"{r['collect_s'] * 1e3:.3f}",
                f"{r['restore_s'] * 1e3:.3f}",
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
                "snapshot" if r["round"] == 0 else str(r["round"]),
                str(r["bytes"]),
                f"{r['tx_s'] * 1e3:.3f}",
                str(r["dirty_blocks"]),
                str(r["deferred"]),
                str(r["freed"]),
            ] for r in rounds],
        ))
    for end in doc.events_of("precopy_end"):
        out.append(
            f"converged after {end['rounds']} round(s): "
            f"{end['bytes']} round bytes, "
            f"{end['dirty_blocks']} residual dirty block(s), "
            f"{end['cached_blocks']} block(s) elided as cached"
        )
    for deg in doc.events_of("precopy_degraded"):
        out.append(
            f"DEGRADED to plain stop-and-copy: "
            f"{deg['error_type']}: {deg['error']}"
        )
    downtime = [
        sp["seconds"] for sp in doc.spans
        if sp["name"] == "precopy.downtime_seconds"
    ]
    if downtime:
        out.append("stop-and-copy downtime: " + _fmt_s(sum(downtime)).strip())
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
    column = {"type": "type", "block": "class"}.get(by)
    if column is None:
        raise TraceReadError(f"unknown --by {by!r}; choose type, block, or phase")
    groups: dict[str, dict] = {}
    for r in rows:
        g = groups.setdefault(r[column], {"bytes": 0, "blocks": 0, "s": 0.0})
        g["bytes"] += r["bytes"]
        g["blocks"] += r["blocks"]
        g["s"] += r["collect_s"] + r["restore_s"]
    head = [column, "bytes", "blocks", "collect+restore"]
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
    changed = []
    for name in sorted(set(a.metrics["counters"]) | set(b.metrics["counters"])):
        va, vb = a.counter(name), b.counter(name)
        if va != vb:
            changed.append([name, str(va), str(vb), f"{vb - va:+d}"])
    if changed:
        out.append("")
        out.append(_table(["counter", "a", "b", "delta"], changed))
    if len(out) == 1:
        out.append("traces are equivalent (no phase or counter deltas)")
    return "\n".join(out)
