"""Migration observability: trace spans, the event log, the trace export.

The paper's whole evaluation (§4.2, Table 1) is a measurement story —
per-phase Collect/Tx/Restore timings per workload per architecture
pair — so timing is a first-class subsystem here, not ad-hoc
``perf_counter()`` deltas.  One :class:`MigrationObservation` is created
per ``MigrationEngine.migrate()`` call and bundles:

- a :class:`~repro.obs.spans.Tracer` — the nested span tree every
  stage emits into (``MigrationStats`` is a read-out of it);
- an :class:`~repro.obs.events.EventLog` — structured events (attempts,
  observed faults, backoff, the pre-copy rounds; none per chunk)
  exported as JSON-lines by ``repro migrate --trace out.jsonl``.

The counts of a migration (``msrlt.searches``, ``wire.chunks_sent``,
``engine.retries``, ``codec.bytes_saved``, ...) are not kept here: they
are fields of its ``MigrationStats``, and the trace's ``metrics`` line
is ``MigrationStats.counters()``.

Observation never reaches the wire.  An observation is the record of
one thread's migration: a migration runs on the thread that called
``migrate()``, and its observation is reachable only through the
``ContextVar`` below, which a thread started elsewhere begins without —
so nothing in this package locks or keeps per-thread state.  The spans
nest by call, and the restore side's spans sit under the ``attempt``
span that ran it.  Each hop of a chain (A→B→C) is its own migration,
so its own trace.

Instrumented call sites (channels, the chunk decoder, the collector's
loops) do not hold a reference to the observation: they call the
module-level helpers (:func:`span`, :func:`lap`, :func:`record`,
:func:`event`) which resolve the *current* observation via
a ``contextvars.ContextVar``.  Outside an active observation the
span helpers hand out null handles that still measure ``.seconds``
(so the instrumented channels work unchanged in unit tests) but record
nothing, and :func:`event` records nothing.
"""

from __future__ import annotations

import json
from contextvars import ContextVar
from types import SimpleNamespace
from typing import Optional

from repro.obs.attribution import AttributionProfiler
from repro.obs.events import (
    EventLog,
    TRACE_SCHEMA_VERSION,
    validate_trace_file,
    validate_trace_lines,
    validate_trace_obj,
)
from repro.obs.spans import NULL_TRACER, Tracer

__all__ = [
    "MigrationObservation",
    "TRACE_SCHEMA_VERSION",
    "current_tracer",
    "current_attribution",
    "span",
    "lap",
    "record",
    "event",
    "validate_trace_obj",
    "validate_trace_lines",
    "validate_trace_file",
]

_CURRENT: ContextVar[Optional["MigrationObservation"]] = ContextVar(
    "repro_observation", default=None
)


class MigrationObservation:
    """Tracer + events for one migration, with activation.

    With ``attribution=True`` an :class:`AttributionProfiler` rides
    along and the collector/restorer hot paths feed it (the engine
    replaces it when an attempt begins: the table is the attempt that
    arrived); off (the default) :attr:`attribution` is ``None`` and
    those hot paths pay one ``is not None`` test per block.
    """

    def __init__(self, name: str = "migration", attribution: bool = False) -> None:
        self.tracer = Tracer(name)
        self.events = EventLog(clock=self.tracer._clock)
        self.attribution = AttributionProfiler() if attribution else None
        #: the migration's ``MigrationStats`` (set by the engine): the
        #: trace's ``metrics`` line renders its counters
        self.stats = None

    def _counters(self) -> dict:
        """``MigrationStats.counters()``; empty for an observation no
        migration filled."""
        return self.stats.counters() if self.stats is not None else {}

    @property
    def metrics(self):
        """Read-only ``metrics.counter(name)`` over the counters.
        Only the frozen benchmark suite still reads it
        (``precopy.cached_blocks``); ROADMAP 5-I(b) moves the suite to
        ``MigrationStats.precopy_cached_blocks`` and deletes this."""
        counters = self._counters()
        return SimpleNamespace(counter=lambda name: counters.get(name, 0))

    # -- activation --------------------------------------------------------

    def activate(self) -> "_Activation":
        """Context manager installing this observation as the ambient one
        (what the module-level helpers resolve)."""
        return _Activation(self)

    # -- export ------------------------------------------------------------

    def trace_lines(self) -> list[dict]:
        """The migration's full trace as decoded JSONL lines: header,
        events, flattened span tree with its span ids, the attribution
        table when profiling was on, and the counters."""
        self.tracer.finish()
        end_ts = round(self.tracer.root.end_s or 0.0, 9)
        lines: list[dict] = [{
            "event": "trace_header",
            "ts": 0.0,
            "schema": TRACE_SCHEMA_VERSION,
            "tool": "repro",
            "trace_id": self.tracer.trace_id,
        }]
        lines.extend(self.events.events)
        for path, sp in self.tracer.iter_spans():
            entry = {
                "event": "span",
                "ts": round(sp.start_s or 0.0, 9),
                "name": sp.name,
                "path": path,
                "seconds": round(sp.seconds, 9),
                "count": sp.count,
                "span_id": sp.span_id,
                "parent_id": sp.parent_id,
            }
            if sp.attrs:
                entry["attrs"] = sp.attrs
            lines.append(entry)
        if self.attribution is not None:
            lines.append(
                {"event": "attribution", "ts": end_ts, **self.attribution.summary()}
            )
        lines.append({"event": "metrics", "ts": end_ts, "counters": self._counters()})
        return lines

    def to_jsonl(self) -> str:
        return "\n".join(
            json.dumps(line, sort_keys=False) for line in self.trace_lines()
        ) + "\n"

    def write_trace(self, path) -> None:
        """Export the trace as a JSON-lines file at *path*."""
        from pathlib import Path

        Path(path).write_text(self.to_jsonl())


class _Activation:
    __slots__ = ("_obs", "_token")

    def __init__(self, obs: MigrationObservation) -> None:
        self._obs = obs

    def __enter__(self) -> MigrationObservation:
        self._token = _CURRENT.set(self._obs)
        return self._obs

    def __exit__(self, exc_type, exc, tb) -> bool:
        _CURRENT.reset(self._token)
        return False


# -- ambient helpers (the API instrumented call sites use) --------------------


def current_tracer():
    obs = _CURRENT.get()
    return obs.tracer if obs is not None else NULL_TRACER


def current_attribution() -> Optional[AttributionProfiler]:
    """The active observation's attribution profiler, or ``None`` —
    fetched **once** per collection/restoration pass so the per-block
    hot path pays a single ``is not None`` test when profiling is off."""
    obs = _CURRENT.get()
    return obs.attribution if obs is not None else None


def span(name: str, **attrs):
    """Open a nested span on the active tracer (timing-only when none)."""
    return current_tracer().span(name, **attrs)


def lap(name: str, **attrs):
    """One lap on the accumulating span *name* (per-chunk hot paths)."""
    return current_tracer().lap(name, **attrs)


def record(name: str, seconds: float, **attrs):
    """Record a span with an externally supplied (modeled) duration."""
    return current_tracer().record(name, seconds, **attrs)


def event(name: str, **fields) -> None:
    """Emit a structured event on the active log (none: nothing)."""
    obs = _CURRENT.get()
    if obs is not None:
        obs.events.emit(name, **fields)
