"""Migration observability: trace spans, metrics, and the event log.

The paper's whole evaluation (§4.2, Table 1) is a measurement story —
per-phase Collect/Tx/Restore timings per workload per architecture
pair — so timing is a first-class subsystem here, not ad-hoc
``perf_counter()`` deltas.  One :class:`MigrationObservation` is created
per ``MigrationEngine.migrate()`` call and bundles:

- a :class:`~repro.obs.spans.Tracer` — the nested, thread-safe span
  tree every stage emits into (``MigrationStats`` is a read-out of it);
- a :class:`~repro.obs.metrics.MetricsRegistry` — deterministic named
  counters (``msrlt.searches``, ``wire.chunks_sent``,
  ``engine.retries``, ``codec.bytes_saved``, ...), summed
  cluster-wide by ``Scheduler``/``LoadBalancer``;
- an :class:`~repro.obs.events.EventLog` — structured events (attempts,
  observed faults, degradation, per-chunk pipeline occupancy) exported
  as JSON-lines by ``repro migrate --trace out.jsonl``.

Observation never reaches the wire.  Within one migration the spans
nest by call: the restore side's spans sit under the ``attempt`` span
that ran it.  Across hops of a chain (A→B→C), :func:`continuation_context`
names the attempt span that carried hop N, and the next hop's
observation adopts it (``MigrationObservation(adopt_from=...)``), so
the hops' JSONL traces merge by span id into one tree.

Instrumented call sites (channels, the chunk decoder, the collector's
loops) do not hold a reference to the observation: they call the
module-level helpers (:func:`span`, :func:`lap`, :func:`record`,
:func:`event`, :func:`inc`) which resolve the *current* observation via
a ``contextvars.ContextVar``.  Outside an active observation the
helpers are null objects whose span handles still measure ``.seconds``
(so the instrumented channels work unchanged in unit tests) but record
nothing.
"""

from __future__ import annotations

import json
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Optional

from repro.obs.attribution import AttributionProfiler
from repro.obs.events import (
    DEFAULT_EVENT_CAPACITY,
    EventLog,
    NULL_EVENTS,
    TRACE_SCHEMA_VERSION,
    validate_trace_file,
    validate_trace_lines,
    validate_trace_obj,
)
from repro.obs.metrics import MetricsRegistry, NULL_METRICS
from repro.obs.spans import NULL_TRACER, Span, Tracer

__all__ = [
    "MigrationObservation",
    "TraceContext",
    "continuation_context",
    "TRACE_SCHEMA_VERSION",
    "DEFAULT_EVENT_CAPACITY",
    "current",
    "current_tracer",
    "current_metrics",
    "current_attribution",
    "span",
    "lap",
    "record",
    "bind",
    "event",
    "inc",
    "validate_trace_obj",
    "validate_trace_lines",
    "validate_trace_file",
]

_CURRENT: ContextVar[Optional["MigrationObservation"]] = ContextVar(
    "repro_observation", default=None
)


@dataclass(frozen=True)
class TraceContext:
    """A span of another observation to continue a trace under."""

    trace_id: str  # 16 lowercase hex chars
    parent_span_id: int


def continuation_context(stats) -> Optional[TraceContext]:
    """The context a *later* hop adopts to continue this migration's trace.

    Reads the completed migration's observation (``stats.obs``) and names
    its final attempt span — the span that conducted the successful
    transfer — as the parent, so passing the result to
    ``MigrationEngine.migrate(..., adopt_trace=...)`` on the next hop
    roots that hop's whole span tree underneath it.  Returns ``None``
    when the migration ran unobserved."""
    observation = getattr(stats, "obs", None)
    if observation is None:
        return None
    attempts = observation.tracer.find("attempt")
    parent = attempts[-1] if attempts else observation.tracer.root
    return TraceContext(observation.tracer.trace_id, parent.span_id)


class MigrationObservation:
    """Tracer + metrics + events for one migration, with activation.

    With ``attribution=True`` an :class:`AttributionProfiler` rides
    along and the collector/restorer hot paths feed it; off (the
    default) :attr:`attribution` is ``None`` and those hot paths pay one
    ``is not None`` test per block — the near-zero-overhead contract the
    codec benchmarks hold the profiler to.

    ``adopt_from`` continues another observation's trace instead of
    starting a fresh one: a :class:`TraceContext` roots this
    observation's tree under that remote span via
    :meth:`Tracer.adopt_remote`, so a multi-hop migration chain
    (A→B→C→…) exports as *one* connected span tree when the hops'
    JSONL lines are merged by span id.
    """

    def __init__(self, name: str = "migration", attribution: bool = False,
                 event_capacity: int = DEFAULT_EVENT_CAPACITY,
                 adopt_from: Optional[TraceContext] = None) -> None:
        if adopt_from is not None:
            self.tracer = Tracer.adopt_remote(
                name, adopt_from.trace_id, adopt_from.parent_span_id
            )
        else:
            self.tracer = Tracer(name)
        self.metrics = MetricsRegistry()
        self.events = EventLog(clock=self.tracer._clock,
                               capacity=event_capacity)
        self.attribution = AttributionProfiler() if attribution else None

    # -- activation --------------------------------------------------------

    def activate(self) -> "_Activation":
        """Context manager installing this observation as the ambient one
        (what the module-level helpers resolve)."""
        return _Activation(self)

    def activate_in_thread(self, parent: Span) -> "_ThreadActivation":
        """Activation for a worker thread the engine spawned: installs
        the observation in that thread's context *and* roots the
        thread's spans under *parent* (threads do not inherit the
        spawning context's ContextVars)."""
        return _ThreadActivation(self, parent)

    # -- export ------------------------------------------------------------

    def trace_lines(self) -> list[dict]:
        """The migration's full trace as decoded JSONL lines: header,
        events (with a drop marker if the ring buffer overflowed),
        flattened span tree with its span ids, the attribution table
        when profiling was on, and the metrics snapshot."""
        self.tracer.finish()
        end_ts = round(self.tracer.root.end_s or 0.0, 9)
        lines: list[dict] = [{
            "event": "trace_header",
            "ts": 0.0,
            "schema": TRACE_SCHEMA_VERSION,
            "tool": "repro",
            "trace_id": self.tracer.trace_id,
        }]
        if self.events.dropped:
            lines.append({
                "event": "events_dropped",
                "ts": end_ts,
                "dropped": self.events.dropped,
                "capacity": self.events.capacity,
            })
        lines.extend(self.events.events)
        for path, sp in self.tracer.iter_spans():
            entry = {
                "event": "span",
                "ts": round(sp.start_s or 0.0, 9),
                "name": sp.name,
                "path": path,
                "seconds": round(sp.seconds, 9),
                "count": sp.count,
                "thread": sp.thread,
                "span_id": sp.span_id,
                "parent_id": sp.parent_id,
            }
            if sp.attrs:
                entry["attrs"] = sp.attrs
            lines.append(entry)
        if self.attribution is not None:
            summary = self.attribution.summary()
            attr_line = {
                "event": "attribution",
                "ts": end_ts,
                "payload_bytes": summary["payload_bytes"],
                "rows": summary["rows"],
            }
            for side in ("scopes", "abandoned"):
                if side in summary:
                    attr_line[side] = summary[side]
            lines.append(attr_line)
        lines.append({
            "event": "metrics",
            "ts": end_ts,
            **self.metrics.snapshot(),
        })
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


class _ThreadActivation:
    __slots__ = ("_obs", "_parent", "_token", "_bind")

    def __init__(self, obs: MigrationObservation, parent: Span) -> None:
        self._obs = obs
        self._parent = parent

    def __enter__(self) -> MigrationObservation:
        self._token = _CURRENT.set(self._obs)
        self._bind = self._obs.tracer.bind(self._parent)
        self._bind.__enter__()
        return self._obs

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._bind.__exit__(exc_type, exc, tb)
        _CURRENT.reset(self._token)
        return False


# -- ambient helpers (the API instrumented call sites use) --------------------


def current() -> Optional[MigrationObservation]:
    """The active observation, or ``None``."""
    return _CURRENT.get()


def current_tracer():
    obs = _CURRENT.get()
    return obs.tracer if obs is not None else NULL_TRACER


def current_metrics():
    obs = _CURRENT.get()
    return obs.metrics if obs is not None else NULL_METRICS


def current_events():
    obs = _CURRENT.get()
    return obs.events if obs is not None else NULL_EVENTS


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


def bind(parent: Span):
    """Root the current thread's spans under *parent*."""
    return current_tracer().bind(parent)


def event(name: str, **fields) -> dict:
    """Emit a structured event on the active log."""
    return current_events().emit(name, **fields)


def inc(name: str, n: int = 1) -> None:
    """Increment a counter on the active metrics registry."""
    current_metrics().inc(name, n)
