"""The structured event log and the JSONL trace file format.

Every migration appends typed events (attempts, observed faults,
backoff, the streamed pipeline) to an in-memory
:class:`EventLog`; ``repro migrate --trace out.jsonl`` exports the log
plus the span tree and the migration's counters as JSON-lines.

Trace file format (one JSON object per line, schema version 7 — the one
version this build writes and reads; a trace of another version is
re-recorded, not converted):

- line 1 is always ``{"event": "trace_header", "schema": 7, ...}`` and
  carries the migration's ``trace_id`` (16 hex chars);
- every line has an ``"event"`` string and a non-negative ``"ts"``
  number (seconds since the migration's observation began);
- event lines come next, in emission order, each of a type registered
  in :data:`EVENT_REQUIRED_FIELDS` (attempts, faults, backoff,
  the streamed pipeline, the pre-copy rounds); an
  ``events_dropped`` marker says the ring buffer overflowed and how
  many events were lost;
- ``span`` lines carry the flattened span tree (``path`` is the
  '/'-joined location in the tree, ``seconds``/``count``/``thread``
  the measurement, ``span_id``/``parent_id`` its place in the tree:
  a root has ``parent_id == -1`` unless it was adopted from an earlier
  hop's trace, in which case its ``attrs.remote_parent`` names the
  foreign parent span);
- an ``attribution`` line carries the per-type cost table when
  profiling was on, each row holding :data:`ATTRIBUTION_ROW_FIELDS`;
- the final ``metrics`` line carries ``MigrationStats.counters()``,
  ``{"counters": {name: int, ...}}``.

On top of the per-line field checks the validator checks the document
*structurally*: span ids must be unique, every ``parent_id`` must
resolve to a span in the document (or be ``-1`` / declared via
``attrs.remote_parent``), the document must carry exactly one trace
header, and at most one ``metrics`` line.  What it accepts is what
``repro obs`` reads: :func:`repro.obs.report.load_trace` refuses
anything else.

Validation (:func:`validate_trace_lines`) is stdlib-only — ``json`` +
hand-rolled field checks — so the CI tier-1 job can assert schema
validity without adding a jsonschema dependency.
"""

from __future__ import annotations

import json
import threading
import time

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "DEFAULT_EVENT_CAPACITY",
    "EVENT_REQUIRED_FIELDS",
    "ATTRIBUTION_ROW_FIELDS",
    "EventLog",
    "NullEventLog",
    "NULL_EVENTS",
    "validate_trace_obj",
    "validate_trace_lines",
    "validate_trace_file",
]

TRACE_SCHEMA_VERSION = 7

#: default ring-buffer bound of an :class:`EventLog` — generous (a
#: per-chunk event stream at 64 KiB chunks reaches this around a 2 GiB
#: payload) but *bounded*, so a long streaming migration cannot grow
#: memory without limit
DEFAULT_EVENT_CAPACITY = 32768

#: required (field, type) pairs per event type; unknown event types are
#: rejected so a typo'd emitter fails CI rather than shipping dark data
EVENT_REQUIRED_FIELDS: dict[str, tuple[tuple[str, type], ...]] = {
    "trace_header": (("schema", int), ("tool", str), ("trace_id", str)),
    "migration_begin": (("source_arch", str), ("dest_arch", str),
                        ("streaming", bool), ("compress", bool)),
    "attempt_begin": (("attempt", int), ("streaming", bool)),
    "attempt_fail": (("attempt", int), ("error_type", str), ("error", str)),
    "fault": (("kind", str), ("index", int)),
    "backoff": (("attempt", int), ("delay_s", (int, float))),
    "chunk": (("seq", int), ("collect_busy_s", (int, float))),
    "pipeline": (("wall_s", (int, float)), ("n_chunks", int)),
    "migration_end": (("collect_s", (int, float)), ("tx_s", (int, float)),
                      ("restore_s", (int, float)), ("attempts", int)),
    "span": (("name", str), ("path", str), ("seconds", (int, float)),
             ("count", int), ("thread", str), ("span_id", int),
             ("parent_id", int)),
    "attribution": (("payload_bytes", int), ("rows", list)),
    "events_dropped": (("dropped", int), ("capacity", int)),
    "precopy_begin": (("max_rounds", int), ("stop_dirty_blocks", int),
                      ("slice_polls", int)),
    "precopy_round": (("round", int), ("bytes", int), ("tx_s", (int, float)),
                      ("dirty_blocks", int), ("deferred", int), ("freed", int)),
    "precopy_end": (("rounds", int), ("dirty_blocks", int),
                    ("cached_blocks", int), ("bytes", int)),
    "precopy_degraded": (("error_type", str), ("error", str)),
    "metrics": (("counters", dict),),
}

#: required (field, type) pairs of every row of an ``attribution`` line
#: — the columns ``repro obs report`` / ``top`` compute with
ATTRIBUTION_ROW_FIELDS: tuple[tuple[str, type], ...] = (
    ("type", str), ("class", str), ("bytes", int), ("blocks", int),
    ("collect_s", (int, float)), ("restore_s", (int, float)),
    ("flat", int), ("codec", int), ("percell", int),
)


class EventLog:
    """Thread-safe, monotonic-stamped structured events in a bounded
    ring buffer.

    The bound (*capacity*, default :data:`DEFAULT_EVENT_CAPACITY`) keeps
    a long streaming migration's per-chunk events from growing memory
    without limit: past capacity the **oldest** events are evicted (the
    recent tail is what debugging wants) and :attr:`dropped` counts the
    loss, which the trace export surfaces as an ``events_dropped``
    marker line and the engine as an ``events.dropped`` metric.
    """

    def __init__(self, clock=time.perf_counter,
                 capacity: int = DEFAULT_EVENT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._clock = clock
        self._t0 = clock()
        self._lock = threading.Lock()
        self.capacity = capacity
        self.events: list[dict] = []
        #: events evicted because the ring buffer was full
        self.dropped = 0

    def emit(self, event: str, **fields) -> dict:
        """Record one event; ``ts`` is seconds since the log was opened."""
        entry = {"event": event, "ts": round(self._clock() - self._t0, 9)}
        entry.update(fields)
        with self._lock:
            self.events.append(entry)
            overflow = len(self.events) - self.capacity
            if overflow > 0:
                del self.events[:overflow]
                self.dropped += overflow
        return entry

    def of_type(self, event: str) -> list[dict]:
        """All retained events of one type, in emission order."""
        with self._lock:
            return [e for e in self.events if e["event"] == event]

    def __len__(self) -> int:
        return len(self.events)


class NullEventLog:
    """Drop-in no-op log (the ambient default outside a migration)."""

    events: list[dict] = []
    dropped = 0
    capacity = 0

    def emit(self, event: str, **fields) -> dict:
        return {}

    def of_type(self, event: str) -> list[dict]:
        return []

    def __len__(self) -> int:
        return 0


NULL_EVENTS = NullEventLog()


# -- stdlib-only schema validation --------------------------------------------


def validate_trace_obj(obj, lineno: int = 0) -> list[str]:
    """Schema errors for one decoded trace line (empty list = valid)."""
    where = f"line {lineno}: " if lineno else ""
    if not isinstance(obj, dict):
        return [f"{where}not a JSON object"]
    errors: list[str] = []
    event = obj.get("event")
    if not isinstance(event, str):
        return [f"{where}missing or non-string 'event' field"]
    ts = obj.get("ts")
    if not isinstance(ts, (int, float)) or isinstance(ts, bool) or ts < 0:
        errors.append(f"{where}event {event!r}: 'ts' must be a number >= 0")
    required = EVENT_REQUIRED_FIELDS.get(event)
    if required is None:
        errors.append(f"{where}unknown event type {event!r}")
        return errors
    errors.extend(_field_errors(obj, required, f"{where}event {event!r}"))
    if event == "attribution" and isinstance(obj.get("rows"), list):
        for i, row in enumerate(obj["rows"]):
            what = f"{where}attribution row {i}"
            if isinstance(row, dict):
                errors.extend(_field_errors(row, ATTRIBUTION_ROW_FIELDS, what))
            else:
                errors.append(f"{what}: not a JSON object")
    if event == "metrics" and isinstance(obj.get("counters"), dict):
        errors.extend(
            f"{where}counter {name!r} is not an int"
            for name, value in obj["counters"].items()
            if not _is_a(value, int)
        )
    return errors


def _is_a(value, ftype) -> bool:
    """Whether *value* is of JSON field type *ftype* (a bool is no number)."""
    return isinstance(value, ftype) and not (
        isinstance(value, bool) and ftype in ((int, float), int)
    )


def _field_errors(obj: dict, required, what: str) -> list[str]:
    """Schema errors of *obj*'s (field, type) pairs in *required*."""
    errors = []
    for field, ftype in required:
        value = obj.get(field, _MISSING)
        if value is _MISSING:
            errors.append(f"{what}: missing field {field!r}")
        elif not _is_a(value, ftype):
            errors.append(
                f"{what}: field {field!r} has wrong type {type(value).__name__}"
            )
    return errors


_MISSING = object()


def validate_trace_lines(text: str) -> list[str]:
    """Schema errors for a whole JSONL trace document.

    Beyond per-line field checks the span tree is validated
    *structurally*: span ids unique, every ``parent_id`` resolving
    within the document (or ``-1`` for a root, or declared foreign via
    ``attrs.remote_parent`` — the adopted-tracer case), and exactly one
    ``trace_header``.
    """
    errors: list[str] = []
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        return ["trace is empty"]
    span_ids: dict[int, int] = {}  # span_id -> first lineno
    parents: list[tuple[int, dict]] = []  # (lineno, span obj)
    n_headers = 0
    n_metrics = 0
    for lineno, line in enumerate(lines, start=1):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"line {lineno}: not valid JSON ({exc})")
            continue
        # what the document is comes first: the rest reads in its light
        if lineno == 1:
            if not isinstance(obj, dict) or obj.get("event") != "trace_header":
                errors.append("line 1: first line must be a trace_header event")
            elif obj.get("schema") != TRACE_SCHEMA_VERSION:
                errors.append(
                    f"line 1: schema {obj.get('schema')!r} != "
                    f"{TRACE_SCHEMA_VERSION}"
                )
        errors.extend(validate_trace_obj(obj, lineno))
        if isinstance(obj, dict) and obj.get("event") == "trace_header":
            n_headers += 1
        if isinstance(obj, dict) and obj.get("event") == "metrics":
            n_metrics += 1
        if isinstance(obj, dict) and obj.get("event") == "span":
            sid = obj.get("span_id")
            if isinstance(sid, int) and not isinstance(sid, bool):
                first = span_ids.setdefault(sid, lineno)
                if first != lineno:
                    errors.append(
                        f"line {lineno}: duplicate span_id {sid} "
                        f"(first seen on line {first})"
                    )
                parents.append((lineno, obj))
    if n_headers > 1:
        errors.append(f"document has {n_headers} trace_header lines, expected 1")
    if n_metrics > 1:
        errors.append(
            f"document has {n_metrics} metrics lines, expected at most 1"
        )
    for lineno, obj in parents:
        pid = obj.get("parent_id")
        if not isinstance(pid, int) or isinstance(pid, bool):
            continue  # already reported by the field check
        if pid == -1 or pid in span_ids:
            continue
        attrs = obj.get("attrs")
        if isinstance(attrs, dict) and attrs.get("remote_parent") == pid:
            continue  # adopted root: parent lives in the sender's trace
        errors.append(
            f"line {lineno}: span {obj.get('span_id')} has parent_id {pid} "
            f"which resolves to no span in this document"
        )
    return errors


def validate_trace_file(path) -> list[str]:
    """Schema errors for the JSONL trace file at *path*."""
    from pathlib import Path

    return validate_trace_lines(Path(path).read_text())
