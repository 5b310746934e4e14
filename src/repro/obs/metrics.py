"""The metrics registry: named counters.

Counter values are deliberately *counts and bytes* — never wall-clock
seconds — which is what makes a snapshot deterministic: two migrations
driven by the same fault plan over the same payload produce identical
``snapshot()`` documents, a property the test suite pins.  Seconds live
in the span tree (``MigrationStats`` is its read-out); distributions
over many migrations are the benchmark harness's job, computed from
outside over its samples.

A :class:`MetricsRegistry` is per-migration (one lives on each
``MigrationObservation``); :meth:`merge` folds one snapshot into
another, which is how ``Scheduler`` and ``LoadBalancer`` sum
cluster-level totals across every migration they conducted.
"""

from __future__ import annotations

import threading

__all__ = ["MetricsRegistry", "NullMetrics", "NULL_METRICS"]


class MetricsRegistry:
    """Thread-safe named counters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}

    def inc(self, name: str, n: int = 1) -> None:
        """Increment counter *name* by *n* (created at 0)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def counter(self, name: str) -> int:
        """Current value of counter *name* (0 if never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    def snapshot(self) -> dict:
        """A deterministic, sorted, copy-safe view: ``{"counters": …}``
        (the trace file's ``metrics`` line)."""
        with self._lock:
            return {"counters": dict(sorted(self._counters.items()))}

    def merge(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` into this registry (cluster roll-up):
        counters add."""
        with self._lock:
            for name, value in snapshot["counters"].items():
                self._counters[name] = self._counters.get(name, 0) + value

    def iter_flat(self):
        """Yield ``(name, value)`` pairs in sorted order — what
        ``repro migrate --metrics-out`` prints."""
        yield from self.snapshot()["counters"].items()


class NullMetrics:
    """Drop-in no-op registry (the ambient default outside a migration)."""

    def inc(self, name: str, n: int = 1) -> None:
        return None

    def counter(self, name: str) -> int:
        return 0

    def snapshot(self) -> dict:
        return {"counters": {}}

    def merge(self, snapshot: dict) -> None:
        return None

    def iter_flat(self):
        return iter(())


NULL_METRICS = NullMetrics()
