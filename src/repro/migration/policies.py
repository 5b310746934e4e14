"""A simple migration *policy* layer (the paper's future work, §5).

The paper provides the migration mechanism and defers "a scheduler which
can make optimal decisions on when and where to migrate" to future work.
This module implements the textbook baseline on top of our mechanism: a
time-sliced :class:`LoadBalancer` that runs a population of processes
over a cluster and migrates work from the most-loaded host to the
least-loaded whenever the imbalance exceeds a threshold.

It is intentionally simple — the point is demonstrating that the
mechanism layer (poll-points, collection, restoration) composes into a
working distributed scheduler, not competing with real schedulers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.migration.engine import MigrationEngine, MigrationError
from repro.migration.scheduler import Cluster, Host
from repro.migration.stats import MigrationStats
from repro.migration.transport import Channel, Link
from repro.obs.metrics import MetricsRegistry
from repro.vm.process import Process

__all__ = ["BalancerResult", "FailedMigration", "LoadBalancer"]


@dataclass
class FailedMigration:
    """One rebalancing attempt the transport defeated.  The process kept
    running on its source host (the engine's all-or-nothing guarantee)."""

    process_name: str
    source: str
    dest: str
    error: MigrationError


@dataclass
class BalancerResult:
    """Outcome of a load-balanced run."""

    #: finished processes in completion order
    finished: list[Process] = field(default_factory=list)
    #: all migrations performed, in order
    migrations: list[MigrationStats] = field(default_factory=list)
    #: rebalancing attempts that failed (process stayed on its source)
    failed: list[FailedMigration] = field(default_factory=list)
    #: scheduling epochs executed
    epochs: int = 0
    #: cluster-level metrics roll-up of every conducted migration
    metrics: Optional[MetricsRegistry] = None

    def host_history(self) -> list[tuple[str, str]]:
        """(source, destination) host names of each migration."""
        return [(m.source_arch, m.dest_arch) for m in self.migrations]


class LoadBalancer:
    """Round-robin time slicing with threshold-based rebalancing.

    Parameters
    ----------
    cluster:
        The hosts and links.
    quantum:
        VM instructions each process executes per scheduling epoch.
    imbalance_threshold:
        Migrate when ``max_load - min_load`` (resident process counts)
        reaches this value.  2 is the classic "sender has at least one
        more than receiver after the move still helps" setting.
    """

    def __init__(
        self,
        cluster: Cluster,
        quantum: int = 20_000,
        imbalance_threshold: int = 2,
        engine: Optional[MigrationEngine] = None,
        max_attempts: int = 1,
        channel_factory: Optional[Callable[[Link], Channel]] = None,
    ) -> None:
        if imbalance_threshold < 1:
            raise ValueError("imbalance_threshold must be >= 1")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.cluster = cluster
        self.quantum = quantum
        self.imbalance_threshold = imbalance_threshold
        self.engine = engine or MigrationEngine()
        #: transfer attempts per migration, handed to the engine
        self.max_attempts = max_attempts
        #: channel builder per link — the hook fault-injection tests use
        self.channel_factory = channel_factory or (lambda link: Channel(link))
        self._placement: dict[int, Host] = {}
        self._procs: list[Process] = []
        #: cluster-level aggregation across every migration conducted
        self.metrics = MetricsRegistry()

    # -- population -------------------------------------------------------------

    def submit(self, program, host: Host, name: Optional[str] = None) -> Process:
        """Start a process on *host* and enter it into the population."""
        proc = host.spawn(program, name)
        self._procs.append(proc)
        self._placement[id(proc)] = host
        return proc

    def load_of(self, host: Host) -> int:
        """Resident (unfinished) process count of *host*."""
        return sum(
            1
            for p in self._procs
            if not p.exited and self._placement[id(p)].name == host.name
        )

    # -- the policy ----------------------------------------------------------------

    def _pick_rebalance(self) -> Optional[tuple[Process, Host]]:
        hosts = list(self.cluster.hosts.values())
        if len(hosts) < 2:
            return None
        loads = sorted(hosts, key=self.load_of)
        coldest, hottest = loads[0], loads[-1]
        if self.load_of(hottest) - self.load_of(coldest) < self.imbalance_threshold:
            return None
        for proc in self._procs:
            if not proc.exited and self._placement[id(proc)] is hottest:
                return proc, coldest
        return None

    # -- driving -------------------------------------------------------------------

    def run(self, max_epochs: int = 10_000) -> BalancerResult:
        """Run every submitted process to completion, rebalancing."""
        result = BalancerResult(metrics=self.metrics)
        pending_dest: dict[int, Host] = {}

        for _epoch in range(max_epochs):
            if all(p.exited for p in self._procs):
                break
            result.epochs += 1

            decision = self._pick_rebalance()
            if decision is not None:
                proc, dest = decision
                if id(proc) not in pending_dest:
                    pending_dest[id(proc)] = dest
                    proc.migration_pending = True

            for i, proc in enumerate(list(self._procs)):
                if proc.exited:
                    continue
                run_result = proc.run(max_steps=self.quantum)
                if run_result.status == "exit":
                    result.finished.append(proc)
                elif run_result.status == "poll":
                    dest = pending_dest.pop(id(proc), None)
                    if dest is None:
                        proc.migration_pending = False
                        continue
                    src_host = self._placement[id(proc)]
                    link = self.cluster.link_between(src_host, dest)
                    try:
                        new_proc, stats = self.engine.migrate(
                            proc,
                            dest.arch,
                            channel=self.channel_factory(link),
                            max_attempts=self.max_attempts,
                        )
                    except MigrationError as exc:
                        # all-or-nothing: the process is untouched on its
                        # source host — record the failure and keep the
                        # epoch (and every other process) running
                        proc.migration_pending = False
                        result.failed.append(
                            FailedMigration(
                                process_name=proc.name,
                                source=src_host.name,
                                dest=dest.name,
                                error=exc,
                            )
                        )
                        continue
                    # keep the *report* in host terms, not just arch names
                    stats.source_arch = src_host.name
                    stats.dest_arch = dest.name
                    result.migrations.append(stats)
                    if stats.obs is not None:
                        self.metrics.inc("balancer.migrations")
                        self.metrics.merge(stats.obs.metrics.snapshot())
                    self._procs[i] = new_proc
                    self._placement.pop(id(proc), None)
                    self._placement[id(new_proc)] = dest
        else:
            raise RuntimeError("load balancer exceeded max_epochs")

        return result
