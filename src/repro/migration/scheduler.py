"""Hosts, clusters, and the migration scheduler.

Paper §2: "We model a distributed environment to have a scheduler which
performs process management and sends a migration request to a process.
The scheduler conducts process migration directly via a remote invocation
and network data transfers."

The policy layer (when/where to migrate *optimally*) is the paper's
future work; this scheduler provides the mechanism its experiments use:
deliver a migration request, let the process reach a poll-point, drive
the engine, and resume the new process — possibly through a chain of
several migrations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.arch.machine import MachineArch
from repro.migration.engine import MigrationEngine, MigrationError
from repro.migration.stats import MigrationStats
from repro.migration.transport import Channel, LOOPBACK, Link
from repro.vm.process import Process

__all__ = ["Host", "Cluster", "Scheduler", "SchedulerResult"]


@dataclass
class Host:
    """One machine in the distributed environment."""

    name: str
    arch: MachineArch

    def spawn(self, program, name: Optional[str] = None) -> Process:
        """Start a process from the pre-distributed migratable program."""
        proc = Process(program, self.arch, name=name or f"{program_name(program)}@{self.name}")
        proc.start()
        return proc

    def invoke_waiting(self, program, name: Optional[str] = None) -> Process:
        """Paper §2: 'the process on the destination machine is invoked to
        wait for execution and memory states of the migrating process' —
        a loaded-but-not-started process."""
        proc = Process(program, self.arch, name=name or f"wait@{self.name}")
        proc.load()
        return proc


def program_name(program) -> str:
    """Best-effort display name for a compiled program."""
    main = program.unit.functions[0].name if program.unit.functions else "prog"
    return main


class Cluster:
    """A set of hosts and the links between them."""

    def __init__(self) -> None:
        self.hosts: dict[str, Host] = {}
        self._links: dict[frozenset[str], Link] = {}

    def add_host(self, name: str, arch: MachineArch) -> Host:
        """Add a host to the cluster."""
        if name in self.hosts:
            raise ValueError(f"duplicate host {name!r}")
        host = Host(name, arch)
        self.hosts[name] = host
        return host

    def connect(self, a: Host, b: Host, link: Link) -> None:
        """Attach a modeled link between two hosts."""
        self._links[frozenset((a.name, b.name))] = link

    def link_between(self, a: Host, b: Host) -> Link:
        """The link between two hosts (loopback when unconnected)."""
        link = self._links.get(frozenset((a.name, b.name)))
        if link is None:
            return LOOPBACK
        return link


@dataclass
class PendingRequest:
    """A migration request delivered to a process."""

    dest: Host
    #: fire only at this poll id (None: any poll-point)
    at_poll: Optional[int] = None
    #: fire on the k-th matching poll (1 = the first one reached)
    after_polls: int = 1


@dataclass
class SchedulerResult:
    """Outcome of running a process under the scheduler."""

    process: Process
    exit_code: int
    #: the record of every migration conducted, in order (a cluster
    #: total is a sum over them)
    migrations: list[MigrationStats] = field(default_factory=list)

    @property
    def stdout(self) -> str:
        """Stdout of the final (post-migration) process."""
        return self.process.stdout


class Scheduler:
    """Delivers migration requests and conducts migrations."""

    def __init__(self, cluster: Cluster, engine: Optional[MigrationEngine] = None) -> None:
        self.cluster = cluster
        self.engine = engine or MigrationEngine()
        self._requests: dict[int, list[PendingRequest]] = {}
        self._homes: dict[int, Host] = {}

    def register(self, process: Process, host: Host) -> None:
        """Record which host a process runs on (``Host.spawn`` callers that
        use the scheduler should register the spawned process)."""
        self._homes[id(process)] = host

    def spawn(self, program, host: Host, name: Optional[str] = None) -> Process:
        proc = host.spawn(program, name)
        self.register(proc, host)
        return proc

    def request_migration(
        self,
        process: Process,
        dest: Host,
        at_poll: Optional[int] = None,
        after_polls: int = 1,
    ) -> None:
        """Send a migration request; the process notices at a poll-point."""
        self._requests.setdefault(id(process), []).append(
            PendingRequest(dest=dest, at_poll=at_poll, after_polls=after_polls)
        )
        self._arm(process)

    def _arm(self, process: Process) -> None:
        reqs = self._requests.get(id(process))
        if not reqs:
            process.migration_pending = False
            return
        req = reqs[0]
        process.migration_pending = True
        process.migrate_at_poll = req.at_poll
        process.migrate_after_polls = req.after_polls

    def run(self, process: Process, max_steps: Optional[int] = None) -> SchedulerResult:
        """Run *process* to completion, conducting any requested
        migrations along the way."""
        migrations: list[MigrationStats] = []
        current = process
        while True:
            result = current.run(max_steps)
            if result.status == "exit":
                return SchedulerResult(
                    process=current,
                    exit_code=result.exit_code,
                    migrations=migrations,
                )
            if result.status == "steps":
                raise MigrationError("step budget exhausted before completion")
            # status == "poll": conduct the pending migration
            reqs = self._requests.get(id(current))
            if not reqs:
                raise MigrationError("process stopped at a poll with no request")
            req = reqs.pop(0)
            home = self._homes.get(id(current))
            link = (
                self.cluster.link_between(home, req.dest) if home is not None else LOOPBACK
            )
            channel = Channel(link)
            new_proc, stats = self.engine.migrate(
                current, req.dest.arch, channel=channel
            )
            migrations.append(stats)
            # re-home bookkeeping and re-arm remaining requests
            self._requests[id(new_proc)] = self._requests.pop(id(current), [])
            self._homes.pop(id(current), None)
            self._homes[id(new_proc)] = req.dest
            self._arm(new_proc)
            current = new_proc
