"""The differential harness: replay generated programs under migration.

The oracle is the *un-migrated* run: for every program the harness first
runs it to completion on every architecture and checks the outputs agree
bit-for-bit (the generator's portability contract; a disagreement here
is a generator bug, not a collector bug).  Then it replays the program

- **pairwise** (:func:`sweep_pairs`): one migration injected at every
  user poll point, across every ordered architecture pair, each checked
  by :func:`check_migration`: the final stdout, exit code, and canonical
  heap fingerprint (:func:`repro.difftest.oracle.heap_fingerprint`)
  match the baseline, and the restored process re-collects to exactly
  the payload it was restored from (the wire is canonical);
- **chained** (:func:`run_chain`): a multi-hop itinerary
  (e.g. DEC5000→ALPHA→SPARC20), each hop optionally migrating *under a
  transient transport fault* with the engine's retries curing it, and
  each hop's attribution rows checked against its own payload.

Every failure is a :class:`Mismatch` carrying the exact inputs of the
check that found it — the currency :mod:`repro.difftest.shrink` replays
through that same check, and :mod:`repro.difftest.corpus` commits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations
from typing import Optional, Sequence

from repro.arch.machine import MACHINES, ARCH_PRESETS
from repro.difftest.generate import GenConfig, GeneratedProgram, generate
from repro.difftest.oracle import fingerprint_diff, heap_fingerprint
from repro.migration.engine import (
    MigrationEngine,
    MigrationError,
    collect_errors,
    collect_state,
)
from repro.migration.precopy import PrecopySourceExitedError
from repro.migration.transport import (
    LOOPBACK,
    Channel,
    FaultPlan,
    FaultyChannel,
)
from repro.vm.process import Process
from repro.vm.program import compile_program

__all__ = [
    "Baseline",
    "CaseReport",
    "ChainHop",
    "Mismatch",
    "check_migration",
    "default_chain",
    "run_chain",
    "run_seed",
    "sweep_pairs",
]

def arch_by_name(name: str):
    """An :data:`ARCH_PRESETS` lookup tolerant of ``DEC5000``-style
    spellings (preset keys are lowercase)."""
    try:
        return ARCH_PRESETS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown architecture {name!r}; known: {', '.join(ARCH_PRESETS)}"
        ) from None


#: the transient fault injected at each chain hop: one flipped byte in
#: the first transfer unit of the first attempt
DEFAULT_HOP_FAULT = "bitflip@0:9"


@dataclass(frozen=True)
class ChainHop:
    """One leg of a multi-hop itinerary.

    ``after_polls`` counts user poll points *since the previous hop's
    restore* (1 = migrate at the first poll reached); ``fault`` is a
    :meth:`FaultPlan.parse` spec injected on that hop's channel, or
    ``None`` for a clean link.
    """

    dest: str  # architecture name (ARCH_PRESETS key)
    after_polls: int = 1
    fault: Optional[str] = DEFAULT_HOP_FAULT


@dataclass(frozen=True)
class Mismatch:
    """One divergence from the un-migrated oracle, carrying what its
    replay needs: the program (``seed``, ``features``, ``size``) and the
    check that found it — a pairwise migration (``src``, ``dst``,
    ``poll``, and ``mode``, its ``migrate()`` keywords) or a chain
    (``src`` is where it starts, ``schedule`` its hops)."""

    seed: int
    features: tuple[str, ...]
    kind: str  # "stdout" | "exit" | "fingerprint" | "canonical" | "error" | "baseline" | "attribution"
    route: str  # e.g. "DEC5000->ALPHA@poll3" or "DEC5000->ALPHA->SPARC20"
    detail: str
    size: int = 1
    src: Optional[str] = None
    dst: Optional[str] = None
    poll: Optional[int] = None
    mode: Optional[dict] = None
    schedule: Optional[tuple[ChainHop, ...]] = None

    @classmethod
    def of(cls, prog: GeneratedProgram, kind: str, detail: str, route: str,
           **check) -> "Mismatch":
        """A mismatch *prog* showed under the check described by *check*."""
        return cls(
            seed=prog.seed, features=prog.config.features, kind=kind,
            route=route, detail=detail, size=prog.config.size, **check,
        )

    def __str__(self) -> str:
        return (
            f"[{self.kind}] seed={self.seed} "
            f"features={','.join(self.features)} {self.route}: {self.detail}"
        )


@dataclass
class Baseline:
    """The un-migrated reference run of one compiled program."""

    stdout: str
    exit_code: int
    total_polls: int
    fingerprint: list


@dataclass
class CaseReport:
    """Everything one seed's differential run produced."""

    seed: int
    config: GenConfig
    total_polls: int = 0
    runs: int = 0  # migrated replays performed (pairwise + chain)
    mismatches: list[Mismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _run_out(proc: Process) -> Baseline:
    """Run *proc* to completion and record how it ended."""
    code = proc.run_to_completion()
    return Baseline(
        stdout=proc.stdout,
        exit_code=code,
        total_polls=proc.polls,
        fingerprint=heap_fingerprint(proc),
    )


def run_baseline(program, arch) -> Baseline:
    """Run the compiled *program* on *arch* without ever migrating."""
    return _run_out(Process(program, arch))


def _differences(proc: Process, want: Baseline) -> list[tuple[str, str]]:
    """Run *proc* to completion; each way its end differs from *want*,
    as a ``(kind, detail)`` pair."""
    try:
        got = _run_out(proc)
    except Exception as exc:  # a VM crash is a finding too
        return [("error", f"{type(exc).__name__}: {exc}")]
    found = []
    if got.stdout != want.stdout:
        found.append(("stdout", f"{got.stdout!r} != {want.stdout!r}"))
    if got.exit_code != want.exit_code:
        found.append(("exit", f"{got.exit_code} != {want.exit_code}"))
    diff = fingerprint_diff(got.fingerprint, want.fingerprint)
    if diff is not None:
        found.append(("fingerprint", diff))
    return found


def _stop_at_poll(program, arch, after_polls: int) -> Optional[Process]:
    """A process stopped at its *after_polls*-th user poll, or ``None``
    if it exits first."""
    proc = Process(program, arch)
    proc.start()
    proc.migration_pending = True
    proc.migrate_after_polls = after_polls
    result = proc.run()
    if result.status != "poll":
        return None
    return proc


def check_baseline_agreement(
    prog: GeneratedProgram, program, arches: Sequence
) -> tuple[Optional[Baseline], list[Mismatch]]:
    """Baselines on every architecture must agree with the first one.  A
    baseline run that faults is a ``baseline`` mismatch on whichever
    architecture it faults; on the first there is then no reference, and
    the baseline returned is ``None``."""
    first, *others = arches
    try:
        reference = run_baseline(program, first)
    except Exception as exc:  # a VM crash is a finding too
        return None, [Mismatch.of(
            prog, "baseline", f"error: {type(exc).__name__}: {exc}", first.name
        )]
    return reference, [
        Mismatch.of(
            prog, "baseline", f"{kind}: {detail}", f"{first.name} vs {arch.name}"
        )
        for arch in others
        for kind, detail in _differences(Process(program, arch), reference)
    ]


def check_migration(
    prog: GeneratedProgram,
    program,
    baseline: Baseline,
    src,
    dst,
    poll: int,
    mode: Optional[dict] = None,
) -> Optional[list[Mismatch]]:
    """Migrate *program* from *src* to *dst* at its *poll*-th user poll,
    in the transfer *mode* given as ``migrate()`` keywords (default:
    none — the serial stop-and-copy), and return its mismatches:
    ``error``, ``canonical``, then ``stdout``, ``exit`` and
    ``fingerprint`` against *baseline*.  ``None`` when the program exits
    before that poll.

    The migration is also held to the wire's fixed point: the restored
    process collects back to exactly the payload it was restored from
    (a ``"canonical"`` mismatch otherwise).  A pre-copy source runs on
    before it stops, so the poll's payload is not what it sends, and the
    pre-copy mode skips this check.
    """
    stopped = _stop_at_poll(program, src, poll)
    if stopped is None:
        return None
    found: list[tuple[str, str]] = []
    sent = None
    try:
        if not (mode or {}).get("precopy"):
            # what the migration sends: collection is deterministic and
            # leaves the source as it was
            with collect_errors():
                sent = collect_state(stopped)[0]
        dest, _stats = MigrationEngine().migrate(stopped, dst, **(mode or {}))
    except PrecopySourceExitedError:
        # the pre-copy slices ran the source to its end: nothing was
        # left to move, and what it printed on the way is the oracle's
        # business all the same
        if stopped.stdout != baseline.stdout:
            found.append(("stdout", f"{stopped.stdout!r} != {baseline.stdout!r}"))
    except MigrationError as exc:
        found.append(("error", f"{type(exc).__name__}: {exc}"))
    else:
        drift = sent and _recollect_drift(sent, dest)
        if drift:
            found.append(("canonical", drift))
        found += _differences(dest, baseline)
    return [
        Mismatch.of(
            prog, kind, detail, f"{src.name}->{dst.name}@poll{poll}",
            src=src.name, dst=dst.name, poll=poll, mode=mode,
        )
        for kind, detail in found
    ]


def sweep_pairs(
    prog: GeneratedProgram,
    program,
    baseline: Baseline,
    arches: Sequence,
    max_polls: Optional[int] = None,
    mode: Optional[dict] = None,
) -> tuple[int, list[Mismatch]]:
    """:func:`check_migration` at every poll across every ordered pair,
    in transfer *mode*.

    With *max_polls* set and fewer than ``total_polls`` poll points
    affordable, the polls are stride-sampled deterministically (always
    including the first and the last).  Returns ``(runs, mismatches)``.
    """
    polls = _sample_polls(baseline.total_polls, max_polls)
    runs = 0
    mismatches: list[Mismatch] = []
    for src, dst in permutations(arches, 2):
        for k in polls:
            found = check_migration(prog, program, baseline, src, dst, k, mode)
            if found is None:
                break  # later polls don't exist either
            runs += 1
            mismatches += found
    return runs, mismatches


def _recollect_drift(sent: bytes, dest: Process) -> Optional[str]:
    """How *dest*, just restored from *sent*, fails to collect back to
    exactly *sent*; ``None`` when it does."""
    try:
        with collect_errors():
            back = collect_state(dest)[0]
    except MigrationError as exc:
        return f"{type(exc).__name__}: {exc}"
    if back == sent:
        return None
    at = next(
        (i for i, (a, b) in enumerate(zip(sent, back)) if a != b),
        min(len(sent), len(back)),
    )
    return (
        f"restored from {len(sent)} B, re-collects to {len(back)} B; "
        f"first difference at byte {at}"
    )


def _sample_polls(total: int, cap: Optional[int]) -> list[int]:
    if total <= 0:
        return []
    if cap is None or total <= cap:
        return list(range(1, total + 1))
    if cap == 1:
        return [1]
    # deterministic stride sample, endpoints included
    step = (total - 1) / (cap - 1)
    picked = sorted({1 + round(i * step) for i in range(cap)})
    return [min(p, total) for p in picked]


def default_chain(n_hops: int = 2) -> tuple[str, tuple[ChainHop, ...]]:
    """The acceptance itinerary: DEC5000 → ALPHA → SPARC20 → …, one
    transient fault per hop.  The first two hops (LE/32 → LE/64 → BE/32)
    exercise both a word-size change and an endianness change across the
    same data; longer chains cycle on through the remaining presets."""
    itinerary = ("alpha", "sparc20", "x86_64", "ultra5", "x86", "dec5000")
    hops = tuple(
        ChainHop(itinerary[i % len(itinerary)], after_polls=2)
        for i in range(max(1, n_hops))
    )
    return "dec5000", hops


def run_chain(
    prog: GeneratedProgram,
    program,
    baseline: Baseline,
    start: str,
    schedule: Sequence[ChainHop],
) -> tuple[int, list[Mismatch]]:
    """Migrate through *schedule*, faulted.

    Each hop runs over a :class:`FaultyChannel` carrying the hop's
    (transient) fault plan, with the engine's retry curing it.  Besides
    the end-state oracle, the chain asserts the attribution contract:
    each hop's rows (plus framing) account for exactly the payload that
    arrived.

    Returns ``(hops_performed, mismatches)``.  A schedule whose poll
    offsets overrun the program's remaining polls is truncated, not an
    error (short programs simply make shorter chains).
    """
    found: list[tuple[str, str]] = []
    proc = _stop_at_poll(program, arch_by_name(start), schedule[0].after_polls)
    hops = 0
    while proc is not None and hops < len(schedule):
        hop = schedule[hops]
        channel = Channel(LOOPBACK)
        if hop.fault:
            channel = FaultyChannel(channel, FaultPlan.parse(hop.fault))
        try:
            proc, stats = MigrationEngine().migrate(
                proc,
                arch_by_name(hop.dest),
                channel=channel,
                streaming=True,
                chunk_size=512,
                # enough attempts to cure one transient fault
                max_attempts=3,
                attribution=True,
            )
        except MigrationError as exc:
            found.append(
                ("error", f"hop {hops} ({hop.dest}): {type(exc).__name__}: {exc}")
            )
            proc = None
            break
        total = sum(r["bytes"] for r in stats.attribution["rows"])
        if total != stats.payload_bytes:
            found.append((
                "attribution",
                f"hop {hops}: rows sum {total} != payload {stats.payload_bytes}",
            ))
        hops += 1
        if hops < len(schedule):
            proc.migration_pending = True
            proc.migrate_after_polls = schedule[hops].after_polls
            if proc.run().status != "poll":
                break  # exited before the next hop: the chain ends here
    if proc is not None and hops:
        found += _differences(proc, baseline)
    route = "->".join([start] + [h.dest for h in schedule])
    return hops, [
        Mismatch.of(
            prog, kind, detail, route, src=start, schedule=tuple(schedule)
        )
        for kind, detail in found
    ]


def run_seed(
    seed: int,
    config: Optional[GenConfig] = None,
    arches: Optional[Sequence] = None,
    hops: int = 2,
    max_polls: Optional[int] = None,
    mode: Optional[dict] = None,
) -> CaseReport:
    """The full differential run for one seed.

    Generates, compiles, establishes the cross-architecture baseline,
    sweeps every (pair, poll) in transfer *mode* (``migrate()``
    keywords, see :func:`check_migration`), then — with ``hops >= 1`` —
    runs the multi-hop faulted chain.  *arches* defaults to all of
    :data:`~repro.arch.machine.MACHINES`.
    """
    arch_list = list(arches) if arches else list(MACHINES)
    prog = generate(seed, config)
    report = CaseReport(seed=seed, config=prog.config)
    try:
        program = compile_program(prog.source, poll_strategy="user")
    except Exception as exc:
        report.mismatches.append(
            Mismatch.of(prog, "error", f"{type(exc).__name__}: {exc}", "compile")
        )
        return report
    baseline, disagreements = check_baseline_agreement(prog, program, arch_list)
    report.mismatches.extend(disagreements)
    if disagreements:
        return report  # generator bug: differential replay is meaningless
    report.total_polls = baseline.total_polls
    runs, mismatches = sweep_pairs(
        prog, program, baseline, arch_list, max_polls, mode
    )
    report.runs += runs
    report.mismatches.extend(mismatches)
    if hops >= 1 and baseline.total_polls >= 2:
        start, schedule = default_chain(hops)
        done, mismatches = run_chain(prog, program, baseline, start, schedule)
        report.runs += done
        report.mismatches.extend(mismatches)
    return report
