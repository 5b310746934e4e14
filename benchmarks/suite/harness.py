"""Workload set-up, the verification oracle, and the end-to-end sampling loop.

End-to-end numbers come from here and use only ``compile_program``,
``Process``, ``checkpoint``/``restart``, ``MigrationEngine.migrate``,
``collect_state``, ``Channel``/``SocketChannel``, ``Link.transfer_time`` and
``heap_fingerprint``/``fingerprint_diff`` — so refactors of ``msr.wire`` or
transport internals cannot break the numbers they are judged by.
"""

from __future__ import annotations

import gc
import resource
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro import (
    ETHERNET_10M,
    ETHERNET_100M,
    LOOPBACK,
    Channel,
    MigrationEngine,
    Process,
    checkpoint,
    collect_state,
    compile_program,
    restart,
)
from repro.arch.machine import ARCH_PRESETS
from repro.difftest import fingerprint_diff, heap_fingerprint
from repro.migration import SocketChannel
from repro.migration.precopy import PrecopyPolicy
from repro.workloads import bitonic_source, linpack_source, structgrid_source

from benchmarks.suite import measure
from benchmarks.suite.spec import (
    MIN_SAMPLES,
    NOMINAL_CALIBRATION_US,
    RECURSION_LIMIT,
    SETUP_REPEATS,
    VERIFY_EVERY,
    WARMUP_MIGRATIONS,
    Workload,
)

_LONGLIST = Path(__file__).parent / "programs" / "longlist.c"


def source_text(program: str, size: tuple, seed: int) -> str:
    """The generated mini-C source; the program only ever sees *seed*
    through it (``srand`` argument), never through the harness."""
    if program == "linpack":
        return linpack_source(*size)
    if program == "bitonic":
        return bitonic_source(*size, seed)
    if program == "structgrid":
        return structgrid_source(*size, seed)
    if program == "longlist":
        (n,) = size
        return _LONGLIST.read_text().replace("%N%", str(n)).replace("%SEED%", str(seed))
    raise ValueError(f"no source generator for {program!r}")


def run_to_poll(program, arch, poll: int) -> Process:
    """A never-migrated process stopped at its *poll*-th poll-point."""
    proc = Process(program, arch)
    proc.start()
    proc.migration_pending = True
    proc.migrate_after_polls = poll
    result = proc.run()
    if result.status != "poll":
        raise RuntimeError(f"program ended ({result.status}) before poll {poll}")
    return proc


def wire_bytes(channel) -> int:
    """Bytes *channel* accepted, every frame counted once.

    On the in-memory ``Channel`` every frame rides ``send()``, so
    ``bytes_sent`` already holds whole messages *and* frames
    (``framed_bytes_sent`` counts the frames a second time).  On
    ``SocketChannel`` frames bypass ``send()`` and go straight into the
    socket, so the two counters are disjoint and are added.
    """
    if isinstance(channel, SocketChannel):
        return channel.bytes_sent + channel.framed_bytes_sent
    return channel.bytes_sent


@dataclass
class Sample:
    """One migration, as seen from outside."""

    wall_ms: float
    downtime_ms: float
    wire_bytes: int
    downtime_wire_bytes: int
    #: poll-points the source executed inside migrate() (pre-copy slices)
    polls_advanced: int
    #: mean of the calibration kernel's runs right before and after the timed region (us)
    calibration_us: float
    dest: Process
    stats: object


@dataclass
class Prepared:
    """A compiled workload stopped at its poll-point, ready to be sampled."""

    workload: Workload
    program: object
    organic: Process
    ckpt: object
    timings: dict = field(default_factory=dict)

    @property
    def src_arch(self):
        return ARCH_PRESETS[self.workload.src]

    @property
    def dst_arch(self):
        return ARCH_PRESETS[self.workload.dst]

    def mode(self, **override) -> dict:
        """The workload's ``migrate()`` keyword arguments."""
        mode = {**self.workload.mode, **override}
        if "precopy_policy" in mode:
            mode["precopy_policy"] = PrecopyPolicy(**mode["precopy_policy"])
        return mode

    @property
    def attributed(self) -> bool:
        """Whether the workload's own mode migrates with ``attribution=True``."""
        return bool(self.workload.mode.get("attribution"))

    def new_dest(self) -> Process:
        return Process(self.program, self.dst_arch)

    def new_source(self) -> Process:
        """``migrate()`` consumes its source, so every sample gets a fresh
        one rebuilt from the checkpoint (``collect_state`` of it is
        byte-identical to the organic process's)."""
        return restart(self.program, self.ckpt, self.src_arch)


def prepare(w: Workload, seed: int) -> Prepared:
    t0 = time.perf_counter()
    program = compile_program(source_text(w.program, w.size, seed), poll_strategy="user")
    t1 = time.perf_counter()
    organic = run_to_poll(program, ARCH_PRESETS[w.src], w.poll)
    t2 = time.perf_counter()
    ckpt = checkpoint(organic)
    t3 = time.perf_counter()
    return Prepared(w, program, organic, ckpt, {
        "vm.compile_s": t1 - t0,
        "vm.run_to_poll_s": t2 - t1,
        "msr.collect.first_ms": (t3 - t2) * 1e3,
    })


def migrate_once(prep: Prepared, source: Process | None = None, **override) -> Sample:
    """One timed ``migrate()`` of a fresh source.  The source rebuild, the
    channel and ``gc.collect()`` stay outside the timed region; the
    collector stays enabled inside it."""
    if source is None:
        source = prep.new_source()
    mode = prep.mode(**override)
    channel = Channel(LOOPBACK)  # LOOPBACK, so the measured wall holds no modeled seconds
    engine = MigrationEngine()
    gc.collect()
    before = measure.calibrate()
    t0 = time.perf_counter_ns()
    dest, stats = engine.migrate(source, prep.dst_arch, channel=channel, **mode)
    wall_ms = (time.perf_counter_ns() - t0) / 1e6
    calibration_us = (before + measure.calibrate()) / 2
    total = wire_bytes(channel)
    paused = total - channel.delta_bytes_sent
    downtime_ms = stats.precopy_downtime_s * 1e3 if stats.precopy else wall_ms
    return Sample(wall_ms, downtime_ms, total, paused, source.polls, calibration_us, dest, stats)


class Oracle:
    """Decides whether a migrated process holds the right state.

    *reference* is a never-migrated process stopped at the poll-point the
    migration ends at; it is only read.
    """

    def __init__(self, reference: Process) -> None:
        self.reference = reference
        self.payload = collect_state(reference)[0]
        self.fingerprint = heap_fingerprint(reference)

    def check_state(self, dest: Process) -> list[str]:
        """Whole-state check (consumes *dest*): the reachable heap must
        fingerprint like the reference's, and migrating back to the source
        arch must collect to the reference payload byte for byte (frames,
        stack, heap, globals)."""
        problems = []
        diff = fingerprint_diff(self.fingerprint, heap_fingerprint(dest))
        if diff is not None:
            problems.append(f"heap fingerprint differs from the never-migrated run: {diff}")
        back, _ = MigrationEngine().migrate(dest, self.reference.arch, channel=Channel(LOOPBACK))
        if collect_state(back)[0] != self.payload:
            problems.append("round trip to the source arch is not byte-identical to the reference state")
        return problems


def expected_output(prep: Prepared) -> str:
    """What a never-migrated run prints after the workload's poll-point."""
    never = Process(prep.program, prep.src_arch)
    never.start()
    never.run()
    return never.stdout[len(prep.organic.stdout):]


def check_resumed(dest: Process, expected: str) -> tuple[list[str], float]:
    """Resume a migrated process to exit and require its output to equal
    *expected*.  Returns ``(problems, resume seconds)``."""
    t0 = time.perf_counter()
    dest.run()
    resume_s = time.perf_counter() - t0
    if not dest.exited or dest.stdout != expected:
        return [f"resumed output {dest.stdout!r} != never-migrated output {expected!r}"], resume_s
    return [], resume_s


def stdout_oracle(w: Workload, seed: int, prep: Prepared) -> tuple[list[str], float]:
    """The once-per-workload stdout check, on the workload's proxy size
    when its real tail takes minutes in the VM."""
    if w.stdout_proxy is not None:
        size, poll = w.stdout_proxy
        prep = prepare(replace(w, size=size, poll=poll, stdout_proxy=None, ends_at=None), seed)
    return check_resumed(migrate_once(prep).dest, expected_output(prep))


def set_up(w: Workload, seed: int) -> tuple[Prepared, Oracle, Sample, list[str]]:
    """Everything before the first timed sample: compile, run to the poll,
    checkpoint, warm-up migrations (the first one is cold: plans compile in
    it) and the verification of the first one."""
    prep = prepare(w, seed)
    first = migrate_once(prep)
    for _ in range(WARMUP_MIGRATIONS - 1):
        migrate_once(prep)
    if first.polls_advanced:
        # pre-copy let the source run on: the state to compare against is
        # the never-migrated program at the poll-point it stopped at
        reference = run_to_poll(prep.program, prep.src_arch, w.poll + first.polls_advanced)
    else:
        reference = prep.organic
    oracle = Oracle(reference)
    problems = oracle.check_state(first.dest)
    if w.ends_at is not None and w.poll + first.polls_advanced != w.ends_at:
        problems.append(
            f"migration ended at poll {w.poll + first.polls_advanced}, not {w.ends_at}")
    return prep, oracle, first, problems


@dataclass
class Outcome:
    """What one run of one workload produced (either mode)."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    #: sample count and other facts the report prints next to the metrics
    detail: dict = field(default_factory=dict)

    def note(self, problems: list[str]) -> None:
        """Book one check (of a migration, or of the span arithmetic) and
        whatever it found wrong."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def sample_checks(s: Sample, first: Sample) -> list[str]:
    problems = []
    if s.downtime_ms > s.wall_ms:
        problems.append(f"downtime {s.downtime_ms} ms exceeds wall {s.wall_ms} ms")
    if (s.wire_bytes, s.downtime_wire_bytes) != (first.wire_bytes, first.downtime_wire_bytes):
        problems.append(
            f"wire bytes do not repeat: {s.wire_bytes}/{s.downtime_wire_bytes} "
            f"after {first.wire_bytes}/{first.downtime_wire_bytes}")
    if s.stats.attempts != 1:
        problems.append(f"migration took {s.stats.attempts} attempts")
    return problems


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_samples(prep: Prepared, oracle: Oracle, first: Sample, out: Outcome,
                  seconds: float, min_samples: int) -> list[tuple]:
    """The sampling loop: ``(wall ms, downtime ms, calibration us)`` of every
    timed sample; each is checked and booked in *out*."""
    samples = []
    # the newest sample and its problems, not booked before it is known
    # whether it is the last one (which is always verified)
    pending = None
    deadline = time.perf_counter() + seconds
    i = 0
    while i < min_samples or time.perf_counter() < deadline:
        if pending is not None:
            out.note(pending[1])
            pending = None
        try:
            s = migrate_once(prep)
        except Exception as exc:  # noqa: BLE001 - a failed migration is a counted outcome, not a crash
            out.note([f"sample {i}: migrate() raised {type(exc).__name__}: {exc}"])
            i += 1
            continue
        samples.append((s.wall_ms, s.downtime_ms, s.calibration_us))
        problems = sample_checks(s, first)
        if i % VERIFY_EVERY == 0:
            out.note(problems + oracle.check_state(s.dest))
        else:
            pending = (s, problems)
        i += 1
    if pending is not None:
        s, problems = pending
        out.note(problems + oracle.check_state(s.dest))
    return samples


def run_end_to_end(w: Workload, seed: int, seconds: float, min_samples: int = MIN_SAMPLES,
                   setup_repeats: int = SETUP_REPEATS) -> Outcome:
    """Closed loop, one client, one migration in flight: sample untraced
    migrations for *seconds* (and at least *min_samples*), verify them, and
    derive every end-to-end metric.

    The machine runs a third slower for seconds at a time and drifts for
    minutes, so every time is normalized before anything is derived from it:
    multiplied by NOMINAL_CALIBRATION_US over the calibration kernel's time
    right next to it (each sample by its own two kernel runs, each set-up by
    the kernel bursts around it)."""
    sys.setrecursionlimit(RECURSION_LIMIT)
    out = Outcome()

    setups = []
    for _ in range(setup_repeats):
        before = measure.calibrate_p50()
        t0 = time.perf_counter()
        prep, oracle, first, problems = set_up(w, seed)
        raw_s = time.perf_counter() - t0
        setups.append((raw_s, raw_s * NOMINAL_CALIBRATION_US * 2 / (before + measure.calibrate_p50())))
        out.note(problems)
    problems, _ = stdout_oracle(w, seed, prep)
    out.note(problems)

    samples = timed_samples(prep, oracle, first, out, seconds, min_samples)
    if not samples:
        return out
    walls = [raw * NOMINAL_CALIBRATION_US / cal for raw, _, cal in samples]
    wall = measure.p50(walls)
    down = measure.p50([raw * NOMINAL_CALIBRATION_US / cal for _, raw, cal in samples])
    out.metrics = {
        "setup_s": measure.p50([normalized for _, normalized in setups]),
        "migrate_wall_p50_ms": wall,
        "migrate_wall_p90_ms": measure.p90(walls),
        "downtime_p50_ms": down,
        "wire_bytes": first.wire_bytes,
        "downtime_wire_bytes": first.downtime_wire_bytes,
        "response_10M_ms": wall + ETHERNET_10M.transfer_time(first.wire_bytes) * 1e3,
        "response_100M_ms": wall + ETHERNET_100M.transfer_time(first.wire_bytes) * 1e3,
        "downtime_10M_ms": down + ETHERNET_10M.transfer_time(first.downtime_wire_bytes) * 1e3,
        "downtime_100M_ms": down + ETHERNET_100M.transfer_time(first.downtime_wire_bytes) * 1e3,
        "throughput_mb_s": first.stats.data_bytes / 1e6 / (wall / 1e3),
        "peak_rss_mb": peak_rss_mb(),
        "failed_share": out.failed / out.attempted,
    }
    out.detail = {
        "n": len(samples),
        "raw_migrate_wall_p50_ms": measure.p50([raw for raw, _, _ in samples]),
        "calibration_p50_us": measure.p50([cal for _, _, cal in samples]),
        "raw_setup_s": [raw for raw, _ in setups],
    }
    return out
