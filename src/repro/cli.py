"""Command-line interface: the pre-compiler and migration tools as a CLI.

Usage (after ``pip install -e .`` the ``repro`` entry point exists; or use
``python -m repro``):

.. code-block:: text

    repro run prog.c --arch sparc20
    repro check prog.c
    repro annotate prog.c > prog.mig.c
    repro migrate prog.c --from dec5000 --to sparc20 --after-polls 10
    repro checkpoint prog.c --arch dec5000 --after-polls 5 -o snap.ckpt
    repro restart prog.c snap.ckpt --arch alpha
    repro graph prog.c --after-polls 5
    repro fuzz --seeds 50 --hops 3
    repro obs report trace.jsonl
    repro obs top trace.jsonl --by type
    repro obs diff baseline.jsonl current.jsonl
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from repro.arch.machine import ARCH_PRESETS
from repro.clang.ctypes import LayoutError
from repro.clang.lexer import LexError
from repro.clang.parser import ParseError, parse
from repro.clang.unsafe import MigrationSafetyError, check_migration_safety
from repro.migration.checkpoint import (
    CheckpointError,
    checkpoint_to_file,
    restart_from_file,
)
from repro.migration.engine import (
    DEFAULT_CHUNK_SIZE,
    MigrationEngine,
    MigrationError,
)
from repro.migration.transport import (
    Channel,
    ETHERNET_10M,
    ETHERNET_100M,
    FaultPlan,
    FaultyChannel,
    GIGABIT,
    LOOPBACK,
)
from repro.obs.report import (
    TraceReadError,
    load_trace,
    render_diff,
    render_report,
    render_top,
)
from repro.transform.annotate import annotate_program
from repro.vm.compiler import CompileError
from repro.vm.normalize import NormalizeError
from repro.vm.process import GuestFault, Process
from repro.vm.program import compile_program
from repro.vm.typecheck import TypeCheckError

__all__ = ["main"]

#: what `repro migrate` exits with when it ran to the end but not to plan
#: (0: arrived, output identical; 1: a failure of ours; 2: usage)
EXIT_OUTPUT_DIFFERS = 3
EXIT_MIGRATION_ABORTED = 4
#: the program itself faulted (any subcommand that runs it)
EXIT_GUEST_FAULT = 5


class CliError(Exception):
    """What a subcommand cannot go on from, as the one line and the exit
    code :func:`main` turns it into."""

    def __init__(self, message: str, code: int) -> None:
        super().__init__(message)
        self.code = code


_LINKS = {
    "10m": ETHERNET_10M,
    "100m": ETHERNET_100M,
    "gigabit": GIGABIT,
    "loopback": LOOPBACK,
}


def _int_at_least(low: int):
    """An argparse ``type=``: an integer no smaller than *low*.  A value
    out of range is a usage error (exit 2, one line), not a traceback
    from whatever policy object it would have reached."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _fault_plan(text: str) -> FaultPlan:
    """An argparse ``type=``: a ``--fault`` spec."""
    try:
        return FaultPlan.parse(text)
    except (ValueError, KeyError) as exc:
        raise argparse.ArgumentTypeError(f"bad fault spec {text!r}: {exc}") from None


def _check_writable(flag: str, out: str) -> None:
    """An output that cannot be written is refused before the run it
    would have recorded, not after (a probe: nothing is created)."""
    target = Path(out)
    where = target if target.exists() else target.parent
    if target.is_dir() or not os.access(where, os.W_OK):
        raise CliError(f"{flag}: cannot write {out}", 2)


def _read_source(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror}", 2) from None


def _compile(path: str, args) -> object:
    return compile_program(
        _read_source(path),
        poll_strategy=getattr(args, "poll_strategy", "loops"),
        strict_safety=not getattr(args, "no_strict", False),
    )


def _stop_at(prog, arch, after_polls: int) -> Process:
    proc = Process(prog, arch)
    proc.start()
    proc.migration_pending = True
    proc.migrate_after_polls = after_polls
    result = proc.run()
    if result.status != "poll":
        raise CliError(
            f"process exited (code {result.exit_code}) before reaching "
            f"poll #{after_polls}; it executed {proc.polls} poll-points", 1
        )
    return proc


def cmd_run(args) -> int:
    """`repro run`: compile and execute, print the program stdout."""
    prog = _compile(args.file, args)
    proc = Process(prog, ARCH_PRESETS[args.arch])
    try:
        code = proc.run_to_completion()
    finally:
        # what it printed before a fault is still what it printed
        sys.stdout.write(proc.stdout)
    if args.stats:
        print(
            f"[{proc.steps} instructions, {proc.polls} poll-points, "
            f"{proc.mallocs} allocations]",
            file=sys.stderr,
        )
    return code


def cmd_check(args) -> int:
    """`repro check`: print migration-safety findings; exit 1 if any."""
    source = _read_source(args.file)
    try:
        unit = parse(source)
    except ParseError as exc:
        print(f"REJECTED by the parser: {exc}")
        return 1
    findings = check_migration_safety(unit)
    if not findings:
        print(f"{args.file}: migration-safe (no findings)")
        return 0
    for f in findings:
        print(f"UNSAFE: {f}")
    return 1


def cmd_annotate(args) -> int:
    """`repro annotate`: emit the migratable-format source."""
    prog = _compile(args.file, args)
    annotated = annotate_program(prog)
    sys.stdout.write(annotated.source)
    print(
        f"/* {len(annotated.poll_sites)} poll-points annotated */",
        file=sys.stderr,
    )
    return 0


def cmd_migrate(args) -> int:
    """`repro migrate`: run with one migration; compare to a baseline.

    ``--fault PLAN`` injects a deterministic transport fault schedule
    (see :class:`repro.migration.transport.FaultPlan`); with
    ``--retries`` the engine fights through transient faults, and if
    every attempt fails the source process — untouched by the aborted
    transfer — resumes locally, so the run still completes: exit
    :data:`EXIT_MIGRATION_ABORTED`.  Output that differs from the
    unmigrated run's, wherever it completed, is
    :data:`EXIT_OUTPUT_DIFFERS`.
    """
    prog = _compile(args.file, args)
    src_arch = ARCH_PRESETS[args.src]
    dst_arch = ARCH_PRESETS[args.dst]
    for flag, out in (("--trace", args.trace), ("--metrics-out", args.metrics_out)):
        if out not in (None, "-"):
            _check_writable(flag, out)

    baseline = Process(prog, src_arch)
    baseline.run_to_completion()

    proc = _stop_at(prog, src_arch, args.after_polls)
    engine = MigrationEngine()
    link = _LINKS[args.link]

    channel = Channel(link)
    if args.fault is not None:
        print(f"[fault plan: {args.fault}]", file=sys.stderr)
        channel = FaultyChannel(channel, args.fault)

    # the attribution table is part of what a trace is *for*, so --trace
    # implies profiling unless it was explicitly configured
    attribution = bool(getattr(args, "attribution", False) or
                       getattr(args, "trace", None))

    precopy_policy = None
    if getattr(args, "precopy", False):
        from repro.migration.precopy import PrecopyPolicy

        precopy_policy = PrecopyPolicy(max_rounds=args.max_rounds)

    try:
        dest, stats = engine.migrate(
            proc,
            dst_arch,
            channel=channel,
            streaming=args.stream,
            chunk_size=args.chunk_size,
            compress=args.compress,
            max_attempts=args.retries + 1,
            attribution=attribution,
            precopy=precopy_policy is not None,
            precopy_policy=precopy_policy,
        )
    except MigrationError as exc:
        print(f"[migration failed: {exc}]", file=sys.stderr)
        # all-or-nothing held: the source is still at its poll-point —
        # resume it locally and finish the run there
        proc.migration_pending = False
        result = proc.run()
        sys.stdout.write(proc.stdout)
        # the trace of a failed migration is the one an investigation
        # needs: the error carries the run's observation out
        _write_observation(args, exc.stats, proc.stdout)
        ok = (
            proc.stdout == baseline.stdout
            and result.exit_code == baseline.exit_code
        )
        print(
            f"[resumed on source {src_arch.name}; output "
            f"{'identical to' if ok else 'DIFFERS from'} an unmigrated run]",
            file=sys.stderr,
        )
        return EXIT_MIGRATION_ABORTED if ok else EXIT_OUTPUT_DIFFERS

    result = dest.run()
    sys.stdout.write(dest.stdout)
    print(f"[{stats}]", file=sys.stderr)
    _write_observation(args, stats, dest.stdout)
    if stats.precopy:
        print(
            f"[pre-copy: {stats.precopy_rounds} rounds, "
            f"{stats.precopy_bytes} round bytes, stop-and-copy downtime "
            f"{stats.precopy_downtime_s * 1e3:.2f} ms]",
            file=sys.stderr,
        )
    elif stats.precopy_degraded:
        print("[pre-copy degraded to plain stop-and-copy]", file=sys.stderr)
    ok = dest.stdout == baseline.stdout and result.exit_code == baseline.exit_code
    print(
        f"[output {'identical to' if ok else 'DIFFERS from'} an unmigrated run]",
        file=sys.stderr,
    )
    return 0 if ok else EXIT_OUTPUT_DIFFERS


def _write_observation(args, stats, printed: str) -> None:
    """Write what ``--trace PATH`` and ``--metrics-out PATH|-`` ask for,
    on the successful exit and the failed one alike (*printed*: the
    program's output, already on stdout)."""
    trace, metrics_out = args.trace, args.metrics_out
    if trace is None and metrics_out is None:
        return
    if stats is None or stats.obs is None:
        # failing loudly beats silently producing no file: a user who
        # asked for a trace must never discover at analysis time that
        # the migration ran unobserved
        raise CliError(
            "--trace/--metrics-out: this migration produced no observation "
            "(stats.obs is None), so there is no trace and there are no "
            "metrics to write", 1
        )
    if trace is not None:
        stats.obs.write_trace(trace)
        print(f"[trace written to {trace}]", file=sys.stderr)
    if metrics_out is not None:
        text = "".join(
            f"{name} = {value}\n" for name, value in stats.counters().items()
        )
        if metrics_out == "-":
            if printed and not printed.endswith("\n"):
                text = "\n" + text  # the first counter starts a line
            sys.stdout.write(text)
        else:
            Path(metrics_out).write_text(text)
            print(f"[metrics written to {metrics_out}]", file=sys.stderr)


def cmd_obs(args) -> int:
    """`repro obs`: offline analysis of JSONL migration traces."""
    if args.obs_command == "report":
        print(render_report(load_trace(args.trace)))
    elif args.obs_command == "top":
        print(render_top(load_trace(args.trace), by=args.by, n=args.n))
    elif args.obs_command == "diff":
        print(render_diff(load_trace(args.a), load_trace(args.b)))
    return 0


def cmd_fuzz(args) -> int:
    """`repro fuzz`: the differential fuzzer (DESIGN.md §11).

    Each seed generates a program, establishes the un-migrated baseline
    on every architecture, then replays it with a migration injected at
    every poll point across every ordered architecture pair and through
    a multi-hop faulted chain.  Failures are minimized by the shrinker
    and written to ``--out`` as replayable artifacts (the minimized
    ``.c`` plus a ``.json`` recipe).  Exit status is 1 when any seed
    fails (the summary line counts them), 0 otherwise.
    """
    import json

    from repro.difftest.generate import GenConfig
    from repro.difftest.harness import arch_by_name, run_seed
    from repro.difftest.shrink import shrink_case

    if args.arches:
        try:
            arches = [arch_by_name(n) for n in args.arches.split(",") if n]
        except ValueError as exc:
            raise CliError(str(exc), 2) from None
        if len(arches) < 2:
            raise CliError("--arches needs at least two architectures", 2)
    else:
        arches = None  # all of MACHINES

    config = GenConfig(size=args.size) if args.size != 1 else None
    out_dir = Path(args.out)
    failing = 0
    total_runs = 0
    for seed in range(args.start, args.start + args.seeds):
        report = run_seed(
            seed,
            config=config,
            arches=arches,
            hops=args.hops,
            max_polls=args.max_polls,
        )
        total_runs += report.runs
        tag = (
            f"seed {seed:5d} [{','.join(report.config.features)}] "
            f"{report.total_polls} polls, {report.runs} replays"
        )
        if report.ok:
            if args.verbose:
                print(f"ok   {tag}", file=sys.stderr)
            continue
        failing += 1
        print(f"FAIL {tag}", file=sys.stderr)
        for m in report.mismatches:
            print(f"     {m}", file=sys.stderr)
        if args.no_shrink:
            continue
        out_dir.mkdir(parents=True, exist_ok=True)
        result = shrink_case(report.mismatches[0])
        stem = f"seed{seed:05d}_{result.minimized.kind}"
        (out_dir / f"{stem}.json").write_text(
            json.dumps(result.to_artifact(), indent=2) + "\n"
        )
        (out_dir / f"{stem}.c").write_text(result.source)
        print(
            f"     shrunk to features={','.join(result.config.features)} "
            f"({result.candidates_tried} candidates) -> {out_dir}/{stem}.*",
            file=sys.stderr,
        )
    print(
        f"[fuzz: {args.seeds} seeds, {total_runs} migrated replays, "
        f"{failing} failing]",
        file=sys.stderr,
    )
    return 1 if failing else 0


def cmd_checkpoint(args) -> int:
    """`repro checkpoint`: snapshot a process at a poll-point to a file."""
    prog = _compile(args.file, args)
    _check_writable("-o", args.output)
    proc = _stop_at(prog, ARCH_PRESETS[args.arch], args.after_polls)
    ckpt = checkpoint_to_file(proc, args.output)
    print(
        f"checkpoint written to {args.output} "
        f"({len(ckpt.payload)} payload bytes, taken on {proc.arch.name})",
        file=sys.stderr,
    )
    return 0


def cmd_restart(args) -> int:
    """`repro restart`: resume a checkpoint file on any architecture."""
    prog = _compile(args.file, args)
    proc = restart_from_file(prog, args.checkpoint, ARCH_PRESETS[args.arch])
    result = proc.run()
    sys.stdout.write(proc.stdout)
    return result.exit_code


def cmd_graph(args) -> int:
    """`repro graph`: print the MSR graph G=(V,E) at a poll-point."""
    from repro.msr.model import build_msr_graph
    from repro.msr.msrlt import BlockKind, MSRLTError

    prog = _compile(args.file, args)
    proc = _stop_at(prog, ARCH_PRESETS[args.arch], args.after_polls)
    proc.register_stack_blocks()
    roots = []
    for depth in range(len(proc.frames) - 1, -1, -1):
        fir = prog.functions[proc.frames[depth].func_idx]
        for var_idx in range(len(fir.norm.variables)):
            roots.append(proc.msrlt.lookup_logical((BlockKind.STACK, depth, var_idx)))
    for idx, info in enumerate(prog.globals):
        if not info.is_string and not info.is_hidden:
            roots.append(proc.msrlt.lookup_logical((BlockKind.GLOBAL, idx, 0)))
    try:
        graph = build_msr_graph(proc, roots)
    except MSRLTError as exc:
        raise CliError(f"{args.file}: a live pointer dangles at poll "
                       f"#{args.after_polls}: {exc}", 1)
    census = graph.segment_census()
    print(
        f"MSR graph at poll #{args.after_polls}: |V|={len(graph.vertices)} "
        f"|E|={len(graph.edges)} nulls={graph.n_null_pointers}"
    )
    print(
        f"segments: {census['global']} global, {census['stack']} stack, "
        f"{census['heap']} heap; Σ D_i = {graph.total_bytes()} bytes"
    )
    if args.verbose:
        names = {
            l: (b.name or f"heap#{l[1]}") for l, b in graph.vertices.items()
        }
        for logical, block in graph.vertices.items():
            seg = BlockKind.NAMES[logical[0]]
            print(f"  {names[logical]:16s} [{seg}] {block.elem_type} x{block.count}")
        for e in graph.edges:
            print(f"  {names[e.src]} -> {names[e.dst]} (+{e.dst_off}B)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="heterogeneous process migration tools (Chanchio & Sun, IPPS 2001)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, arch_default="dec5000"):
        p.add_argument("file", help="C source file (migration-safe subset)")
        p.add_argument("--poll-strategy", default="loops",
                       choices=["user", "loops", "loops-all", "every-stmt"])
        p.add_argument("--no-strict", action="store_true",
                       help="compile despite migration-unsafe findings")
        return p

    p = common(sub.add_parser("run", help="compile and run a program"))
    p.add_argument("--arch", default="dec5000", choices=list(ARCH_PRESETS))
    p.add_argument("--stats", action="store_true")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("check", help="report migration-unsafe features")
    p.add_argument("file")
    p.set_defaults(fn=cmd_check)

    p = common(sub.add_parser("annotate", help="emit the migratable-format source"))
    p.set_defaults(fn=cmd_annotate)

    p = common(sub.add_parser("migrate", help="run with one mid-execution migration"))
    p.add_argument("--from", dest="src", default="dec5000", choices=list(ARCH_PRESETS))
    p.add_argument("--to", dest="dst", default="sparc20", choices=list(ARCH_PRESETS))
    p.add_argument("--after-polls", type=_int_at_least(1), default=1)
    p.add_argument("--link", default="10m", choices=list(_LINKS))
    p.add_argument("--stream", action="store_true",
                   help="cut the payload into --chunk-size frames (default: "
                        "the same envelope with the payload as its one chunk)")
    p.add_argument("--chunk-size", type=_int_at_least(1), default=DEFAULT_CHUNK_SIZE,
                   help="chunk payload size in bytes (--stream's chunks, "
                        "--precopy's rounds)")
    p.add_argument("--compress", action="store_true",
                   help="adaptively zlib-compress the wire payload "
                        "(kept per chunk only when it shrinks >= 10%%)")
    p.add_argument("--retries", type=_int_at_least(0), default=0,
                   help="retry a failed transfer up to N times (reset "
                        "channel, modeled exponential backoff)")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="write the migration's JSONL trace (spans + events "
                        "+ metrics) to PATH")
    p.add_argument("--metrics-out", default=None, metavar="PATH",
                   help="write the migration's counters to PATH ('-' = stdout)")
    p.add_argument("--attribution", action="store_true",
                   help="profile which types spend the collect/restore "
                        "time of the attempt that arrived (implied by --trace)")
    p.add_argument("--fault", type=_fault_plan, default=None, metavar="PLAN",
                   help="inject deterministic transport faults, e.g. "
                        "'bitflip@1:3,drop@2' or 'seed=42:count=2' "
                        "(kinds: drop, truncate, bitflip, stall, "
                        "disconnect; '!' suffix = persistent)")
    p.add_argument("--precopy", action="store_true",
                   help="iterative pre-copy live migration: snapshot + "
                        "dirty-block delta rounds while the source keeps "
                        "running, then a bounded stop-and-copy")
    p.add_argument("--max-rounds", type=_int_at_least(0), default=8,
                   help="pre-copy delta round cap before forcing "
                        "stop-and-copy (default 8)")
    p.set_defaults(fn=cmd_migrate)

    p = sub.add_parser(
        "fuzz",
        help="differential fuzzing: generated programs, every pair, "
             "every poll, multi-hop faulted chains",
    )
    p.add_argument("--seeds", type=_int_at_least(1), default=20,
                   help="number of seeds to run (default 20)")
    p.add_argument("--start", type=int, default=0,
                   help="first seed (fuzz shards: --start 100 --seeds 100)")
    p.add_argument("--hops", type=_int_at_least(0), default=2,
                   help="migrations in the faulted chain replay "
                        "(0 disables chains; default 2)")
    p.add_argument("--arches", default=None, metavar="A,B,...",
                   help="restrict to these architectures "
                        "(default: all presets)")
    p.add_argument("--max-polls", type=_int_at_least(1), default=None,
                   help="cap poll points swept per pair "
                        "(stride-sampled; default: all)")
    p.add_argument("--size", type=_int_at_least(1), default=1,
                   help="program size multiplier (default 1)")
    p.add_argument("--out", default="fuzz-failures",
                   help="directory for shrunk failure artifacts")
    p.add_argument("--no-shrink", action="store_true",
                   help="report failures without minimizing them")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="log passing seeds too")
    p.set_defaults(fn=cmd_fuzz)

    p = common(sub.add_parser("checkpoint", help="snapshot a process to a file"))
    p.add_argument("--arch", default="dec5000", choices=list(ARCH_PRESETS))
    p.add_argument("--after-polls", type=_int_at_least(1), default=1)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_checkpoint)

    p = common(sub.add_parser("restart", help="resume a process from a checkpoint"))
    p.add_argument("checkpoint")
    p.add_argument("--arch", default="sparc20", choices=list(ARCH_PRESETS))
    p.set_defaults(fn=cmd_restart)

    p = common(sub.add_parser("graph", help="print the MSR graph at a poll-point"))
    p.add_argument("--arch", default="dec5000", choices=list(ARCH_PRESETS))
    p.add_argument("--after-polls", type=_int_at_least(1), default=1)
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(fn=cmd_graph)

    p = sub.add_parser("obs", help="analyze JSONL migration traces")
    obs_sub = p.add_subparsers(dest="obs_command", required=True)

    q = obs_sub.add_parser("report", help="per-phase + per-type breakdown")
    q.add_argument("trace", help="JSONL trace file (repro migrate --trace)")
    q.set_defaults(fn=cmd_obs)

    q = obs_sub.add_parser("top", help="heaviest cost centers")
    q.add_argument("trace")
    q.add_argument("--by", default="type", choices=["type", "phase"])
    q.add_argument("-n", type=_int_at_least(1), default=10, help="rows to show")
    q.set_defaults(fn=cmd_obs)

    q = obs_sub.add_parser("diff", help="regression deltas between two traces")
    q.add_argument("a", help="baseline trace")
    q.add_argument("b", help="candidate trace")
    q.set_defaults(fn=cmd_obs)

    return parser


def main(argv=None) -> int:
    """CLI entry point (the `repro` console script), and the one place
    an exception becomes an exit code: whatever a subcommand cannot go
    on from is one line on stderr, never a traceback."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        line, code = f"error: {exc}", exc.code
    except (OSError, TraceReadError) as exc:
        line, code = f"error: {exc}", 2
    except (LexError, ParseError, TypeCheckError, NormalizeError, CompileError,
            LayoutError, MigrationSafetyError) as exc:
        line, code = f"error: {args.file}: {exc}", 1
    except CheckpointError as exc:
        line, code = f"error: restart failed: {exc}", 1
    except GuestFault as exc:
        line, code = f"guest fault: {exc}", EXIT_GUEST_FAULT
    print(f"repro: {line}", file=sys.stderr)
    raise SystemExit(code)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
