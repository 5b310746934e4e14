"""Tests for the command-line interface."""

import json
import re
import sys

import pytest

from repro.cli import (
    EXIT_GUEST_FAULT,
    EXIT_MIGRATION_ABORTED,
    EXIT_OUTPUT_DIFFERS,
    main,
)
from repro.arch import DEC5000
from repro.migration.checkpoint import checkpoint
from repro.obs import validate_trace_file
from repro.vm.process import Process
from repro.vm.program import compile_program
from tests.conftest import cli_exit, longlist_source
from tests.test_faults import DANGLING_PROGRAM

DEMO = """
struct node { int v; struct node *next; };
struct node *head;
int main() {
    int i;
    for (i = 0; i < 10; i++) {
        struct node *n = (struct node *) malloc(sizeof(struct node));
        n->v = i; n->next = head; head = n;
    }
    { int s = 0; struct node *p;
      for (p = head; p != NULL; p = p->next) s += p->v;
      printf("sum=%d\\n", s); }
    return 0;
}
"""

UNSAFE = """
int main() {
    int x;
    long leak = (long) &x;
    return (int) leak;
}
"""


@pytest.fixture
def demo_c(tmp_path):
    path = tmp_path / "demo.c"
    path.write_text(DEMO)
    return str(path)


@pytest.fixture
def unsafe_c(tmp_path):
    path = tmp_path / "unsafe.c"
    path.write_text(UNSAFE)
    return str(path)


class TestRun:
    def test_run_prints_output(self, demo_c, capsys):
        assert main(["run", demo_c]) == 0
        assert capsys.readouterr().out == "sum=45\n"

    def test_run_on_other_arch(self, demo_c, capsys):
        assert main(["run", demo_c, "--arch", "alpha"]) == 0
        assert capsys.readouterr().out == "sum=45\n"

    def test_stats_flag(self, demo_c, capsys):
        main(["run", demo_c, "--stats"])
        err = capsys.readouterr().err
        assert "instructions" in err and "poll-points" in err

    def test_unknown_arch_rejected(self, demo_c):
        with pytest.raises(SystemExit):
            main(["run", demo_c, "--arch", "pdp11"])

    def test_parse_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.c"
        bad.write_text("int main( {")
        code, line = cli_exit(["run", str(bad)], capsys)
        assert code == 1 and line.startswith(f"repro: error: {bad}: line 1:")


class TestCheck:
    def test_safe_program(self, demo_c, capsys):
        assert main(["check", demo_c]) == 0
        assert "migration-safe" in capsys.readouterr().out

    def test_unsafe_program(self, unsafe_c, capsys):
        assert main(["check", unsafe_c]) == 1
        assert "UNSAFE" in capsys.readouterr().out

    def test_strict_compile_rejects_unsafe(self, unsafe_c, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", unsafe_c])
        assert exc.value.code == 1
        err = capsys.readouterr().err  # one line per finding
        assert err.startswith(f"repro: error: {unsafe_c}: migration-unsafe")
        assert "Traceback" not in err

    def test_no_strict_allows(self, unsafe_c, capsys):
        main(["run", unsafe_c, "--no-strict"])


class TestAnnotate:
    def test_emits_macros(self, demo_c, capsys):
        assert main(["annotate", demo_c]) == 0
        captured = capsys.readouterr()
        assert "MIG_POLL(" in captured.out
        assert "poll-points annotated" in captured.err


class TestMigrate:
    def test_migrate_matches_baseline(self, demo_c, capsys):
        rc = main(
            ["migrate", demo_c, "--from", "dec5000", "--to", "sparc20",
             "--after-polls", "7"]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out == "sum=45\n"
        assert "identical" in captured.err

    def test_migrate_past_exit_fails_cleanly(self, demo_c, capsys):
        code, line = cli_exit(["migrate", demo_c, "--after-polls", "99999"], capsys)
        assert code == 1
        assert line.startswith("repro: error: process exited (code 0) before")

    @pytest.mark.parametrize("mode", [[], ["--stream"], ["--compress"]],
                             ids=["plain", "stream", "compress"])
    def test_output_printed_before_the_migration_point_is_kept(
        self, tmp_path, capsys, mode
    ):
        """The destination's stdout continues the source's: the lines
        printed before the poll that migrates come out, once, ahead of
        the ones printed after it."""
        path = tmp_path / "count.c"
        path.write_text(COUNT)
        rc = main(
            ["migrate", str(path), "--poll-strategy", "user", "--after-polls", "2",
             "--from", "alpha", "--to", "sparc20", *mode]
        )
        captured = capsys.readouterr()
        assert captured.out == "0\n1\n2\n"
        assert "[output identical to an unmigrated run]" in captured.err
        assert rc == 0

    def test_a_streamed_migration_reports_what_ran(self, tmp_path, capsys):
        """``--stream`` cuts the frames and the stats line gives the
        Collect + Tx + Restore that ran: no modeled response beside it."""
        path = tmp_path / "array.c"
        path.write_text(ARRAY)
        rc = main(
            ["migrate", str(path), "--poll-strategy", "user", "--stream",
             "--chunk-size", "4096"]
        )
        captured = capsys.readouterr()
        assert rc == 0 and captured.out == "sum=1999000\n"
        (line,) = [ln for ln in captured.err.splitlines() if ln.startswith("[migration ")]
        chunks = int(re.search(r"\[streamed: (\d+) chunks\]", line).group(1))
        assert chunks >= 3
        assert "pipelined" not in captured.err


ARRAY = """
double a[2000];
int main() {
    int i; double s;
    for (i = 0; i < 2000; i++) a[i] = i;
    migrate_here();
    s = 0;
    for (i = 0; i < 2000; i++) s = s + a[i];
    printf("sum=%d\\n", (int) s);
    return 0;
}
"""


COUNT = """
int main() {
    int i;
    for (i = 0; i < 3; i++) { printf("%d\\n", i); migrate_here(); }
    return 0;
}
"""


CHAIN = """
struct node { int v; struct node *next; };
struct node *head;
int main() {
    int i; int s; struct node *n;
    head = NULL;
    for (i = 0; i < 5000; i++) {
        n = (struct node *) malloc(sizeof(struct node));
        n->v = i; n->next = head; head = n;
    }
    s = 0;
    for (n = head; n != NULL; n = n->next) { s = s + n->v; n->v = s % 7; }
    printf("sum=%d\\n", s);
    return 0;
}
"""


class TestMigratePrecopy:
    def test_deep_even_chain_at_the_default_recursion_limit(self, tmp_path, capsys):
        """The pre-copy final stream runs the plans like a plain one: a
        5 000-node evenly spaced chain is flattened, not recursed into."""
        path = tmp_path / "chain.c"
        path.write_text(CHAIN)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            rc = main(
                ["migrate", str(path), "--after-polls", "5003",
                 "--precopy", "--max-rounds", "3"]
            )
        finally:
            sys.setrecursionlimit(limit)
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out == "sum=12497500\n"
        assert "migration failed" not in captured.err
        assert "[pre-copy: " in captured.err
        assert "identical" in captured.err


class TestMigrateFaults:
    def test_fault_abort_resumes_on_source(self, demo_c, capsys):
        """A persistently dead link aborts the migration, but the run
        still completes — on the source — with the right output."""
        rc = main(
            ["migrate", demo_c, "--after-polls", "7",
             "--fault", "disconnect@0!"]
        )
        captured = capsys.readouterr()
        assert rc == EXIT_MIGRATION_ABORTED
        assert captured.out == "sum=45\n"
        assert "migration failed" in captured.err
        assert "resumed on source" in captured.err
        assert "identical" in captured.err

    def test_transient_fault_with_retries_succeeds(self, demo_c, capsys):
        rc = main(
            ["migrate", demo_c, "--after-polls", "7",
             "--fault", "drop@0", "--retries", "2"]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out == "sum=45\n"
        assert "2 attempts" in captured.err
        assert "identical" in captured.err

    def test_streaming_fault_with_retries(self, demo_c, capsys):
        rc = main(
            ["migrate", demo_c, "--after-polls", "7", "--stream",
             "--chunk-size", "128", "--fault", "bitflip@1:3",
             "--retries", "2"]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out == "sum=45\n"
        assert "identical" in captured.err

    def test_seeded_fault_plan_is_deterministic(self, demo_c, capsys):
        def run_once():
            rc = main(
                ["migrate", demo_c, "--after-polls", "7",
                 "--fault", "seed=42:count=2", "--retries", "3"]
            )
            cap = capsys.readouterr()
            plan_lines = [l for l in cap.err.splitlines() if "fault plan" in l]
            return rc, cap.out, plan_lines

        first = run_once()
        second = run_once()
        assert first == second
        assert first[0] == 0 and first[1] == "sum=45\n"
        assert len(first[2]) == 1  # the plan was echoed, identically

    def test_bad_fault_spec_rejected(self, demo_c, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["migrate", demo_c, "--fault", "meteor@1"])
        assert exc.value.code == 2  # argparse's own refusal, usage first
        last = capsys.readouterr().err.splitlines()[-1]
        assert "argument --fault: bad fault spec 'meteor@1'" in last

    def test_a_seeded_spec_with_an_unknown_key_is_refused(self, demo_c, capsys):
        """``cnt`` is no key of a seeded spec: a usage error naming it,
        not a run with the default one fault instead of three."""
        with pytest.raises(SystemExit) as exc:
            main(["migrate", demo_c, "--fault", "seed=1:cnt=3"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].endswith(
            "argument --fault: bad fault spec 'seed=1:cnt=3': unknown key 'cnt' "
            "in a seeded fault spec (seed=N[:count=K][:max=M])"
        )
        assert "Traceback" not in err

    @pytest.mark.parametrize("spec, says", [
        ("seed=1:count=-1", "count must be >= 0, got -1"),
        ("seed=1:max=0", "max must be >= 1, got 0"),
    ])
    def test_a_seeded_spec_out_of_range_is_refused(self, demo_c, capsys, spec, says):
        """A negative count would inject nothing and an empty index range
        has no fault to draw: usage errors naming the key."""
        with pytest.raises(SystemExit) as exc:
            main(["migrate", demo_c, "--fault", spec])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].endswith(
            f"argument --fault: bad fault spec {spec!r}: {says}"
        )
        assert "Traceback" not in err

    # the persistent drop sits on each mode's first data send
    @pytest.mark.parametrize(
        "mode", [["--stream", "--fault", "drop@1!"], ["--fault", "drop@0!"]],
        ids=["stream", "mono"],
    )
    def test_failed_migration_leaves_its_trace_and_metrics(
        self, demo_c, tmp_path, capsys, mode
    ):
        """The trace a failure investigation reads is the failed run's:
        ``--trace`` / ``--metrics-out`` are honoured on that exit too."""
        trace, metrics = tmp_path / "fail.jsonl", tmp_path / "fail.txt"
        rc = main(
            ["migrate", demo_c, "--after-polls", "7", *mode, "--retries", "1",
             "--trace", str(trace), "--metrics-out", str(metrics)]
        )
        captured = capsys.readouterr()
        assert rc == EXIT_MIGRATION_ABORTED and captured.out == "sum=45\n"
        assert "aborted after 2 attempt(s)" in captured.err
        assert "resumed on source" in captured.err
        assert "Nones" not in captured.err
        assert validate_trace_file(trace) == []
        events = [json.loads(ln)["event"] for ln in trace.read_text().splitlines()]
        assert events.count("attempt_fail") == 2
        assert "migration_end" not in events and events[-1] == "metrics"
        assert "engine.attempts = 2\n" in metrics.read_text()


class TestRemovedCommands:
    def test_fleet_instruments_are_argparse_errors(self, demo_c, capsys):
        """PR 10's profiler / analyzer / endpoint / trend commands are
        gone outright: no stub answers for them.  Nor for ``--timeout``:
        no channel read can block, so there is no deadline to set."""
        for argv in (
            ["migrate", demo_c, "--profile", "x"],
            ["migrate", demo_c, "--timeout", "5"],
            ["obs", "serve", "t.jsonl"],
            ["obs", "histo", "t.jsonl"],
            ["obs", "flame", "t.folded"],
            ["obs", "critical-path", "t.jsonl"],
            ["obs", "export", "t.jsonl"],
            ["obs", "bench-trend"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv


class TestOutOfRangeNumbers:
    CASES = [
        (["migrate", "--retries", "-1"], "--retries: must be >= 0, got -1"),
        (["migrate", "--precopy", "--max-rounds", "-1"],
         "--max-rounds: must be >= 0, got -1"),
        (["migrate", "--after-polls", "-1"], "--after-polls: must be >= 1, got -1"),
        (["migrate", "--after-polls", "0"], "--after-polls: must be >= 1, got 0"),
        (["migrate", "--retries", "two"], "--retries: invalid int value: 'two'"),
        (["migrate", "--chunk-size", "0"], "--chunk-size: must be >= 1, got 0"),
        (["migrate", "--precopy", "--chunk-size", "0"], "--chunk-size: must be >= 1, got 0"),
        (["migrate", "--precopy", "--chunk-size", "-5"],
         "--chunk-size: must be >= 1, got -5"),
        (["checkpoint", "-o", "/dev/null", "--after-polls", "0"],
         "--after-polls: must be >= 1, got 0"),
        (["graph", "--after-polls", "-3"], "--after-polls: must be >= 1, got -3"),
    ]

    @pytest.mark.parametrize(
        "argv, complaint", CASES, ids=[" ".join(argv) for argv, _ in CASES]
    )
    def test_a_number_out_of_range_is_a_usage_error(
        self, argv, complaint, demo_c, capsys
    ):
        """Exit 2 and one line naming the flag — not a ``ValueError``
        traceback out of a policy object, and not silent acceptance."""
        with pytest.raises(SystemExit) as exc:
            main([argv[0], demo_c, *argv[1:]])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].endswith(f"error: argument {complaint}")
        assert "Traceback" not in err

    #: ``repro fuzz`` takes no source file; each case ran (zero replays,
    #: "0 failing") or ended in a traceback before its flag was checked
    FUZZ_CASES = [
        (["--seeds", "0"], "--seeds: must be >= 1, got 0"),
        (["--seeds", "-3"], "--seeds: must be >= 1, got -3"),
        (["--size", "0"], "--size: must be >= 1, got 0"),
        (["--seeds", "1", "--max-polls", "0"], "--max-polls: must be >= 1, got 0"),
        (["--seeds", "1", "--max-polls", "-2"], "--max-polls: must be >= 1, got -2"),
        (["--seeds", "1", "--hops", "-1"], "--hops: must be >= 0, got -1"),
    ]

    @pytest.mark.parametrize(
        "argv, complaint", FUZZ_CASES, ids=[" ".join(argv) for argv, _ in FUZZ_CASES]
    )
    def test_a_fuzz_number_out_of_range_is_a_usage_error(self, argv, complaint, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].endswith(f"error: argument {complaint}")
        assert "Traceback" not in err

    def test_the_bounds_themselves_are_accepted(self, demo_c, capsys):
        assert main([
            "migrate", demo_c, "--after-polls", "1", "--retries", "0",
            "--precopy", "--max-rounds", "0",
        ]) == 0
        assert "output identical" in capsys.readouterr().err


class TestNoTracebacks:
    """What a user can get wrong on the command line is one line on
    stderr and exit 2 — before anything ran — never a traceback; a
    program the front end refuses is one line and exit 1, one that
    faults when it runs one line and exit 5; and a migration that ran to
    the end but not to plan says which way in its exit code."""

    #: (argv with ``{demo}`` / ``{tmp}`` filled in, what the line says)
    CASES = [
        *[([cmd, "{tmp}/nonexistent.c", *rest], "cannot read {tmp}/nonexistent.c")
          for cmd, *rest in (["migrate"], ["run"], ["check"], ["annotate"],
                             ["checkpoint", "-o", "{tmp}/out.ckpt"], ["graph"])],
        (["migrate", "{demo}", "--trace", "{tmp}/no/such/dir/t.jsonl"],
         "--trace: cannot write {tmp}/no/such/dir/t.jsonl"),
        (["migrate", "{demo}", "--metrics-out", "{tmp}/no/such/dir/m.txt"],
         "--metrics-out: cannot write {tmp}/no/such/dir/m.txt"),
        # refused before the run, like --trace: not a FileNotFoundError after it
        (["checkpoint", "{demo}", "-o", "{tmp}/no/such/dir/x.ckpt"],
         "-o: cannot write {tmp}/no/such/dir/x.ckpt"),
        (["restart", "{demo}", "{tmp}/nonexistent.ckpt"],
         "No such file or directory: '{tmp}/nonexistent.ckpt'"),
    ]

    @pytest.mark.parametrize(
        "argv, complaint", CASES,
        ids=[" ".join(a.split("/")[-1] for a in argv) for argv, _ in CASES],
    )
    def test_one_line_and_exit_2(self, argv, complaint, demo_c, tmp_path, capsys):
        fill = dict(demo=demo_c, tmp=tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([arg.format(**fill) for arg in argv])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""  # nothing ran
        assert len(err.splitlines()) == 1
        assert complaint.format(**fill) in err
        assert "Traceback" not in err

    #: a program the front end refuses -> what it says (the parser's
    #: refusals were one line before; the lexer's, the type checker's and
    #: the layout's were tracebacks, a zero-length array a bare ValueError)
    REFUSED = {
        "lexer": ("int main() { return 1 @ 2; }", "line 1: unexpected character '@'"),
        "parser": ("int main( {", "line 1: "),
        "typechecker": ("int main() { return x; }",
                        "line 1: undeclared identifier 'x'"),
        "array-length": ("int main() { int a[0]; return 0; }",
                         "line 1: array length must be positive"),
        "layout": ("struct s; struct s x; int main() { return 0; }",
                   "struct s is incomplete"),
    }

    @pytest.mark.parametrize("stage", list(REFUSED))
    @pytest.mark.parametrize("cmd", ["run", "migrate", "graph"])
    def test_a_refused_program_is_one_line_and_exit_1(
        self, cmd, stage, tmp_path, capsys
    ):
        source, complaint = self.REFUSED[stage]
        path = tmp_path / "refused.c"
        path.write_text(source)
        code, line = cli_exit([cmd, str(path)], capsys)
        assert code == 1
        assert line.startswith(f"repro: error: {path}: {complaint}")

    #: a program that faults when it runs -> (source, what the VM says,
    #: the source line it says it of)
    GUEST_FAULTS = {
        "null-store": (
            "int main() {\n  int *p;\n  p = 0;\n  *p = 1;\n  return 0;\n}\n",
            "NULL pointer dereference", 4),
        "double-free": (
            "int main() {\n  int *p;\n  p = (int *) malloc(16);\n"
            "  free(p);\n  free(p);\n  return 0;\n}\n",
            "no block registered at", 5),
        "division-by-zero": (
            "int z;\nint main() {\n  int r;\n  r = 5 / z;\n  return r;\n}\n",
            "integer division by zero", 4),
        "infinity-to-int": (
            "double z;\nint main() {\n  int i;\n  i = (int) (5.0 / z);\n"
            "  return i;\n}\n",
            "inf converted to an integer", 4),
    }

    @pytest.mark.parametrize("fault", list(GUEST_FAULTS))
    @pytest.mark.parametrize("cmd", ["run", "migrate", "checkpoint", "graph"])
    def test_a_guest_fault_is_one_line_and_exit_5(
        self, cmd, fault, tmp_path, capsys
    ):
        """The program's own fault is reported as the program's — by
        function and source line — wherever it first runs (under
        ``migrate``, in the reference run), not as a crash of ours."""
        source, complaint, lineno = self.GUEST_FAULTS[fault]
        path = tmp_path / "faulty.c"
        path.write_text(source)
        argv = [cmd, str(path), "--poll-strategy", "user"]
        if cmd == "checkpoint":
            argv += ["-o", str(tmp_path / "never.ckpt")]
        code, line = cli_exit(argv, capsys)
        assert code == EXIT_GUEST_FAULT == 5
        assert line.startswith(f"repro: guest fault: {complaint}")
        assert f" in main() at line {lineno} (pc " in line
        assert not (tmp_path / "never.ckpt").exists()

    def test_a_fault_on_the_destination_is_the_guests_too(self, tmp_path, capsys):
        """``sizeof(long) - 8`` is zero only where the run ends: the
        reference run and the hop succeed, the resumed program divides
        by it."""
        path = tmp_path / "late.c"
        path.write_text(
            "int main() {\n  int z;\n  migrate_here();\n"
            "  z = (int) sizeof(long) - 8;\n  return 5 / z;\n}\n"
        )
        code, line = cli_exit(
            ["migrate", str(path), "--poll-strategy", "user",
             "--from", "sparc20", "--to", "x86_64"], capsys,
        )
        assert code == EXIT_GUEST_FAULT
        assert line.startswith(
            "repro: guest fault: integer division by zero in main() at line 5 (pc "
        )

    def test_what_it_printed_before_the_fault_is_still_printed(
        self, tmp_path, capsys
    ):
        path = tmp_path / "talks.c"
        path.write_text(
            'int main() { int *p; p = 0; printf("so far\\n"); *p = 1; return 0; }\n'
        )
        with pytest.raises(SystemExit) as exc:
            main(["run", str(path)])
        assert exc.value.code == EXIT_GUEST_FAULT
        out, err = capsys.readouterr()
        assert out == "so far\n" and len(err.splitlines()) == 1

    #: (argv after ``migrate {demo}``, exit code, the line that explains it)
    OFF_PLAN = [
        # sizeof(long) is 8 where the run starts and 4 where it ends
        (["--from", "x86_64", "--to", "sparc20"], EXIT_OUTPUT_DIFFERS,
         "[output DIFFERS from an unmigrated run]"),
        (["--fault", "disconnect@0!"], EXIT_MIGRATION_ABORTED,
         "[resumed on source dec5000; output identical to an unmigrated run]"),
    ]

    @pytest.mark.parametrize(
        "flags, code, line", OFF_PLAN, ids=["output-differs", "aborted"]
    )
    def test_a_run_off_plan_has_its_own_exit_code(
        self, flags, code, line, tmp_path, capsys
    ):
        """Neither is 1 (what a crash of ours exits with), 2 (usage) or
        0: a script can tell a wrong answer from a migration that did
        not happen from one that did."""
        source = tmp_path / "width.c"
        source.write_text(
            "int main() { migrate_here(); "
            'printf("%d\\n", (int) sizeof(long)); return 0; }\n'
        )
        argv = ["migrate", str(source), "--poll-strategy", "user", *flags]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert line in err.splitlines()
        assert "Traceback" not in err
        assert code not in (0, 1, 2, EXIT_GUEST_FAULT)
        assert EXIT_OUTPUT_DIFFERS != EXIT_MIGRATION_ABORTED

    def test_a_long_retry_budget_ends_on_the_source(self, demo_c, capsys):
        """1100 attempts against a persistent drop: the modeled backoff
        stays finite (it used to overflow a float), and the run aborts
        and resumes on the source like any other."""
        argv = ["migrate", demo_c, "--fault", "drop@0!", "--retries", "1100"]
        assert main(argv) == EXIT_MIGRATION_ABORTED
        out, err = capsys.readouterr()
        assert out == "sum=45\n"
        assert err.splitlines()[-1].startswith("[resumed on source")
        assert "Traceback" not in err


class TestCheckpointRestartCLI:
    def test_checkpoint_then_restart(self, demo_c, tmp_path, capsys):
        snap = str(tmp_path / "s.ckpt")
        assert main(["checkpoint", demo_c, "--after-polls", "5", "-o", snap]) == 0
        capsys.readouterr()
        rc = main(["restart", demo_c, snap, "--arch", "x86_64"])
        assert rc == 0
        assert capsys.readouterr().out == "sum=45\n"


    @pytest.mark.parametrize(
        "damage", ["version", "truncated", "magic", "program", "bitflip"]
    )
    def test_restart_failure_is_one_line_and_exit_1(
        self, damage, demo_c, tmp_path, capsys
    ):
        """A checkpoint that cannot be restored — written in another
        format version (every file from before a version bump), cut
        short, not a checkpoint, another program's, one bit off — is
        reported, not thrown at the user."""
        snap = tmp_path / "s.ckpt"
        assert main(["checkpoint", demo_c, "--after-polls", "5", "-o", str(snap)]) == 0
        data = snap.read_bytes()
        source = demo_c
        if damage == "version":
            # re-framed around the edit, so the frame's CRC holds and the
            # payload's own version byte is what the restart refuses
            proc = Process(compile_program(DEMO), DEC5000)
            proc.start()
            proc.migration_pending, proc.migrate_after_polls = True, 5
            assert proc.run().status == "poll"
            ckpt = checkpoint(proc)
            ckpt.payload = ckpt.payload[:4] + b"\x09" + ckpt.payload[5:]
            ckpt.save(snap)
            data = snap.read_bytes()
        elif damage == "bitflip":
            at = data.index(b"MIGR") + 40
            data = data[:at] + bytes([data[at] ^ 1]) + data[at + 1 :]
        elif damage == "truncated":
            data = data[: len(data) * 2 // 3]
        elif damage == "magic":
            data = b"XXXX" + data[4:]
        else:
            other = tmp_path / "other.c"
            other.write_text(DEMO.replace("i < 10", "i < 11"))
            source = str(other)
        snap.write_bytes(data)
        capsys.readouterr()
        code, line = cli_exit(["restart", source, str(snap)], capsys)
        assert code == 1
        assert line.startswith("repro: error: restart failed: ")
        if damage == "version":
            assert "version 9" in line
        if damage == "bitflip":
            assert "checkpoint file is damaged: frame 0 CRC mismatch" in line


class TestGraph:
    def test_graph_summary(self, demo_c, capsys):
        assert main(["graph", demo_c, "--after-polls", "8"]) == 0
        out = capsys.readouterr().out
        assert "MSR graph" in out and "|V|=" in out

    def test_graph_verbose(self, demo_c, capsys):
        main(["graph", demo_c, "--after-polls", "8", "-v"])
        out = capsys.readouterr().out
        assert "->" in out  # edges listed

    def test_a_deep_list_is_walked_without_recursion(self, tmp_path, capsys):
        """3 000 records, one pointer hop each, at the interpreter's
        default recursion limit: the graph is built, not a
        ``RecursionError``."""
        source = tmp_path / "longlist.c"
        source.write_text(longlist_source(3000))
        assert main(["graph", str(source), "--poll-strategy", "user"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.splitlines() == [
            "MSR graph at poll #1: |V|=6011 |E|=6002 nulls=1",
            "segments: 1 global, 10 stack, 6000 heap; Σ D_i = 72025 bytes",
        ]

    def test_a_dangling_pointer_is_one_line_and_exit_1(self, tmp_path, capsys):
        source = tmp_path / "dangling.c"
        source.write_text(DANGLING_PROGRAM)
        code, line = cli_exit(["graph", str(source), "--poll-strategy", "user"], capsys)
        assert code == 1
        assert line.startswith(f"repro: error: {source}: a live pointer dangles at poll #1: ")
        assert re.search(r"address 0x[0-9a-f]+ is not inside any registered block$", line)
