"""Tests for the VM interpreter and per-architecture specialization."""

import dataclasses

import pytest

from repro.arch import ALPHA, DEC5000, SPARC20, ULTRA5, X86, X86_64
from repro.difftest.corpus import load_corpus
from repro.vm.interpreter import VMError
from repro.vm.ir import Op, format_instr
from repro.vm.process import GuestFault, Process
from repro.vm.program import compile_program
from repro.workloads import bitonic_source, linpack_source, structgrid_source
from repro.workloads import test_pointer_source as pointer_workload_source
from tests.conftest import ALL_ARCHS, longlist_source


class TestCodeShapeInvariance:
    """The migration-critical property: specialization changes operand
    values only — never instruction count, order, or opcodes — so a pc
    means the same thing on every host."""

    SOURCES = [
        linpack_source(8),
        bitonic_source(16),
        pointer_workload_source(),
    ]

    @pytest.mark.parametrize("idx", range(3))
    def test_same_shape_on_all_archs(self, idx):
        prog = compile_program(self.SOURCES[idx], poll_strategy="loops")
        images = [prog.for_arch(a) for a in ALL_ARCHS]
        for fi in range(len(prog.functions)):
            codes = [img.funcs[fi].code for img in images]
            lengths = {len(c) for c in codes}
            assert len(lengths) == 1, f"function {fi} lengths differ: {lengths}"
            for pc in range(len(codes[0])):
                opcodes = {c[pc][0] for c in codes}
                assert len(opcodes) == 1, (
                    f"function {fi} pc {pc}: opcodes differ: "
                    f"{[format_instr(c[pc]) for c in codes]}"
                )

    def test_jump_targets_identical(self):
        prog = compile_program(self.SOURCES[0])
        img32 = prog.for_arch(DEC5000)
        img64 = prog.for_arch(ALPHA)
        for f32, f64 in zip(img32.funcs, img64.funcs):
            for i32, i64 in zip(f32.code, f64.code):
                if i32[0] in (Op.JMP, Op.JZ, Op.JNZ, Op.CALL, Op.POLL):
                    assert i32[1] == i64[1]

    def test_operands_do_differ(self):
        """Sanity: specialization is not a no-op — sizes really change."""
        prog = compile_program(
            "int main() { long x = sizeof(long); return (int) x; }"
        )
        c32 = prog.for_arch(DEC5000).funcs[prog.main_index].code
        c64 = prog.for_arch(ALPHA).funcs[prog.main_index].code
        assert c32 != c64

    def test_poll_pcs_match_neutral_ir(self):
        prog = compile_program(bitonic_source(16))
        for fir in prog.functions:
            for poll_id, pc in fir.poll_pcs.items():
                assert fir.code[pc][0] == Op.POLL
                assert fir.code[pc][1] == poll_id


class TestInterpreterMechanics:
    def test_step_budget_pauses_and_resumes(self):
        prog = compile_program(
            'int main() { int i; int s = 0; for (i = 0; i < 1000; i++) s += i;'
            ' printf("%d", s); return 0; }'
        )
        proc = Process(prog, ULTRA5)
        proc.start()
        pauses = 0
        while True:
            result = proc.run(max_steps=500)
            if result.status == "exit":
                break
            assert result.status == "steps"
            pauses += 1
        assert pauses >= 5
        assert proc.stdout == "499500"

    def test_run_after_exit_is_stable(self):
        prog = compile_program("int main() { return 9; }")
        proc = Process(prog, ULTRA5)
        assert proc.run().exit_code == 9
        again = proc.run()
        assert again.status == "exit" and again.exit_code == 9

    def test_instruction_counter(self):
        prog = compile_program("int main() { return 0; }")
        proc = Process(prog, ULTRA5)
        proc.run_to_completion()
        assert 0 < proc.steps < 20

    def test_double_start_rejected(self):
        prog = compile_program("int main() { return 0; }")
        proc = Process(prog, ULTRA5)
        proc.start()
        with pytest.raises(VMError, match="already started"):
            proc.start()

    def test_stack_overflow_from_runaway_recursion(self):
        from repro.vm.memory import MemoryFault

        prog = compile_program(
            "int f(int n) { return f(n + 1); } int main() { return f(0); }"
        )
        # a 256 KiB stack overflows like the preset's 128 MiB one does,
        # a few thousand frames in instead of a few million
        small = dataclasses.replace(ULTRA5, segment_size=0x4_0000)
        proc = Process(prog, small)
        with pytest.raises(GuestFault, match="overflow") as excinfo:
            proc.run_to_completion()
        fault = excinfo.value
        assert isinstance(fault.__cause__, MemoryFault)
        # where: the recursive call, by function, pc and source line
        code = prog.functions[prog.func_index("f")].code
        assert (fault.func, fault.line) == ("f", 1)
        assert code[fault.pc][0] == Op.CALL
        assert len(proc.frames) > 1000

    def test_frames_freed_on_return(self):
        prog = compile_program(
            """
            int leaf(int x) { return x * 2; }
            int main() {
                int i; int s = 0;
                for (i = 0; i < 50; i++) s += leaf(i);
                return s > 0;
            }
            """
        )
        proc = Process(prog, ULTRA5)
        proc.start()
        sp0 = proc.memory.sp
        proc.run()
        # after exit all frames are gone; during the run sp returned to
        # the baseline after every call
        assert not proc.frames

    def test_format_instr(self):
        assert "PUSH" in format_instr((Op.PUSH, 42, None))
        assert "42" in format_instr((Op.PUSH, 42, None))


def single_stepped(prog, arch=ULTRA5) -> Process:
    """*prog* run to its end one instruction per ``run()`` call."""
    proc = Process(prog, arch)
    proc.start()
    while proc.run(max_steps=1).status == "steps":
        pass
    return proc


class TestInstructionCount:
    """``proc.steps`` counts every instruction executed, however the run
    ends, and does not depend on how the run was cut into budgets."""

    LOOP = "int main() { int i; int s = 0; for (i = 0; i < 1000; i++) s += i; %s }"

    def test_exit_books_the_instructions_return_does(self):
        counts = {}
        for ending in ("return 3;", "exit(3);"):
            prog = compile_program(self.LOOP % ending)
            proc = Process(prog, ULTRA5)
            assert proc.run_to_completion() == 3
            assert proc.polls == 1000
            assert proc.steps == single_stepped(prog).steps
            counts[ending] = proc.steps
        # the same instructions run, PUSH 3 and then RET or CALLB exit
        assert counts["exit(3);"] == counts["return 3;"] > 14 * 1000

    def test_a_fault_books_the_instructions_before_it(self):
        prog = compile_program(self.LOOP % "int *p; p = 0; *p = s; return 0;")
        whole = Process(prog, ULTRA5)
        with pytest.raises(GuestFault, match="NULL"):
            whole.run_to_completion()
        stepped = Process(prog, ULTRA5)
        stepped.start()
        with pytest.raises(GuestFault, match="NULL"):
            while stepped.run(max_steps=1).status == "steps":
                pass
        # the faulting STORE counts, as any instruction that began does
        assert whole.steps == stepped.steps > 14 * 1000


def _one_run_and_single_steps_agree(prog):
    whole = Process(prog, ULTRA5)
    code = whole.run_to_completion()
    stepped = single_stepped(prog)
    assert (stepped.exit_code, stepped.steps, stepped.polls, stepped.stdout) == (
        code, whole.steps, whole.polls, whole.stdout
    )


@pytest.mark.parametrize("entry", load_corpus(), ids=lambda e: e.name)
def test_one_run_and_single_steps_agree_on_the_corpus(entry):
    """What the overhead benchmarks and the load balancer's quanta count:
    a budget of one instruction at a time changes nothing."""
    _one_run_and_single_steps_agree(compile_program(entry.source, poll_strategy="user"))


@pytest.mark.parametrize("source", [
    linpack_source(12),
    bitonic_source(48, 7),
    structgrid_source(64, 16, 7),
    longlist_source(24),
], ids=["linpack", "bitonic", "structgrid", "longlist"])
def test_one_run_and_single_steps_agree_on_the_suite_programs(source):
    _one_run_and_single_steps_agree(compile_program(source, poll_strategy="user"))


class TestRuntimeDiagnostics:
    def test_uninitialized_pointer_deref_faults_cleanly(self):
        from repro.vm.memory import MemoryFault

        prog = compile_program(
            "int main() { int *p; return *p; }"  # p is zeroed -> NULL
        )
        proc = Process(prog, ULTRA5)
        with pytest.raises(GuestFault, match=r"NULL.* in main\(\) at line 1") as excinfo:
            proc.run_to_completion()
        assert isinstance(excinfo.value.__cause__, MemoryFault)

    def test_out_of_bounds_heap_access_faults(self):
        from repro.vm.memory import MemoryFault

        prog = compile_program(
            """
            int main() {
                int *p = (int *) malloc(4 * sizeof(int));
                return p[2000000000];
            }
            """
        )
        proc = Process(prog, ULTRA5)
        with pytest.raises(GuestFault, match="at line 4") as excinfo:
            proc.run_to_completion()
        assert isinstance(excinfo.value.__cause__, MemoryFault)

    def test_fault_names_the_line_of_a_loop_condition(self):
        """A ``do`` body's last statement is not where its ``while``
        condition sits: the line table has an entry of its own for it."""
        prog = compile_program(
            "int main() {\n  int *p; int n;\n  p = 0; n = 0;\n  do {\n"
            "    n = n + 1;\n  } while (*p);\n  return n;\n}\n"
        )
        with pytest.raises(GuestFault, match="NULL") as excinfo:
            Process(prog, ULTRA5).run_to_completion()
        assert (excinfo.value.func, excinfo.value.line) == ("main", 6)

    def test_poll_counter_increments(self):
        prog = compile_program(
            "int main() { int i; for (i = 0; i < 25; i++) { } return 0; }",
            poll_strategy="loops",
        )
        proc = Process(prog, ULTRA5)
        proc.run_to_completion()
        assert proc.polls == 25


class TestFrameDeterminism:
    def test_zeroed_frames_identical_across_archs(self):
        """Uninitialized locals read as 0 on every host (documented
        determinism guarantee, keeps divergence detectable)."""
        src = "int main() { int never_set; printf(\"%d\", never_set); return 0; }"
        outs = {a.name: None for a in (DEC5000, SPARC20, ALPHA)}
        for a in (DEC5000, SPARC20, ALPHA):
            proc = Process(compile_program(src), a)
            proc.run_to_completion()
            outs[a.name] = proc.stdout
        assert set(outs.values()) == {"0"}

    def test_frame_reuse_does_not_leak_between_calls(self):
        src = """
        int writes_local(int v) { int x = v; return x; }
        int reads_local() { int x; return x; }
        int main() {
            writes_local(777);
            printf("%d", reads_local());
            return 0;
        }
        """
        proc = Process(compile_program(src), ULTRA5)
        proc.run_to_completion()
        assert proc.stdout == "0"  # fresh frame zeroed, no stale 777
