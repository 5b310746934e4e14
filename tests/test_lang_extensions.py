"""Tests for language features beyond the paper's minimum: enums,
struct assignment by value and constant global initializers — plus
their interaction with migration."""

from dataclasses import replace

import pytest

from repro.arch import ALPHA, DEC5000, SPARC20
from repro.arch.machine import Endian
from repro.clang.parser import ParseError, parse
from repro.migration import Cluster, MigrationEngine, Scheduler
from repro.vm.process import Process
from repro.vm.program import compile_program
from repro.vm.typecheck import TypeCheckError
from tests.conftest import run_c, run_main


class TestEnums:
    def test_basic_values(self):
        src = """
        enum color { RED, GREEN, BLUE };
        int main() { printf("%d %d %d", RED, GREEN, BLUE); return 0; }
        """
        assert run_c(src)[1] == "0 1 2"

    def test_explicit_values_continue(self):
        src = """
        enum e { A = 10, B, C = 3, D };
        int main() { printf("%d %d %d %d", A, B, C, D); return 0; }
        """
        assert run_c(src)[1] == "10 11 3 4"

    def test_enum_typed_variables_are_ints(self):
        src = """
        enum state { OFF, ON };
        enum state flag = ON;
        int main() {
            enum state local = OFF;
            printf("%d %d %d", flag, local, (int) sizeof(enum state));
            return 0;
        }
        """
        assert run_c(src)[1] == "1 0 4"

    def test_enum_in_switch_and_array_dim(self):
        src = """
        enum sizes { SMALL = 2, BIG = 4 };
        int main() {
            int buf[BIG];
            int i;
            for (i = 0; i < BIG; i++) buf[i] = i;
            switch (buf[SMALL]) {
            case SMALL: printf("two"); break;
            default: printf("other");
            }
            return 0;
        }
        """
        assert run_c(src)[1] == "two"

    def test_anonymous_enum(self):
        src = """
        enum { FLAG_A = 1, FLAG_B = 2, FLAG_C = 4 };
        int main() { printf("%d", FLAG_A | FLAG_B | FLAG_C); return 0; }
        """
        assert run_c(src)[1] == "7"

    def test_duplicate_enumerator_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse("enum a { X }; enum b { X };")

    def test_enum_values_migrate(self):
        src = """
        enum phase { INIT, WORK = 7, DONE };
        enum phase current;
        int main() {
            int i;
            current = INIT;
            for (i = 0; i < 10; i++) {
                migrate_here();
                if (i == 5) current = WORK;
            }
            current = DONE;
            printf("%d", current);
            return 0;
        }
        """
        prog = compile_program(src, poll_strategy="user")
        base = Process(prog, DEC5000)
        base.run_to_completion()
        cluster = Cluster()
        a = cluster.add_host("a", DEC5000)
        b = cluster.add_host("b", SPARC20)
        sched = Scheduler(cluster)
        proc = sched.spawn(prog, a)
        sched.request_migration(proc, b, after_polls=7)
        assert sched.run(proc).stdout == base.stdout


class TestStructAssignment:
    def test_copy_is_independent(self):
        src = """
        struct vec { double x; double y; int tag; };
        int main() {
            struct vec a; struct vec b;
            a.x = 1.5; a.y = -2.0; a.tag = 7;
            b = a;
            a.x = 99.0;
            printf("%.1f %.1f %d %.1f", b.x, b.y, b.tag, a.x);
            return 0;
        }
        """
        assert run_c(src)[1] == "1.5 -2.0 7 99.0"

    def test_copy_through_pointers(self):
        src = """
        struct pair { int a; int b; };
        int main() {
            struct pair src; struct pair dst;
            struct pair *p = &src; struct pair *q = &dst;
            src.a = 3; src.b = 4;
            *q = *p;
            printf("%d%d", dst.a, dst.b);
            return 0;
        }
        """
        assert run_c(src)[1] == "34"

    def test_copy_into_global_and_array(self):
        src = """
        struct item { int id; double w; };
        struct item slots[3];
        struct item current;
        int main() {
            struct item tmp;
            tmp.id = 5; tmp.w = 2.5;
            current = tmp;
            slots[1] = current;
            printf("%d %.1f", slots[1].id, slots[1].w);
            return 0;
        }
        """
        assert run_c(src)[1] == "5 2.5"

    def test_nested_struct_copy(self):
        src = """
        struct inner { int v; };
        struct outer { struct inner in; double d; };
        int main() {
            struct outer a; struct outer b;
            a.in.v = 9; a.d = 0.5;
            b = a;
            a.in.v = 0;
            printf("%d %.1f", b.in.v, b.d);
            return 0;
        }
        """
        assert run_c(src)[1] == "9 0.5"

    def test_struct_with_pointer_field_copies_pointer(self):
        src = """
        struct holder { int *p; int own; };
        int main() {
            int cell = 42;
            struct holder a; struct holder b;
            a.p = &cell; a.own = 1;
            b = a;             /* shallow copy, as in C */
            *b.p = 43;
            printf("%d %d", cell, b.own);
            return 0;
        }
        """
        assert run_c(src)[1] == "43 1"

    def test_mismatched_struct_assignment_rejected(self):
        src = """
        struct a { int x; }; struct b { int x; };
        int main() { struct a va; struct b vb; va = vb; return 0; }
        """
        with pytest.raises(TypeCheckError, match="cannot assign"):
            compile_program(src)

    def test_struct_decl_with_init(self):
        src = """
        struct p { int x; int y; };
        int main() {
            struct p a;
            a.x = 1; a.y = 2;
            { struct p b = a; printf("%d%d", b.x, b.y); }
            return 0;
        }
        """
        assert run_c(src)[1] == "12"

    def test_struct_copy_across_migration(self):
        src = """
        struct rec { double v; int n; };
        struct rec keep;
        int main() {
            int i;
            struct rec work;
            work.v = 0.0; work.n = 0;
            for (i = 0; i < 8; i++) {
                migrate_here();
                work.v += i * 0.5;
                work.n++;
                keep = work;
            }
            printf("%.1f %d", keep.v, keep.n);
            return 0;
        }
        """
        prog = compile_program(src, poll_strategy="user")
        base = Process(prog, DEC5000)
        base.run_to_completion()
        cluster = Cluster()
        a = cluster.add_host("a", DEC5000)
        b = cluster.add_host("b", ALPHA)
        sched = Scheduler(cluster)
        proc = sched.spawn(prog, a)
        sched.request_migration(proc, b, after_polls=4)
        assert sched.run(proc).stdout == base.stdout

    def test_padding_copied_harmlessly_across_archs(self):
        """COPYBLK copies raw bytes incl. padding; sizes differ per arch
        but each host's copy uses its own layout — verify on x86 where
        double aligns to 4."""
        from repro.arch import X86

        src = """
        struct padded { char c; double d; };
        int main() {
            struct padded a; struct padded b;
            a.c = 'x'; a.d = 3.25;
            b = a;
            printf("%c %.2f", b.c, b.d);
            return 0;
        }
        """
        for arch in (DEC5000, X86, ALPHA):
            assert run_c(src, arch)[1] == "x 3.25"


class TestStaticLocalRejected:
    def test_static_local(self):
        with pytest.raises(ParseError, match="static local"):
            parse("int f() { static int count = 0; return count++; }")


#: a big-endian LP64 host: no preset is one
BE64 = replace(ALPHA, name="be64", endian=Endian.BIG)

#: constant global initializers: (declaration of ``{g}``, printf format,
#: argument, the value C gives it)
CONSTANT_INITIALIZERS = [
    ("int {g} = 2 * 3;", "%d", "{g}", "6"),
    ("int {g} = ~0;", "%d", "{g}", "-1"),
    ("char {g} = 'a' + 1;", "%d", "{g}", "98"),
    ("int {g} = 'a' * 2 - 'b';", "%d", "{g}", "96"),
    ("int {g} = -7 / 2;", "%d", "{g}", "-3"),
    ("int {g} = -7 % 2;", "%d", "{g}", "-1"),
    ("int {g} = 1 << 4 | 3;", "%d", "{g}", "19"),
    ("unsigned {g} = ~0;", "%u", "{g}", "4294967295"),
    ("unsigned {g} = (unsigned) -2 / 2;", "%u", "{g}", "2147483647"),
    ("int {g} = (short) 70000 / 2;", "%d", "{g}", "2232"),
    ("unsigned char {g} = 300;", "%d", "{g}", "44"),
    ("long {g} = 3 * 1000 * 1000;", "%ld", "{g}", "3000000"),
    ("int {g} = 7.9;", "%d", "{g}", "7"),
    ("int {g} = (int) -7.9;", "%d", "{g}", "-7"),
    ("double {g} = 1 / 2;", "%.2f", "{g}", "0.00"),
    ("double {g} = 1 / 2.0 - 0.25;", "%.2f", "{g}", "0.25"),
    ("int *{g} = NULL;", "%d", "{g} == NULL", "1"),
]


class TestConstantInitializers:
    """One constant evaluator serves array lengths, case labels and
    global initializers: an initializer C folds to a constant compiles
    to C's value, on either byte order and word size, and migrates as
    that value."""

    @pytest.mark.parametrize("arch", [DEC5000, BE64], ids=["le32", "be64"])
    @pytest.mark.parametrize(
        "decl, fmt, arg, value", CONSTANT_INITIALIZERS,
        ids=[case[0].format(g="g") for case in CONSTANT_INITIALIZERS],
    )
    def test_an_initializer_is_c_value(self, decl, fmt, arg, value, arch):
        out = run_main(f'printf("{fmt}", {arg.format(g="g")});', arch, decl.format(g="g"))
        assert out == value

    def test_the_initializers_migrate_as_their_values(self):
        names = [f"g{i}" for i in range(len(CONSTANT_INITIALIZERS))]
        decls = "".join(d.format(g=g) for g, (d, *_) in zip(names, CONSTANT_INITIALIZERS))
        fmt = " ".join(f for _, f, _, _ in CONSTANT_INITIALIZERS)
        args = ", ".join(a.format(g=g) for g, (_, _, a, _) in zip(names, CONSTANT_INITIALIZERS))
        prog = compile_program(
            f'{decls}\nint main() {{ migrate_here(); printf("{fmt}", {args}); return 0; }}',
            poll_strategy="user",
        )
        proc = Process(prog, DEC5000)
        proc.start()
        proc.migration_pending = True
        proc.migrate_after_polls = 1
        assert proc.run().status == "poll"
        dest, _ = MigrationEngine().migrate(proc, BE64)
        dest.run_to_completion()
        assert dest.stdout == " ".join(value for *_, value in CONSTANT_INITIALIZERS)

    def test_an_array_length_is_an_integer_constant(self):
        assert run_main('printf("%d", (int) (sizeof(a) / sizeof(a[0])));',
                        prelude="int a[2 * 3 - 1];") == "5"
        with pytest.raises(ParseError, match="expected integer constant expression"):
            parse("int a[2.5];")
