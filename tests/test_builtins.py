"""Tests for the builtin C library."""

import pytest

from repro.arch import DEC5000, SPARC20
from tests.conftest import run_c, run_main


class TestPrintf:
    def test_integer_conversions(self):
        out = run_main(r'printf("%d %i %u %x %X", -5, 6, 7, 255, 255);')
        assert out == "-5 6 7 ff FF"

    def test_width_and_flags(self):
        out = run_main(r'printf("[%5d][%-5d][%05d]", 42, 42, 42);')
        assert out == "[   42][42   ][00042]"

    def test_float_conversions(self):
        out = run_main(r'printf("%f|%.2f|%e|%g", 1.5, 3.14159, 1234.5, 0.0001);')
        assert out.startswith("1.500000|3.14|1.234500e+03|0.0001")

    def test_char_and_string(self):
        out = run_main(r'printf("%c%c %s", 104, 105, "world");')
        assert out == "hi world"

    def test_percent_literal(self):
        assert run_main(r'printf("100%%");') == "100%"

    def test_long_modifiers(self):
        out = run_main(r'long v = -7; printf("%ld %lu", v, 9u);')
        assert out == "-7 9"

    def test_pointer_format(self):
        out = run_main(r'int x; printf("%p", &x);')
        assert out.startswith("0x")

    def test_string_precision(self):
        assert run_main(r'printf("%.3s", "abcdef");') == "abc"

    def test_return_value(self):
        out = run_main(r'int n = printf("abc"); printf(" %d", n);')
        assert out == "abc 3"

    def test_puts_and_putchar(self):
        out = run_main(r'puts("line"); putchar(88);')
        assert out == "line\nX"


class TestStrings:
    def test_strlen(self):
        assert run_main(r'printf("%d", (int) strlen("hello"));') == "5"

    def test_strcpy(self):
        out = run_main(r'char buf[16]; strcpy(buf, "copied"); printf("%s", buf);')
        assert out == "copied"

    def test_strcmp(self):
        out = run_main(
            r'printf("%d %d %d", strcmp("a", "b") < 0, strcmp("b", "a") > 0,'
            r' strcmp("x", "x"));'
        )
        assert out == "1 1 0"


class TestMemory:
    def test_memset(self):
        out = run_main(
            "int a[4]; memset(a, 0, 4 * sizeof(int)); "
            'printf("%d%d%d%d", a[0], a[1], a[2], a[3]);'
        )
        assert out == "0000"

    def test_memcpy(self):
        out = run_main(
            "int src[3] = {1, 2, 3}; int dst[3];"
            "memcpy(dst, src, 3 * sizeof(int));"
            'printf("%d%d%d", dst[0], dst[1], dst[2]);'
        )
        assert out == "123"

    def test_calloc_zeroes(self):
        out = run_main(
            "int *p = (int *) calloc(4, sizeof(int));"
            'printf("%d%d%d%d", p[0], p[1], p[2], p[3]);'
        )
        assert out == "0000"

    def test_malloc_free_cycle(self):
        src = """
        int main() {
            int i;
            for (i = 0; i < 100; i++) {
                double *p = (double *) malloc(8 * sizeof(double));
                p[7] = i;
                free(p);
            }
            printf("ok");
            return 0;
        }
        """
        assert run_c(src)[1] == "ok"

    def test_malloc_returns_distinct_live_blocks(self):
        out = run_main(
            "int *a = (int *) malloc(4); int *b = (int *) malloc(4);"
            "*a = 1; *b = 2;"
            'printf("%d %d %d", *a, *b, a != b);'
        )
        assert out == "1 2 1"

    # -- realloc (regression: the pre-compiler annotated realloc as part
    # -- of the malloc family, but no builtin existed — any realloc call
    # -- failed to compile) -------------------------------------------------

    def test_realloc_grow_preserves_contents(self):
        src = """
        int main() {
            int i; int *a = (int *) malloc(4 * sizeof(int));
            for (i = 0; i < 4; i++) a[i] = i + 1;
            a = (int *) realloc(a, 16 * sizeof(int));
            for (i = 4; i < 16; i++) a[i] = i + 1;
            { int s = 0; for (i = 0; i < 16; i++) s += a[i];
              printf("%d", s); }
            free(a);
            return 0;
        }
        """
        assert run_c(src)[1] == "136"

    def test_realloc_null_is_malloc(self):
        out = run_main(
            "double *p = (double *) realloc(0, 2 * sizeof(double));"
            'p[1] = 2.5; printf("%g", p[1]); free(p);'
        )
        assert out == "2.5"

    def test_realloc_zero_frees(self):
        out = run_main(
            "int *p = (int *) malloc(4 * sizeof(int));"
            "p = (int *) realloc(p, 0);"
            'printf("%d", p == 0);'
        )
        assert out == "1"

    def test_realloc_shrink_in_place_keeps_address(self):
        out = run_main(
            "int *p = (int *) malloc(8 * sizeof(int)); int *q;"
            "p[0] = 9; q = (int *) realloc(p, 2 * sizeof(int));"
            'printf("%d %d", p == q, q[0]); free(q);'
        )
        assert out == "1 9"

    def test_reallocated_block_migrates(self):
        """The realloc'd heap block's MSRLT shape (element count) must be
        the one collection sees — migrate after a grow-and-refill."""
        src = """
        double *data;
        int n;
        int main() {
            int i;
            n = 3;
            data = (double *) malloc(n * sizeof(double));
            for (i = 0; i < n; i++) data[i] = i + 0.5;
            data = (double *) realloc(data, 9 * sizeof(double));
            for (i = n; i < 9; i++) data[i] = i + 0.5;
            n = 9;
            migrate_here();
            { double s = 0.0; for (i = 0; i < n; i++) s += data[i];
              printf("%g", s); }
            return 0;
        }
        """
        from repro.arch import DEC5000, SPARC20
        from repro.migration.engine import MigrationEngine
        from repro.vm.process import Process
        from repro.vm.program import compile_program

        prog = compile_program(src, poll_strategy="user")
        base = Process(prog, DEC5000)
        base.run_to_completion()
        proc = Process(prog, DEC5000)
        proc.start()
        proc.migration_pending = True
        assert proc.run().status == "poll"
        dest, _ = MigrationEngine().migrate(proc, SPARC20)
        dest.run()
        assert dest.stdout == base.stdout == "40.5"

    # -- the annotation memo: malloc resolves a type id once per process,
    # -- and the block it registers is still decided per call ------------

    @staticmethod
    def heap_shapes(proc):
        """``(element type, count, size)`` of *proc*'s heap blocks."""
        return [(b.elem_type, b.count, b.size) for b in proc.msrlt.heap_blocks()]

    def test_a_ragged_size_does_not_poison_the_annotation(self):
        from repro.clang.ctypes import INT, UCHAR
        from repro.vm.process import Process
        from repro.vm.program import compile_program

        prog = compile_program(
            "int main() { int *a = (int *) malloc(10);"
            " int *b = (int *) malloc(8); return 0; }"
        )
        proc = Process(prog, DEC5000)
        proc.run_to_completion()
        assert self.heap_shapes(proc) == [(UCHAR, 10, 10), (INT, 2, 8)]

    def test_one_program_sizes_its_types_per_data_model(self):
        """One compiled program on LP64 and then on ILP32: the memo is the
        process's, so each registers its own architecture's size."""
        from repro.arch import ALPHA
        from repro.vm.process import Process
        from repro.vm.program import compile_program

        prog = compile_program(
            "struct pair { long a; char *p; };"
            "int main() { struct pair *s ="
            " (struct pair *) malloc(sizeof(struct pair)); return 0; }"
        )
        sizes = []
        for arch in (ALPHA, SPARC20):
            proc = Process(prog, arch)
            proc.run_to_completion()
            ((elem, count, size),) = self.heap_shapes(proc)
            assert elem.tag == "pair" and count == 1
            sizes.append(size)
        assert sizes == [16, 8]


class TestMath:
    def test_sqrt_pow_exp_log(self):
        out = run_main(
            r'printf("%.1f %.1f %.3f %.3f", sqrt(16.0), pow(2.0, 10.0),'
            r" exp(0.0), log(1.0));"
        )
        assert out == "4.0 1024.0 1.000 0.000"

    def test_trig(self):
        out = run_main(r'printf("%.3f %.3f", sin(0.0), cos(0.0));')
        assert out == "0.000 1.000"

    def test_fabs_abs(self):
        out = run_main(r'printf("%.1f %d", fabs(-2.5), abs(-7));')
        assert out == "2.5 7"

    def test_floor_ceil_fmod(self):
        out = run_main(r'printf("%.0f %.0f %.1f", floor(2.7), ceil(2.1), fmod(7.5, 2.0));')
        assert out == "2 3 1.5"


class TestRand:
    def test_deterministic_sequence(self):
        src = 'int main() { srand(1); printf("%d %d %d", rand(), rand(), rand()); return 0; }'
        out1 = run_c(src)[1]
        out2 = run_c(src)[1]
        assert out1 == out2

    def test_same_sequence_on_every_arch(self):
        src = 'int main() { srand(9); printf("%d %d", rand(), rand()); return 0; }'
        assert run_c(src, DEC5000)[1] == run_c(src, SPARC20)[1]

    def test_seed_changes_sequence(self):
        a = run_c('int main() { srand(1); printf("%d", rand()); return 0; }')[1]
        b = run_c('int main() { srand(2); printf("%d", rand()); return 0; }')[1]
        assert a != b

    def test_values_in_c_range(self):
        src = """
        int main() {
            int i; int bad = 0;
            for (i = 0; i < 200; i++) { int r = rand(); if (r < 0) bad++; }
            printf("%d", bad);
            return 0;
        }
        """
        assert run_c(src)[1] == "0"


class TestProcessControl:
    def test_exit_codes(self):
        assert run_c("int main() { exit(3); return 0; }")[0] == 3

    def test_abort(self):
        code, _ = run_c("int main() { abort(); return 0; }")
        assert code == 134

    def test_exit_skips_rest(self):
        code, out = run_c(
            'int main() { printf("before"); exit(0); printf("after"); return 1; }'
        )
        assert out == "before" and code == 0
