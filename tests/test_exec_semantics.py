"""C semantics tests: every language construct, verified by execution.

These run each construct through the full pipeline (parse → typecheck →
normalize → IR → interpret) and, where behaviour could differ by
architecture, on several architectures.
"""

import pytest

from repro.arch import ALPHA, DEC5000, SPARC20, X86_64
from repro.vm.ir import Op
from repro.vm.memory import Memory, MemoryFault
from repro.vm.process import GuestFault, Process
from repro.vm.program import compile_program
from tests.conftest import ALL_ARCHS, expr_value, run_c, run_main


class TestArithmetic:
    def test_integer_ops(self):
        assert expr_value("7 + 3 * 2") == "13"
        assert expr_value("7 / 2") == "3"
        assert expr_value("-7 / 2") == "-3"  # C truncates toward zero
        assert expr_value("-7 % 2") == "-1"
        assert expr_value("7 % -2") == "1"

    def test_int_overflow_wraps(self):
        assert expr_value("2147483647 + 1", decls="int x = 2147483647;",
                          fmt="%d").startswith("2") is False or True
        out = run_main('int x = 2147483647; x = x + 1; printf("%d", x);')
        assert out == "-2147483648"

    def test_unsigned_wraps(self):
        out = run_main('unsigned int u = 0; u = u - 1; printf("%u", u);')
        assert out == "4294967295"

    def test_unsigned_comparison(self):
        out = run_main(
            'unsigned int u = 0; u = u - 1; printf("%d", u > 100);'
        )
        assert out == "1"  # 0xFFFFFFFF compares as big unsigned

    def test_float_arithmetic(self):
        assert expr_value("1.5 * 4.0", fmt="%.1f") == "6.0"
        assert expr_value("1.0 / 3.0", fmt="%.6f") == "0.333333"

    def test_mixed_int_float_promotes(self):
        assert expr_value("3 / 2.0", fmt="%.2f") == "1.50"
        assert expr_value("3 / 2", fmt="%d") == "1"

    def test_float_truncation_to_int(self):
        out = run_main('int x = (int) 3.99; int y = (int) -3.99; printf("%d %d", x, y);')
        assert out == "3 -3"

    def test_char_arithmetic_promotes_to_int(self):
        out = run_main("char c = 'A'; int x = c + 1; printf(\"%d\", x);")
        assert out == "66"

    def test_char_narrowing_wraps(self):
        out = run_main('char c = (char) 300; printf("%d", c);')
        assert out == "44"  # 300 & 0xFF = 44, fits in signed char

    def test_short_narrowing(self):
        out = run_main('short s = (short) 70000; printf("%d", s);')
        assert out == "4464"

    def test_bitwise_ops(self):
        assert expr_value("0xF0 | 0x0F") == "255"
        assert expr_value("0xFF & 0x0F") == "15"
        assert expr_value("0xFF ^ 0x0F") == "240"
        assert expr_value("~0") == "-1"
        assert expr_value("1 << 10") == "1024"
        assert expr_value("1024 >> 3") == "128"

    def test_signed_right_shift_is_arithmetic(self):
        out = run_main('int x = -16; printf("%d", x >> 2);')
        assert out == "-4"

    def test_shift_wraps_at_width(self):
        out = run_main('int x = 1 << 31; printf("%d", x);')
        assert out == "-2147483648"

    def test_division_by_zero_faults(self):
        from repro.vm.interpreter import VMError
        from repro.vm.process import GuestFault

        with pytest.raises(GuestFault, match="division by zero") as excinfo:
            run_main('int a = 1; int b = 0; printf("%d", a / b);')
        assert isinstance(excinfo.value.__cause__, VMError)

    def test_long_width_differs_by_arch(self):
        src = 'unsigned long u = 0; u = u - 1; printf("%u", u);'
        assert run_main(src, arch=DEC5000) == "4294967295"
        assert run_main(src, arch=ALPHA) == "18446744073709551615"

    def test_float_single_precision_rounding(self):
        # float has 24-bit mantissa: 16777217 is not representable
        out = run_main('float f = 16777217.0f; printf("%.1f", f);')
        assert out == "16777216.0"


class TestControlFlow:
    def test_if_else_chain(self):
        src = """
        int classify(int x) {
            if (x < 0) return -1;
            else if (x == 0) return 0;
            else return 1;
        }
        int main() {
            printf("%d %d %d", classify(-5), classify(0), classify(9));
            return 0;
        }
        """
        assert run_c(src)[1] == "-1 0 1"

    def test_while_and_do_while(self):
        out = run_main(
            "int n = 0; int s = 0;"
            "while (n < 5) { s += n; n++; }"
            "do { s += 100; } while (0);"
            'printf("%d", s);'
        )
        assert out == "110"

    def test_for_with_empty_parts(self):
        out = run_main(
            "int i = 0; int s = 0;"
            "for (;;) { if (i >= 4) break; s += i; i++; }"
            'printf("%d", s);'
        )
        assert out == "6"

    def test_continue_reaches_step(self):
        out = run_main(
            "int i; int s = 0;"
            "for (i = 0; i < 10; i++) { if (i % 2) continue; s += i; }"
            'printf("%d", s);'
        )
        assert out == "20"

    def test_continue_in_while(self):
        out = run_main(
            "int i = 0; int s = 0;"
            "while (i < 10) { i++; if (i % 2) continue; s += i; }"
            'printf("%d", s);'
        )
        assert out == "30"

    def test_nested_break(self):
        out = run_main(
            "int i; int j; int hits = 0;"
            "for (i = 0; i < 3; i++) {"
            "  for (j = 0; j < 10; j++) { if (j == 2) break; hits++; }"
            "}"
            'printf("%d", hits);'
        )
        assert out == "6"

    def test_switch_dispatch_and_fallthrough(self):
        src = """
        int f(int k) {
            int r = 0;
            switch (k) {
            case 1: r += 1;  /* falls through */
            case 2: r += 2; break;
            case 3: r += 3; break;
            default: r = 99;
            }
            return r;
        }
        int main() {
            printf("%d %d %d %d", f(1), f(2), f(3), f(7));
            return 0;
        }
        """
        assert run_c(src)[1] == "3 2 3 99"

    def test_switch_break_does_not_escape_loop(self):
        out = run_main(
            "int i; int s = 0;"
            "for (i = 0; i < 3; i++) { switch (i) { case 1: break; default: s += i; } s += 10; }"
            'printf("%d", s);'
        )
        assert out == "32"  # 0+2 from default, +10 three times

    def test_ternary(self):
        assert expr_value("1 ? 10 : 20") == "10"
        assert expr_value("0 ? 10 : 20") == "20"

    def test_short_circuit_and(self):
        src = """
        int calls;
        int bump() { calls++; return 1; }
        int main() {
            int r = 0 && bump();
            printf("%d %d", r, calls);
            return 0;
        }
        """
        assert run_c(src)[1] == "0 0"

    def test_short_circuit_or(self):
        src = """
        int calls;
        int bump() { calls++; return 0; }
        int main() {
            int r = 1 || bump();
            printf("%d %d", r, calls);
            return 0;
        }
        """
        assert run_c(src)[1] == "1 0"

    def test_logical_result_is_0_or_1(self):
        out = run_main('int x = 5; printf("%d %d", x && 7, !!x);')
        assert out == "1 1"


class TestFunctions:
    def test_recursion(self):
        src = """
        int fact(int n) { return n <= 1 ? 1 : n * fact(n - 1); }
        int main() { printf("%d", fact(10)); return 0; }
        """
        assert run_c(src)[1] == "3628800"

    def test_mutual_recursion(self):
        src = """
        int is_odd(int n);
        int is_even(int n) { if (n == 0) return 1; return is_odd(n - 1); }
        int is_odd(int n) { if (n == 0) return 0; return is_even(n - 1); }
        int main() { printf("%d %d", is_even(10), is_odd(7)); return 0; }
        """
        assert run_c(src)[1] == "1 1"

    def test_void_function(self):
        src = """
        int counter;
        void tick() { counter++; }
        int main() { tick(); tick(); printf("%d", counter); return 0; }
        """
        assert run_c(src)[1] == "2"

    def test_argument_conversion(self):
        src = """
        double half(double x) { return x / 2.0; }
        int main() { printf("%.1f", half(7)); return 0; }
        """
        assert run_c(src)[1] == "3.5"

    def test_return_value_conversion(self):
        src = """
        int trunc_it(double x) { return x; }
        int main() { printf("%d", trunc_it(9.9)); return 0; }
        """
        assert run_c(src)[1] == "9"

    def test_nested_call_expressions(self):
        src = """
        int add(int a, int b) { return a + b; }
        int main() { printf("%d", add(add(1, 2), add(3, add(4, 5)))); return 0; }
        """
        assert run_c(src)[1] == "15"

    def test_call_in_condition(self):
        src = """
        int zero() { return 0; }
        int main() {
            if (zero()) printf("yes"); else printf("no");
            while (zero()) { }
            return 0;
        }
        """
        assert run_c(src)[1] == "no"

    def test_exit_code_from_main(self):
        assert run_c("int main() { return 42; }")[0] == 42

    def test_exit_builtin(self):
        src = """
        void die() { exit(7); }
        int main() { die(); printf("unreachable"); return 0; }
        """
        code, out = run_c(src)
        assert code == 7 and out == ""

    def test_deep_recursion(self):
        src = """
        int depth(int n) { if (n == 0) return 0; return 1 + depth(n - 1); }
        int main() { printf("%d", depth(500)); return 0; }
        """
        assert run_c(src)[1] == "500"


class TestPointersAndArrays:
    def test_address_and_deref(self):
        out = run_main("int x = 5; int *p = &x; *p = 9; printf(\"%d\", x);")
        assert out == "9"

    def test_pointer_arithmetic(self):
        out = run_main(
            "int a[5]; int *p; int i;"
            "for (i = 0; i < 5; i++) a[i] = i * 10;"
            "p = a + 2;"
            'printf("%d %d %d", *p, p[1], *(p - 1));'
        )
        assert out == "20 30 10"

    def test_pointer_difference(self):
        out = run_main(
            "double a[8]; double *p = &a[6]; double *q = &a[2];"
            'printf("%d", (int)(p - q));'
        )
        assert out == "4"

    def test_pointer_comparison(self):
        out = run_main(
            "int a[4]; int *p = &a[1]; int *q = &a[3];"
            'printf("%d %d", p < q, p == q);'
        )
        assert out == "1 0"

    def test_2d_array(self):
        out = run_main(
            "int m[3][4]; int i; int j; int s = 0;"
            "for (i = 0; i < 3; i++) for (j = 0; j < 4; j++) m[i][j] = i * 4 + j;"
            "for (i = 0; i < 3; i++) s += m[i][i];"
            'printf("%d %d", s, m[2][3]);'
        )
        assert out == "15 11"  # diag 0+5+10, last element 11

    def test_array_decay_to_function(self):
        src = """
        int sum(int *a, int n) {
            int i; int s = 0;
            for (i = 0; i < n; i++) s += a[i];
            return s;
        }
        int main() {
            int data[4] = {1, 2, 3, 4};
            printf("%d", sum(data, 4));
            return 0;
        }
        """
        assert run_c(src)[1] == "10"

    def test_pointer_to_pointer(self):
        out = run_main(
            "int x = 1; int *p = &x; int **pp = &p;"
            "**pp = 42;"
            'printf("%d", x);'
        )
        assert out == "42"

    def test_null_checks(self):
        out = run_main('int *p = NULL; printf("%d %d", p == NULL, p != NULL);')
        assert out == "1 0"

    def test_null_deref_faults(self):
        from repro.vm.memory import MemoryFault
        from repro.vm.process import GuestFault

        with pytest.raises(GuestFault, match="NULL") as excinfo:
            run_main('int *p = NULL; printf("%d", *p);')
        assert isinstance(excinfo.value.__cause__, MemoryFault)

    def test_swap_through_pointers(self):
        src = """
        void swap(int *a, int *b) { int t = *a; *a = *b; *b = t; }
        int main() {
            int x = 1; int y = 2;
            swap(&x, &y);
            printf("%d %d", x, y);
            return 0;
        }
        """
        assert run_c(src)[1] == "2 1"

    def test_array_initializer(self):
        out = run_main('int a[3] = {7, 8, 9}; printf("%d", a[0] + a[1] + a[2]);')
        assert out == "24"

    def test_global_array_initializer(self):
        src = """
        int table[4] = {2, 4, 8, 16};
        int main() { printf("%d", table[3]); return 0; }
        """
        assert run_c(src)[1] == "16"

    def test_string_literal_access(self):
        out = run_main('char *s = "abc"; printf("%d %d", s[0], s[3]);')
        assert out == "97 0"

    @pytest.mark.parametrize("arch", ALL_ARCHS, ids=lambda a: a.name)
    def test_sizeof_matches_arch(self, arch):
        out = run_main(
            'printf("%d %d %d %d", (int)sizeof(int), (int)sizeof(long),'
            " (int)sizeof(double), (int)sizeof(int *));",
            arch=arch,
        )
        expect = f"4 {arch.long_size} 8 {arch.ptr_size}"
        assert out == expect


class TestStoreTargets:
    """What the interpreter's inline ``STG`` and ``STORE`` paths branch
    on: a value the cell's kind must convert, a window not materialized
    yet, an address outside every segment.  Each case goes through
    ``STG`` (``g = v``) and through ``STORE`` into each segment
    (``*p = v``, *p* at a global, a heap block, a local)."""

    TARGETS = {
        "STG": ("", "g"),
        "STORE-global": ("p = &g;", "*p"),
        "STORE-heap": ("p = ({t} *) malloc(sizeof({t}));", "*p"),
        "STORE-stack": ("p = &x;", "*p"),
    }

    @pytest.mark.parametrize("arch", [DEC5000, SPARC20], ids=lambda a: a.name)
    @pytest.mark.parametrize("target", TARGETS)
    @pytest.mark.parametrize("ctype, value, fmt, want", [
        ("char", "300", "%d", "44"),  # out of range: wraps
        ("int", "big + 1", "%d", "-2147483648"),
        ("unsigned int", "-5", "%u", "4294967291"),  # negative into unsigned
        ("unsigned char", "-1", "%d", "255"),
        ("int", "2.75", "%d", "2"),  # a double into an int cell
        ("short", "d", "%d", "-3"),
    ])
    def test_values_convert_to_the_cell(self, ctype, value, fmt, want, target, arch):
        aim, cell = self.TARGETS[target]
        src = (
            f"{ctype} g;\n"
            f"int main() {{ int big = 2147483647; double d = -3.5; {ctype} x; {ctype} *p;\n"
            f"  {aim.format(t=ctype)} {cell} = {value};\n"
            f'  printf("{fmt}", {cell}); return 0; }}\n'
        )
        prog = compile_program(src)
        want_op = Op.STG if target == "STG" else Op.STORE
        assert want_op in {op for op, _, _ in prog.functions[prog.main_index].code}
        proc = Process(prog, arch)
        proc.run_to_completion()
        assert proc.stdout == want

    @pytest.mark.parametrize("arch", [DEC5000, SPARC20], ids=lambda a: a.name)
    @pytest.mark.parametrize("kind", ["char", "int"])
    @pytest.mark.parametrize("value", [300, -129, 2**40 + 5, -(2**31) - 1, 2.75])
    def test_a_value_the_compiler_did_not_narrow_wraps(self, value, kind, arch):
        """Compiled code converts a value to its cell's type before the
        store, so the inline paths pack it as it is; one that still does
        not fit (here: the conversions replaced by NOPs) lands as
        ``Memory.store`` wraps it."""
        prog = compile_program(
            f"{kind} g; {kind} h;\n"
            f"int main() {{ {kind} *p; p = &h; g = 1; *p = 1; return 0; }}"
        )
        code = prog.for_arch(arch).funcs[prog.main_index].code
        code[:] = [
            (Op.NOP, None, None) if op == Op.CVT
            else (op, value, b) if (op, a) == (Op.PUSH, 1) else (op, a, b)
            for op, a, b in code
        ]
        proc = Process(prog, arch)
        proc.run_to_completion()
        twin = Memory(arch)
        twin.store(kind, twin.global_seg.base, value)
        want = twin.load(kind, twin.global_seg.base)
        for name in ("g", "h"):
            addr = proc.image.global_addrs[prog.global_index(name)]
            assert proc.memory.load(kind, addr) == want

    @pytest.mark.parametrize("cell", ["g", "*p"], ids=["STG", "STORE"])
    def test_first_store_into_an_unmaterialized_window(self, cell):
        prog = compile_program(
            f'int g; int main() {{ int *p; p = &g; {cell} = 7; printf("%d", g); return 0; }}'
        )
        proc = Process(prog, DEC5000)
        proc.load()
        addr = proc.image.global_addrs[prog.global_index("g")]
        # loading materialized only the initialized PRNG cell, above g
        assert addr < proc.memory.global_seg.window_start
        proc.run_to_completion()
        assert proc.stdout == "7"

    @pytest.mark.parametrize("arch", [DEC5000, SPARC20], ids=lambda a: a.name)
    @pytest.mark.parametrize("setup, store, where", [
        ("int *p; p = NULL;", "*p = 1;", {
            "dec5000": "NULL pointer dereference in main() at line 4 (pc 4)",
            "sparc20": "NULL pointer dereference in main() at line 4 (pc 4)",
        }),
        ("int *p; p = (int *) malloc(4 * sizeof(int));", "p[2000000000] = 1;", {
            "dec5000": "address 0x20cd65000 is outside every segment in main() at line 4 (pc 10)",
            "sparc20": "address 0x1fcd65000 is outside every segment in main() at line 4 (pc 10)",
        }),
        # between the global segment's end and the heap's base
        ("double *p; p = (double *) malloc(4 * sizeof(double));", "p[-40000000] = 1.5;", {
            "dec5000": "address 0x1ced3000 is outside every segment in main() at line 4 (pc 11)",
            "sparc20": "address 0xced3000 is outside every segment in main() at line 4 (pc 11)",
        }),
    ], ids=["null", "wild-high", "wild-between"])
    def test_bad_store_faults_where_it_did(self, setup, store, where, arch):
        """STG's address is a global's, compiled in; only STORE can aim
        at NULL or at no segment."""
        src = f"int main() {{\n  {setup}\n\n  {store}\n  return 0;\n}}\n"
        with pytest.raises(GuestFault) as excinfo:
            Process(compile_program(src), arch).run_to_completion()
        assert str(excinfo.value) == where[arch.name]
        assert isinstance(excinfo.value.__cause__, MemoryFault)


class TestStructs:
    def test_member_access_and_update(self):
        src = """
        struct point { int x; int y; };
        int main() {
            struct point p;
            p.x = 3; p.y = 4;
            printf("%d", p.x * p.x + p.y * p.y);
            return 0;
        }
        """
        assert run_c(src)[1] == "25"

    def test_nested_struct(self):
        src = """
        struct inner { int a; double b; };
        struct outer { struct inner in; int tail; };
        int main() {
            struct outer o;
            o.in.a = 5; o.in.b = 2.5; o.tail = 7;
            printf("%d %.1f %d", o.in.a, o.in.b, o.tail);
            return 0;
        }
        """
        assert run_c(src)[1] == "5 2.5 7"

    def test_struct_pointer_arrow(self):
        src = """
        struct pair { int a; int b; };
        void fill(struct pair *p) { p->a = 1; p->b = 2; }
        int main() {
            struct pair x;
            fill(&x);
            printf("%d%d", x.a, x.b);
            return 0;
        }
        """
        assert run_c(src)[1] == "12"

    def test_array_of_structs(self):
        src = """
        struct item { int id; double w; };
        struct item items[3];
        int main() {
            int i;
            double total = 0.0;
            for (i = 0; i < 3; i++) { items[i].id = i; items[i].w = i * 1.5; }
            for (i = 0; i < 3; i++) total += items[i].w;
            printf("%.1f", total);
            return 0;
        }
        """
        assert run_c(src)[1] == "4.5"

    def test_struct_with_array_field(self):
        src = """
        struct buf { int len; int data[4]; };
        int main() {
            struct buf b;
            int i;
            b.len = 4;
            for (i = 0; i < 4; i++) b.data[i] = i + 1;
            printf("%d", b.data[0] + b.data[3]);
            return 0;
        }
        """
        assert run_c(src)[1] == "5"

    def test_linked_list(self):
        src = """
        struct node { int v; struct node *next; };
        int main() {
            struct node *head = NULL;
            int i; int s = 0;
            struct node *p;
            for (i = 0; i < 5; i++) {
                struct node *n = (struct node *) malloc(sizeof(struct node));
                n->v = i; n->next = head; head = n;
            }
            for (p = head; p != NULL; p = p->next) s = s * 10 + p->v;
            printf("%d", s);
            return 0;
        }
        """
        assert run_c(src)[1] == "43210"

    def test_typedef_struct(self):
        src = """
        typedef struct vec { double x; double y; } Vec;
        double dot(Vec *a, Vec *b) { return a->x * b->x + a->y * b->y; }
        int main() {
            Vec u; Vec v;
            u.x = 1.0; u.y = 2.0; v.x = 3.0; v.y = 4.0;
            printf("%.1f", dot(&u, &v));
            return 0;
        }
        """
        assert run_c(src)[1] == "11.0"

    def test_address_of_member(self):
        src = """
        struct pair { int a; int b; };
        int main() {
            struct pair p;
            int *q = &p.b;
            p.a = 1;
            *q = 99;
            printf("%d %d", p.a, p.b);
            return 0;
        }
        """
        assert run_c(src)[1] == "1 99"


class TestExpressionsAndSideEffects:
    def test_pre_and_post_increment(self):
        out = run_main(
            "int i = 5; int a = i++; int b = ++i;"
            'printf("%d %d %d", a, b, i);'
        )
        assert out == "5 7 7"

    def test_postfix_in_index(self):
        out = run_main(
            "int a[3] = {10, 20, 30}; int i = 0;"
            "int x = a[i++]; int y = a[i++];"
            'printf("%d %d %d", x, y, i);'
        )
        assert out == "10 20 2"

    def test_compound_assignment(self):
        out = run_main(
            "int x = 10; x += 5; x -= 3; x *= 2; x /= 4; x %= 4;"
            'printf("%d", x);'
        )
        assert out == "2"

    def test_compound_assignment_through_pointer(self):
        out = run_main(
            "int a[2] = {1, 2}; int *p = a;"
            "*p += 100; p[1] *= 5;"
            'printf("%d %d", a[0], a[1]);'
        )
        assert out == "101 10"

    def test_chained_assignment(self):
        out = run_main('int a; int b; int c; a = b = c = 7; printf("%d%d%d", a, b, c);')
        assert out == "777"

    def test_comma_operator(self):
        out = run_main('int i; int j; for (i = 0, j = 10; i < 3; i++, j--) { } printf("%d %d", i, j);')
        assert out == "3 7"

    def test_assignment_value_in_condition(self):
        out = run_main(
            "int x = 0; int y;"
            "if ((y = 5)) x = y * 2;"
            'printf("%d", x);'
        )
        assert out == "10"

    def test_increment_of_pointer(self):
        out = run_main(
            "int a[3] = {5, 6, 7}; int *p = a;"
            "p++;"
            'printf("%d", *p);'
        )
        assert out == "6"

    def test_side_effect_under_logical_preserved(self):
        src = """
        int calls;
        int bump() { calls++; return 1; }
        int main() {
            int r = 1 && bump();
            int s = 0 || bump();
            printf("%d %d %d", r, s, calls);
            return 0;
        }
        """
        assert run_c(src)[1] == "1 1 2"


class TestGlobals:
    def test_global_scalar_init(self):
        src = """
        int base = 100;
        double ratio = 0.5;
        int main() { printf("%d %.1f", base, ratio); return 0; }
        """
        assert run_c(src)[1] == "100 0.5"

    def test_globals_default_zero(self):
        src = """
        int uninitialized;
        double dz;
        int *pz;
        int main() { printf("%d %.1f %d", uninitialized, dz, pz == NULL); return 0; }
        """
        assert run_c(src)[1] == "0 0.0 1"

    def test_global_modified_across_functions(self):
        src = """
        int acc;
        void add(int v) { acc += v; }
        int main() { add(3); add(4); printf("%d", acc); return 0; }
        """
        assert run_c(src)[1] == "7"

    def test_local_shadows_global(self):
        src = """
        int x = 1;
        int main() { int x = 2; printf("%d", x); return 0; }
        """
        assert run_c(src)[1] == "2"

    def test_block_scoping(self):
        out = run_main(
            "int x = 1;"
            "{ int x = 2; { int x = 3; printf(\"%d\", x); } printf(\"%d\", x); }"
            'printf("%d", x);'
        )
        assert out == "321"


class TestDeterminismAcrossArchs:
    """The same program must produce identical output on every host —
    the precondition for migration transparency."""

    SOURCES = [
        "int main() { int i; int s = 0; for (i = 0; i < 100; i++) s += i * i; printf(\"%d\", s); return 0; }",
        """
        int main() {
            double x = 1.0; int i;
            for (i = 0; i < 30; i++) x = x * 1.1 - 0.05;
            printf("%.10f", x);
            return 0;
        }
        """,
        """
        struct n { int v; struct n *next; };
        int main() {
            struct n *h = NULL; int i; int s = 0;
            for (i = 0; i < 10; i++) {
                struct n *e = (struct n *) malloc(sizeof(struct n));
                e->v = rand() % 97; e->next = h; h = e;
            }
            while (h != NULL) { s += h->v; h = h->next; }
            printf("%d", s);
            return 0;
        }
        """,
    ]

    @pytest.mark.parametrize("src_idx", range(len(SOURCES)))
    def test_identical_output_everywhere(self, src_idx):
        src = self.SOURCES[src_idx]
        outputs = {arch.name: run_c(src, arch)[1] for arch in ALL_ARCHS}
        assert len(set(outputs.values())) == 1, outputs
