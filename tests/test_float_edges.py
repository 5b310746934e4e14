"""Floating-point edge cases through execution and migration.

§4.1 claims bit-exact floating-point transfer; these tests cover the
values where "almost right" conversions break: infinities, NaN,
subnormals, signed zero, and single-precision rounding.
"""

import math
import struct

import pytest

from repro.arch import ALPHA, DEC5000, SPARC20, X86
from repro.migration.engine import collect_state, restore_state
from repro.vm.process import Process
from repro.vm.program import compile_program
from tests.conftest import float_bits, run_c, run_main


class TestFloatSemantics:
    def test_division_by_zero_gives_inf(self):
        out = run_main(
            'double a = 1.0; double b = 0.0;'
            ' printf("%d %d", a / b > 1e308, -a / b < -1e308);'
        )
        assert out == "1 1"

    def test_float_rounds_to_single(self):
        # 0.1 is not representable; float and double round differently
        out = run_main(
            'float f = 0.1f; double d = 0.1;'
            ' printf("%d", f == d);'
        )
        assert out == "0"

    def test_double_to_float_to_double(self):
        out = run_main(
            'double d = 1.0 / 3.0; float f = (float) d; double back = f;'
            ' printf("%d %.9f", d == back, back);'
        )
        assert out.startswith("0 0.3333333")

    def test_negative_zero_preserved(self):
        out = run_main('double nz = -0.0; printf("%d", 1.0 / nz < 0.0);')
        assert out == "1"

    def test_very_large_and_small_magnitudes(self):
        out = run_main(
            'double big = 1.0e300; double tiny = 1.0e-300;'
            ' printf("%d", big * tiny == 1.0);'
        )
        assert out == "1"


MIGRATE_FLOATS = """
double specials[7];
float singles[3];
int main() {
    double zero = 0.0;
    specials[0] = 1.0 / zero;        /* +inf  */
    specials[1] = -1.0 / zero;       /* -inf  */
    specials[2] = zero / zero;       /* NaN   */
    specials[3] = -0.0;
    specials[4] = 4.9e-324;          /* min subnormal */
    specials[5] = 1.7976931348623157e308;  /* max double */
    specials[6] = 0.1 + 0.2;
    singles[0] = 16777217.0f;        /* rounds in single */
    singles[1] = 1.0e-40f;           /* single subnormal */
    singles[2] = -0.0f;
    migrate_here();
    return 0;
}
"""


class TestFloatMigration:
    @pytest.mark.parametrize("dest", [SPARC20, ALPHA, X86], ids=lambda a: a.name)
    def test_specials_bit_exact(self, dest):
        prog = compile_program(MIGRATE_FLOATS, poll_strategy="user")
        proc = Process(prog, DEC5000)
        proc.start()
        proc.migration_pending = True
        assert proc.run().status == "poll"

        gidx = prog.global_index("specials")
        src_bits = float_bits(proc, "double", gidx, 7)

        payload, _ = collect_state(proc)
        dst = Process(prog, dest)
        restore_state(prog, payload, dst)
        assert float_bits(dst, "double", gidx, 7) == src_bits

        sgidx = prog.global_index("singles")
        assert float_bits(dst, "float", sgidx, 3) == float_bits(proc, "float", sgidx, 3)

    def test_nan_payload_preserved(self):
        """Even a non-default NaN bit pattern survives the roundtrip
        (the wire is a bit copy, not a float parse)."""
        prog = compile_program(
            "double cell; int main() { migrate_here(); return 0; }",
            poll_strategy="user",
        )
        proc = Process(prog, DEC5000)
        proc.start()
        proc.migration_pending = True
        proc.run()
        addr = proc.image.global_addrs[prog.global_index("cell")]
        weird_nan = struct.unpack("<d", struct.pack("<Q", 0x7FF8_DEAD_BEEF_0001))[0]
        proc.memory.store("double", addr, weird_nan)

        payload, _ = collect_state(proc)
        dst = Process(prog, SPARC20)
        restore_state(prog, payload, dst)
        daddr = dst.image.global_addrs[prog.global_index("cell")]
        got = dst.memory.read_bytes(daddr, 8)
        assert got == struct.pack(">d", weird_nan)  # SPARC is big-endian

    def test_computation_continues_identically_after_migration(self):
        src = """
        int main() {
            double x = 1.0; int i;
            for (i = 0; i < 60; i++) {
                migrate_here();
                x = x * 3.000000001 - 2.000000001;  /* error-amplifying */
            }
            printf("%.17g", x);
            return 0;
        }
        """
        prog = compile_program(src, poll_strategy="user")
        base = Process(prog, DEC5000)
        base.run_to_completion()
        proc = Process(prog, DEC5000)
        proc.start()
        proc.migration_pending = True
        proc.migrate_after_polls = 30
        proc.run()
        payload, _ = collect_state(proc)
        dst = Process(prog, SPARC20)
        restore_state(prog, payload, dst)
        dst.run()
        assert dst.stdout == base.stdout
