"""The MSRM library's paper-style API, driven directly.

The paper exposes four interface routines — ``Save_variable``,
``Save_pointer``, ``Restore_variable``, ``Restore_pointer`` — that the
inserted macros call.  These tests use them exactly as annotated code
would: saving individual variables into a buffer, then restoring them on
another host, without going through the migration engine.
"""

import pytest

from repro.arch import DEC5000, SPARC20
from repro.arch.buffers import ReadBuffer, WriteBuffer
from repro.msr.collect import Collector, Save_pointer, Save_variable
from repro.msr.msrlt import BlockKind
from repro.msr.restore import Restore_pointer, Restore_variable, Restorer
from repro.vm.process import Process
from repro.vm.program import compile_program
from tests.conftest import ref_record

PROGRAM = """
struct node { float data; struct node *link; };
struct node *first;
int scalar;
int main() {
    first = (struct node *) malloc(sizeof(struct node));
    first->data = 10.0;
    first->link = first;
    scalar = 321;
    migrate_here();
    return 0;
}
"""


@pytest.fixture()
def pair():
    prog = compile_program(PROGRAM, poll_strategy="user")
    src = Process(prog, DEC5000)
    src.start()
    src.migration_pending = True
    assert src.run().status == "poll"
    dst = Process(prog, SPARC20)
    dst.load()
    return src, dst


def gblock(proc, name):
    idx = proc.program.global_index(name)
    return proc.msrlt.lookup_logical((BlockKind.GLOBAL, idx, 0))


class TestPaperInterface:
    def test_save_restore_variable(self, pair):
        src, dst = pair
        buf = WriteBuffer()
        collector = Collector(src, buf)
        Save_variable(collector, gblock(src, "scalar"))

        restorer = Restorer(dst, ReadBuffer(buf.getvalue()))
        Restore_variable(restorer, gblock(dst, "scalar"))
        addr = dst.image.global_addrs[dst.program.global_index("scalar")]
        assert dst.memory.load("int", addr) == 321

    def test_save_restore_pointer(self, pair):
        src, dst = pair
        src_addr = src.memory.load(
            "ptr", src.image.global_addrs[src.program.global_index("first")]
        )
        buf = WriteBuffer()
        collector = Collector(src, buf)
        Save_pointer(collector, src_addr)

        restorer = Restorer(dst, ReadBuffer(buf.getvalue()))
        new_addr = Restore_pointer(restorer)
        assert new_addr != 0 and new_addr != src_addr
        # contents arrived converted: float field readable on the SPARC
        stype = dst.program.unit.structs["node"]
        data_off = dst.layout.field_offset(stype, "data")
        link_off = dst.layout.field_offset(stype, "link")
        assert dst.memory.load("float", new_addr + data_off) == 10.0
        # the self-link was swizzled to the NEW address
        assert dst.memory.load("ptr", new_addr + link_off) == new_addr

    def test_null_pointer_roundtrip(self, pair):
        src, dst = pair
        buf = WriteBuffer()
        Save_pointer(Collector(src, buf), 0)
        assert Restore_pointer(Restorer(dst, ReadBuffer(buf.getvalue()))) == 0

    def test_second_save_emits_ref(self, pair):
        src, dst = pair
        src_addr = src.memory.load(
            "ptr", src.image.global_addrs[src.program.global_index("first")]
        )
        buf = WriteBuffer()
        collector = Collector(src, buf)
        Save_pointer(collector, src_addr)
        after_first = buf.nbytes
        Save_pointer(collector, src_addr)
        # the entire second save is a REF, not another BLOCK, and the
        # same REF as the one that closed the self-link cycle inside the
        # first save
        ref = ref_record(src.msrlt.lookup_addr(src_addr)[0].logical)
        payload = buf.getvalue()
        assert payload[after_first:] == ref
        assert payload[:after_first].endswith(ref)
        assert collector.stats.n_blocks == 1

        restorer = Restorer(dst, ReadBuffer(buf.getvalue()))
        a1 = Restore_pointer(restorer)
        a2 = Restore_pointer(restorer)
        assert a1 == a2

    def test_tag_accounting_on_buffer(self, pair):
        src, _ = pair
        src_addr = src.memory.load(
            "ptr", src.image.global_addrs[src.program.global_index("first")]
        )
        buf = WriteBuffer()
        collector = Collector(src, buf)
        Save_pointer(collector, src_addr)
        assert collector.stats.n_blocks == 1
        # the node's record ends in its self link, the one REF there is
        ref = ref_record(src.msrlt.lookup_addr(src_addr)[0].logical)
        assert buf.getvalue().endswith(ref) and buf.getvalue().count(ref) == 1

    def test_collector_stats_finish(self, pair):
        src, _ = pair
        buf = WriteBuffer()
        collector = Collector(src, buf)
        Save_variable(collector, gblock(src, "scalar"))
        stats = collector.finish()
        assert stats.wire_bytes == buf.nbytes
        assert stats.n_blocks == 1
