"""MSR collection/restoration roundtrip tests.

These drive ``Save_pointer``/``Restore_pointer`` through real programs
stopped at migration points, asserting the structural properties §3
claims: no duplication under sharing, cycle safety, interior-pointer
fidelity, byte-order conversion, and the REF/BLOCK record discipline.
"""

import itertools
import struct

import pytest

from repro.arch import ALPHA, DEC5000, SPARC20, X86
from repro.arch.buffers import WriteBuffer
from repro.migration.engine import collect_state, restore_state
from repro.msr.msrlt import BlockKind
from repro.msr.wire import write_logical
from repro.vm.process import Process
from repro.vm.program import compile_program
from tests.conftest import (
    ALL_ARCHS, assert_plans_invisible, block_header, float_bits, ref_record,
)


def stop_at_poll(source: str, arch=DEC5000, after_polls: int = 1, **kwargs) -> Process:
    """Run *source* on *arch* until the requested poll fires.

    Compiles with only the explicit ``migrate_here()`` poll-points so the
    tests' poll counting is not perturbed by automatic loop polls.
    """
    kwargs.setdefault("poll_strategy", "user")
    prog = compile_program(source, **kwargs)
    proc = Process(prog, arch)
    proc.start()
    proc.migration_pending = True
    proc.migrate_after_polls = after_polls
    result = proc.run()
    assert result.status == "poll", result
    return proc


def roundtrip(proc: Process, dest_arch=SPARC20):
    """Collect from *proc*, restore into a fresh process on *dest_arch*."""
    payload, cinfo = collect_state(proc)
    dest = Process(proc.program, dest_arch)
    rinfo = restore_state(proc.program, payload, dest)
    return dest, payload, cinfo, rinfo


SHARED_GRAPH = """
struct cell { int v; struct cell *a; struct cell *b; };
struct cell *root;
struct cell *other;
int main() {
    struct cell *shared;
    shared = (struct cell *) malloc(sizeof(struct cell));
    shared->v = 99; shared->a = NULL; shared->b = NULL;
    root = (struct cell *) malloc(sizeof(struct cell));
    root->v = 1; root->a = shared; root->b = shared;
    other = shared;
    migrate_here();
    printf("%d %d %d %d", root->v, root->a->v, root->b->v, other->v);
    return 0;
}
"""


class TestSharingAndCycles:
    def test_shared_node_saved_once(self):
        proc = stop_at_poll(SHARED_GRAPH)
        payload, _ = collect_state(proc)
        # shared cell appears exactly once as a BLOCK; later sightings
        # (the b-edge and `other`) are REFs
        other = proc.memory.load(
            "ptr", proc.image.global_addrs[proc.program.global_index("other")]
        )
        assert payload.count(ref_record(proc.msrlt.lookup_addr(other)[0].logical)) == 2
        dest = Process(proc.program, SPARC20)
        rinfo = restore_state(proc.program, payload, dest)
        assert rinfo.stats.n_heap_allocs == 2  # root + shared, NOT 3

    def test_shared_identity_preserved(self):
        proc = stop_at_poll(SHARED_GRAPH)
        dest, *_ = roundtrip(proc)
        result = dest.run()
        assert result.status == "exit"
        assert dest.stdout == "1 99 99 99"
        # identity: root->a and root->b are the SAME address on the dest
        prog = proc.program
        root_addr = dest.memory.load(
            "ptr", dest.image.global_addrs[prog.global_index("root")]
        )
        # fields: v at 0, a at offset(int), b after
        lay = dest.layout
        stype = prog.unit.structs["cell"]
        a = dest.memory.load("ptr", root_addr + lay.field_offset(stype, "a"))
        b = dest.memory.load("ptr", root_addr + lay.field_offset(stype, "b"))
        assert a == b != 0

    def test_cycle_roundtrip(self):
        src = """
        struct ring { int v; struct ring *next; };
        struct ring *entry;
        int main() {
            struct ring *a; struct ring *b; struct ring *c;
            a = (struct ring *) malloc(sizeof(struct ring));
            b = (struct ring *) malloc(sizeof(struct ring));
            c = (struct ring *) malloc(sizeof(struct ring));
            a->v = 1; b->v = 2; c->v = 3;
            a->next = b; b->next = c; c->next = a;  /* cycle */
            entry = a;
            migrate_here();
            printf("%d%d%d%d", entry->v, entry->next->v,
                   entry->next->next->v, entry->next->next->next->v);
            return 0;
        }
        """
        proc = stop_at_poll(src)
        dest, payload, cinfo, rinfo = roundtrip(proc)
        assert rinfo.stats.n_heap_allocs == 3
        dest.run()
        assert dest.stdout == "1231"

    def test_self_pointer(self):
        src = """
        struct selfp { struct selfp *me; int v; };
        struct selfp *s;
        int main() {
            s = (struct selfp *) malloc(sizeof(struct selfp));
            s->me = s; s->v = 5;
            migrate_here();
            printf("%d %d", s->v, s->me->me->me->v);
            return 0;
        }
        """
        proc = stop_at_poll(src)
        dest, *_ = roundtrip(proc)
        dest.run()
        assert dest.stdout == "5 5"


class TestPointerShapes:
    def test_interior_pointer_into_array(self):
        src = """
        double data[16];
        double *mid;
        int main() {
            int i;
            for (i = 0; i < 16; i++) data[i] = i * 0.5;
            mid = &data[10];
            migrate_here();
            printf("%.1f %.1f", *mid, mid[-3]);
            return 0;
        }
        """
        proc = stop_at_poll(src)
        dest, *_ = roundtrip(proc)
        dest.run()
        assert dest.stdout == "5.0 3.5"

    def test_one_past_end_pointer(self):
        src = """
        int arr[4];
        int *end;
        int main() {
            int i;
            for (i = 0; i < 4; i++) arr[i] = i + 1;
            end = arr + 4;       /* legal C: one past the end */
            migrate_here();
            printf("%d %d", (int)(end - arr), end[-1]);
            return 0;
        }
        """
        proc = stop_at_poll(src)
        dest, *_ = roundtrip(proc)
        dest.run()
        assert dest.stdout == "4 4"

    def test_pointer_into_struct_field(self):
        src = """
        struct rec { int a; double d; int b; };
        struct rec r;
        int *pb;
        double *pd;
        int main() {
            r.a = 1; r.d = 2.5; r.b = 3;
            pb = &r.b;
            pd = &r.d;
            migrate_here();
            printf("%d %.1f", *pb, *pd);
            return 0;
        }
        """
        proc = stop_at_poll(src)
        dest, *_ = roundtrip(proc)
        dest.run()
        assert dest.stdout == "3 2.5"

    def test_stack_pointer_across_frames(self):
        src = """
        int helper(int *cell, int n) {
            int i; int local = 0;
            for (i = 0; i < n; i++) {
                migrate_here();
                local += *cell;
                *cell += 1;
            }
            return local;
        }
        int main() {
            int counter = 10;
            int r = helper(&counter, 4);
            printf("%d %d", r, counter);
            return 0;
        }
        """
        proc = stop_at_poll(src, after_polls=3)
        assert len(proc.frames) == 2
        dest, *_ = roundtrip(proc)
        dest.run()
        base = Process(compile_program(src), DEC5000)
        base.run_to_completion()
        assert dest.stdout == base.stdout == "46 14"

    def test_null_pointers_stay_null(self):
        src = """
        struct n { struct n *next; int v; };
        struct n *head;
        int *q;
        int main() {
            head = (struct n *) malloc(sizeof(struct n));
            head->next = NULL; head->v = 3;
            q = NULL;
            migrate_here();
            printf("%d %d %d", head->v, head->next == NULL, q == NULL);
            return 0;
        }
        """
        proc = stop_at_poll(src)
        dest, payload, cinfo, rinfo = roundtrip(proc)
        # head's node: its next one NULL byte before its int; then the
        # next global, q, whose contents are one NULL byte
        node = block_header((BlockKind.HEAP, 0, 0), last=None) + bytes(1) + struct.pack(">i", 3)
        qi = proc.program.global_index("q")
        q = struct.pack(">I", qi) + block_header((BlockKind.GLOBAL, qi, 0)) + bytes(1)
        assert payload.count(node + q) == 1
        dest.run()
        assert dest.stdout == "3 1 1"

    def test_pointer_to_string_literal(self):
        src = """
        char *msg;
        int main() {
            msg = "hello";
            migrate_here();
            printf("%s/%d", msg, msg[1]);
            return 0;
        }
        """
        proc = stop_at_poll(src)
        dest, *_ = roundtrip(proc)
        dest.run()
        assert dest.stdout == "hello/101"


class TestEndianAndWidthConversion:
    @pytest.mark.parametrize(
        "src_arch,dst_arch",
        [(DEC5000, SPARC20), (SPARC20, DEC5000), (DEC5000, ALPHA),
         (ALPHA, SPARC20), (X86, SPARC20), (SPARC20, X86)],
        ids=lambda a: a.name,
    )
    def test_scalars_convert(self, src_arch, dst_arch):
        src = """
        int i_neg = -123456789;
        unsigned int u_big;
        double d_pi = 3.141592653589793;
        float f_val = 2.71828f;
        short s_neg = -32000;
        char c_val = 'Z';
        long l_val = -2000000;
        int main() {
            u_big = 4000000000u;
            migrate_here();
            printf("%d %u %.15f %.5f %d %d %d",
                   i_neg, u_big, d_pi, f_val, s_neg, c_val, (int) l_val);
            return 0;
        }
        """
        proc = stop_at_poll(src, arch=src_arch)
        dest, *_ = roundtrip(proc, dest_arch=dst_arch)
        dest.run()
        base = Process(compile_program(src), src_arch)
        base.run_to_completion()
        assert dest.stdout == base.stdout

    def test_double_bit_exactness(self):
        """§4.1: "The data collection and restoration process preserves
        the high-order floating point accuracy." — bit-exact, in fact."""
        src = """
        double vals[6];
        int main() {
            vals[0] = 1.0 / 3.0;
            vals[1] = 1.0e-300;
            vals[2] = 1.0e300;
            vals[3] = -0.0;
            vals[4] = 4.9e-324;     /* subnormal */
            vals[5] = 0.1 + 0.2;
            migrate_here();
            return 0;
        }
        """
        proc = stop_at_poll(src)
        gidx = proc.program.global_index("vals")
        src_bits = float_bits(proc, "double", gidx, 6)
        dest, *_ = roundtrip(proc)
        assert float_bits(dest, "double", gidx, 6) == src_bits

    def test_addresses_actually_differ(self):
        """Pointers must be translated, not copied: the same block lands
        at a different address on the destination."""
        src = """
        int *p;
        int main() {
            p = (int *) malloc(sizeof(int));
            *p = 7;
            migrate_here();
            printf("%d", *p);
            return 0;
        }
        """
        proc = stop_at_poll(src)
        gidx = proc.program.global_index("p")
        src_ptr = proc.memory.load("ptr", proc.image.global_addrs[gidx])
        dest, *_ = roundtrip(proc)
        dst_ptr = dest.memory.load("ptr", dest.image.global_addrs[gidx])
        assert src_ptr != dst_ptr  # different heap bases by design
        dest.run()
        assert dest.stdout == "7"


class TestWireFormat:
    def test_trailing_garbage_rejected(self):
        proc = stop_at_poll(SHARED_GRAPH)
        payload, _ = collect_state(proc)
        dest = Process(proc.program, SPARC20)
        from repro.msr.restore import RestoreError

        with pytest.raises(RestoreError, match="2 trailing bytes"):
            restore_state(proc.program, payload + b"\x00\x00", dest)

    @pytest.mark.parametrize("marker", [
        b"\x03",  # freed: would free a block restored pointers aim at
        b"\x02" + struct.pack(">III", 1, 0, 1) + struct.pack(">i", 5),  # runs: a second write
    ], ids=["freed", "runs"])
    def test_plain_stream_refuses_tail_markers(self, marker):
        """A plain stream's tail is empty: a marker naming a heap block
        the same pass restored is trailing bytes, not a marker."""
        from repro.msr.restore import RestoreError

        proc = stop_at_poll(SHARED_GRAPH)
        payload, _ = collect_state(proc)
        heap = next(b for b in proc.msrlt.blocks() if b.logical[0] == BlockKind.HEAP)
        logical = WriteBuffer()
        write_logical(logical, heap.logical)
        dest = Process(proc.program, SPARC20)
        with pytest.raises(RestoreError, match="trailing bytes"):
            restore_state(proc.program, payload + marker[:1] + logical.getvalue() + marker[1:], dest)

    def test_truncated_payload_rejected(self):
        proc = stop_at_poll(SHARED_GRAPH)
        payload, _ = collect_state(proc)
        dest = Process(proc.program, SPARC20)
        with pytest.raises(Exception):
            restore_state(proc.program, payload[: len(payload) // 2], dest)

    def test_bad_magic_rejected(self):
        proc = stop_at_poll(SHARED_GRAPH)
        payload, _ = collect_state(proc)
        dest = Process(proc.program, SPARC20)
        with pytest.raises(ValueError, match="magic"):
            restore_state(proc.program, b"XXXX" + payload[4:], dest)

    @pytest.mark.parametrize("flat", [True, False], ids=["flat", "struct"])
    def test_the_retired_flat_bit_is_refused(self, flat):
        """Flatness is structural — a function of the type, implied or
        spelled out — so the lead's bit 4 no longer says it: it says a
        heap serial follows, and on a global or stack record it is
        corrupt, flat type or not."""
        from repro.arch.buffers import ReadBuffer
        from repro.msr.restore import RestoreError, Restorer
        from tests.conftest import block_header

        proc = stop_at_poll(SHARED_GRAPH)
        is_flat = lambda b: proc.ti.info_for(b.elem_type).flat_kind is not None  # noqa: E731
        block = next(
            b for b in proc.msrlt.blocks()
            if is_flat(b) == flat and b.logical[0] != BlockKind.HEAP
        )
        type_id = proc.ti.info_for(block.elem_type).type_id
        header = block_header(block.logical, type_id, block.count)
        bit_four = bytes([header[0] | 0x10]) + header[1:]
        with pytest.raises(RestoreError, match="heap serial on a non-heap BLOCK"):
            Restorer(proc, ReadBuffer(bit_four + bytes(64))).restore_pointer()

    def test_a_bare_restore_pointer_reads_the_type(self):
        """Nothing implies the type of the record a bare
        ``Restore_pointer()`` reads: a ``BLOCK`` without one is refused."""
        from repro.arch.buffers import ReadBuffer
        from repro.msr.restore import RestoreError, Restorer
        from tests.conftest import assert_table_whole, block_header

        proc = stop_at_poll(SHARED_GRAPH)
        typeless = block_header((BlockKind.HEAP, 77, 0))
        with pytest.raises(RestoreError, match="leaves its type out where nothing implies"):
            Restorer(proc, ReadBuffer(typeless + bytes(64))).restore_pointer()
        assert_table_whole(proc)

    def test_payload_smaller_than_data_for_dedup(self):
        """With heavy sharing the wire carries REFs, not copies."""
        src = """
        struct fat { double pad[32]; int v; };
        struct fat *one;
        struct fat *copies[50];
        int main() {
            int i;
            one = (struct fat *) malloc(sizeof(struct fat));
            one->v = 42;
            for (i = 0; i < 50; i++) copies[i] = one;
            migrate_here();
            printf("%d", copies[49]->v);
            return 0;
        }
        """
        proc = stop_at_poll(src)
        payload, cinfo = collect_state(proc)
        # the fat block is ~264 bytes; 50 copies would be ~13 KB
        assert len(payload) < 2500
        dest = Process(proc.program, SPARC20)
        restore_state(proc.program, payload, dest)
        dest.run()
        assert dest.stdout == "42"

    def test_collect_stats_accounting(self):
        proc = stop_at_poll(SHARED_GRAPH)
        payload, cinfo = collect_state(proc)
        s = cinfo.stats
        assert s.wire_bytes == len(payload)
        assert s.n_blocks > 0
        assert s.data_bytes > 0


class TestRestoredHeapBlockSizes:
    """A restored heap block takes its size from the type record the
    restorer already holds: ``TypeLayout.sizeof`` (a structural walk of
    the type) runs per type while the records are read, not per block."""

    def test_sizeof_is_per_type_not_per_block(self, monkeypatch):
        from repro.clang.ctypes import TypeLayout

        proc = stop_at_poll(LIST_OF_200)
        payload, info = collect_state(proc)
        assert info.stats.n_blocks > 200
        dest = Process(proc.program, SPARC20)
        # every type of the program, each size agreeing with the layout's
        for type_id in range(len(proc.program.types)):
            record = dest.ti.info(type_id)
            assert record.size == dest.layout.sizeof(record.ctype)
        walks = []
        sizeof = TypeLayout.sizeof
        monkeypatch.setattr(
            TypeLayout, "sizeof", lambda self, ctype: walks.append(ctype) or sizeof(self, ctype)
        )
        restore_state(proc.program, payload, dest)
        assert len(dest.msrlt.heap_blocks()) == 200
        assert len(walks) < 20  # globals and locals registered at load time


LIST_OF_200 = """
struct item { int v; struct item *next; char tag; };
struct item *items;
int main() {
    int i;
    for (i = 0; i < 200; i++) {
        struct item *e = (struct item *) malloc(sizeof(struct item));
        e->v = i; e->tag = (char) (i % 100); e->next = items; items = e;
        if (i % 7 == 0) malloc(3);
    }
    migrate_here();
    return 0;
}
"""


class TestFreedBlocks:
    def test_freed_blocks_not_collected(self):
        src = """
        int *keep;
        int main() {
            int *tmp;
            int i;
            for (i = 0; i < 10; i++) {
                tmp = (int *) malloc(sizeof(int));
                free(tmp);
            }
            keep = (int *) malloc(sizeof(int));
            *keep = 11;
            tmp = NULL;
            migrate_here();
            printf("%d", *keep);
            return 0;
        }
        """
        proc = stop_at_poll(src)
        payload, cinfo = collect_state(proc)
        dest = Process(proc.program, SPARC20)
        rinfo = restore_state(proc.program, payload, dest)
        assert rinfo.stats.n_heap_allocs == 1  # only `keep` survives
        dest.run()
        assert dest.stdout == "11"

    def test_dangling_pointer_detected_at_collection(self):
        src = """
        int *dangling;
        int main() {
            dangling = (int *) malloc(sizeof(int));
            free(dangling);            /* migration-unsafe behaviour */
            migrate_here();
            return 0;
        }
        """
        proc = stop_at_poll(src)
        from repro.msr.msrlt import MSRLTError

        with pytest.raises(MSRLTError, match="dangling|not inside"):
            collect_state(proc)


#: three pointers whose declared target is not the type of the block they
#: reach, each the first to reach it (the pointer globals come first)
CAST_POINTERS = """
char *cp;
void *vp;
int *ip;
int n;
double d;
int eight[8];
int main() {
    int i;
    n = 66051; d = 2.5;
    for (i = 0; i < 8; i++) eight[i] = i * 11;
    cp = (char *) &n;
    vp = (void *) &d;
    ip = &eight[3];
    migrate_here();
    printf("%d %.1f %d %d", *(int *) cp, *(double *) vp, *ip, ip[-3] + ip[4]);
    return 0;
}
"""


class TestTypesTheContextDoesNotImply:
    """A ``BLOCK`` carries its type where the pointer that first reaches
    it declares another target: a ``char *`` at an ``int``, a ``void *``
    at a ``double``, an ``int *`` into an ``int [8]`` at ordinal 3."""

    def test_the_cast_targets_spell_out_their_types(self):
        proc = stop_at_poll(CAST_POINTERS)
        payload, _ = collect_state(proc)
        index = {g.name: i for i, g in enumerate(proc.program.globals)}
        for name, ordinal in (("n", 0), ("d", 0), ("eight", 3)):
            block = proc.msrlt.lookup_logical((BlockKind.GLOBAL, index[name], 0))
            type_id = proc.ti.info_for(block.elem_type).type_id
            spelled = block_header(block.logical, type_id, ordinal=ordinal)
            assert payload.count(spelled) == 1, name
            assert payload.count(block_header(block.logical, ordinal=ordinal)) == 0, name

    def test_a_cast_target_read_as_its_pointers_type_is_refused(self):
        """The ``int *`` into ``eight`` forged to leave the type out: the
        restorer takes the implied ``int`` and refuses it for a block
        that is an ``int [8]``."""
        from repro.msr.restore import RestoreError

        proc = stop_at_poll(CAST_POINTERS)
        payload, _ = collect_state(proc)
        index = [g.name for g in proc.program.globals].index("eight")
        eight = proc.msrlt.lookup_logical((BlockKind.GLOBAL, index, 0))
        type_id = proc.ti.info_for(eight.elem_type).type_id
        spelled = block_header(eight.logical, type_id, ordinal=3)
        forged = payload.replace(spelled, block_header(eight.logical, ordinal=3))
        dest = Process(proc.program, SPARC20)
        with pytest.raises(
            RestoreError, match=r"holds 1 x int, but the destination block is 1 x int \[8\]"
        ):
            restore_state(proc.program, bytes(forged), dest)

    @pytest.mark.parametrize(
        "pair", list(itertools.permutations(ALL_ARCHS, 2)),
        ids=lambda p: f"{p[0].name}-{p[1].name}",
    )
    def test_casts_round_trip_with_plans_on_and_off(self, pair):
        assert_plans_invisible(CAST_POINTERS, 1, *pair)
