"""Property-based tests (hypothesis) on the core invariants.

The headline property: **any** heap pointer graph — arbitrary shape,
sharing, cycles, NULLs — survives collection on one architecture and
restoration on another with its structure and contents intact.  Graphs
are built directly through the process's typed-malloc interface, so the
space explored is much larger than what the C workloads construct.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import ALPHA, DEC5000, SPARC20, X86
from repro.clang.ctypes import ArrayType, StructType, TypeLayout
from repro.clang.ctypes import CHAR, DOUBLE, FLOAT, INT, LONG, PointerType, SHORT, UCHAR
from repro.migration.engine import collect_state, restore_state
from repro.msr.msrlt import BlockKind
from repro.vm.process import Process
from repro.vm.program import compile_program
from tests.conftest import type_info

GRAPH_PROGRAM = """
struct cell { int tag; struct cell *a; struct cell *b; };
struct cell *roots[8];
int main() {
    /* the graph is installed by the test harness before this poll */
    roots[0] = (struct cell *) malloc(sizeof(struct cell));
    roots[0]->tag = 0; roots[0]->a = NULL; roots[0]->b = NULL;
    migrate_here();
    return 0;
}
"""

_PROG = compile_program(GRAPH_PROGRAM, poll_strategy="user")
_CELL = _PROG.unit.structs["cell"]
_CELL_TID = _PROG.type_id(_CELL)


def _field(proc, addr, name):
    return addr + proc.layout.field_offset(_CELL, name)


def _stopped_process(arch):
    proc = Process(_PROG, arch)
    proc.start()
    proc.migration_pending = True
    result = proc.run()
    assert result.status == "poll"
    return proc


def _install_graph(proc, nodes, root_assign):
    """Materialize *nodes* (tag, a_idx|None, b_idx|None) in the heap."""
    size = proc.layout.sizeof(_CELL)
    addrs = [proc.typed_malloc(size, _CELL_TID) for _ in nodes]
    for addr, (tag, a_idx, b_idx) in zip(addrs, nodes):
        proc.memory.store("int", _field(proc, addr, "tag"), tag)
        proc.memory.store("ptr", _field(proc, addr, "a"), addrs[a_idx] if a_idx is not None else 0)
        proc.memory.store("ptr", _field(proc, addr, "b"), addrs[b_idx] if b_idx is not None else 0)
    gidx = _PROG.global_index("roots")
    base = proc.image.global_addrs[gidx]
    psize = proc.arch.ptr_size
    for slot in range(8):
        target = root_assign.get(slot)
        proc.memory.store("ptr", base + slot * psize, addrs[target] if target is not None else 0)
    return addrs


def _read_graph(proc):
    """Canonical structure: walk from roots, numbering nodes in discovery
    order; returns (per-root node number, [(tag, a_num, b_num), ...])."""
    gidx = _PROG.global_index("roots")
    base = proc.image.global_addrs[gidx]
    psize = proc.arch.ptr_size
    numbering: dict[int, int] = {}
    out: list[list] = []

    def visit(addr):
        if addr == 0:
            return None
        if addr in numbering:
            return numbering[addr]
        num = len(out)
        numbering[addr] = num
        out.append(None)
        tag = proc.memory.load("int", _field(proc, addr, "tag"))
        a = visit(proc.memory.load("ptr", _field(proc, addr, "a")))
        b = visit(proc.memory.load("ptr", _field(proc, addr, "b")))
        out[num] = (tag, a, b)
        return num

    root_nums = [visit(proc.memory.load("ptr", base + i * psize)) for i in range(8)]
    return root_nums, out


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    nodes = []
    for _i in range(n):
        tag = draw(st.integers(min_value=-(2**31), max_value=2**31 - 1))
        a = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=n - 1)))
        b = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=n - 1)))
        nodes.append((tag, a, b))
    root_slots = draw(
        st.dictionaries(
            st.integers(min_value=0, max_value=7),
            st.integers(min_value=0, max_value=n - 1),
            max_size=8,
        )
    )
    return nodes, root_slots


class TestGraphRoundtripProperty:
    @settings(max_examples=40, deadline=None)
    @given(graphs(), st.sampled_from([SPARC20, ALPHA, X86]))
    def test_arbitrary_graph_survives_migration(self, graph, dest_arch):
        nodes, root_slots = graph
        src = _stopped_process(DEC5000)
        _install_graph(src, nodes, root_slots)
        before = _read_graph(src)

        payload, _ = collect_state(src)
        dest = Process(_PROG, dest_arch)
        restore_state(_PROG, payload, dest)
        after = _read_graph(dest)

        assert after == before

    @settings(max_examples=15, deadline=None)
    @given(graphs())
    def test_sharing_collapses_to_refs(self, graph):
        """Blocks reachable through multiple paths are transferred once."""
        nodes, root_slots = graph
        src = _stopped_process(DEC5000)
        addrs = _install_graph(src, nodes, root_slots)
        payload, cinfo = collect_state(src)
        # reachable set from the roots
        root_nums, canon = _read_graph(src)
        reachable = len(canon)
        # blocks on the wire: reachable heap nodes + the bootstrap node
        # (if unreachable it is garbage... it is reachable via roots[0]
        # only if root_slots kept it; count <= distinct reachable + extras)
        assert cinfo.stats.n_blocks <= reachable + len(_PROG.globals) + 8


class TestLayoutProperties:
    PRIMS = [CHAR, UCHAR, SHORT, INT, LONG, FLOAT, DOUBLE]

    @st.composite
    def types(draw, self=None):
        prims = [CHAR, UCHAR, SHORT, INT, LONG, FLOAT, DOUBLE]
        base = draw(st.sampled_from(prims))
        depth = draw(st.integers(min_value=0, max_value=2))
        t = base
        for _ in range(depth):
            choice = draw(st.integers(min_value=0, max_value=1))
            if choice == 0:
                t = ArrayType(t, draw(st.integers(min_value=1, max_value=5)))
            else:
                t = PointerType(t)
        return t

    @settings(max_examples=60, deadline=None)
    @given(st.lists(types(), min_size=1, max_size=6), st.sampled_from([DEC5000, ALPHA, X86]))
    def test_struct_layout_invariants(self, field_types, arch):
        """For any struct: fields are in order, non-overlapping, aligned,
        and the flattened cell ordinals roundtrip through byte offsets."""
        import itertools

        tag = f"prop_{abs(hash((tuple(map(str, field_types)), arch.name)))}"
        stype = StructType(tag, [(f"f{i}", t) for i, t in enumerate(field_types)])
        lay = TypeLayout(arch)
        offsets = [lay.field_offset(stype, f"f{i}") for i in range(len(field_types))]
        sizes = [lay.sizeof(t) for t in field_types]
        # ordered and non-overlapping
        for (o1, s1), o2 in zip(zip(offsets, sizes), offsets[1:]):
            assert o1 + s1 <= o2
        # aligned
        for off, t in zip(offsets, field_types):
            assert off % lay.alignof(t) == 0
        # total size fits and is alignment-padded
        assert offsets[-1] + sizes[-1] <= lay.sizeof(stype)
        assert lay.sizeof(stype) % lay.alignof(stype) == 0
        # ordinal <-> byte roundtrip over every cell
        info = type_info(stype, lay)
        for ordinal in range(info.cells_in(1)):
            byte = info.ordinal_to_byte(ordinal, 1)
            assert info.byte_to_ordinal(byte, 1) == ordinal

    @settings(max_examples=60, deadline=None)
    @given(types(), st.sampled_from([DEC5000, SPARC20, ALPHA, X86]))
    def test_cell_sequence_arch_independent(self, ctype, arch):
        ref = TypeLayout(DEC5000)
        lay = TypeLayout(arch)
        assert [c.kind for c in ref.cells(ctype)] == [c.kind for c in lay.cells(ctype)]


class TestMemoryValueProperty:
    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(["char", "uchar", "short", "ushort", "int", "uint",
                         "long", "ulong", "llong", "ullong"]),
        st.integers(min_value=-(2**63), max_value=2**64 - 1),
        st.sampled_from([DEC5000, SPARC20, ALPHA]),
    )
    def test_store_load_is_c_narrowing(self, kind, value, arch):
        """store(kind, v); load(kind) == v mod 2^width, sign-adjusted."""
        from repro.vm.memory import Memory

        mem = Memory(arch)
        addr = mem.heap_alloc(16)
        mem.store(kind, addr, value)
        got = mem.load(kind, addr)
        bits = arch.bit_width(kind)
        expect = value & ((1 << bits) - 1)
        if arch.is_signed(kind) and expect >= 1 << (bits - 1):
            expect -= 1 << bits
        assert got == expect


class TestFaultResilienceProperty:
    """Random programs × random fault plans: a migration either succeeds
    with output-identical state, or fails with a typed error leaving the
    destination unmodified and the source runnable — never silent
    corruption."""

    @staticmethod
    def _random_program(values):
        init = ", ".join(str(v) for v in values)
        src = f"""
        int data[{len(values)}] = {{{init}}};
        int main() {{
            int i; int acc = 0;
            for (i = 0; i < {len(values)}; i++) {{
                migrate_here();
                acc = acc * 3 + data[i];
            }}
            printf("%d", acc);
            return 0;
        }}
        """
        return compile_program(src, poll_strategy="user")

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=10),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=3),
        st.booleans(),
        st.sampled_from([SPARC20, ALPHA, X86]),
    )
    def test_faults_never_silently_corrupt(
        self, values, seed, n_faults, streaming, dest_arch
    ):
        from repro.migration.engine import MigrationEngine, MigrationError
        from repro.migration.transport import Channel, FaultPlan, FaultyChannel, LOOPBACK

        prog = self._random_program(values)
        base = Process(prog, DEC5000)
        base.run_to_completion()

        proc = Process(prog, DEC5000)
        proc.start()
        proc.migration_pending = True
        assert proc.run().status == "poll"
        waiting = Process(prog, dest_arch)
        waiting.load()

        plan = FaultPlan.seeded(seed, n_faults=n_faults, max_index=6)
        channel = FaultyChannel(Channel(LOOPBACK), plan)
        engine = MigrationEngine()
        try:
            dest, _ = engine.migrate(
                proc, dest_arch, channel=channel, waiting=waiting,
                streaming=streaming, chunk_size=96,
            )
        except MigrationError:
            # typed failure: destination untouched, source still runnable
            assert not waiting.frames and not waiting.exited
            assert proc.frames and not proc.exited
            proc.migration_pending = False
            proc.run()
            assert proc.stdout == base.stdout
        else:
            dest.run()
            assert dest.stdout == base.stdout

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=8),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=3),
        st.booleans(),
    )
    def test_transient_plans_always_cured_by_enough_retries(
        self, values, seed, n_faults, streaming
    ):
        """Each failing attempt consumes at least one transient fault, so
        ``n_faults + 1`` attempts always suffice."""
        from repro.migration.engine import MigrationEngine, RetryPolicy
        from repro.migration.transport import Channel, FaultPlan, FaultyChannel, LOOPBACK

        prog = self._random_program(values)
        base = Process(prog, DEC5000)
        base.run_to_completion()

        proc = Process(prog, DEC5000)
        proc.start()
        proc.migration_pending = True
        assert proc.run().status == "poll"

        plan = FaultPlan.seeded(seed, n_faults=n_faults, max_index=6)
        channel = FaultyChannel(Channel(LOOPBACK), plan)
        dest, stats = MigrationEngine().migrate(
            proc, SPARC20, channel=channel, streaming=streaming, chunk_size=96,
            retry=RetryPolicy(max_attempts=n_faults + 1, sleep=lambda _s: None),
        )
        dest.run()
        assert dest.stdout == base.stdout
        assert stats.attempts <= n_faults + 1


class TestExecutionDeterminismProperty:
    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=12),
        st.integers(min_value=1, max_value=6),
    )
    def test_migration_point_never_changes_output(self, values, k):
        """For a random-data program, migrating at a random poll yields
        the same output as not migrating at all."""
        init = ", ".join(str(v) for v in values)
        src = f"""
        int data[{len(values)}] = {{{init}}};
        int main() {{
            int i; int acc = 0;
            for (i = 0; i < {len(values)}; i++) {{
                migrate_here();
                acc = acc * 3 + data[i];
            }}
            printf("%d", acc);
            return 0;
        }}
        """
        prog = compile_program(src, poll_strategy="user")
        base = Process(prog, DEC5000)
        base.run_to_completion()

        proc = Process(prog, DEC5000)
        proc.start()
        proc.migration_pending = True
        proc.migrate_after_polls = min(k, len(values))
        assert proc.run().status == "poll"
        payload, _ = collect_state(proc)
        dest = Process(prog, SPARC20)
        restore_state(prog, payload, dest)
        dest.run()
        assert dest.stdout == base.stdout
