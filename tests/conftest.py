"""Shared fixtures and helpers for the test suite."""

import struct
from contextlib import contextmanager
from pathlib import Path
from typing import Optional
from unittest import mock

import numpy as np
import pytest

from repro.arch import ALPHA, DEC5000, SPARC20, ULTRA5, X86, X86_64
from repro.clang.ctypes import type_key
from repro.migration import engine as engine_module
from repro.migration.engine import MigrationEngine, collect_state, restore_state
from repro.migration.transport import LOOPBACK, Channel
from repro.msr.msrlt import BlockKind, MemoryBlock
from repro.msr.restore import Restorer
from repro.msr.ti import TITable
from repro.msr.wire import (
    CHUNK_HEADER_SIZE,
    ChunkDecoder,
    FrameCorruptError,
    FrameOrderError,
    TruncatedFrameError,
    decode_chunk,
    encode_chunk,
    encode_end_of_stream,
)
from repro.vm.memory import Memory, host_kinds
from repro.vm.process import Process
from repro.vm.program import compile_program
from repro.workloads import (
    bitonic_source,
    hashtable_source,
    linpack_source,
    structgrid_source,
    test_pointer_source,
)

#: the paper's truly-heterogeneous pair (§4.1)
PAPER_PAIR = (DEC5000, SPARC20)
#: all preset architectures
ALL_ARCHS = (DEC5000, SPARC20, ULTRA5, ALPHA, X86, X86_64)


def run_c(source: str, arch=DEC5000, **compile_kwargs):
    """Compile and run *source* on *arch*; returns (exit_code, stdout)."""
    prog = compile_program(source, **compile_kwargs)
    proc = Process(prog, arch)
    code = proc.run_to_completion()
    return code, proc.stdout


def run_main(body: str, arch=DEC5000, prelude: str = "", **kwargs):
    """Wrap *body* in main() and run it; returns stdout."""
    source = f"{prelude}\nint main() {{ {body} return 0; }}\n"
    _, out = run_c(source, arch, **kwargs)
    return out


def expr_value(expr: str, decls: str = "", fmt: str = "%d", arch=DEC5000) -> str:
    """Evaluate a C expression and return its printf rendering."""
    out = run_main(f'{decls} printf("{fmt}", {expr});', arch=arch)
    return out


class FakeProgram:
    """Minimal program stub exposing the type registry interface."""

    def __init__(self, types):
        self.types = list(types)
        self._index = {type_key(t): i for i, t in enumerate(self.types)}

    def type_by_id(self, i):
        return self.types[i]

    def type_id(self, t):
        return self._index[type_key(t)]


def float_bits(proc, kind, gidx, count) -> list:
    """The bit patterns of the first *count* floats of *kind* in global
    *gidx* of *proc*, whatever its byte order."""
    dtype = host_kinds(proc.memory.arch).dtypes[kind]
    raw = proc.memory.view(proc.image.global_addrs[gidx], count * dtype.itemsize)
    return np.frombuffer(raw, dtype.str.replace("f", "u")).tolist()


def type_info(ctype, layout):
    """*ctype*'s :class:`~repro.msr.ti.TypeInfo` on *layout*'s
    architecture: the record the wire turns cell ordinals into bytes
    (and back) through."""
    return TITable(FakeProgram([ctype]), layout).info_for(ctype)


LONGLIST_C = (
    Path(__file__).resolve().parent.parent
    / "benchmarks" / "suite" / "programs" / "longlist.c"
)


def longlist_source(n: int, seed: int = 7) -> str:
    """The suite's irregular chain: *n* records, each owning a heap
    string of 1..13 characters allocated between two nodes."""
    return LONGLIST_C.read_text().replace("%N%", str(n)).replace("%SEED%", str(seed))


def stopped(prog, arch, polls: int = 1) -> Process:
    """Run compiled *prog* on *arch* up to its *polls*-th poll-point: a
    process ready to be collected."""
    proc = Process(prog, arch)
    proc.start()
    proc.migration_pending = True
    proc.migrate_after_polls = polls
    assert proc.run().status == "poll"
    return proc


def stopped_at(source: str, polls: int, arch) -> Process:
    """Compile *source* and :func:`stopped` it at its *polls*-th
    poll-point."""
    return stopped(compile_program(source, poll_strategy="user"), arch, polls)


@contextmanager
def plans_off(*procs):
    """Run the body with every block of *procs* going through the
    per-cell reference path — the oracle the compiled plans are checked
    against.  The TI table is shared per (program, arch), so this
    reaches every process of the same program on the same architecture;
    the switch is read when a Collector/Restorer is created."""
    for proc in procs:
        proc.ti.plans_enabled = False
    try:
        yield
    finally:
        for proc in procs:
            proc.ti.plans_enabled = True


def ref_record(logical, ordinal: int = 0) -> bytes:
    """A whole ``REF`` record, spelled out from the wire grammar (not
    through the collector's tables): lead = tag 1 | kind << 2, ``a``,
    ``b`` for a stack id only, ``ordinal``."""
    kind, a, b = logical
    ids = struct.pack(">II", a, b) if kind == BlockKind.STACK else struct.pack(">I", a)
    return bytes([1 | kind << 2]) + ids + struct.pack(">I", ordinal)


def block_header(logical, type_id: Optional[int] = None, count: int = 1,
                 ordinal: int = 0, last: Optional[int] = -1,
                 escape: bool = False) -> bytes:
    """A ``BLOCK`` record up to its contents, spelled out from the wire
    grammar: lead = tag 2 | kind << 2 | "heap serial's step follows" 0x10
    | "count follows" 0x20 | "ordinal follows" 0x40 | "type_id follows"
    0x80; the u32 ``a`` of a global or stack id and the u32 ``b`` of a
    stack id.  A heap id's serial ``a`` travels as its i16 step from
    *last* — the serial of the heap BLOCK before it in the payload, -1
    for the first — or, where the step does not fit an i16 or with
    *escape*, as the step 0 and the u32 serial; with *last* ``None`` it
    is left out (the serial is the one the walk implies).  Then the u16
    ``type_id`` unless it is ``None`` (the type the record's context
    implies), the count unless it is 1 and the ordinal unless it is 0."""
    kind, a, b = logical
    lead = 2 | kind << 2
    if kind == BlockKind.STACK:
        out = struct.pack(">II", a, b)
    elif kind != BlockKind.HEAP:
        out = struct.pack(">I", a)
    elif last is None:
        out = b""
    else:
        lead |= 0x10
        step = a - last
        if escape or not -0x8000 <= step <= 0x7FFF:
            out = struct.pack(">hI", 0, a)
        else:
            out = struct.pack(">h", step)
    if type_id is not None:
        lead |= 0x80
        out += struct.pack(">H", type_id)
    if count != 1:
        lead |= 0x20
        out += struct.pack(">I", count)
    if ordinal:
        lead |= 0x40
        out += struct.pack(">I", ordinal)
    return bytes([lead]) + out


def spelled_out(header: bytes, bit: int, value: int) -> bytes:
    """*header* (a canonical :func:`block_header`) forged to carry one
    more u32 field behind it, its presence *bit* set in the lead: how a
    record comes to spell out a count of 1 or an ordinal of 0."""
    return bytes([header[0] | bit]) + header[1:] + value.to_bytes(4, "big")


def table_state(table) -> tuple:
    """What registrations leave behind in an MSRLT, for comparing two."""
    return (
        table._starts, table._blocks, table._by_logical,
        table._heap_serial, table.n_registrations,
    )


def register_stack(table, depth: int, var: int, addr: int, ctype, name: str = ""):
    """One local registered as a collection registers every local (one
    :meth:`~repro.msr.msrlt.MSRLT.register_stack_bulk` merge); the
    block."""
    block = MemoryBlock(
        addr, ctype, 1, table.layout.sizeof(ctype), (BlockKind.STACK, depth, var), name
    )
    table.register_stack_bulk([block])
    return block


def assert_no_abut(table) -> None:
    """No block of *table* starts where the one below it ends, let alone
    before: an address names one block."""
    _, blocks = table.sorted_index
    for low, high in zip(blocks, blocks[1:]):
        assert low.end < high.addr, f"{low} reaches {high}"


def assert_table_whole(proc) -> None:
    """The MSRLT's three indexes agree with each other and with the heap
    ledger — what every restoration walk owes the table however it
    ended, since its heap blocks are registered in bulk when it does."""
    table = proc.msrlt
    assert table._starts == [b.addr for b in table._blocks]
    assert_no_abut(table)
    assert table._by_logical == {b.logical: b for b in table._blocks}
    assert {b.addr for b in table.heap_blocks()} == set(proc.memory.heap_allocs)
    assert sorted(map(id, table._stack)) == sorted(
        id(b) for b in table._blocks if b.logical[0] == BlockKind.STACK
    )


def allocator_twin(memory) -> Memory:
    """A fresh memory whose heap allocator stands where *memory*'s does
    (brk and free lists): what ``heap_alloc`` would hand out next."""
    twin = Memory(memory.arch)
    twin._heap_brk = memory._heap_brk
    twin._free = {size: list(addrs) for size, addrs in memory._free.items()}
    twin.heap_allocs = dict(memory.heap_allocs)
    return twin


def restore_replayed(prog, payload, dest, held=None):
    """``restore_state`` under the allocation contract: every heap block
    the pass creates sits at the address a replay of ``Memory.heap_alloc``
    over the blocks in record order assigns (a restorer's mapping fills
    in record order), and the table ends whole.  *held*: what a
    pre-warmed *dest* holds, the final pass's mapping."""
    replay = allocator_twin(dest.memory)
    passes = []

    class Noted(Restorer):
        def __init__(self, *args):
            super().__init__(*args)
            passes.append((self, set(self._mapping)))

    with mock.patch.object(engine_module, "Restorer", Noted):
        info = restore_state(prog, payload, dest, held)
    ((rest, held),) = passes
    created = [
        block for logical, block in rest._mapping.items()
        if logical[0] == BlockKind.HEAP and logical not in held
    ]
    assert len(created) == info.stats.n_heap_allocs
    for block in created:
        assert replay.heap_alloc(block.size) == block.addr, block
    assert_table_whole(dest)
    return info


#: the four orthogonal transfer-mode switches of ``migrate()``; every
#: subset of them is a mode (a small fixed chunk size, so that streamed
#: payloads really are cut)
MODE_AXES = {
    "stream": dict(streaming=True, chunk_size=64),
    "compress": dict(compress=True),
    "precopy": dict(precopy=True),
    "attribution": dict(attribution=True),
}


#: the plans-on/off identity matrix: name -> (source, poll to stop at)
PLAN_WORKLOADS = {
    "structgrid": (structgrid_source(64, 24), 12),
    "linpack": (linpack_source(48), 1),
    "bitonic": (bitonic_source(96), 24),
    "hashtable": (hashtable_source(120), 60),
    "test_pointer": (test_pointer_source(), 30),
}


#: the architecture pairs the matrix runs on: endianness flip,
#: word-size change, and a same-layout control
PLAN_ARCH_PAIRS = [(ULTRA5, DEC5000), (SPARC20, ALPHA), (DEC5000, X86)]


def assert_plans_invisible(source: str, polls: int, src_arch, dst_arch) -> None:
    """THE plans-on vs plans-off identity check: the collected payload
    is byte-identical with the plans on and with every block on the
    per-cell oracle; either payload restores through either restorer,
    to the heap addresses block-by-block ``malloc`` would assign, and
    leaves the same bytes in every block (a restored pointer included:
    both destinations hand out the same addresses); and the restored
    process resumes to the unmigrated output."""
    proc = stopped_at(source, polls, src_arch)
    prog = proc.program
    expected = Process(prog, src_arch)
    expected.run_to_completion()

    with plans_off(proc):
        oracle, _ = collect_state(proc)
    planned, _ = collect_state(proc)
    assert planned == oracle

    dest = Process(prog, dst_arch)
    with plans_off(dest):
        restore_replayed(prog, planned, dest)  # plan-written, oracle-read
    twin = Process(prog, dst_arch)
    restore_replayed(prog, oracle, twin)  # oracle-written, plan-read
    assert [(b.logical, b.addr) for b in twin.msrlt.blocks()] == [
        (b.logical, b.addr) for b in dest.msrlt.blocks()
    ]
    for block in dest.msrlt.blocks():
        image = dest.memory.read_bytes(block.addr, block.size)
        assert twin.memory.read_bytes(block.addr, block.size) == image, block
    for restored in (dest, twin):
        assert restored.run().status == "exit"
        assert restored.stdout == expected.stdout


class FrameCodecCases:
    """The chunk stream's damage matrix, written once and run per reader
    of one: a subclass says how its stream is received (:meth:`read`,
    frames in, the payload they carry out) and may say what a refusal
    looks like there (:meth:`refused`) — the codec's own decoder in
    ``test_streaming.py::TestChunkWire``, a socket that a pre-copy round
    crosses in ``test_precopy.py::TestDeltaWire``, a checkpoint file in
    ``test_checkpoint.py::TestCheckpointFile``.  One encoder, one
    validator and one sequence-checking decoder serve all three."""

    #: what the stream carries (a reader that restores it needs a real
    #: migration payload)
    payload = b"hello, framed world"

    def read(self, frames: list) -> bytes:
        raise NotImplementedError

    def refused(self, error, match=None):
        """The context a damaged stream must fail in: the wire's typed
        *error* itself, unless the reader answers with its own."""
        return pytest.raises(error, match=match)

    def halves(self) -> tuple:
        cut = len(self.payload) // 2
        return self.payload[:cut], self.payload[cut:]

    def test_roundtrip(self):
        frame = encode_chunk(0, self.payload)
        assert frame[:4] == b"MCHK" and frame[CHUNK_HEADER_SIZE:] == self.payload
        head, tail = self.halves()
        frames = [encode_chunk(0, head), encode_chunk(1, tail), encode_end_of_stream(2)]
        assert self.read(frames) == self.payload

    def test_end_of_round_frame(self):
        seq, payload = decode_chunk(encode_end_of_stream(3))
        assert seq == 3 and payload == b""
        nonzero_crc = bytearray(encode_end_of_stream(1))
        nonzero_crc[-1] = 1
        with self.refused(FrameCorruptError):
            self.read([encode_chunk(0, self.payload), bytes(nonzero_crc)])

    def test_crc_damage_detected(self):
        frame = encode_chunk(0, self.payload)
        for byte in (len(frame) - 1, CHUNK_HEADER_SIZE, CHUNK_HEADER_SIZE - 1):
            flipped = bytearray(frame)
            flipped[byte] ^= 0xFF
            with self.refused(FrameCorruptError):
                self.read([bytes(flipped), encode_end_of_stream(1)])

    def test_truncation_detected(self):
        frame = encode_chunk(0, self.payload)
        for cut in (1, 6, len(frame) - 3):
            with self.refused(TruncatedFrameError):
                self.read([frame[:-cut]])

    def test_empty_payload_rejected(self):
        with pytest.raises(ValueError):
            encode_chunk(0, b"")

    def test_decoder_orders_frames(self):
        head, tail = self.halves()
        # a sequence gap (a reordered or lost frame) is a typed protocol error
        with self.refused(FrameOrderError, "expected 1, got 2"):
            self.read([encode_chunk(0, head), encode_chunk(2, tail), encode_end_of_stream(3)])

    def test_duplicate_frame_rejected(self):
        head, _ = self.halves()
        with self.refused(FrameOrderError, "expected 1, got 0"):
            self.read([encode_chunk(0, head), encode_chunk(0, head), encode_end_of_stream(1)])

    def test_decoder_finishes_on_terminator(self):
        dec = ChunkDecoder()
        dec.decode(encode_chunk(0, b"x"))
        assert dec.decode(encode_end_of_stream(1)) is None
        assert dec.finished
        with pytest.raises(FrameOrderError, match="after end-of-stream"):
            dec.decode(encode_chunk(0, b"y"))

    def test_unknown_magic_is_refused(self):
        """Every frame is a chunk or a terminator: a frame under any other
        magic (here the bare payload's ``'MIGR'``) is damage."""
        foreign = b"MIGR" + encode_chunk(0, self.payload)[4:]
        with self.refused(FrameCorruptError, "magic"):
            self.read([foreign, encode_end_of_stream(1)])


def tap_frames(channel) -> list:
    """Record every frame *channel*'s receive side hands up, in order
    (``recv`` is the one door all frame kinds come through, on every
    channel)."""
    frames, recv = [], channel.recv

    def tap():
        frames.append(recv())
        return frames[-1]

    channel.recv = tap
    return frames


class RecordingChannel(Channel):
    """An in-memory channel that keeps a copy of everything sent."""

    def __init__(self) -> None:
        super().__init__(LOOPBACK)
        self.sent = []

    def send(self, payload) -> float:
        self.sent.append(bytes(payload))
        return super().send(payload)


def precopy_wire(prog, src_arch, dst_arch, policy, polls: int = 1):
    """One pre-copy migration of *prog* from its *polls*-th poll-point:
    ``(every frame sent, the destination — not yet resumed —, stats)``.
    Run it once with the plans on and once under :func:`plans_off` and
    the frames — every delta round and the final stream — must be equal."""
    channel = RecordingChannel()
    dest, stats = MigrationEngine().migrate(
        stopped(prog, src_arch, polls), dst_arch,
        channel=channel, precopy=True, precopy_policy=policy,
    )
    assert stats.precopy and not stats.precopy_degraded
    return channel.sent, dest, stats


@pytest.fixture
def compile_and_run():
    return run_c


def cli_exit(argv, capsys) -> tuple:
    """Run ``repro`` on *argv*, expecting it to refuse: returns the exit
    code and the one stderr line (``main()`` is the only place an error
    becomes either), and holds the no-traceback rule."""
    from repro.cli import main

    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = err.splitlines() or [""]
    return exc.value.code, line
