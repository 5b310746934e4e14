"""A runnable, migratable simulated process.

A :class:`Process` binds a :class:`~repro.vm.program.CompiledProgram` to
one host architecture: simulated memory laid out per that architecture,
the MSRLT tracking its memory blocks, the TI table, and the interpreter
state (the frame stack).  This is the unit the migration engine collects
from and restores into.
"""

from __future__ import annotations

from typing import Optional

from repro.clang.ctypes import ArrayType, CType, UCHAR
from repro.msr.msrlt import MSRLT, BlockKind, MemoryBlock, MSRLTError
from repro.msr.ti import TITable
from repro.vm.builtins import RAND_STATE_GLOBAL
from repro.vm.compiler import kind_of
from repro.vm.interpreter import Frame, Interpreter, RunResult, VMError
from repro.vm.memory import Memory, MemoryFault

__all__ = ["GuestFault", "Process", "ProcessExit"]


class ProcessExit(Exception):
    """Raised by ``exit()``/``abort()`` inside the VM."""

    def __init__(self, code: int) -> None:
        super().__init__(f"process exited with code {code}")
        self.code = code


class GuestFault(Exception):
    """The program itself faulted while it ran (a wild or NULL access, a
    double ``free``, a division by zero, a stack overflow): its bug, not
    this one's.  Carries where — function, *pc*, source *line* — and the
    VM's own error as ``__cause__``."""

    def __init__(self, cause: Exception, func: str, pc: int, line: int) -> None:
        super().__init__(f"{cause} in {func}() at line {line} (pc {pc})")
        self.func = func
        self.pc = pc
        self.line = line


class Process:
    """One simulated process on one host architecture."""

    def __init__(self, program, arch, name: str = "proc") -> None:
        self.program = program
        self.arch = arch
        self.name = name
        self.image = program.for_arch(arch)
        self.layout = self.image.layout
        self.memory = Memory(arch)
        self.msrlt = MSRLT(self.layout)
        # the TI table is immutable per (program, arch): share it
        self.ti = program.ti_table(arch)
        # the hidden PRNG cell every compiled program has (rand/srand; a
        # uint, 4 bytes on every data model) and its codec, so that both
        # builtins read and write it in the segment window
        self._rand_addr = self.image.global_addrs[program.global_index(RAND_STATE_GLOBAL)]
        self._rand_unpack = self.memory._unpack["uint"][0]
        self._rand_pack = self.memory._pack["uint"][0]
        #: malloc's annotation memo: type id -> (element type, its size
        #: on this host).  Per process, as the size is per data model
        self._elements: dict[Optional[int], tuple[CType, int]] = {}
        self.frames: list[Frame] = []
        self._interp = Interpreter(self)
        self._stdout: list[str] = []
        self._loaded = False
        self.exited = False
        self.exit_code: Optional[int] = None
        # migration plumbing
        self.migration_pending = False
        self.migrate_at_poll: Optional[int] = None  # restrict to one poll id
        self.migrate_after_polls: Optional[int] = None  # fire on k-th match
        # counters (overhead experiment §4.3)
        self.steps = 0
        self.polls = 0
        self.mallocs = 0

    # -- loading -----------------------------------------------------------------

    def load(self) -> None:
        """Lay out and initialize globals; register their MSR blocks."""
        if self._loaded:
            return
        memory = self.memory
        layout = self.layout
        for idx, info in enumerate(self.program.globals):
            addr = self.image.global_addrs[idx]
            size = self.image.global_sizes[idx]
            memory.zero(addr, size)
            if info.init is not None:
                memory.store(kind_of(info.ctype), addr, info.init)
            elif info.init_list is not None:
                elem = info.ctype.elem  # type: ignore[union-attr]
                stride = layout.sizeof(elem)
                kind = kind_of(elem)
                for i, value in enumerate(info.init_list):
                    memory.store(kind, addr + i * stride, value)
            elif info.init_bytes is not None:
                memory.write_bytes(addr, info.init_bytes)
            self.msrlt.register_global(idx, addr, info.ctype, name=info.name)
        self._loaded = True

    def start(self) -> None:
        """Load and push the initial ``main`` frame."""
        self.load()
        if self.frames:
            raise VMError("process already started")
        self.push_frame(self.program.main_index)

    # -- execution -----------------------------------------------------------------

    def run(self, max_steps: Optional[int] = None) -> RunResult:
        """Run until exit, a triggered poll-point, or the step budget."""
        if self.exited:
            return RunResult(status="exit", exit_code=self.exit_code or 0)
        if not self.frames:
            self.start()
        try:
            result = self._interp.run(max_steps)
        except ProcessExit as exc:
            result = RunResult(status="exit", exit_code=exc.code)
        except (MemoryFault, MSRLTError, VMError) as exc:
            # the one place a fault of the guest's gets its name
            frame = self.frames[-1]
            fir = self.program.functions[frame.func_idx]
            raise GuestFault(exc, fir.name, frame.pc, fir.line_at(frame.pc)) from exc
        if result.status == "exit":
            self.exited = True
            self.exit_code = result.exit_code
            self.frames.clear()
        return result

    def run_to_completion(self) -> int:
        """Run to exit; raises if the process stops at a poll instead."""
        result = self.run()
        if result.status != "exit":
            raise VMError(f"process stopped with status {result.status!r}")
        return result.exit_code

    def push_frame(self, func_idx: int) -> Frame:
        """Create an activation record, all zeros, and make it the running
        frame (the interpreter's ``CALL`` stores the arguments into it)."""
        image = self.image.funcs[func_idx]
        saved_sp = self.memory.sp
        base = self.memory.stack_alloc(image.frame_size)
        # deterministic frames: uninitialized locals read as zero on every
        # host, so divergent garbage can never masquerade as working code
        self.memory.zero(base, image.frame_size)
        frame = Frame(func_idx, image, base, saved_sp)
        self.frames.append(frame)
        return frame

    def should_migrate_at(self, poll_id: int) -> bool:
        """Whether a pending migration request fires at this poll point.

        ``migrate_at_poll`` restricts firing to one poll-point id;
        ``migrate_after_polls = k`` fires on the k-th matching poll
        (both model the scheduler's request arriving mid-execution).
        """
        if self.migrate_at_poll is not None and poll_id != self.migrate_at_poll:
            return False
        if self.migrate_after_polls is not None:
            self.migrate_after_polls -= 1
            if self.migrate_after_polls > 0:
                return False
            self.migrate_after_polls = None
        return True

    # -- stdio --------------------------------------------------------------------------

    def write_stdout(self, text: str) -> None:
        """Append to the process's captured stdout (used by builtins)."""
        self._stdout.append(text)

    @property
    def stdout(self) -> str:
        """Everything the process printed so far."""
        return "".join(self._stdout)

    # -- heap (typed allocation feeding the MSRLT) ------------------------------------------

    def _heap_shape(self, nbytes: int, type_id: Optional[int]) -> tuple[CType, int, int]:
        """The MSR block a *nbytes* allocation annotated *type_id* is:
        ``(element type, count, size)``."""
        entry = self._elements.get(type_id)
        if entry is None:
            elem = UCHAR if type_id is None else self.program.type_by_id(type_id)
            entry = self._elements[type_id] = (elem, self.layout.sizeof(elem))
        elem, esize = entry
        if nbytes > 0 and nbytes % esize == 0:
            return elem, nbytes // esize, nbytes
        # size not a whole element multiple: fall back to a byte block
        nbytes = max(nbytes, 1)
        return UCHAR, nbytes, nbytes

    def typed_malloc(self, nbytes: int, type_id: Optional[int]) -> int:
        """``malloc`` with the pre-compiler's element-type annotation."""
        self.mallocs += 1
        elem, count, size = self._heap_shape(nbytes, type_id)
        addr = self.memory.heap_alloc(size)
        self.msrlt.register_heap(addr, elem, count, size)
        return addr

    def typed_free(self, addr: int) -> None:
        """``free``: unregister the MSR block and recycle the memory."""
        if addr == 0:
            return
        self.msrlt.unregister(addr)
        self.memory.heap_free(addr)

    def typed_realloc(self, addr: int, nbytes: int, type_id: Optional[int]) -> int:
        """``realloc`` with the pre-compiler's element-type annotation.

        C semantics: ``realloc(NULL, n)`` is ``malloc(n)``;
        ``realloc(p, 0)`` frees and returns NULL.  When *nbytes* fits
        strictly inside the existing allocation's stride (a block never
        reaches the next one's start) the block is resized in place
        (same address, re-registered in the MSRLT with the new element
        count); otherwise the contents move to a fresh allocation and
        the old one is freed — which may hand the *same* address back
        through the allocator's free list.
        """
        if addr == 0:
            return self.typed_malloc(nbytes, type_id)
        if nbytes <= 0:
            self.typed_free(addr)
            return 0
        old_size = self.memory.heap_size_of(addr)
        if nbytes < old_size:
            # in place: the padded capacity is retained, only the MSR
            # block's shape (element count) follows the new size
            self.msrlt.unregister(addr)
            self.msrlt.register_heap(addr, *self._heap_shape(nbytes, type_id))
            return addr
        new_addr = self.typed_malloc(nbytes, type_id)
        self.memory.write_bytes(
            new_addr, self.memory.read_bytes(addr, min(old_size, nbytes))
        )
        self.typed_free(addr)
        return new_addr

    # -- stack block registration (collection/restoration support) ----------------------------

    def register_stack_blocks(self) -> int:
        """Register every local variable of every frame as an MSR block,
        in one merge (:meth:`~repro.msr.msrlt.MSRLT.register_stack_bulk`),
        in place of whatever stack blocks a pass that failed left behind.

        Done lazily at migration time (not per call) so that ordinary
        execution pays no per-frame MSRLT cost — the design §4.3 argues
        for.  Returns the number of blocks registered.
        """
        functions = self.program.functions
        blocks = []
        for depth, frame in enumerate(self.frames):
            image, base = frame.image, frame.base
            for var_idx, (var, offset, size) in enumerate(
                zip(functions[frame.func_idx].norm.variables, image.var_offsets, image.var_sizes)
            ):
                blocks.append(MemoryBlock(
                    base + offset, var.ctype, 1, size, (BlockKind.STACK, depth, var_idx), var.name
                ))
        self.msrlt.drop_stack_blocks()
        self.msrlt.register_stack_bulk(blocks)
        return len(blocks)

    def create_restored_frame(self, func_idx: int, resume_pc: int) -> Frame:
        """Rebuild one activation record during restoration (outermost
        first); its locals are filled by the restorer afterwards."""
        frame = self.push_frame(func_idx)
        frame.pc = resume_pc
        return frame

    # -- PRNG state (lives in simulated memory; migrates) ---------------------------------------

    def get_rand_state(self) -> int:
        """Read the PRNG cell from simulated memory."""
        addr = self._rand_addr
        seg = self.memory.global_seg
        off = addr - seg.window_start
        if 0 <= off and off + 4 <= len(seg.buf):
            return self._rand_unpack(seg.buf, off)[0]
        return self.memory.load("uint", addr)

    def set_rand_state(self, value: int) -> None:
        """Write the PRNG cell in simulated memory (marked for the
        pre-copy write barrier when one is installed)."""
        memory = self.memory
        addr = self._rand_addr
        seg = memory.global_seg
        off = addr - seg.window_start
        if 0 <= off and off + 4 <= len(seg.buf):
            self._rand_pack(seg.buf, off, value)
            if memory.dirty is not None:
                memory.dirty.mark(addr, 4)
        else:
            memory.store("uint", addr, value)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Process {self.name} on {self.arch.name}, {len(self.frames)} frames>"
