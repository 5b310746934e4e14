"""Compiled programs and their per-architecture specialization.

A :class:`CompiledProgram` is architecture-neutral: functions as neutral
IR, the global table, the type registry (shared type ids — the wire format
carries these), the poll-point registry, and per-function liveness tables.
Because compilation is deterministic, compiling the same source on two
hosts yields identical neutral programs; in the migration environment the
*same* object simply plays the role of "the annotated source compiled on
every machine".

:meth:`CompiledProgram.for_arch` produces an :class:`ArchImage` — the
"executable" for one host: concrete frame layouts, global addresses, and
specialized instruction operands.  Specialization never changes the
number or order of instructions (see :mod:`repro.vm.ir`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.liveness import compute_liveness
from repro.analysis.pollpoints import PollStrategy, insert_poll_points
from repro.clang import cast as A
from repro.clang.ctypes import (
    ArrayType,
    CHAR,
    CType,
    PointerType,
    TypeLayout,
    UINT,
    VoidType,
    type_key,
)
from repro.clang.parser import const_value, parse
from repro.clang.unsafe import check_migration_safety
from repro.vm.builtins import BUILTIN_INDEX, BUILTIN_SIGS, BUILTINS, RAND_STATE_GLOBAL
from repro.vm.compiler import CompileError, FuncIR, GlobalInfo, IRGen, kind_of
from repro.vm.ir import Instr, Op
from repro.vm.normalize import normalize_function
from repro.vm.typecheck import TypeChecker

__all__ = ["CompiledProgram", "ArchImage", "FuncImage", "compile_program"]


@dataclass
class FuncImage:
    """One function specialized for one architecture."""

    name: str
    code: list[Instr]
    frame_size: int
    var_offsets: list[int]
    #: each local's byte size on this arch (its MSR block's size)
    var_sizes: list[int]
    var_kinds: list[Optional[str]]  # scalar kind, or None for aggregates
    nparams: int


@dataclass
class ArchImage:
    """A program specialized for one architecture."""

    arch: object
    layout: TypeLayout
    funcs: list[FuncImage]
    #: absolute address of each global
    global_addrs: list[int]
    #: byte size of each global on this arch
    global_sizes: list[int]


class CompiledProgram:
    """A migratable program: neutral IR + shared tables."""

    def __init__(self, unit: A.TranslationUnit, source: str) -> None:
        self.unit = unit
        self.source = source
        self.functions: list[FuncIR] = []
        self._func_index: dict[str, int] = {}
        self._func_ret: dict[str, CType] = {}
        self.globals: list[GlobalInfo] = []
        self._global_index: dict[str, int] = {}
        self._strings: dict[str, int] = {}
        self.types: list[CType] = []
        self._type_index: dict[tuple, int] = {}
        self.n_polls = 0
        #: unsafe-feature findings (empty when compiled strict)
        self.safety_findings = []
        self._images: dict[str, ArchImage] = {}

    # -- registration API used by IRGen ------------------------------------------

    def func_index(self, name: str) -> Optional[int]:
        """Index of user function *name*, or None (then try builtins)."""
        return self._func_index.get(name)

    def function_ret(self, name: str) -> CType:
        """Declared return type of user function *name*."""
        return self._func_ret[name]

    def global_index(self, name: str) -> Optional[int]:
        """Index of global *name*, or None if not a global."""
        return self._global_index.get(name)

    def global_ctype(self, idx: int) -> CType:
        """Declared type of global *idx*."""
        return self.globals[idx].ctype

    def builtin_index(self, name: str) -> Optional[int]:
        """CALLB index of builtin *name*, or None."""
        return BUILTIN_INDEX.get(name)

    def builtin_ret(self, name: str) -> CType:
        """Return type of builtin *name*."""
        return BUILTIN_SIGS[name].ret

    def register_type(self, ctype: CType) -> int:
        key = type_key(ctype)
        idx = self._type_index.get(key)
        if idx is None:
            idx = len(self.types)
            self.types.append(ctype)
            self._type_index[key] = idx
            # register subterms too, so every type reachable from a block
            # (struct fields, array elements, pointee types) has an id the
            # wire can carry; self-referential structs terminate because
            # the parent is indexed before recursing
            if isinstance(ctype, PointerType) and not isinstance(ctype.target, VoidType):
                self.register_type(ctype.target)
            elif isinstance(ctype, ArrayType):
                self.register_type(ctype.elem)
            else:
                from repro.clang.ctypes import StructType

                if isinstance(ctype, StructType) and ctype.is_complete:
                    for _fname, ftype in ctype.fields:
                        self.register_type(ftype)
        return idx

    def register_ptr_elem(self, elem: CType) -> CType:
        """Neutral PTRADD/PTRDIFF operand (registered for the TI table)."""
        if not isinstance(elem, VoidType):
            self.register_type(elem)
        return elem

    def intern_string(self, text: str) -> int:
        """Global index of the interned string literal *text*."""
        idx = self._strings.get(text)
        if idx is not None:
            return idx
        data = text.encode("utf-8") + b"\0"
        name = f"__str_{len(self._strings)}"
        gidx = self._add_global(
            GlobalInfo(
                name=name,
                ctype=ArrayType(CHAR, len(data)),
                init_bytes=data,
                is_string=True,
            )
        )
        self._strings[text] = gidx
        return gidx

    def next_poll_id(self) -> int:
        """Allocate the next program-wide poll-point id."""
        pid = self.n_polls
        self.n_polls += 1
        return pid

    def _add_global(self, info: GlobalInfo) -> int:
        idx = len(self.globals)
        self.globals.append(info)
        self._global_index[info.name] = idx
        self.register_type(info.ctype)
        return idx

    # -- lookups used by the runtime ------------------------------------------------

    def type_by_id(self, type_id: int) -> CType:
        """The type registered under wire id *type_id*."""
        return self.types[type_id]

    def type_id(self, ctype: CType) -> int:
        """Wire id of *ctype* (must have been registered at compile time)."""
        return self._type_index[type_key(ctype)]

    def function(self, name: str) -> FuncIR:
        """Compiled IR of function *name*."""
        return self.functions[self._func_index[name]]

    @property
    def main_index(self) -> int:
        """Index of ``main`` (raises if the program has none)."""
        idx = self._func_index.get("main")
        if idx is None:
            raise CompileError("program has no main()")
        return idx

    #: resume-time live variables: (func index, resume pc) -> var indices
    def live_at(self, func_idx: int, resume_pc: int) -> tuple[int, ...]:
        """Ordered live variable indices at a resume pc (poll/call + 1)."""
        fir = self.functions[func_idx]
        assert fir.liveness is not None
        return fir.liveness.resume_live.get(resume_pc, ())

    # -- specialization ---------------------------------------------------------------

    def for_arch(self, arch) -> ArchImage:
        """The executable image of this program for *arch* (cached)."""
        image = self._images.get(arch.name)
        if image is None:
            image = self._specialize(arch)
            self._images[arch.name] = image
        return image

    def ti_table(self, arch):
        """The shared TI table for *arch* (paper: linked into the
        executable together with the saving/restoring functions)."""
        from repro.msr.ti import TITable

        image = self.for_arch(arch)
        if not hasattr(image, "ti"):
            image.ti = TITable(self, image.layout)
        return image.ti

    def _specialize(self, arch) -> ArchImage:
        layout = TypeLayout(arch)

        # global addresses: declaration order, aligned, and one byte that
        # belongs to no block after each (DESIGN §2: blocks never abut)
        addr = arch.global_base
        global_addrs: list[int] = []
        global_sizes: list[int] = []
        for info in self.globals:
            size = layout.sizeof(info.ctype)
            align = layout.alignof(info.ctype)
            addr = _align_up(addr, align)
            global_addrs.append(addr)
            global_sizes.append(size)
            addr += size + 1

        funcs: list[FuncImage] = []
        for fir in self.functions:
            funcs.append(self._specialize_func(fir, layout, global_addrs, arch))
        return ArchImage(
            arch=arch,
            layout=layout,
            funcs=funcs,
            global_addrs=global_addrs,
            global_sizes=global_sizes,
        )

    def _specialize_func(self, fir: FuncIR, layout: TypeLayout, gaddrs, arch) -> FuncImage:
        # frame layout: declaration order with natural alignment; the byte
        # after each local is nobody's, the one after the last included,
        # so neither a local nor the caller's frame starts where one ends
        offsets: list[int] = []
        sizes: list[int] = []
        kinds: list[Optional[str]] = []
        off = 0
        for var in fir.norm.variables:
            size = layout.sizeof(var.ctype)
            align = layout.alignof(var.ctype)
            off = _align_up(off, align)
            offsets.append(off)
            sizes.append(size)
            kinds.append(kind_of(var.ctype) if var.ctype.is_scalar else None)
            off += size + 1
        frame_size = _align_up(off, 16) if off else 16

        def wrap(kind: str):
            """(mask, signbit) wrap spec for integer result kinds."""
            if kind in ("float", "double"):
                return None
            bits = arch.bit_width(kind) if kind != "ptr" else arch.ptr_size * 8
            mask = (1 << bits) - 1
            sign = (1 << (bits - 1)) if arch.is_signed(kind) else 0
            return (mask, sign)

        code: list[Instr] = []
        for op, a, b in fir.code:
            if op == Op.PUSH_SIZEOF:
                code.append((Op.PUSH, layout.sizeof(a), None))
            elif op == Op.LEA_L:
                code.append((Op.LEA_L, offsets[a], None))
            elif op == Op.LEA_G:
                code.append((Op.PUSH, gaddrs[a], None))
            elif op == Op.LDL:
                code.append((Op.LDL, offsets[a[0]], a[1]))
            elif op == Op.STL:
                code.append((Op.STL, offsets[a[0]], a[1]))
            elif op == Op.LDG:
                code.append((Op.LDG, gaddrs[a[0]], a[1]))
            elif op == Op.STG:
                code.append((Op.STG, gaddrs[a[0]], a[1]))
            elif op == Op.OFFSET:
                code.append((Op.OFFSET, layout.field_offset(a[0], a[1]), None))
            elif op == Op.COPYBLK:
                code.append((Op.COPYBLK, layout.sizeof(a), None))
            elif op in (Op.PTRADD, Op.PTRSUB, Op.PTRDIFF):
                size = 1 if isinstance(a, VoidType) else layout.sizeof(a)
                code.append((op, size, None))
            elif op in (
                Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.MOD,
                Op.NEG, Op.BAND, Op.BOR, Op.BXOR, Op.BNOT, Op.SHL, Op.SHR,
            ):
                code.append((op, wrap(a), None))
            elif op == Op.CVT:
                frm, to = a
                if to in ("float", "double"):
                    code.append((Op.CVT, ("f",), None))
                else:
                    mask, sign = wrap(to)
                    code.append((Op.CVT, ("i", mask, sign), None))
            else:
                code.append((op, a, b))

        return FuncImage(
            name=fir.name,
            code=code,
            frame_size=frame_size,
            var_offsets=offsets,
            var_sizes=sizes,
            var_kinds=kinds,
            nparams=len(fir.norm.params),
        )


def compile_program(
    source: str,
    *,
    poll_strategy: PollStrategy | str = PollStrategy.LOOPS,
    strict_safety: bool = True,
    save_all_liveness: bool = False,
) -> CompiledProgram:
    """Front door: parse, check, normalize, annotate, and compile *source*.

    ``poll_strategy`` selects poll-point placement (paper §4.3);
    ``save_all_liveness`` disables the live-variable analysis (ablation:
    every local is saved at every migration point).
    """
    if isinstance(poll_strategy, str):
        poll_strategy = PollStrategy(poll_strategy)

    unit = parse(source)
    prog = CompiledProgram(unit, source)
    prog.safety_findings = check_migration_safety(unit, strict=strict_safety)

    checker = TypeChecker(unit, BUILTIN_SIGS)
    checker.check()

    # program-level tables must exist before IR generation
    for i, func in enumerate(unit.functions):
        if func.name in prog._func_index:
            raise CompileError(f"redefinition of function {func.name!r}", func.line)
        if func.name in BUILTIN_INDEX:
            raise CompileError(
                f"function {func.name!r} shadows a builtin", func.line
            )
        prog._func_index[func.name] = i
        prog._func_ret[func.name] = func.ret

    for gvar in unit.globals:
        init = None
        init_list = None
        if gvar.init is not None:
            init = const_value(gvar.init)
        if gvar.init_list is not None:
            init_list = [const_value(e) for e in gvar.init_list]
        prog._add_global(
            GlobalInfo(name=gvar.name, ctype=gvar.ctype, init=init, init_list=init_list)
        )

    # hidden PRNG state cell — migrates with the rest of the globals
    prog._add_global(
        GlobalInfo(name=RAND_STATE_GLOBAL, ctype=UINT, init=1, is_hidden=True)
    )

    norms = [normalize_function(f) for f in unit.functions]
    for nf in norms:
        insert_poll_points(nf, poll_strategy)

    for nf in norms:
        fir = IRGen(prog, nf).run()
        prog.functions.append(fir)

    for fir in prog.functions:
        # register every variable type so the TI table covers all blocks
        for var in fir.norm.variables:
            prog.register_type(var.ctype)
        fir.liveness = compute_liveness(fir.code, fir.nvars, save_all=save_all_liveness)

    return prog


def _align_up(value: int, align: int) -> int:
    return (value + align - 1) & ~(align - 1)
