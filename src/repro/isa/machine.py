"""Architectural reference interpreter (golden model) for the guest ISA.

Every other execution engine in the library - the CMS interpreter, the
translated VLIW code, the hardware CPU models - must produce *exactly*
the same architectural state as this machine.  The test suite enforces
that invariant with property-based random programs.

A program is decoded once (:func:`decode`): every instruction becomes a
handler closure with its operands bound, looked up by opcode in
:data:`DISPATCH`, and the decoded form is memoised on the ``Program``
object.  Every engine executes through those handlers.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.isa.instructions import (
    FREG_NAMES,
    IREG_NAMES,
    Instr,
    Op,
    OpClass,
    Program,
)

_INT_MASK = (1 << 64) - 1
_INT_SIGN = 1 << 63
_INT_MIN = -_INT_SIGN
_INT_MAX = _INT_SIGN - 1


def _wrap64(value: int) -> int:
    """Wrap a Python int to signed 64-bit two's-complement semantics."""
    value &= _INT_MASK
    return value - (1 << 64) if value & _INT_SIGN else value


class GuestFault(RuntimeError):
    """Raised on architectural faults (bad address, fp domain error)."""


class Memory:
    """Flat, sparsely-backed, word-addressed guest memory.

    Words hold either a 64-bit integer or an IEEE double; the two spaces
    are unified (an address holds whatever was last stored there), with
    typed accessors.  Reading an uninitialised word returns zero, which
    mirrors a zero-filled allocation.
    """

    __slots__ = ("_words",)

    def __init__(self, init: Optional[Dict[int, float]] = None) -> None:
        self._words: Dict[int, float] = dict(init or {})

    def load_int(self, addr: int) -> int:
        self._check(addr)
        return int(self._words.get(addr, 0))

    def store_int(self, addr: int, value: int) -> None:
        self._check(addr)
        self._words[addr] = _wrap64(int(value))

    def load_fp(self, addr: int) -> float:
        self._check(addr)
        return float(self._words.get(addr, 0.0))

    def store_fp(self, addr: int, value: float) -> None:
        self._check(addr)
        self._words[addr] = float(value)

    def store_array(self, base: int, values: Iterable[float]) -> None:
        """Bulk-store floats at consecutive word addresses from *base*."""
        for i, v in enumerate(values):
            self.store_fp(base + i, v)

    def load_array(self, base: int, count: int) -> Tuple[float, ...]:
        return tuple(self.load_fp(base + i) for i in range(count))

    def snapshot(self) -> Dict[int, float]:
        """A copy of all touched words (for state-equivalence tests)."""
        return dict(self._words)

    def copy(self) -> "Memory":
        return Memory(self._words)

    @staticmethod
    def _check(addr: int) -> None:
        if not isinstance(addr, int) or addr < 0:
            raise GuestFault(f"bad guest address {addr!r}")

    def __len__(self) -> int:
        return len(self._words)


@dataclass
class MachineState:
    """Architectural register file, PC and memory of a guest machine."""

    iregs: Dict[str, int] = field(
        default_factory=lambda: {r: 0 for r in IREG_NAMES}
    )
    fregs: Dict[str, float] = field(
        default_factory=lambda: {f: 0.0 for f in FREG_NAMES}
    )
    mem: Memory = field(default_factory=Memory)
    pc: int = 0
    halted: bool = False

    def copy(self) -> "MachineState":
        return MachineState(
            iregs=dict(self.iregs),
            fregs=dict(self.fregs),
            mem=self.mem.copy(),
            pc=self.pc,
            halted=self.halted,
        )

    def architectural_view(self) -> Tuple:
        """A hashable summary used to compare engines for equivalence.

        Floats are compared by their IEEE bit patterns so that NaNs
        (which never compare equal as values) still match when both
        engines produced the same bits.
        """
        import struct

        def bits(v) -> object:
            if isinstance(v, float):
                return struct.pack("<d", v)
            return v

        return (
            tuple(sorted(self.iregs.items())),
            tuple(sorted((k, bits(v)) for k, v in self.fregs.items())),
            tuple(
                sorted((k, bits(v)) for k, v in self.mem.snapshot().items())
            ),
            self.halted,
        )


@dataclass
class ExecStats:
    """Dynamic execution statistics from a reference run."""

    instructions: int = 0
    flops: int = 0
    by_class: Dict[OpClass, int] = field(default_factory=dict)
    taken_branches: int = 0

    def count(self, instr: Instr, taken: bool = False) -> None:
        self.instructions += 1
        self.flops += instr.flops
        self.by_class[instr.opclass] = self.by_class.get(instr.opclass, 0) + 1
        if taken:
            self.taken_branches += 1

    def merge(self, other: "ExecStats") -> None:
        self.instructions += other.instructions
        self.flops += other.flops
        self.taken_branches += other.taken_branches
        for cls, n in other.by_class.items():
            self.by_class[cls] = self.by_class.get(cls, 0) + n


# -- semantics of each opcode --------------------------------------------
#
# A handler applies one decoded instruction to the register files and
# memory, ``handler(iregs, fregs, mem)``, and returns ``None`` to fall
# through, a branch target when a branch is taken, or ``HALTED``.

Handler = Callable[[Dict[str, int], Dict[str, float], Memory], Optional[int]]

#: Returned by the HALT handler (branch targets are never negative).
HALTED = -1


def _int_rr(fn):
    """``rd <- fn(rs1, rs2)``, wrapped to 64 bits."""
    def make(instr: Instr) -> Handler:
        d, a, b = instr.dst, instr.srcs[0], instr.srcs[1]

        def run(ir, fr, mem):
            v = fn(ir[a], ir[b])
            ir[d] = v if _INT_MIN <= v <= _INT_MAX else _wrap64(v)
        return run
    return make


def _int_ri(fn, shift: bool = False):
    """``rd <- fn(rs1, imm)``, wrapped; shift counts are taken mod 64."""
    def make(instr: Instr) -> Handler:
        d, a = instr.dst, instr.srcs[0]
        k = instr.imm & 63 if shift else instr.imm

        def run(ir, fr, mem):
            v = fn(ir[a], k)
            ir[d] = v if _INT_MIN <= v <= _INT_MAX else _wrap64(v)
        return run
    return make


def _li(instr: Instr) -> Handler:
    d, v = instr.dst, _wrap64(instr.imm)

    def run(ir, fr, mem):
        ir[d] = v
    return run


def _mov(instr: Instr) -> Handler:
    d, a = instr.dst, instr.srcs[0]

    def run(ir, fr, mem):
        ir[d] = ir[a]
    return run


def _fp_rr(fn):
    """``fd <- fn(fs1, fs2)``."""
    def make(instr: Instr) -> Handler:
        d, a, b = instr.dst, instr.srcs[0], instr.srcs[1]

        def run(ir, fr, mem):
            fr[d] = fn(fr[a], fr[b])
        return run
    return make


def _fp_r(fn):
    """``fd <- fn(fs1)``."""
    def make(instr: Instr) -> Handler:
        d, a = instr.dst, instr.srcs[0]

        def run(ir, fr, mem):
            fr[d] = fn(fr[a])
        return run
    return make


def _fdiv(instr: Instr) -> Handler:
    d, a, b = instr.dst, instr.srcs[0], instr.srcs[1]

    def run(ir, fr, mem):
        denom = fr[b]
        if denom == 0.0:
            raise GuestFault("floating-point divide by zero")
        fr[d] = fr[a] / denom
    return run


def _fsqrt(instr: Instr) -> Handler:
    d, a = instr.dst, instr.srcs[0]

    def run(ir, fr, mem):
        val = fr[a]
        if val < 0.0:
            raise GuestFault("fsqrt of negative value")
        fr[d] = math.sqrt(val)
    return run


def _fmadd(instr: Instr) -> Handler:
    d, a, b, c = instr.dst, *instr.srcs[:3]

    def run(ir, fr, mem):
        fr[d] = fr[a] * fr[b] + fr[c]
    return run


def _fli(instr: Instr) -> Handler:
    d, v = instr.dst, instr.fimm

    def run(ir, fr, mem):
        fr[d] = v
    return run


def _fmov(instr: Instr) -> Handler:
    d, a = instr.dst, instr.srcs[0]

    def run(ir, fr, mem):
        fr[d] = fr[a]
    return run


def _itof(instr: Instr) -> Handler:
    d, a = instr.dst, instr.srcs[0]

    def run(ir, fr, mem):
        fr[d] = float(ir[a])
    return run


def _ftoi(instr: Instr) -> Handler:
    d, a = instr.dst, instr.srcs[0]

    def run(ir, fr, mem):
        ir[d] = _wrap64(int(fr[a]))
    return run


def _ld(instr: Instr) -> Handler:
    d, a, k = instr.dst, instr.srcs[0], instr.imm

    def run(ir, fr, mem):
        ir[d] = mem.load_int(ir[a] + k)
    return run


def _st(instr: Instr) -> Handler:
    a, b, k = instr.srcs[0], instr.srcs[1], instr.imm

    def run(ir, fr, mem):
        mem.store_int(ir[a] + k, ir[b])
    return run


def _fld(instr: Instr) -> Handler:
    d, a, k = instr.dst, instr.srcs[0], instr.imm

    def run(ir, fr, mem):
        fr[d] = mem.load_fp(ir[a] + k)
    return run


def _fst(instr: Instr) -> Handler:
    a, b, k = instr.srcs[0], instr.srcs[1], instr.imm

    def run(ir, fr, mem):
        mem.store_fp(ir[a] + k, fr[b])
    return run


def _jmp(instr: Instr) -> Handler:
    target = instr.imm

    def run(ir, fr, mem):
        return target
    return run


def _branch(cmp, fp: bool = False):
    """Branch to ``imm`` when ``cmp(rs1, rs2)`` (fp registers if *fp*)."""
    def make(instr: Instr) -> Handler:
        a, b, target = instr.srcs[0], instr.srcs[1], instr.imm
        if fp:
            def run(ir, fr, mem):
                if cmp(fr[a], fr[b]):
                    return target
        else:
            def run(ir, fr, mem):
                if cmp(ir[a], ir[b]):
                    return target
        return run
    return make


def _branch_zero(taken_if_zero: bool):
    def make(instr: Instr) -> Handler:
        a, target = instr.srcs[0], instr.imm
        if taken_if_zero:
            def run(ir, fr, mem):
                if ir[a] == 0:
                    return target
        else:
            def run(ir, fr, mem):
                if ir[a] != 0:
                    return target
        return run
    return make


def _nop_handler(ir, fr, mem):
    return None


def _halt_handler(ir, fr, mem):
    return HALTED


#: Opcode -> handler factory: builds the handler of one instruction.
DISPATCH: Dict[Op, Callable[[Instr], Handler]] = {
    Op.ADD: _int_rr(operator.add),
    Op.SUB: _int_rr(operator.sub),
    Op.ADDI: _int_ri(operator.add),
    Op.SUBI: _int_ri(operator.sub),
    Op.MUL: _int_rr(operator.mul),
    Op.MULI: _int_ri(operator.mul),
    Op.AND: _int_rr(operator.and_),
    Op.OR: _int_rr(operator.or_),
    Op.XOR: _int_rr(operator.xor),
    Op.SHL: _int_ri(operator.lshift, shift=True),
    Op.SHR: _int_ri(operator.rshift, shift=True),
    Op.LI: _li,
    Op.MOV: _mov,
    Op.FADD: _fp_rr(operator.add),
    Op.FSUB: _fp_rr(operator.sub),
    Op.FMUL: _fp_rr(operator.mul),
    Op.FDIV: _fdiv,
    Op.FSQRT: _fsqrt,
    Op.FMADD: _fmadd,
    Op.FNEG: _fp_r(operator.neg),
    Op.FABS: _fp_r(abs),
    Op.FLI: _fli,
    Op.FMOV: _fmov,
    Op.ITOF: _itof,
    Op.FTOI: _ftoi,
    Op.LD: _ld,
    Op.ST: _st,
    Op.FLD: _fld,
    Op.FST: _fst,
    Op.JMP: _jmp,
    Op.BEQ: _branch(operator.eq),
    Op.BNE: _branch(operator.ne),
    Op.BLT: _branch(operator.lt),
    Op.BGE: _branch(operator.ge),
    Op.BEQZ: _branch_zero(True),
    Op.BNEZ: _branch_zero(False),
    Op.FBLT: _branch(operator.lt, fp=True),
    Op.FBGE: _branch(operator.ge, fp=True),
    Op.NOP: lambda instr: _nop_handler,
    Op.HALT: lambda instr: _halt_handler,
}


class DecodedProgram:
    """A program resolved once into flat per-pc records.

    ``handlers[pc]`` executes the instruction at *pc*; ``opclass`` and
    ``flops`` feed the statistics fold; ``block_len[pc]`` is the length
    of the basic block entered at *pc* (through its first block ender,
    as :meth:`Program.basic_block_at` draws it).
    """

    __slots__ = ("handlers", "opclass", "flops", "block_len")

    def __init__(self, program: Program) -> None:
        instrs = program.instrs
        self.handlers: Tuple[Handler, ...] = tuple(
            DISPATCH[instr.op](instr) for instr in instrs
        )
        self.opclass: Tuple[OpClass, ...] = tuple(i.opclass for i in instrs)
        self.flops: Tuple[int, ...] = tuple(i.flops for i in instrs)
        self.block_len: Tuple[int, ...] = tuple(
            len(program.basic_block_at(pc)) for pc in range(len(instrs))
        )


def decode(program: Program) -> DecodedProgram:
    """*program*'s decoded form, built on first use and kept on the object.

    The memo is keyed by identity and lives outside the dataclass
    fields, so it never changes ``Program`` equality, hash or repr.
    """
    decoded = program.__dict__.get("_decoded")
    if decoded is None:
        decoded = DecodedProgram(program)
        program.__dict__["_decoded"] = decoded
    return decoded


class Machine:
    """Executes guest programs one instruction at a time.

    This is the golden model: simple, obviously correct, and the
    semantics every other engine replays.  :meth:`trace` is the one
    fetch-execute loop; :meth:`execute` runs a bounded stretch through
    it (the CMS interpreter and VLIW engine run one block at a time),
    and the port simulator consumes it directly.

    Retired instructions are tallied per pc of the decoded program and
    folded into :attr:`stats` when it is read.
    """

    def __init__(self, state: Optional[MachineState] = None,
                 max_steps: int = 10_000_000) -> None:
        self.state = state if state is not None else MachineState()
        self.max_steps = max_steps
        self._stats = ExecStats()
        #: decoded program -> (retired, taken) per-pc counts not yet
        #: folded into ``_stats``.
        self._tallies: Dict[DecodedProgram, Tuple[List[int], List[int]]] = {}

    @property
    def stats(self) -> ExecStats:
        """Dynamic execution statistics of everything run so far."""
        stats = self._stats
        by_class = stats.by_class
        for decoded, (retired, taken) in self._tallies.items():
            for pc, n in enumerate(retired):
                if n:
                    stats.instructions += n
                    stats.flops += n * decoded.flops[pc]
                    cls = decoded.opclass[pc]
                    by_class[cls] = by_class.get(cls, 0) + n
                    retired[pc] = 0
            stats.taken_branches += sum(taken)
            taken[:] = [0] * len(taken)
        return stats

    def execute(self, program: Program, limit: int) -> int:
        """Execute at most *limit* instructions, stopping after HALT.

        Returns the number executed (0 if the machine is already
        halted).  A fault leaves ``state.pc`` at the faulting instruction.
        """
        done = 0
        for _ in self.trace(program, limit):
            done += 1
        return done

    def trace(self, program: Program, limit: int) -> Iterator[int]:
        """Execute like :meth:`execute`, yielding each pc just before it runs.

        While the consumer holds a yielded pc, ``state`` is the state
        that instruction will read (timing models take memory addresses
        from it).  Consume the iterator to the end: the last yielded
        instruction runs only on the following resume.
        """
        st = self.state
        decoded = decode(program)
        handlers = decoded.handlers
        n = len(handlers)
        if decoded not in self._tallies:
            self._tallies[decoded] = ([0] * n, [0] * n)
        retired, taken = self._tallies[decoded]
        ir, fr, mem = st.iregs, st.fregs, st.mem
        pc = st.pc
        for _ in range(limit):
            if st.halted:
                return
            if not 0 <= pc < n:
                raise GuestFault(f"pc {pc} outside program {program.name}")
            yield pc
            nxt = handlers[pc](ir, fr, mem)
            retired[pc] += 1
            if nxt is None:
                pc += 1
            elif nxt >= 0:
                taken[pc] += 1
                pc = nxt
            else:
                pc += 1
                st.halted = True
            st.pc = pc

    def step(self, program: Program) -> bool:
        """Execute one instruction; return ``False`` once halted."""
        return self.execute(program, 1) == 1 and not self.state.halted

    def run(self, program: Program) -> ExecStats:
        """Run *program* from the current PC until HALT."""
        self.execute(program, self.max_steps + 1)
        if not self.state.halted:
            raise GuestFault(
                f"exceeded max_steps={self.max_steps} in {program.name}"
            )
        return self.stats


def run_program(program: Program, state: Optional[MachineState] = None,
                max_steps: int = 10_000_000) -> Tuple[MachineState, ExecStats]:
    """Convenience wrapper: run *program* on a fresh or given state."""
    machine = Machine(state=state, max_steps=max_steps)
    stats = machine.run(program)
    return machine.state, stats
