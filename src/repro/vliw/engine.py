"""In-order VLIW execution engine with a cycle scoreboard.

The engine keeps a *persistent* clock and register-ready scoreboard so
long-latency results (divide, sqrt, loads) overlap across basic-block
boundaries - the molecule of the next loop iteration stalls only when it
actually consumes an in-flight value.  Divide and square root occupy the
single FPU for their full duration (no dedicated iterative unit on the
Crusoe), which is the microarchitectural reason Karp's multiply-only
reciprocal square root beats the libm path on this machine.

Semantics are delegated to the golden :class:`repro.isa.machine.Machine`
in guest program order, so translated execution is architecturally
transparent - the property real CMS must also guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.isa.instructions import REG_INDEX, OpClass, Program
from repro.isa.machine import Machine
from repro.vliw.atoms import Atom, atoms_from_block
from repro.vliw.molecules import FULL_FORMAT, Molecule, SlotLimits
from repro.vliw.scheduler import schedule_block
from repro.vliw.units import TM5600_LATENCIES, LatencyTable, UnitKind

#: Operation classes that monopolise the FPU for their full latency.
_UNPIPELINED = frozenset({OpClass.FPDIV, OpClass.FPSQRT})


#: Scoreboard record of one molecule: (source register indices, whether
#: it needs the FPU, (destination index, latency) per write, and the
#: latency an unpipelined atom holds the FPU for, or None).
MoleculeTiming = Tuple[Tuple[int, ...], bool, Tuple[Tuple[int, int], ...],
                       Optional[int]]


def _molecule_timing(molecule: Molecule) -> MoleculeTiming:
    """Resolve what the scoreboard needs of *molecule*, once."""
    reads = []
    writes = []
    uses_fpu = False
    fpu_hold = None
    for atom in molecule:
        for src in atom.reads():
            if REG_INDEX[src] not in reads:
                reads.append(REG_INDEX[src])
        uses_fpu = uses_fpu or atom.unit is UnitKind.FPU
        dst = atom.writes()
        if dst is not None:
            writes.append((REG_INDEX[dst], atom.latency))
        if atom.opclass in _UNPIPELINED:
            fpu_hold = atom.latency
    return tuple(reads), uses_fpu, tuple(writes), fpu_hold


@dataclass(frozen=True)
class TranslatedBlock:
    """A scheduled native translation of one guest basic block."""

    entry_pc: int
    atoms: Tuple[Atom, ...]
    molecules: Tuple[Molecule, ...]
    #: Per-molecule scoreboard records, derived from ``molecules`` when
    #: the block is built.
    timing: Tuple[MoleculeTiming, ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "timing", tuple(_molecule_timing(m) for m in self.molecules))

    @property
    def guest_count(self) -> int:
        """Number of guest instructions this translation covers."""
        return len(self.atoms)

    @property
    def code_bytes(self) -> int:
        """Encoded size, for translation-cache capacity accounting."""
        return sum(m.width_bits // 8 for m in self.molecules)


def translate_block(program: Program, entry_pc: int,
                    latencies: LatencyTable = TM5600_LATENCIES,
                    limits: SlotLimits = FULL_FORMAT) -> TranslatedBlock:
    """Lower and schedule the guest basic block starting at *entry_pc*."""
    block = program.basic_block_at(entry_pc)
    atoms = atoms_from_block(block, latencies)
    molecules = schedule_block(atoms, limits)
    return TranslatedBlock(entry_pc=entry_pc, atoms=atoms, molecules=molecules)


@dataclass
class EngineStats:
    """Cumulative native-execution statistics."""

    molecules_issued: int = 0
    atoms_executed: int = 0
    stall_cycles: int = 0
    blocks_executed: int = 0


class VliwEngine:
    """Times and executes translated blocks on the VLIW core."""

    def __init__(self, latencies: LatencyTable = TM5600_LATENCIES,
                 limits: SlotLimits = FULL_FORMAT) -> None:
        self.latencies = latencies
        self.limits = limits
        self.reset()

    def reset(self) -> None:
        self.clock: int = 0
        #: Cycle each register's value is ready, by ``REG_INDEX``.
        self._reg_ready: List[int] = [0] * len(REG_INDEX)
        self._fpu_free: int = 0
        self.stats = EngineStats()

    def charge(self, cycles: int) -> None:
        """Advance the clock for non-native work (interpret/translate)."""
        if cycles < 0:
            raise ValueError("cannot charge negative cycles")
        self.clock += cycles

    def execute_block(self, tb: TranslatedBlock, program: Program,
                      machine: Machine) -> int:
        """Run one translated block; returns cycles consumed.

        Timing walks the molecule schedule through the scoreboard;
        semantics replay the guest instructions in program order on the
        golden machine (so ``machine.state`` and ``machine.stats`` are
        identical to a pure-interpreter run).
        """
        if machine.state.pc != tb.entry_pc:
            raise ValueError(
                f"machine pc {machine.state.pc} does not match block entry "
                f"{tb.entry_pc}"
            )
        start = self.clock
        reg_ready = self._reg_ready
        fpu_free = self._fpu_free
        t = start - 1
        for reads, uses_fpu, writes, fpu_hold in tb.timing:
            t += 1
            for src in reads:
                if reg_ready[src] > t:
                    t = reg_ready[src]
            if uses_fpu and fpu_free > t:
                t = fpu_free
            for dst, latency in writes:
                reg_ready[dst] = t + latency
            if fpu_hold is not None:
                fpu_free = t + fpu_hold
        self._fpu_free = fpu_free
        self.clock = t + 1
        stats = self.stats
        stats.molecules_issued += len(tb.timing)
        stats.atoms_executed += tb.guest_count
        stats.blocks_executed += 1
        stats.stall_cycles += (self.clock - start) - len(tb.timing)

        machine.execute(program, tb.guest_count)
        return self.clock - start
