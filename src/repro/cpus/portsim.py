"""Trace-driven superscalar port/ROB timing simulator.

Models the hardware x86/RISC competitors of Table 1/3 with the classic
first-order microarchitecture abstraction:

- in-order **dispatch** at ``issue_width`` instructions per cycle,
  bounded by reorder-buffer space (instruction *i* cannot dispatch until
  instruction *i - window* has retired);
- data-driven **issue**: an instruction issues once dispatched, its
  register operands are complete, and an execution port is free
  (in-order machines additionally issue monotonically with operands
  ready at issue);
- execution ports with per-class latency and occupancy (unpipelined
  iterative dividers keep their port busy for the full latency);
- in-order **retirement**;
- memory disambiguation by effective address: a load issues no earlier
  than the youngest prior store *to the same word*.

Semantics come from the golden machine; the simulator only produces
timing, so every hardware model is architecturally exact by
construction.  Branch prediction is assumed perfect (the paper's kernels
are dominated by highly regular loops); this is noted in DESIGN.md.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.isa.instructions import REG_INDEX, Instr, Op, OpClass, Program
from repro.isa.machine import ExecStats, Machine, MachineState
from repro.cpus.base import (
    KernelResult,
    Processor,
    ProcessorSpec,
    WrongAnswerError,
)
from repro.cpus.ports import PortTable
from repro.isa.programs import GuestWorkload


@dataclass
class SimOutcome:
    """Timing + architectural outcome of one simulated run."""

    cycles: int
    state: MachineState
    guest_stats: ExecStats


class PortTimeline:
    """Busy-interval calendar for one execution port.

    Unlike a scalar next-free counter, a calendar lets a younger,
    data-ready instruction claim an idle slot *before* an older, stalled
    instruction's booking - the oldest-ready-first behaviour of real
    out-of-order issue queues.
    """

    __slots__ = ("starts", "ends")

    #: Intervals kept before pruning the oldest half (bounded memory and
    #: O(log n) booking; anything older is effectively retired).
    _PRUNE_AT = 512

    def __init__(self) -> None:
        self.starts: list = []
        self.ends: list = []

    def probe(self, ready: int, occupancy: int) -> tuple:
        """Earliest (insert_index, start) with a gap >= occupancy."""
        starts, ends = self.starts, self.ends
        i = bisect_right(starts, ready)
        s = ready
        if i > 0 and ends[i - 1] > s:
            s = ends[i - 1]
        while i < len(starts) and starts[i] < s + occupancy:
            if ends[i] > s:
                s = ends[i]
            i += 1
        return i, s

    def commit(self, index: int, start: int, occupancy: int) -> None:
        self.starts.insert(index, start)
        self.ends.insert(index, start + occupancy)
        if len(self.starts) > self._PRUNE_AT:
            keep = self._PRUNE_AT // 2
            del self.starts[:-keep]
            del self.ends[:-keep]

    def book(self, ready: int, occupancy: int) -> int:
        """Reserve *occupancy* cycles at the earliest start >= ready."""
        index, start = self.probe(ready, occupancy)
        self.commit(index, start, occupancy)
        return start


#: Memory kind of an issue record.
_NOT_MEM, _LOAD, _STORE = 0, 1, 2
_MEM_KIND = {OpClass.LOAD: _LOAD, OpClass.STORE: _STORE}

#: Per-pc issue record: (port timelines, latency, occupancy, source
#: register indices, destination index or -1, memory kind, address base
#: register, address immediate).
IssueRecord = Tuple[Tuple[PortTimeline, ...], int, int, Tuple[int, ...],
                    int, int, Optional[str], int]


class PortSimulator:
    """Times a dynamic guest instruction stream on a port machine."""

    def __init__(self, table: PortTable, issue_width: int,
                 window: int = 0, has_fma: bool = False) -> None:
        if issue_width < 1:
            raise ValueError("issue_width must be >= 1")
        if window < 0:
            raise ValueError("window must be >= 0 (0 means in-order)")
        self.table = table
        self.issue_width = issue_width
        #: reorder-buffer depth; 0 models a strict in-order pipeline.
        self.window = window
        self.has_fma = has_fma
        self._reset()

    def _reset(self) -> None:
        self._reg_ready: List[int] = [0] * len(REG_INDEX)
        self._ports: Dict[str, PortTimeline] = {
            p: PortTimeline() for p in self.table.port_names()
        }
        self._dispatch_ring: deque = deque(maxlen=self.issue_width)
        self._retire_ring: deque = deque(
            maxlen=self.window if self.window > 0 else 1
        )
        self._last_issue = 0
        self._last_retire = 0
        self._store_issue_by_addr: Dict[int, int] = {}
        self._horizon = 0

    def _record(self, instr: Instr) -> IssueRecord:
        """Resolve *instr* against the port table and this run's ports."""
        spec = self.table.spec(instr.opclass)
        latency, occupancy = spec.latency, spec.occupancy
        if instr.op is Op.FMADD and not self.has_fma:
            # Machines without fused multiply-add crack FMADD into a
            # multiply feeding an add: longer latency, double occupancy.
            latency += self.table.spec(OpClass.FPADD).latency
            occupancy += 1
        kind = _MEM_KIND.get(instr.opclass, _NOT_MEM)
        return (
            tuple(self._ports[p] for p in spec.ports),
            latency,
            occupancy,
            tuple(REG_INDEX[r] for r in instr.reads()),
            -1 if instr.dst is None else REG_INDEX[instr.dst],
            kind,
            instr.srcs[0] if kind else None,
            instr.imm,
        )

    def _issue(self, record: IssueRecord, iregs: Dict[str, int]) -> None:
        """Time one instruction; called before it runs, so a memory
        operation's address comes from the registers it reads."""
        ports, latency, occupancy, reads, dst, kind, base, imm = record
        mem_addr = iregs[base] + imm if kind else None

        # --- dispatch (in-order, fetch- and ROB-bounded) ---
        ring = self._dispatch_ring
        dispatch = 0
        if ring:
            dispatch = ring[-1]
            if len(ring) == self.issue_width and ring[0] + 1 > dispatch:
                dispatch = ring[0] + 1
        if self.window > 0:
            retire_ring = self._retire_ring
            if len(retire_ring) == self.window and retire_ring[0] > dispatch:
                dispatch = retire_ring[0]
        ring.append(dispatch)

        # --- issue (data- and resource-driven) ---
        t = dispatch
        reg_ready = self._reg_ready
        for src in reads:
            if reg_ready[src] > t:
                t = reg_ready[src]
        if kind == _LOAD:
            t = max(t, self._store_issue_by_addr.get(mem_addr, 0))
        if self.window == 0 and self._last_issue > t:
            # Strict in-order issue: cannot overtake older instructions.
            t = self._last_issue
        # Book the port whose calendar offers the earliest start.
        timeline = ports[0]
        index, start = timeline.probe(t, occupancy)
        for other in ports[1:]:
            other_index, other_start = other.probe(t, occupancy)
            if other_start < start:
                timeline, index, start = other, other_index, other_start
        t = start
        timeline.commit(index, t, occupancy)
        self._last_issue = t

        # --- complete / retire ---
        done = t + latency
        if dst >= 0:
            reg_ready[dst] = done
        if kind == _STORE:
            self._store_issue_by_addr[mem_addr] = t
        if done > self._last_retire:
            self._last_retire = done
        if self.window > 0:
            self._retire_ring.append(self._last_retire)
        if done > self._horizon:
            self._horizon = done

    def simulate(self, program: Program,
                 state: Optional[MachineState] = None,
                 max_steps: int = 10_000_000) -> SimOutcome:
        """Run *program*, feeding every retired instruction to the model."""
        self._reset()
        records = [self._record(instr) for instr in program]
        machine = Machine(state=state, max_steps=max_steps)
        iregs = machine.state.iregs
        issue = self._issue
        steps = 0
        for pc in machine.trace(program, max_steps + 1):
            issue(records[pc], iregs)
            steps += 1
        if steps > max_steps:
            raise RuntimeError(
                f"exceeded max_steps={max_steps} in {program.name}"
            )
        return SimOutcome(
            cycles=self._horizon,
            state=machine.state,
            guest_stats=machine.stats,
        )


class HardwareProcessor(Processor):
    """A hardware CPU: spec + port table + simulator policy."""

    def __init__(self, spec: ProcessorSpec, table: PortTable,
                 window: int = 0, has_fma: bool = False) -> None:
        self.spec = spec
        self.table = table
        self.window = window
        self.has_fma = has_fma

    def run_workload(self, workload: GuestWorkload,
                     check: bool = True) -> KernelResult:
        sim = PortSimulator(
            self.table,
            issue_width=self.spec.issue_width,
            window=self.window,
            has_fma=self.has_fma,
        )
        outcome = sim.simulate(
            workload.program, workload.make_state(), max_steps=100_000_000
        )
        if check and not workload.check(outcome.state):
            raise WrongAnswerError(
                f"{self.name} produced wrong results on {workload.name}"
            )
        seconds = outcome.cycles / self.spec.clock_hz
        return KernelResult(
            processor=self.name,
            workload=workload.name,
            cycles=outcome.cycles,
            seconds=seconds,
            nominal_flops=workload.nominal_flops,
            guest_instructions=outcome.guest_stats.instructions,
        )
