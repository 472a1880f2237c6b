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

Each basic block is timed once per pipeline state (DESIGN.md §4l): the
timing state at a block's entry is normalised to a base cycle and
interned, and a memo that lives for one :meth:`PortSimulator.simulate`
call maps (entry pc, instructions run, state, alias signature) to the
state after the block and the distance the base moved.  Only a miss
runs the per-instruction kernel :meth:`PortSimulator._issue`.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Dict, List, Optional, Tuple

from repro.isa.instructions import REG_INDEX, Instr, Op, OpClass, Program
from repro.isa.machine import ExecStats, Machine, MachineState, decode
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
    out-of-order issue queues.  Intervals never overlap, so ``starts``
    and ``ends`` are both sorted.  The simulator rebuilds the calendar
    from a normalised state on every block-memo miss, keeping only the
    intervals that can still delay an issue, so it stays short without
    any pruning.
    """

    __slots__ = ("starts", "ends")

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

    def book(self, ready: int, occupancy: int) -> int:
        """Reserve *occupancy* cycles at the earliest start >= ready."""
        index, start = self.probe(ready, occupancy)
        self.commit(index, start, occupancy)
        return start


#: Memory kind of an issue record.
_NOT_MEM, _LOAD, _STORE = 0, 1, 2
_MEM_KIND = {OpClass.LOAD: _LOAD, OpClass.STORE: _STORE}

#: Per-pc issue record: (port timelines, latency, occupancy, source
#: register indices, destination index or -1, memory kind).
IssueRecord = Tuple[Tuple[PortTimeline, ...], int, int, Tuple[int, ...],
                    int, int]

#: Timing state normalised to a base cycle (every time relative to it):
#: (register ready times, per-port (starts, ends), dispatch ring,
#: retire ring, last retire, live-store issue times by slot).
TimingState = Tuple[Tuple[int, ...], Tuple[Tuple[Tuple[int, ...],
                                                 Tuple[int, ...]], ...],
                    Tuple[int, ...], Tuple[int, ...], int, Tuple[int, ...]]


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
        self._ports: Dict[str, PortTimeline] = {
            p: PortTimeline() for p in self.table.port_names()
        }
        #: The empty pipeline: nothing in flight, every time 0.
        self._empty: TimingState = (
            (0,) * len(REG_INDEX), (((), ()),) * len(self._ports),
            (), (), 0, (),
        )

    def _load(self, state: TimingState, phase: int, lag: int) -> None:
        """Set the absolute timing state to *state*, with its base at 0.

        Live store *k* is keyed by its slot number *k*.  An in-order
        machine's dispatch ring is rebuilt from *phase* and *lag* (see
        :meth:`simulate`); an out-of-order one's comes from *state*.
        """
        regs, ports, dispatch, retire, last_retire, stores = state
        self._reg_ready: List[int] = list(regs)
        for timeline, (starts, ends) in zip(self._ports.values(), ports):
            timeline.starts = list(starts)
            timeline.ends = list(ends)
        width = self.issue_width
        if self.window == 0:
            # Instruction i dispatches at i // width: *phase* of the last
            # width instructions share the next one's cycle, which lies
            # *lag* cycles before the last issue.
            dispatch = (-lag - 1,) * (width - phase) + (-lag,) * phase
        self._dispatch_ring = deque(dispatch, maxlen=width)
        self._retire_ring = deque(retire, maxlen=self.window or 1)
        self._last_issue = 0
        self._last_retire = last_retire
        self._store_issue_by_addr: Dict[int, int] = dict(enumerate(stores))

    def _normalised(self, base: int) -> Tuple[TimingState, Tuple[int, ...]]:
        """The timing state relative to *base*, and its live-store keys.

        Exact because no instruction after *base* dispatches or issues
        before it (see :meth:`_time_block`): a register ready at or
        before *base* is ready at *base*, and a port interval or store
        that ends by *base* can never delay an issue.  A ring entry
        binds only while it is the oldest of a full ring, and then only
        if it lies after *base* (retire ring) or at it (dispatch ring;
        out of order, *base* is its newest entry).  Dropping the other
        entries just leaves the ring short of full until the dropped
        ones would have left it anyway.  An in-order machine rebuilds
        its dispatch ring in :meth:`_load` instead.  Live stores take
        slots in key order.
        """
        regs = tuple([t - base if t > base else 0 for t in self._reg_ready])
        ports = []
        for timeline in self._ports.values():
            live = bisect_right(timeline.ends, base)
            ports.append((tuple([t - base for t in timeline.starts[live:]]),
                          tuple([t - base for t in timeline.ends[live:]])))
        dispatch = ()
        if self.window > 0:
            dispatch = (0,) * self._dispatch_ring.count(base)
        retire = self._retire_ring
        retire = tuple([t - base for t in islice(
            retire, bisect_right(retire, base), None)])
        stores = self._store_issue_by_addr
        keys = tuple(sorted(k for k, t in stores.items() if t > base))
        state = (regs, tuple(ports), dispatch, retire,
                 self._last_retire - base, tuple(stores[k] - base for k in keys))
        return state, keys

    def _record(self, instr: Instr) -> IssueRecord:
        """Resolve *instr* against the port table and this run's ports."""
        spec = self.table.spec(instr.opclass)
        latency, occupancy = spec.latency, spec.occupancy
        if instr.op is Op.FMADD and not self.has_fma:
            # Machines without fused multiply-add crack FMADD into a
            # multiply feeding an add: longer latency, double occupancy.
            latency += self.table.spec(OpClass.FPADD).latency
            occupancy += 1
        return (
            tuple(self._ports[p] for p in spec.ports),
            latency,
            occupancy,
            tuple(REG_INDEX[r] for r in instr.reads()),
            -1 if instr.dst is None else REG_INDEX[instr.dst],
            _MEM_KIND.get(instr.opclass, _NOT_MEM),
        )

    def _issue(self, record: IssueRecord, mem_addr: Optional[int]) -> None:
        """Time one instruction; *mem_addr* keys a memory operation's
        word (any value that is equal exactly when the addresses are)."""
        ports, latency, occupancy, reads, dst, kind = record

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

    def _time_block(self, before: TimingState, records: List[IssueRecord],
                    signature: Tuple[int, ...], phase: int, lag: int
                    ) -> Tuple[TimingState, int, Tuple[int, ...]]:
        """Memo miss: issue one block from *before*, normalise the result.

        Memory operations are keyed by their *signature* numbers.
        Returns (state after, base delta, live-store keys after).
        """
        self._load(before, phase, lag)
        numbers = iter(signature)
        issue = self._issue
        for record in records:
            issue(record, next(numbers) if record[5] else None)
        # Out of order, no later instruction dispatches (so none issues)
        # before the last dispatch; in order, none issues before the
        # last issue.
        base = self._dispatch_ring[-1] if self.window else self._last_issue
        after, keys = self._normalised(base)
        return after, base, keys

    def simulate(self, program: Program,
                 state: Optional[MachineState] = None,
                 max_steps: int = 10_000_000) -> SimOutcome:
        """Run *program*, timing each basic block once per pipeline state.

        The golden machine executes every instruction; each block's
        memory addresses are read as its pcs are yielded.  A block is
        keyed by (entry pc, instructions run, interned state id, alias
        signature): the signature numbers each address by first
        appearance, live stores first, since timing sees addresses only
        through equality.  An in-order machine adds its dispatch phase
        (steps mod issue width) and the lag of its next dispatch behind
        the last issue, capped where dispatch can no longer bind within
        one block.
        """
        records = [self._record(instr) for instr in program]
        operands = [
            (instr.srcs[0], instr.imm) if rec[5] else None
            for instr, rec in zip(program, records)
        ]
        block_len = decode(program).block_len
        width = self.issue_width
        in_order = self.window == 0
        lag_cap = -(-max(block_len, default=1) // width) + 2
        machine = Machine(state=state, max_steps=max_steps)
        iregs = machine.state.iregs
        trace = machine.trace(program, max_steps + 1)

        interned: Dict[TimingState, int] = {self._empty: 0}
        states: List[TimingState] = [self._empty]
        memo: Dict[tuple, Tuple[int, int, Tuple[int, ...]]] = {}
        sid = base = steps = phase = lag = 0
        live: List[int] = []            # live store addresses by slot
        for entry in trace:
            addrs = []
            ops = operands[entry]
            if ops is not None:
                addrs.append(iregs[ops[0]] + ops[1])
            run = 1
            for pc in islice(trace, block_len[entry] - 1):
                run += 1
                ops = operands[pc]
                if ops is not None:
                    addrs.append(iregs[ops[0]] + ops[1])
            number = {addr: slot for slot, addr in enumerate(live)}
            signature = tuple([number.setdefault(a, len(number))
                               for a in addrs])
            if in_order:
                phase = steps % width
                lag = min(base - steps // width, lag_cap)
            steps += run
            key = (entry, run, sid, signature, phase, lag)
            hit = memo.get(key)
            if hit is None:
                after, delta, keys = self._time_block(
                    states[sid], records[entry:entry + run], signature,
                    phase, lag)
                nid = interned.get(after)
                if nid is None:
                    nid = interned[after] = len(states)
                    states.append(after)
                hit = memo[key] = (nid, delta, keys)
            sid, delta, keys = hit
            base += delta
            if keys:
                addresses = list(number)
                live = [addresses[k] for k in keys]
            elif live:
                live = []
        if steps > max_steps:
            raise RuntimeError(
                f"exceeded max_steps={max_steps} in {program.name}"
            )
        return SimOutcome(
            cycles=base + states[sid][4],
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
