"""The port simulator's block memo times exactly like issuing every
instruction.

``PortSimulator.simulate`` times each basic block once per normalised
pipeline state and replays the memo on every later entry in that state.
The reference here is the loop it replaced: every pc of
``Machine.trace`` through ``_issue`` with its effective address
(``repro.check.fuzz.port_reference``).  Cycles, final architectural
state and execution statistics must all match, on the catalog machines
and on machine shapes the catalog lacks (in-order, tiny windows, width
one, a port table whose units stay busy longer than their latency).
"""

import pytest

from repro.check.fuzz import port_reference, port_stress_table
from repro.cpus.catalog import (
    CPU_CATALOG,
    PENTIUM_4_1300,
    POWER3_375,
)
from repro.cpus.ports import make_port_table
from repro.cpus.portsim import HardwareProcessor, PortSimulator
from repro.isa import programs
from repro.isa.instructions import Instr, Op, Program
from repro.isa.machine import MachineState, decode
from repro.isa.randprog import (
    random_alias_program,
    random_program,
    random_state,
)
from repro.perfmodel import workload as characterisation
from repro.perfmodel.calibration import TABLE1_WORKLOAD

HARDWARE = [cpu for cpu in CPU_CATALOG.values()
            if isinstance(cpu, HardwareProcessor)]


def _sim(cpu):
    return PortSimulator(cpu.table, issue_width=cpu.spec.issue_width,
                         window=cpu.window, has_fma=cpu.has_fma)


def _assert_matches_reference(sim, program, make_state):
    outcome = sim.simulate(program, make_state(), max_steps=10**6)
    cycles, machine = port_reference(sim, program, make_state())
    assert outcome.cycles == cycles
    assert (outcome.state.architectural_view()
            == machine.state.architectural_view())
    assert outcome.guest_stats == machine.stats


def _random_case(seed):
    program = random_program(seed, blocks=4, block_len=10, loop_trips=20)
    return program, lambda: random_state(seed)


def _alias_case(seed):
    """One block, a different load/store alias pattern on each trip."""
    return random_alias_program(seed, trips=40), lambda: random_state(seed)


@pytest.mark.parametrize("cpu", HARDWARE, ids=lambda c: c.name)
@pytest.mark.parametrize("seed", [3, 41, 977])
def test_catalog_machines_match_reference_on_random_programs(cpu, seed):
    _assert_matches_reference(_sim(cpu), *_random_case(seed))
    _assert_matches_reference(_sim(cpu), *_alias_case(seed))


def _catch_up_case():
    """In-order dispatch bound, then far behind the last issue, then
    catching up.

    A loop of five-instruction blocks is dispatch-bound, so its blocks
    start at every dispatch phase of a two- or three-wide machine.  A
    chain of divides then leaves the next dispatch far behind the last
    issue (past the memo's lag cap), and a long block of independent
    work issues faster than it dispatches, so the lag shrinks trip by
    trip until dispatch binds inside the block again.
    """
    def loop(trips, body):
        head = len(instrs) + 1
        instrs.append(Instr(op=Op.LI, dst="r1", imm=trips))
        instrs.extend(body)
        instrs.append(Instr(op=Op.SUBI, dst="r1", srcs=("r1",), imm=1))
        instrs.append(Instr(op=Op.BNEZ, srcs=("r1",), imm=head))

    instrs = [
        Instr(op=Op.FLI, dst="f3", fimm=1.5),
        Instr(op=Op.FLI, dst="f2", fimm=2.0),
    ]
    loop(12, [
        Instr(op=Op.ADDI, dst="r2", srcs=("r3",), imm=1),
        Instr(op=Op.FADD, dst="f4", srcs=("f3", "f3")),
        Instr(op=Op.FMUL, dst="f5", srcs=("f3", "f3")),
    ])
    loop(2, [Instr(op=Op.FDIV, dst="f2", srcs=("f2", "f3"))] * 3)
    work = []
    for k in range(60):
        kind = k % 6
        if kind < 2:
            reg = f"r{2 + k % 7}"
            work.append(Instr(op=Op.ADDI, dst=reg, srcs=(reg,), imm=1))
        elif kind < 4:
            op = Op.FADD if kind == 2 else Op.FMUL
            work.append(Instr(op=op, dst=f"f{4 + kind}", srcs=("f3", "f3")))
        elif kind == 4:
            work.append(Instr(op=Op.LD, dst="r10", srcs=("r0",), imm=k))
        else:
            work.append(Instr(op=Op.ST, srcs=("r0", "r11"), imm=100 + k))
    loop(30, work)
    instrs.append(Instr(op=Op.HALT))
    return Program(instrs=tuple(instrs), name="catch-up"), MachineState


STRESS_SHAPES = [
    (window, width, fma, table)
    for window in (0, 1, 2, 8)
    for width in (1, 2, 3)
    for fma in (False, True)
    for table in ("generic", "stress")
]


@pytest.mark.parametrize(
    "window, width, fma, table", STRESS_SHAPES,
    ids=[f"w{w}-i{i}-{'fma' if f else 'nofma'}-{t}"
         for w, i, f, t in STRESS_SHAPES])
def test_stress_machines_match_reference(window, width, fma, table):
    ports = port_stress_table() if table == "stress" else make_port_table()
    sim = PortSimulator(ports, issue_width=width, window=window,
                        has_fma=fma)
    for seed in (5, 2024):
        _assert_matches_reference(sim, *_random_case(seed))
        _assert_matches_reference(sim, *_alias_case(seed))
    _assert_matches_reference(sim, *_catch_up_case())
    # An FMADD-heavy kernel, so cracking (no FMA) and fusing both run.
    karp = programs.gravity_microkernel_karp(n=8, passes=3)
    _assert_matches_reference(sim, karp.program, karp.make_state)


#: Cycles of every catalog hardware CPU on the guest benchmark's four
#: programs, as the per-instruction simulator timed them.
PINNED_CYCLES = {
    "Intel Pentium III": (467205, 275324, 13321, 24002),
    "Compaq Alpha EV56": (556804, 252918, 16392, 24002),
    "IBM Power3": (112007, 79632, 9221, 24002),
    "AMD Athlon MP": (230413, 175287, 12297, 24002),
    "Intel Pentium 4": (595206, 182505, 12303, 24002),
    "Intel Pentium Pro": (467205, 234427, 12298, 24002),
}


def _guest_programs():
    return (
        programs.gravity_microkernel_math(**TABLE1_WORKLOAD),
        programs.gravity_microkernel_karp(**TABLE1_WORKLOAD),
        programs.stream_triad(n=characterisation._TRIAD_N),
        programs.int_checksum(n=characterisation._INT_N),
    )


def test_guest_program_cycles_are_pinned():
    assert sorted(PINNED_CYCLES) == sorted(cpu.name for cpu in HARDWARE)
    workloads = _guest_programs()
    for cpu in HARDWARE:
        cycles = tuple(cpu.run_workload(wl).cycles for wl in workloads)
        assert cycles == PINNED_CYCLES[cpu.name], cpu.name


def test_one_program_twice_on_one_simulator():
    """The memo lives for one ``simulate`` call and leaves nothing behind."""
    wl = programs.stream_triad(n=256)
    sim = _sim(POWER3_375)
    first = sim.simulate(wl.program, wl.make_state()).cycles
    assert sim.simulate(wl.program, wl.make_state()).cycles == first
    assert _sim(POWER3_375).simulate(wl.program, wl.make_state()).cycles \
        == first


def test_step_limit_still_raises_mid_block():
    program, make_state = _random_case(7)
    with pytest.raises(RuntimeError, match="exceeded max_steps=13"):
        _sim(POWER3_375).simulate(program, make_state(), max_steps=13)


class _CalendarWatch(PortSimulator):
    """Records the longest port calendar and live state seen per miss."""

    longest = live = 0

    def _time_block(self, before, records, signature, phase, lag):
        for starts, _ in before[1]:
            self.live = max(self.live, len(starts))
        out = super()._time_block(before, records, signature, phase, lag)
        for timeline in self._ports.values():
            self.longest = max(self.longest, len(timeline.starts))
        return out


@pytest.mark.parametrize("cpu", [POWER3_375, PENTIUM_4_1300],
                         ids=lambda c: c.name)
def test_port_calendars_stay_bounded_without_pruning(cpu):
    """Each miss loads at most window + 1 live intervals per port and
    books one per instruction, so no calendar outgrows window + the
    longest block."""
    wl = programs.gravity_microkernel_karp(**TABLE1_WORKLOAD)
    sim = _CalendarWatch(cpu.table, issue_width=cpu.spec.issue_width,
                         window=cpu.window, has_fma=cpu.has_fma)
    outcome = sim.simulate(wl.program, wl.make_state())
    assert outcome.cycles == PINNED_CYCLES[cpu.name][1]
    assert 0 < sim.live <= cpu.window + 1
    assert sim.longest <= cpu.window + max(decode(wl.program).block_len)
