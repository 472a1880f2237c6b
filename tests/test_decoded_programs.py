"""Decoded guest programs: one decode, every engine, identical statistics.

Every engine executes through the per-pc handlers that
``repro.isa.machine.decode`` memoises on the ``Program`` object.  These
tests pin what that must not change: the dynamic statistics each engine
reports, the cycles of a program reused across machines and CMS
configurations, and the value semantics (equality, hash, repr, pickle)
that translation-cache keys and manifests rely on.
"""

import pickle

import pytest

from repro.cms import CmsConfig, CodeMorphingSoftware
from repro.cpus.catalog import PENTIUM_III_500, POWER3_375, TABLE1_CPUS
from repro.cpus.crusoe import CrusoeProcessor
from repro.cpus.portsim import PortSimulator
from repro.isa import programs
from repro.isa.instructions import Instr, Op, Program
from repro.isa.machine import (
    DISPATCH,
    ExecStats,
    GuestFault,
    Machine,
    decode,
    run_program,
)
from repro.isa.randprog import random_program, random_state
from repro.vliw.molecules import FULL_FORMAT, NARROW_FORMAT

#: The guest benchmark's four programs, at test sizes.
GUEST_PROGRAMS = (
    lambda: programs.gravity_microkernel_math(n=16, passes=4),
    lambda: programs.gravity_microkernel_karp(n=16, passes=4),
    lambda: programs.stream_triad(n=64),
    lambda: programs.int_checksum(n=200),
)

CMS_CONFIGS = [
    CmsConfig(hot_threshold=threshold, limits=limits)
    for threshold in (1, 3, 8, 10**9)
    for limits in (FULL_FORMAT, NARROW_FORMAT)
]


def _cases():
    for seed in (1, 17, 404, 2024):
        program = random_program(seed)
        yield (f"random-{seed}", program, lambda seed=seed: random_state(seed))
    for make in GUEST_PROGRAMS:
        wl = make()
        yield wl.name, wl.program, wl.make_state


CASES = list(_cases())


def _port_sim(cpu):
    return PortSimulator(cpu.table, issue_width=cpu.spec.issue_width,
                         window=cpu.window, has_fma=cpu.has_fma)


def test_every_opcode_has_a_handler():
    assert set(DISPATCH) == set(Op)


@pytest.mark.parametrize("name, program, make_state", CASES,
                         ids=[c[0] for c in CASES])
def test_every_engine_reports_the_golden_stats(name, program, make_state):
    _, golden = run_program(program, make_state(), max_steps=10**6)
    assert golden.instructions > 0
    assert sum(golden.by_class.values()) == golden.instructions
    for config in CMS_CONFIGS:
        result = CodeMorphingSoftware(config).run(
            program, make_state(), max_steps=10**6)
        assert result.guest_stats == golden, config
    for cpu in TABLE1_CPUS:
        if isinstance(cpu, CrusoeProcessor):
            continue
        outcome = _port_sim(cpu).simulate(
            program, make_state(), max_steps=10**6)
        assert outcome.guest_stats == golden, cpu.name


@pytest.mark.parametrize("name, program, make_state", CASES[:4],
                         ids=[c[0] for c in CASES[:4]])
def test_stats_fold_matches_per_instruction_counting(name, program,
                                                     make_state):
    machine = Machine(state=make_state())
    reference = ExecStats()
    for pc in machine.trace(program, 10**6):
        reference.count(program[pc])
    assert machine.state.halted
    stats = machine.stats
    assert (stats.instructions, stats.flops, stats.by_class) == (
        reference.instructions, reference.flops, reference.by_class)


def test_stats_read_between_steps_stay_exact():
    wl = GUEST_PROGRAMS[0]()
    machine = Machine(state=wl.make_state())
    seen = 0
    while machine.step(wl.program):
        seen += 1
        if seen % 97 == 0:
            assert machine.stats.instructions == seen
    assert machine.stats == run_program(wl.program, wl.make_state())[1]


def test_one_program_object_reused_across_machines_and_configs():
    """The decode memo holds nothing machine- or config-specific."""
    make = GUEST_PROGRAMS[1]             # Karp: FMADD-heavy
    shared = make()
    assert any(i.op is Op.FMADD for i in shared.program)
    engines = [
        ("power3", lambda p, s: _port_sim(POWER3_375).simulate(p, s).cycles),
        ("piii", lambda p, s: _port_sim(PENTIUM_III_500).simulate(p, s).cycles),
        ("cms-8", lambda p, s: CodeMorphingSoftware(
            CmsConfig(hot_threshold=8)).run(p, s).cycles),
        ("cms-2-narrow", lambda p, s: CodeMorphingSoftware(
            CmsConfig(hot_threshold=2, limits=NARROW_FORMAT)).run(p, s).cycles),
    ]
    fresh = {}
    for name, run in engines:
        wl = make()                      # a new Program object, never decoded
        fresh[name] = run(wl.program, wl.make_state())
    assert fresh["power3"] != fresh["piii"]
    for _ in range(2):
        for name, run in engines + engines[::-1]:
            assert run(shared.program, shared.make_state()) == fresh[name], name


def test_decoding_leaves_value_semantics_alone():
    program = GUEST_PROGRAMS[0]().program
    twin = GUEST_PROGRAMS[0]().program
    before = (hash(program), repr(program), [repr(i) for i in program])
    decoded = decode(program)
    assert decode(program) is decoded           # memoised by identity
    assert decode(twin) is not decoded
    assert (hash(program), repr(program), [repr(i) for i in program]) == before
    assert program == twin and hash(program) == hash(twin)
    clone = pickle.loads(pickle.dumps(program))
    assert clone == program
    assert "_decoded" not in clone.__dict__
    run_program(clone, GUEST_PROGRAMS[0]().make_state())


def test_resolved_instruction_fields_stay_out_of_identity():
    a = Instr(op=Op.FMADD, dst="f1", srcs=("f2", "f3", "f4"))
    b = Instr(op=Op.FMADD, dst="f1", srcs=("f2", "f3", "f4"))
    assert (a.opclass, a.flops) == (b.opclass, b.flops)
    assert a == b and hash(a) == hash(b)
    assert "opclass" not in repr(a) and "flops" not in repr(a)


def test_every_engine_faults_when_a_program_runs_off_its_end():
    program = Program(instrs=(Instr(op=Op.ADDI, dst="r1", srcs=("r1",),
                                    imm=1),))
    with pytest.raises(GuestFault, match="pc 1 outside"):
        run_program(program)
    with pytest.raises(GuestFault, match="pc 1 outside"):
        _port_sim(PENTIUM_III_500).simulate(program)
    # CMS used to spin here: an empty block at the end never advanced.
    with pytest.raises(GuestFault, match="pc 1 outside"):
        CodeMorphingSoftware(CmsConfig(hot_threshold=1)).run(program)
