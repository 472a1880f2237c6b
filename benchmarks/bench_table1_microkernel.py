"""Table 1: Mflops of the gravitational microkernel on five CPUs.

Paper constraint set (the transcribed cells are garbled; see
EXPERIMENTS.md): Karp > math-sqrt on every CPU; the TM5600 as good as
or better than the comparably clocked PIII/Alpha; Power3 and Athlon on
top.
"""

import pytest

from repro.core import experiment_table1


def test_table1_microkernel(benchmark, archive):
    result = benchmark.pedantic(
        experiment_table1, rounds=1, iterations=1
    )
    archive("table1_microkernel", result.text)
    for row in result.rows:
        _, math_mflops, karp_mflops = row
        assert karp_mflops > math_mflops


def _guest_engines():
    """(name, run) per guest engine; run(wl) -> (final state, instructions)."""
    from repro.cms import CmsConfig, CodeMorphingSoftware
    from repro.cpus.catalog import PENTIUM_III_500
    from repro.cpus.portsim import PortSimulator
    from repro.isa.machine import run_program

    def golden(wl):
        state, stats = run_program(wl.program, wl.make_state(), max_steps=10**8)
        return state, stats.instructions

    def port_sim(wl):
        cpu = PENTIUM_III_500
        sim = PortSimulator(cpu.table, issue_width=cpu.spec.issue_width,
                            window=cpu.window, has_fma=cpu.has_fma)
        out = sim.simulate(wl.program, wl.make_state(), max_steps=10**8)
        return out.state, out.guest_stats.instructions

    def cms(config):
        def run(wl):
            res = CodeMorphingSoftware(config).run(
                wl.program, wl.make_state(), max_steps=10**8)
            return res.state, res.guest_stats.instructions
        return run

    return [
        ("golden_machine", golden),
        ("port_simulator_piii", port_sim),
        ("cms_interpreter", cms(CmsConfig(hot_threshold=10**9))),
        ("cms_vliw", cms(CmsConfig())),
    ]


def test_guest_engine_throughput(results_dir):
    """Guest instructions per host second of each engine (BENCH_guest.json).

    Every engine runs the Table 1 Karp microkernel through the decoded
    program (one decode, memoised on the Program); best-of-N wall time
    after one warm-up run, and each run's answer is checked.
    """
    import platform

    from repro.isa import programs
    from repro.perfmodel.calibration import TABLE1_WORKLOAD
    from repro.runner import best_of, bench_quick, write_bench_json

    quick = bench_quick()
    size = dict(n=16, passes=10) if quick else TABLE1_WORKLOAD
    repeats = 1 if quick else 5
    wl = programs.gravity_microkernel_karp(**size)
    engines = {}
    for name, run in _guest_engines():
        run(wl)                                   # warm-up
        timed = best_of(lambda: run(wl), repeats=repeats)
        state, instructions = timed.value
        assert wl.check(state), name
        engines[name] = {
            "instructions": instructions,
            "best_s": timed.best_s,
            "times_s": timed.times_s,
            "instructions_per_s": instructions / timed.best_s,
        }
    write_bench_json(results_dir / "BENCH_guest.json", {
        "bench": "guest_engines",
        "workload": wl.name,
        "size": dict(size),
        "quick": quick,
        "repeats": repeats,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "engines": engines,
    })
