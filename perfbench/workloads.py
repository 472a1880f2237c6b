"""The benchmark workloads and the outputs each one is checked on.

Every workload turns an input *case* into a list of operations.  An
operation runs one piece of the simulator (one engine on one guest
program, or one batch campaign) and returns its outcome; ``summary``
reduces an outcome to the JSON value that ``expected.json`` records for
it, and ``work`` counts the units the workload's throughput is measured
in.

Cases: the benchmark seed picks ``cases_per_pass`` of the
``RECORDED_CASES`` input cases, whose outputs ``run.py --record``
stored, so every run is checked against recorded values, not only
against itself.  The guest workload's timing outputs do not depend on the
input data, so its data come from the seed directly and its recorded
values hold for every seed.
"""

from __future__ import annotations

import hashlib
import random
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, List

RECORDED_CASES = 128


def cases_of(wl: "Workload", seed: int) -> List[int]:
    """The input cases every pass of a run with *seed* measures."""
    k = wl.cases_per_pass
    return [(seed * k + i) % RECORDED_CASES for i in range(k)]


@dataclass
class Op:
    """One timed operation: ``run()`` is the only part inside the timer."""

    key: str
    run: Callable[[], Any]


class Workload:
    name = ""
    #: Work unit of ``work`` (shown on the human-readable lines).
    unit = ""
    #: Input cases in one pass; more cases average out how much the
    #: host cost of one input differs from another's.
    cases_per_pass = 1

    def ops(self, case: int, seed: int) -> List[Op]:
        raise NotImplementedError

    def summary(self, outcome: Any) -> Any:
        raise NotImplementedError

    def work(self, outcome: Any) -> float:
        raise NotImplementedError

    def problems(self, outcome: Any) -> List[str]:
        """Checks that need no recorded value."""
        return []

    def outcomes_for_layers(self, outcome: Any) -> List[Any]:
        """Scheduler outcomes inside *outcome*, for the sched counters."""
        return []


# ---------------------------------------------------------------------------
# guest: the Table 1 engines on the Table 1 and Table 3 kernels
# ---------------------------------------------------------------------------

class Guest(Workload):
    """Each Table 1 processor, then the golden machine, on four programs."""

    name = "guest"
    unit = "guest instructions"

    def _programs(self, seed: int):
        from repro.isa import programs
        from repro.perfmodel import workload as characterisation
        from repro.perfmodel.calibration import TABLE1_WORKLOAD

        data_seed = seed % (1 << 31)
        return [
            programs.gravity_microkernel_math(
                seed=data_seed, **TABLE1_WORKLOAD),
            programs.gravity_microkernel_karp(
                seed=data_seed, **TABLE1_WORKLOAD),
            programs.stream_triad(
                n=characterisation._TRIAD_N, seed=data_seed),
            programs.int_checksum(
                n=characterisation._INT_N, state=data_seed % 65536),
        ]

    def ops(self, case: int, seed: int) -> List[Op]:
        from repro.cpus.catalog import TABLE1_CPUS
        from repro.isa import machine

        workloads = self._programs(seed)
        ops = []
        for cpu in TABLE1_CPUS:
            for wl in workloads:
                ops.append(Op(
                    f"{cpu.name}/{wl.name}",
                    lambda cpu=cpu, wl=wl: cpu.run_workload(wl, check=True),
                ))
        for wl in workloads:
            # Looked up at call time, so the traced run sees its wrapper.
            ops.append(Op(
                f"golden/{wl.name}",
                lambda wl=wl: (wl, machine.run_program(
                    wl.program, wl.make_state(), max_steps=100_000_000)),
            ))
        return ops

    def summary(self, outcome: Any) -> Any:
        if isinstance(outcome, tuple):
            _, (_, stats) = outcome
            return [stats.instructions]
        return [outcome.cycles, outcome.guest_instructions]

    def work(self, outcome: Any) -> float:
        return float(self.summary(outcome)[-1])

    def problems(self, outcome: Any) -> List[str]:
        if isinstance(outcome, tuple):
            wl, (state, _) = outcome
            if not wl.check(state):
                return [f"golden machine wrong answer on {wl.name}"]
        # Engine runs use check=True: a wrong answer raises.
        return []


# ---------------------------------------------------------------------------
# campaign-faults: a batch campaign with every fault and observer on
# ---------------------------------------------------------------------------

FAULT_JOBS = 100
POPULATION_SEED = 2001
FAULT_INTERARRIVAL_S = 0.004
FAULT_MTBF_S = 0.05
NET_MTBF_S = 0.5
NET_MTTR_S = 0.002


class CampaignFaults(Workload):
    """``repro.cli sched`` on MetaBlade, EASY backfill, everything on."""

    name = "campaign-faults"
    unit = "jobs"
    cases_per_pass = 4

    def __init__(self, export_root: Path) -> None:
        self.export_root = export_root

    def ops(self, case: int, seed: int) -> List[Op]:
        from repro.platform.registry import platform_by_name
        from repro.sched import synthetic_stream

        spec = platform_by_name("metablade")
        # Every case serves the same job population in its own order,
        # arrival times and fault plans: with a fresh population per
        # case, host throughput varied about twice as much between
        # cases (13% against 6.5% coefficient of variation, 8 cases).
        # Seeds are spaced by 10 so the failure (+1) and network (+3)
        # offsets of the CLI convention never land on another case's.
        stream_seed = 10 * case
        population = synthetic_stream(
            jobs=FAULT_JOBS, max_nodes=spec.nodes,
            flop_rate=spec.node_flop_rate(), seed=POPULATION_SEED,
            mean_interarrival_s=FAULT_INTERARRIVAL_S,
        )
        rng = random.Random(stream_seed)
        rng.shuffle(population)
        specs = []
        t = 0.0
        for job_id, job in enumerate(population):
            t += rng.expovariate(1.0 / FAULT_INTERARRIVAL_S)
            specs.append(replace(job, job_id=job_id, arrival_s=t))
        horizon = specs[-1].arrival_s + FAULT_JOBS * FAULT_INTERARRIVAL_S
        return [Op(str(case), lambda: self._serve(
            spec, specs, horizon, stream_seed))]

    def _serve(self, spec, specs, horizon: float, stream_seed: int):
        from repro.network.faults import NetFaultConfig
        from repro.sched import BatchScheduler, SchedConfig, policy_by_name
        from repro.telemetry import Telemetry

        config = SchedConfig(
            checkpoint_every=1, max_retries=3, thermal=True, audit=True,
        )
        net = NetFaultConfig(
            mtbf_s=NET_MTBF_S, mttr_s=NET_MTTR_S,
            seed=stream_seed + 3, horizon_s=horizon,
        )
        sched = BatchScheduler(
            platform=spec, policy=policy_by_name("backfill"),
            config=config, net_fault=net,
        )
        sched.submit_stream(specs)
        sched.inject_poisson_failures(
            horizon_s=horizon, mtbf_s=FAULT_MTBF_S, seed=stream_seed + 1,
        )
        tel = Telemetry()
        tel.attach(sched.kernel)
        outcome = sched.run()
        tel.detach()
        tel.ingest_sched(outcome, platform=spec)
        tel.finish(sched.kernel.now)
        with tempfile.TemporaryDirectory(dir=self.export_root) as out:
            paths = tel.export(out)
            exported = hashlib.sha256()
            for key in sorted(paths):
                exported.update(Path(paths[key]).read_bytes())
        return outcome, exported.hexdigest()

    def summary(self, outcome: Any) -> Any:
        from repro.check import sched_outcome_digest

        sched_outcome, exported = outcome
        net = sched_outcome.net
        return {
            "digest": sched_outcome_digest(sched_outcome),
            "net": [net.windows, net.partitions, net.retransmits, net.drops,
                    net.reroutes],
            "telemetry": exported,
        }

    def work(self, outcome: Any) -> float:
        return float(len(outcome[0].completed))

    def outcomes_for_layers(self, outcome: Any) -> List[Any]:
        return [outcome[0]]


def make_workloads(export_root: Path) -> Dict[str, Workload]:
    return {w.name: w for w in (Guest(), CampaignFaults(export_root))}
