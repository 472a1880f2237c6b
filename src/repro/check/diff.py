"""The scheduler's differential audit: cache on/off × bare/recorded/telemetry.

Two claims about the batch scheduler are checked here, on one
configuration matrix:

- **The profile cache is memoization only.**  A run with
  ``profile_cache`` on must equal the same run with it off, bit for
  bit (:mod:`repro.sched.profile_cache`).
- **Observers only observe.**  Recording a manifest, or attaching the
  full :class:`~repro.telemetry.Telemetry` stack (spans, metrics,
  exporters), must not change a simulated outcome or the normalized
  event stream the committed goldens were recorded from.

Every row runs the scenario five times: bare with the cache on and
off, recorded with the cache on and off, and recorded with telemetry
attached.  The row passes when

- both bare runs have one :func:`sched_outcome_digest`;
- the three observed runs have one digest;
- the three recordings have one :func:`manifest_trace_hash`;
- all five runs have one ``SchedOutcome.net`` ledger (the digest
  leaves it out, since recorded digests predate it);
- and, when the bare run served no attempt from the fast path
  (``cache_hits + cache_misses == 0``), bare equals observed.

That last condition is read from the run, not restated from
:meth:`~repro.sched.scheduler.BatchScheduler._fastpath_eligible`.  An
observer forces every attempt onto the shared-kernel route, while a
bare eligible attempt runs its world at a normalized origin and is
shifted into place; the two routes associate the same float
arithmetic differently and drift at ULP scale, so bare and observed
runs are compared only when both took the shared-kernel route.

``python -m repro.cli check --diff`` runs the matrix and exits
non-zero on any mismatch.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

import numpy as np


def _digestable(value: Any) -> Any:
    """A JSON-stable, exact stand-in for one ledger value."""
    if isinstance(value, float):
        return repr(value)             # shortest repr is bit-exact
    if isinstance(value, np.ndarray):
        return hashlib.sha256(value.tobytes()).hexdigest()
    if isinstance(value, (bool, int, str, type(None))):
        return value
    if hasattr(value, "item"):         # numpy scalar
        return _digestable(value.item())
    if isinstance(value, (tuple, list)):
        return [_digestable(v) for v in value]
    return repr(value)


def sched_outcome_digest(outcome) -> str:
    """sha256 over every outcome field the metrics layer consumes.

    The profile-cache counters are deliberately excluded: hits/misses
    *should* differ between a cache-on and a cache-off run — they
    describe how the work was served, not what it produced.
    """
    doc: Dict[str, Any] = {
        "policy": outcome.policy,
        "nodes": outcome.nodes,
        "flop_rate": _digestable(outcome.flop_rate),
        "makespan_s": _digestable(outcome.makespan_s),
        "failures_injected": outcome.failures_injected,
        "busy_node_seconds": _digestable(
            outcome.allocator.busy_node_seconds()
        ),
        "down_node_seconds": _digestable(
            outcome.allocator.down_node_seconds()
        ),
        "records": [
            {
                "job_id": r.spec.job_id,
                "state": r.state.value,
                "end_s": _digestable(r.end_s),
                "wait_s": _digestable(r.wait_s),
                "energy_j": _digestable(r.energy_j),
                "lost_cpu_s": _digestable(r.lost_cpu_s),
                "checkpoints": r.checkpoints,
                "checkpoint_io_s": _digestable(r.checkpoint_io_s),
                "compute_s": _digestable(r.compute_s),
                "flops": _digestable(r.flops),
                "failures": r.failures,
                "requeues": r.requeues,
                "result": _digestable(r.result),
                "attempts": [
                    [
                        _digestable(a.start_s),
                        _digestable(a.end_s),
                        a.start_unit,
                        a.killed_by_node,
                    ]
                    for a in r.attempts
                ],
            }
            for r in outcome.records
        ],
    }
    if outcome.thermal is not None:
        doc["thermal"] = _digestable(
            (outcome.thermal.peak_c, outcome.thermal.trips,
             outcome.thermal.overtemp_kills, outcome.thermal.heat_j,
             outcome.thermal.fault_candidates, outcome.thermal.faults)
        )
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def manifest_trace_hash(manifest) -> str:
    """sha256 over a manifest's normalized event stream (params excluded,
    so two recordings differing only in the cache knob can compare)."""
    from repro.check.manifest import _encode_event

    canonical = json.dumps(
        [_encode_event(e) for e in manifest.events],
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def _same(values) -> bool:
    return all(v == values[0] for v in values)


def _short(values) -> str:
    return "/".join(v[:12] for v in values)


@dataclass
class DiffCase:
    """One configuration's five runs, fingerprinted."""

    name: str
    bare: Tuple[str, str]            # digests, cache on / off
    observed: Tuple[str, str, str]   # recorded on / off, recorded+telemetry
    traces: Tuple[str, str, str]     # trace hashes of the observed runs
    nets: Tuple[Any, ...]            # SchedOutcome.net of all five runs
    cache_hits: int                  # the bare cache-on run's counters
    cache_misses: int
    cache_bypasses: int
    failures_injected: int
    requeues: int
    events_observed: int             # telemetry span-recorder input
    metrics: int                     # telemetry registry size

    @property
    def fast_path_used(self) -> bool:
        return self.cache_hits + self.cache_misses > 0

    @property
    def ok(self) -> bool:
        return (
            _same(self.bare)
            and _same(self.observed)
            and _same(self.traces)
            and _same(self.nets)
            and (self.fast_path_used or self.bare[0] == self.observed[0])
        )

    def format(self) -> str:
        status = "OK" if self.ok else "DIVERGED"
        nets = "" if _same(self.nets) else (
            f", net ledgers differ: {list(self.nets)}"
        )
        return (
            f"  [{status}] {self.name}: bare {_short(self.bare)}, "
            f"observed {_short(self.observed)}, "
            f"trace {_short(self.traces)} "
            f"(hits={self.cache_hits} misses={self.cache_misses} "
            f"bypasses={self.cache_bypasses} "
            f"failures={self.failures_injected} requeues={self.requeues} "
            f"events={self.events_observed} metrics={self.metrics}){nets}"
        )


@dataclass
class DiffReport:
    """The differential audit across the configuration matrix."""

    cases: List[DiffCase] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.cases)

    def format(self) -> str:
        lines = [
            "scheduler differential audit "
            "(cache on/off x bare/recorded/telemetry):"
        ]
        lines += [c.format() for c in self.cases]
        verdict = "all identical" if self.ok else "MISMATCH FOUND"
        lines.append(f"  => {len(self.cases)} configurations, {verdict}")
        return "\n".join(lines)


#: The audit matrix.  Every perturbation the scheduler knows appears at
#: least once — node failures with requeue from checkpoints, thermal
#: throttling and Arrhenius faults, link outages, both platforms — and
#: the unperturbed rows are where the cache serves hits.  The node-
#: failure rows use MTBFs short enough to kill and requeue jobs at the
#: CLI defaults (seed 2001, 8 jobs).  The first three rows are the
#: ``--quick`` slice: a fast-path row, a node-failure row and a
#: network-fault row.
DIFF_MATRIX: List[Dict[str, Any]] = [
    {"policy": "fcfs"},
    {"policy": "easy", "fail_inject": True, "checkpoint": 1, "mtbf": 0.02},
    {"policy": "backfill", "net_fault": True, "net_mtbf": 0.05,
     "net_mttr": 0.003, "checkpoint": 1},
    {"policy": "backfill"},
    {"policy": "easy"},
    {"policy": "backfill", "checkpoint": 2},
    {"policy": "backfill", "thermal": True, "thermal_accel": 150.0},
    {"policy": "fcfs", "platform": "green-destiny-240"},
    {"policy": "backfill", "platform": "green-destiny-240",
     "fail_inject": True, "checkpoint": 1, "mtbf": 0.01},
    {"policy": "fcfs", "thermal": True, "thermal_fail": True,
     "thermal_accel": 150.0, "mtbf": 0.03},
]

QUICK_ROWS = 3


def _observed_run(params, telemetry: bool):
    """One recorded run, optionally with the full telemetry stack too."""
    from repro.check.manifest import RunManifest, TraceRecorder
    from repro.sched.scenario import build_scheduler
    from repro.telemetry import Telemetry

    sched = build_scheduler(params)
    tel = Telemetry() if telemetry else None
    span = nullcontext()
    if tel is not None:
        tel.attach(sched.kernel)
        span = tel.wall_span("simulate")
    with TraceRecorder(sched.kernel) as recorder, span:
        outcome = sched.run()
    if tel is not None:
        tel.detach()
        tel.ingest_sched(outcome, platform=sched.platform)
        tel.finish(sched.kernel.now)
        with tempfile.TemporaryDirectory() as tmp:
            tel.export(tmp)
    manifest = RunManifest.make(
        "sched", seed=params["seed"], params=params,
        events=recorder.events, payload={},
    )
    return outcome, manifest_trace_hash(manifest), tel


def run_differential(seed: int = 2001, jobs: int = 8,
                     quick: bool = False) -> DiffReport:
    """Run every matrix row five ways and compare the fingerprints."""
    from repro.sched.scenario import build_scheduler, scenario_params

    matrix = DIFF_MATRIX[:QUICK_ROWS] if quick else DIFF_MATRIX
    report = DiffReport()
    for overrides in matrix:
        name = ",".join(f"{k}={v}" for k, v in sorted(overrides.items()))
        runs = {
            cache_on: scenario_params(
                seed, {**overrides, "jobs": jobs, "profile_cache": cache_on}
            )
            for cache_on in (True, False)
        }
        bare = [build_scheduler(runs[c]).run() for c in (True, False)]
        observed = [
            _observed_run(runs[True], telemetry=False),
            _observed_run(runs[False], telemetry=False),
            _observed_run(runs[True], telemetry=True),
        ]
        tel = observed[2][2]
        outcomes = bare + [o for o, _, _ in observed]
        report.cases.append(
            DiffCase(
                name=name,
                bare=tuple(sched_outcome_digest(o) for o in bare),
                observed=tuple(
                    sched_outcome_digest(o) for o, _, _ in observed
                ),
                traces=tuple(trace for _, trace, _ in observed),
                nets=tuple(o.net for o in outcomes),
                cache_hits=bare[0].cache_hits,
                cache_misses=bare[0].cache_misses,
                cache_bypasses=bare[0].cache_bypasses,
                failures_injected=bare[0].failures_injected,
                requeues=sum(r.requeues for r in bare[0].records),
                events_observed=tel.spans.events_seen,
                metrics=len(tel.registry),
            )
        )
    return report


__all__ = [
    "DIFF_MATRIX",
    "DiffCase",
    "DiffReport",
    "manifest_trace_hash",
    "run_differential",
    "sched_outcome_digest",
]
