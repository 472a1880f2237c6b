"""Differential audit of the job-profile cache: cache-on vs cache-off.

The profile cache (:mod:`repro.sched.profile_cache`) claims that
memoization is *outcome-invariant*: a scheduling run with the cache
enabled produces bit-identical results to the same run with it
disabled.  This module checks that claim two ways per configuration:

- **Outcome digest** — both runs execute untraced (the fast path is
  live, so the cache actually serves hits) and every outcome field
  that reaches the metrics layer — per-job ledgers, attempt times,
  makespan, allocator busy/down seconds — is folded into a sha256
  digest built from exact float reprs.  The digests must match.
- **Trace hash** — both runs are recorded as full manifests (a
  recording observer is attached, which is itself a cache-bypass
  trigger, so this doubles as a regression check that tracing keeps
  forcing the legacy path).  The normalized event streams must hash
  identically — this is the "committed golden manifests stay
  byte-identical" guarantee in executable form.

``python -m repro.cli check --cache-diff`` runs a small matrix of
(policy × failure injection × thermal × network faults × platform)
configurations and fails loudly on the first mismatch.  The network-
fault ledger (``SchedOutcome.net``) is compared alongside the digest.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

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


def net_mismatch(nets) -> str:
    """Report suffix naming differing ``SchedOutcome.net`` ledgers.

    :func:`sched_outcome_digest` leaves the net ledger out (recorded
    digests predate it), so both audits compare it alongside.  Empty
    when every run agrees.
    """
    if all(net == nets[0] for net in nets):
        return ""
    return f", net ledgers differ: {list(nets)}"


def manifest_trace_hash(manifest) -> str:
    """sha256 over a manifest's normalized event stream (params excluded,
    so two recordings differing only in the cache knob can compare)."""
    from repro.check.manifest import _encode_event

    canonical = json.dumps(
        [_encode_event(e) for e in manifest.events],
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass
class CacheDiffCase:
    """One configuration's cache-on vs cache-off comparison."""

    name: str
    outcome_on: str
    outcome_off: str
    trace_on: str
    trace_off: str
    cache_hits: int
    cache_misses: int
    cache_bypasses: int
    nets: Tuple[Optional[Any], ...]     # SchedOutcome.net per run

    @property
    def ok(self) -> bool:
        return (
            self.outcome_on == self.outcome_off
            and self.trace_on == self.trace_off
            and not net_mismatch(self.nets)
        )


@dataclass
class CacheDiffReport:
    """The full differential audit across the configuration matrix."""

    cases: List[CacheDiffCase] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.cases)

    def format(self) -> str:
        lines = ["profile-cache differential audit (cache-on vs cache-off):"]
        for c in self.cases:
            status = "OK" if c.ok else "DIVERGED"
            lines.append(
                f"  [{status}] {c.name}: outcome "
                f"{c.outcome_on[:12]}/{c.outcome_off[:12]}, trace "
                f"{c.trace_on[:12]}/{c.trace_off[:12]} "
                f"(hits={c.cache_hits} misses={c.cache_misses} "
                f"bypasses={c.cache_bypasses}){net_mismatch(c.nets)}"
            )
        verdict = "all identical" if self.ok else "MISMATCH FOUND"
        lines.append(f"  => {len(self.cases)} configurations, {verdict}")
        return "\n".join(lines)


#: The audit matrix: every bypass trigger appears at least once, and
#: the no-trigger rows are where the cache genuinely serves hits.
_CACHE_DIFF_MATRIX = [
    {"policy": "fcfs"},
    {"policy": "backfill"},
    {"policy": "easy"},
    {"policy": "backfill", "checkpoint": 2},
    {"policy": "fcfs", "fail_inject": True, "checkpoint": 1},
    {"policy": "backfill", "thermal": True, "thermal_accel": 150.0},
    {"policy": "fcfs", "platform": "green-destiny-240"},
    {"policy": "backfill", "platform": "green-destiny-240",
     "fail_inject": True, "checkpoint": 1},
    {"policy": "backfill", "net_fault": True, "net_mtbf": 0.05,
     "net_mttr": 0.003, "checkpoint": 1},
    {"policy": "fcfs", "thermal": True, "thermal_fail": True,
     "thermal_accel": 150.0, "mtbf": 0.03},
]


def run_cache_differential(seed: int = 2001, jobs: int = 8,
                           quick: bool = False) -> CacheDiffReport:
    """Run the cache-on/cache-off matrix and compare both fingerprints."""
    from repro.check.replay import record_sched_manifest
    from repro.sched.scenario import build_scheduler, scenario_params

    matrix = _CACHE_DIFF_MATRIX[:4] if quick else _CACHE_DIFF_MATRIX
    report = CacheDiffReport()
    for overrides in matrix:
        name = ",".join(f"{k}={v}" for k, v in sorted(overrides.items()))
        digests, nets = {}, {}
        hits = misses = bypasses = 0
        for cache_on in (True, False):
            params = scenario_params(
                seed, {**overrides, "jobs": jobs,
                       "profile_cache": cache_on},
            )
            sched = build_scheduler(params)
            outcome = sched.run()
            digests[cache_on] = sched_outcome_digest(outcome)
            nets[cache_on] = outcome.net
            if cache_on:
                hits = outcome.cache_hits
                misses = outcome.cache_misses
                bypasses = outcome.cache_bypasses
        traces = {}
        for cache_on in (True, False):
            manifest = record_sched_manifest(
                seed=seed, jobs=jobs, profile_cache=cache_on, **overrides
            )
            traces[cache_on] = manifest_trace_hash(manifest)
        report.cases.append(
            CacheDiffCase(
                name=name,
                outcome_on=digests[True],
                outcome_off=digests[False],
                trace_on=traces[True],
                trace_off=traces[False],
                cache_hits=hits,
                cache_misses=misses,
                cache_bypasses=bypasses,
                nets=(nets[True], nets[False]),
            )
        )
    return report
