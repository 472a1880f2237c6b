"""Differential audit of the telemetry layer: telemetry-on vs off.

:mod:`repro.telemetry` claims to be **observer-only**: attaching a
:class:`~repro.telemetry.Telemetry` handle to a run's kernel must not
change a single simulated outcome.  The claim rests on the kernel's
observer API (observers see each traced event after it is committed) —
but a contract this load-bearing gets checked directly, not argued.

One subtlety inherited from the profile cache: an attached observer is
a cache-bypass trigger, so an instrumented run takes the legacy
shared-kernel path while a bare, cache-eligible run takes the fast
path.  The two paths associate the same float arithmetic differently
(``now + elapsed``-at-origin vs absolute event times) and drift at ULP
scale — a pre-existing property quarantined by ``check --cache-diff``,
which compares within each path, never across.  The committed golden
manifests are all recordings, i.e. legacy-path runs.  The telemetry
contract is therefore checked the same way, per configuration:

- **Outcome digest** — a run instrumented with the full telemetry
  stack (spans attached, metrics ingested, exporters exercised into a
  throwaway directory) must produce the byte-identical
  :func:`~repro.check.cachediff.sched_outcome_digest` as a run
  observed only by the long-proven recording observer.  Telemetry must
  be indistinguishable from the infrastructure the goldens were
  recorded with.
- **Trace hash** — recording with the telemetry observer attached
  alongside must yield the byte-identical normalized event stream
  (:func:`~repro.check.cachediff.manifest_trace_hash`) as recording
  alone: committed goldens stay byte-identical with telemetry in the
  room.
- **Bare-run digest** — on configurations where the fast path is
  ineligible regardless (failure injection, thermal modelling,
  network faults), the
  instrumented run must also match the completely uninstrumented run
  byte-for-byte: there, telemetry-off and telemetry-on share one code
  path and the equality is absolute.

``python -m repro.cli check --telemetry-diff`` runs the matrix and
fails loudly on the first divergence.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from repro.check.cachediff import (
    manifest_trace_hash,
    net_mismatch,
    sched_outcome_digest,
)


@dataclass
class TelemetryDiffCase:
    """One configuration's telemetry-on vs telemetry-off comparison."""

    name: str
    outcome_on: str          # instrumented run (telemetry + recorder)
    outcome_off: str         # recording-observer-only run
    trace_on: str            # manifest recorded with telemetry attached
    trace_off: str           # manifest recorded bare
    outcome_bare: Optional[str]   # uninstrumented run, legacy-path rows
    events_observed: int
    metrics: int
    nets: Tuple[Optional[Any], ...]     # SchedOutcome.net per run

    @property
    def ok(self) -> bool:
        return (
            self.outcome_on == self.outcome_off
            and self.trace_on == self.trace_off
            and (self.outcome_bare is None
                 or self.outcome_bare == self.outcome_on)
            and not net_mismatch(self.nets)
        )


@dataclass
class TelemetryDiffReport:
    """The full differential audit across the configuration matrix."""

    cases: List[TelemetryDiffCase] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.cases)

    def format(self) -> str:
        lines = ["telemetry differential audit (telemetry-on vs off):"]
        for c in self.cases:
            status = "OK" if c.ok else "DIVERGED"
            bare = (
                f", bare {c.outcome_bare[:12]}"
                if c.outcome_bare is not None else ""
            )
            lines.append(
                f"  [{status}] {c.name}: outcome "
                f"{c.outcome_on[:12]}/{c.outcome_off[:12]}{bare}, trace "
                f"{c.trace_on[:12]}/{c.trace_off[:12]} "
                f"(events={c.events_observed} metrics={c.metrics})"
                f"{net_mismatch(c.nets)}"
            )
        verdict = "all identical" if self.ok else "MISMATCH FOUND"
        lines.append(f"  => {len(self.cases)} configurations, {verdict}")
        return "\n".join(lines)


#: The audit matrix: every event family the span recorder consumes
#: appears at least once — failures (node-down/up, requeues), thermal
#: (trips, throttling, overtemp kills, Arrhenius faults), checkpoints,
#: link outages and retransmits, both platforms, and the profile cache
#: both enabled and disabled.
_TELEMETRY_DIFF_MATRIX = [
    {"policy": "fcfs"},
    {"policy": "backfill", "checkpoint": 2},
    {"policy": "easy", "fail_inject": True, "checkpoint": 1},
    {"policy": "backfill", "thermal": True, "thermal_accel": 150.0},
    {"policy": "fcfs", "platform": "green-destiny-240"},
    {"policy": "backfill", "platform": "green-destiny-240",
     "fail_inject": True, "checkpoint": 1, "profile_cache": False},
    {"policy": "backfill", "net_fault": True, "net_mtbf": 0.05,
     "net_mttr": 0.003, "checkpoint": 1},
    {"policy": "fcfs", "thermal": True, "thermal_fail": True,
     "thermal_accel": 150.0, "mtbf": 0.03},
]


def _legacy_path_forced(outcome) -> bool:
    """Whether this run bypassed the fast path even uninstrumented.

    Decided from the *bare run's own outcome*, not its parameters: a
    ``fail_inject`` row whose Poisson draw lands zero faults inside
    the horizon never trips the eligibility check and stays on the
    fast path.  These are the triggers
    :meth:`~repro.sched.scheduler.BatchScheduler._fastpath_eligible`
    reads at dispatch time — thermal modelling, a network fault
    config, and injected failures (pre-run injection bumps
    ``failures_injected`` before the kernel starts).
    """
    return (
        outcome.thermal is not None
        or outcome.net is not None
        or outcome.failures_injected > 0
    )


def _run_instrumented(params, out_dir: str):
    """One fully instrumented run: recorder + spans + ingest + export."""
    from repro.check.manifest import TraceRecorder
    from repro.sched.scenario import build_scheduler
    from repro.telemetry import Telemetry

    sched = build_scheduler(params)
    tel = Telemetry()
    tel.attach(sched.kernel)
    with TraceRecorder(sched.kernel) as recorder:
        with tel.wall_span("simulate"):
            outcome = sched.run()
    tel.detach()
    tel.ingest_sched(outcome, platform=sched.platform)
    tel.finish(sched.kernel.now)
    tel.export(out_dir)
    return outcome, recorder.events, tel


def run_telemetry_differential(seed: int = 2002, jobs: int = 8,
                               quick: bool = False) -> TelemetryDiffReport:
    """Run the telemetry-on/off matrix and compare all fingerprints."""
    from repro.check.manifest import RunManifest, TraceRecorder
    from repro.sched.scenario import build_scheduler, scenario_params

    matrix = _TELEMETRY_DIFF_MATRIX[:3] if quick else _TELEMETRY_DIFF_MATRIX
    report = TelemetryDiffReport()
    for overrides in matrix:
        name = ",".join(f"{k}={v}" for k, v in sorted(overrides.items()))
        params = scenario_params(seed, {**overrides, "jobs": jobs})

        # Telemetry-off baseline: the recording observer alone — the
        # exact infrastructure the committed goldens were made with.
        sched_off = build_scheduler(params)
        with TraceRecorder(sched_off.kernel) as rec_off:
            outcome_off = sched_off.run()
        digest_off = sched_outcome_digest(outcome_off)
        manifest_off = RunManifest.make(
            "sched", seed=seed, params=params, events=rec_off.events,
            payload={},
        )

        # Telemetry-on: the full stack, recorder attached alongside.
        with tempfile.TemporaryDirectory() as tmp:
            outcome_on, events_on, tel = _run_instrumented(params, tmp)
        digest_on = sched_outcome_digest(outcome_on)
        manifest_on = RunManifest.make(
            "sched", seed=seed, params=params, events=events_on,
            payload={},
        )

        # Runs that forced the legacy path anyway compare against the
        # completely uninstrumented run too — absolute equality.
        digest_bare = None
        nets = (outcome_on.net, outcome_off.net)
        bare_outcome = build_scheduler(params).run()
        if _legacy_path_forced(bare_outcome):
            digest_bare = sched_outcome_digest(bare_outcome)
            nets += (bare_outcome.net,)

        report.cases.append(
            TelemetryDiffCase(
                name=name,
                outcome_on=digest_on,
                outcome_off=digest_off,
                trace_on=manifest_trace_hash(manifest_on),
                trace_off=manifest_trace_hash(manifest_off),
                outcome_bare=digest_bare,
                events_observed=tel.spans.events_seen,
                metrics=len(tel.registry),
                nets=nets,
            )
        )
    return report


__all__ = [
    "TelemetryDiffCase",
    "TelemetryDiffReport",
    "run_telemetry_differential",
]
