"""Telemetry must be observer-only: on vs off, bit for bit.

Property test over the scheduler configuration space: for any
(policy, failure injection, thermal, platform, seed) combination, a
run carrying the full telemetry stack — span recorder attached,
metrics ingested, exporters exercised — produces the byte-identical
outcome digest and normalized trace hash as a run observed only by
the plain manifest recorder (the infrastructure every committed
golden was made with).  Mirrors the profile-cache differential in
``test_profile_cache.py``; the matrix audit itself is exercised via
:func:`repro.check.run_telemetry_differential`.
"""

from __future__ import annotations

import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import run_telemetry_differential
from repro.check.cachediff import manifest_trace_hash, sched_outcome_digest
from repro.check.manifest import RunManifest, TraceRecorder
from repro.sched.scenario import build_scheduler, scenario_params
from repro.telemetry import Telemetry


def _fingerprints(params, instrument: bool):
    """(outcome digest, trace hash) of one recorded scheduler run."""
    sched = build_scheduler(params)
    tel = None
    if instrument:
        tel = Telemetry()
        tel.attach(sched.kernel)
    with TraceRecorder(sched.kernel) as recorder:
        outcome = sched.run()
    if tel is not None:
        tel.detach()
        tel.ingest_sched(outcome, platform=sched.platform)
        tel.finish(sched.kernel.now)
        with tempfile.TemporaryDirectory() as tmp:
            tel.export(tmp)
    manifest = RunManifest.make(
        "sched", seed=0, params=params, events=recorder.events, payload={},
    )
    return sched_outcome_digest(outcome), manifest_trace_hash(manifest)


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=1, max_value=10_000),
    policy=st.sampled_from(["fcfs", "backfill", "easy"]),
    fail_inject=st.booleans(),
    thermal=st.booleans(),
    platform=st.sampled_from(["metablade", "green-destiny-240"]),
)
def test_telemetry_never_perturbs_a_run(seed, policy, fail_inject,
                                        thermal, platform):
    overrides = {
        "jobs": 5,
        "policy": policy,
        "fail_inject": fail_inject,
        "platform": platform,
        "thermal": thermal,
    }
    if thermal:
        overrides["thermal_accel"] = 150.0
    if fail_inject:
        overrides["checkpoint"] = 1
    params = scenario_params(seed, overrides)
    digest_off, trace_off = _fingerprints(params, instrument=False)
    digest_on, trace_on = _fingerprints(params, instrument=True)
    assert digest_on == digest_off
    assert trace_on == trace_off


def test_telemetry_differential_matrix_quick():
    report = run_telemetry_differential(quick=True)
    assert report.ok, report.format()
    assert len(report.cases) == 3
    for case in report.cases:
        assert case.events_observed > 0
        assert case.metrics > 0


def test_telemetry_differential_report_flags_divergence():
    report = run_telemetry_differential(quick=True)
    case = report.cases[0]
    case.outcome_on = "0" * 64
    assert not case.ok
    assert not report.ok
    assert "DIVERGED" in report.format()
    assert "MISMATCH FOUND" in report.format()


def test_net_fault_runs_count_as_legacy_path():
    # A net_fault run always bypasses the fast path, even when it injects
    # no node failures, so the bare-run comparison must apply to it.
    from repro.check.telemetrydiff import _legacy_path_forced

    params = scenario_params(
        2002, {"jobs": 4, "net_fault": True, "net_mtbf": 0.05,
               "net_mttr": 0.003},
    )
    outcome = build_scheduler(params).run()
    assert outcome.failures_injected == 0
    assert _legacy_path_forced(outcome)


def test_net_ledger_divergence_fails_both_audits():
    from repro.check import CacheDiffCase, TelemetryDiffCase
    from repro.sched import NetFaultSummary

    a = NetFaultSummary(windows=3, partitions=1, retransmits=5, drops=0,
                        reroutes=0)
    b = NetFaultSummary(windows=3, partitions=1, retransmits=6, drops=0,
                        reroutes=0)
    cache = CacheDiffCase("net", "d", "d", "t", "t", 0, 0, 4, nets=(a, b))
    tel = TelemetryDiffCase("net", "d", "d", "t", "t", "d", 10, 5,
                            nets=(a, a, b))
    assert not cache.ok and not tel.ok
    assert CacheDiffCase("net", "d", "d", "t", "t", 0, 0, 4,
                         nets=(a, a)).ok
