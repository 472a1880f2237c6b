"""Telemetry must be observer-only: on vs off, bit for bit.

Property test over the scheduler configuration space: for any
(policy, failure injection, thermal, platform, seed) combination, a
run carrying the full telemetry stack — span recorder attached,
metrics ingested, exporters exercised — produces the byte-identical
outcome digest and normalized trace hash as a run observed only by
the plain manifest recorder (the infrastructure every committed
golden was made with).  Mirrors the profile-cache differential in
``test_profile_cache.py``; the matrix audit that checks both claims is
exercised via :func:`repro.check.run_differential`.
"""

from __future__ import annotations

import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import (
    DiffCase,
    manifest_trace_hash,
    run_differential,
    sched_outcome_digest,
)
from repro.check.diff import DIFF_MATRIX
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
    report = run_differential(quick=True)
    assert report.ok, report.format()
    assert len(report.cases) == 3
    for case in report.cases:
        assert case.events_observed > 0
        assert case.metrics > 0
    # The quick slice covers a fast-path row, a row whose injected
    # node failures really kill and requeue jobs, and a fault row.
    fast, failing, faulted = report.cases
    assert fast.fast_path_used and fast.cache_bypasses == 0
    assert "fail_inject=True" in failing.name and failing.requeues > 0
    assert "net_fault=True" in faulted.name
    assert not failing.fast_path_used and not faulted.fast_path_used


def test_telemetry_differential_report_flags_divergence():
    report = run_differential(quick=True)
    case = report.cases[0]
    case.observed = ("0" * 64,) + case.observed[1:]
    assert not case.ok
    assert not report.ok
    assert "DIVERGED" in report.format()
    assert "MISMATCH FOUND" in report.format()


def test_fail_inject_rows_fail_nodes_at_the_defaults():
    rows = [row for row in DIFF_MATRIX if row.get("fail_inject")]
    assert rows
    for row in rows:
        outcome = build_scheduler(
            scenario_params(2001, {**row, "jobs": 8})
        ).run()
        assert outcome.failures_injected > 0, row
        assert sum(r.requeues for r in outcome.records) > 0, row


def test_net_fault_runs_count_as_legacy_path():
    # A net_fault run serves no attempt from the fast path, even when it
    # injects no node failures, so the bare-run comparison applies.
    params = scenario_params(
        2002, {"jobs": 4, "net_fault": True, "net_mtbf": 0.05,
               "net_mttr": 0.003},
    )
    outcome = build_scheduler(params).run()
    assert outcome.failures_injected == 0
    assert outcome.cache_hits + outcome.cache_misses == 0
    assert outcome.cache_bypasses == len(outcome.records)


def _case(nets, bare=("d", "d"), hits=0):
    return DiffCase(
        "net", bare=bare, observed=("d", "d", "d"), traces=("t", "t", "t"),
        nets=nets, cache_hits=hits, cache_misses=0, cache_bypasses=4,
        failures_injected=0, requeues=0, events_observed=10, metrics=5,
    )


def test_net_ledger_divergence_fails_both_audits():
    # A net-ledger mismatch fails the case whether it splits the bare
    # cache-on/off pair or the observed runs.
    from repro.sched import NetFaultSummary

    a = NetFaultSummary(windows=3, partitions=1, retransmits=5, drops=0,
                        reroutes=0)
    b = NetFaultSummary(windows=3, partitions=1, retransmits=6, drops=0,
                        reroutes=0)
    assert not _case((a, b, a, a, a)).ok
    assert not _case((a, a, a, a, b)).ok
    assert "net ledgers differ" in _case((a, b, a, a, a)).format()
    assert _case((a,) * 5).ok


def test_bare_must_equal_observed_only_off_the_fast_path():
    assert not _case((None,) * 5, bare=("x", "x")).ok
    assert _case((None,) * 5, bare=("x", "x"), hits=3).ok
