"""Perf: the event core fast path — hot loop, mailboxes, profile cache.

Two instruments:

- a kernel churn microbench: schedule/cancel/fire storms through the
  lazy-deletion heap, reporting events/second and verifying that the
  compactor keeps the heap near its live size under cancel-heavy load;
- the headline campaign: a 10k-job EASY-backfill stream (600 under
  ``REPRO_BENCH_QUICK=1``) drawn from a finite *template pool* — the
  CMS-tcache situation, where the same job contents recur all day —
  served twice, profile cache on and off.  The run asserts the cache
  delivers at least a 3x wall-clock speedup **and** that the two
  outcomes are bit-identical (the same digest the ``check --diff``
  audit uses).

Results land in ``benchmarks/results/BENCH_event_core.json``.
"""

import random
import time

from repro.check import sched_outcome_digest
from repro.core.events import EventKernel
from repro.metrics.report import format_table
from repro.platform.registry import platform_by_name
from repro.runner import bench_quick, write_bench_json
from repro.sched import (
    BatchScheduler,
    JobSpec,
    JobState,
    MicrokernelSweep,
    NpbKernelJob,
    SchedConfig,
    TreecodeJob,
    policy_by_name,
)

QUICK = bench_quick()
SEED = 2001
JOBS = 600 if QUICK else 10_000
INTERARRIVAL_S = 0.004
PLATFORM = platform_by_name("metablade")

#: The template pool: a production stream re-runs the same job
#: contents over and over (nightly treecode steps, recurring NPB
#: regressions, microkernel sweeps) — exactly the locality a
#: translation cache feeds on.  18 distinct (template, width) keys.
TEMPLATES = [
    MicrokernelSweep(passes=2),
    MicrokernelSweep(passes=3),
    MicrokernelSweep(passes=4, flops_per_pass=1.5e6),
    NpbKernelJob(kernel="EP", n=1 << 10),
    NpbKernelJob(kernel="IS", n=1 << 10, max_key=1 << 7),
    TreecodeJob(n=60, steps=1),
]
WIDTHS = [2, 3, 4]


def _campaign_specs(jobs):
    rng = random.Random(SEED)
    rate = PLATFORM.node_flop_rate()
    specs = []
    t = 0.0
    for job_id in range(jobs):
        t += rng.expovariate(1.0 / INTERARRIVAL_S)
        workload = TEMPLATES[job_id % len(TEMPLATES)]
        nodes = WIDTHS[(job_id // len(TEMPLATES)) % len(WIDTHS)]
        est = 1.5 * workload.est_runtime_s(nodes, rate)
        specs.append(
            JobSpec(job_id, arrival_s=t, nodes=nodes,
                    walltime_est_s=est, workload=workload)
        )
    return specs


def _serve(cache_on, specs):
    sched = BatchScheduler(
        platform=PLATFORM,
        policy=policy_by_name("backfill"),
        config=SchedConfig(profile_cache=cache_on),
    )
    sched.submit_stream(specs)
    start = time.perf_counter()
    outcome = sched.run()
    wall = time.perf_counter() - start
    return outcome, wall


def _kernel_churn(events, cancel_every):
    """Schedule a storm, cancel a slice, fire the rest; events/sec."""
    kernel = EventKernel()
    sink = []
    start = time.perf_counter()
    scheduled = [
        kernel.at(i * 1e-6, sink.append, i) for i in range(events)
    ]
    cancelled = 0
    for i, event in enumerate(scheduled):
        if i % cancel_every:
            event.cancel()
            cancelled += 1
    heap_after_cancels = len(kernel._heap)
    kernel.run()
    wall = time.perf_counter() - start
    assert len(sink) == events - cancelled
    assert kernel.pending() == 0
    # The compactor must have kept the heap from holding all corpses.
    assert heap_after_cancels < events
    return {
        "events": events,
        "cancelled": cancelled,
        "heap_after_cancels": heap_after_cancels,
        "wall_s": wall,
        "events_per_s": events / wall,
    }


def _study():
    churn = _kernel_churn(
        events=50_000 if QUICK else 400_000, cancel_every=3
    )
    specs = _campaign_specs(JOBS)
    on, wall_on = _serve(True, specs)
    off, wall_off = _serve(False, specs)
    return churn, (on, wall_on), (off, wall_off)


def test_event_core_fastpath(benchmark, archive, results_dir):
    churn, (on, wall_on), (off, wall_off) = benchmark.pedantic(
        _study, rounds=1, iterations=1
    )
    speedup = wall_off / wall_on
    digest_on = sched_outcome_digest(on)
    digest_off = sched_outcome_digest(off)

    rows = [
        ["kernel churn (events/s)", round(churn["events_per_s"]), "", ""],
        ["campaign jobs", JOBS, JOBS, ""],
        ["wall (s)", round(wall_on, 3), round(wall_off, 3),
         f"{speedup:.1f}x"],
        ["cache hits", on.cache_hits, off.cache_hits, ""],
        ["cache misses", on.cache_misses, off.cache_misses, ""],
        ["outcome digest", digest_on[:12], digest_off[:12],
         "equal" if digest_on == digest_off else "DIVERGED"],
    ]
    text = format_table(
        ["Metric", "Cache on", "Cache off", "Ratio"], rows,
        title=(
            f"Event-core fast path: {JOBS}-job backfill campaign, "
            "template pool"
        ),
    )
    archive("event_core", text)

    write_bench_json(
        results_dir / "BENCH_event_core.json",
        {
            "bench": "event_core",
            "quick": QUICK,
            "kernel_churn": churn,
            "campaign": {
                "jobs": JOBS,
                "templates": len(TEMPLATES),
                "widths": WIDTHS,
                "wall_on_s": wall_on,
                "wall_off_s": wall_off,
                "speedup": speedup,
                "cache_hits": on.cache_hits,
                "cache_misses": on.cache_misses,
                "cache_bypasses": on.cache_bypasses,
                "makespan_s": on.makespan_s,
                "digest_match": digest_on == digest_off,
            },
        },
    )

    # The correctness gate: memoization must not move a single bit.
    assert digest_on == digest_off
    assert all(r.state is JobState.COMPLETED for r in on.records)

    # The locality gate: every (template, width) pair past the first
    # dispatch is served from cache.
    distinct = len(TEMPLATES) * len(WIDTHS)
    assert on.cache_misses == distinct
    assert on.cache_hits == JOBS - distinct
    assert on.cache_bypasses == 0
    assert off.cache_hits == 0 and off.cache_misses == JOBS

    # The perf gate from the issue: >= 3x on the template campaign.
    assert speedup >= 3.0
