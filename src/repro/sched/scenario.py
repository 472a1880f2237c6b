"""The batch-campaign recipe: one scheduler scenario from one dict.

A *scenario* is a seeded synthetic job stream served on a registry
platform, optionally under Poisson node failures, the thermal model
(and its Arrhenius fault process), link outages and checkpointing.
Everything that serves one — ``python -m repro.cli sched``, ``check
--record`` / ``--replay``, the cache and telemetry differential audits
and the fuzz oracle — builds it here, from the same JSON-able
parameter dict a manifest records, so the recipe cannot drift between
callers.

Seed convention: the job stream draws from ``seed``, Poisson node
failures from ``seed + FAIL_SEED_OFFSET``, the thermal fault process
from ``seed + THERMAL_SEED_OFFSET`` and the link-outage plan from
``seed + NET_SEED_OFFSET``.
"""

from __future__ import annotations

import argparse
from typing import Any, Dict, Mapping

from repro.network.faults import (
    DEFAULT_NET_MTBF_S,
    DEFAULT_NET_MTTR_S,
    NetFaultConfig,
)
from repro.platform.registry import (
    DEFAULT_PLATFORM,
    platform_by_name,
    platform_names,
)
from repro.sched.job import synthetic_stream
from repro.sched.policy import policy_by_name
from repro.sched.scheduler import BatchScheduler, SchedConfig

DEFAULTS: Dict[str, Any] = {
    "jobs": 8,
    "policy": "fcfs",
    "interarrival": 0.004,
    "fail_inject": False,
    "mtbf": 0.05,
    "checkpoint": 0,
    "max_retries": 3,
    "platform": DEFAULT_PLATFORM,
    # Thermal modelling (repro.thermal).  ``thermal`` builds the RC
    # network; ``thermal_accel`` compresses its time constant to the
    # stream's virtual-seconds scale; ``thermal_fail`` swaps the flat
    # Poisson fault process for the Arrhenius-thinned one; ``throttle``
    # off is the no-safeguards counterfactual.
    "thermal": False,
    "thermal_accel": 1.0,
    "thermal_fail": False,
    "throttle": True,
    # Job-profile memoization (repro.sched.profile_cache); outcome-
    # invariant either way, recorded so a replay rebuilds the same
    # configuration.
    "profile_cache": True,
    # Network fault injection (repro.network.faults): link/uplink
    # outages plus the reliable-delivery layer, MTBF/MTTR in virtual
    # stream seconds.
    "net_fault": False,
    "net_mtbf": DEFAULT_NET_MTBF_S,
    "net_mttr": DEFAULT_NET_MTTR_S,
}

FAIL_SEED_OFFSET = 1
THERMAL_SEED_OFFSET = 2
NET_SEED_OFFSET = 3

#: The parameters :func:`add_scenario_arguments` exposes as flags.
_FLAG_KEYS = (
    "jobs", "policy", "fail_inject", "checkpoint", "platform", "thermal",
    "thermal_accel", "thermal_fail", "throttle", "net_fault", "net_mtbf",
    "net_mttr",
)


def scenario_params(seed: int, overrides: Mapping[str, Any]) -> Dict[str, Any]:
    """The full, validated parameter dict of one scenario."""
    unknown = set(overrides) - set(DEFAULTS)
    if unknown:
        raise ValueError(f"unknown sched parameters: {sorted(unknown)}")
    params = {**DEFAULTS, **overrides, "seed": seed}
    if params["thermal_fail"] and not params["thermal"]:
        raise ValueError("thermal_fail requires thermal=True")
    return params


def build_scheduler(params: Mapping[str, Any],
                    audit: bool = False) -> BatchScheduler:
    """One fully submitted :class:`BatchScheduler` for a scenario.

    Keys missing from *params* take their :data:`DEFAULTS` value, so a
    manifest recorded before the platform, thermal, cache or fault
    layer existed rebuilds with that layer off, exactly as recorded.
    """
    p = {**DEFAULTS, **params}
    seed = p["seed"]
    spec = platform_by_name(p["platform"])
    specs = synthetic_stream(
        jobs=p["jobs"],
        max_nodes=spec.nodes,
        flop_rate=spec.node_flop_rate(),
        seed=seed,
        mean_interarrival_s=p["interarrival"],
    )
    config = SchedConfig(
        checkpoint_every=p["checkpoint"] if p["checkpoint"] > 0 else None,
        max_retries=p["max_retries"],
        audit=audit,
        thermal=p["thermal"],
        thermal_accel=p["thermal_accel"],
        throttle=p["throttle"],
        profile_cache=p["profile_cache"],
    )
    horizon = specs[-1].arrival_s + p["jobs"] * p["interarrival"]
    net_fault = None
    if p["net_fault"]:
        net_fault = NetFaultConfig(
            mtbf_s=p["net_mtbf"], mttr_s=p["net_mttr"],
            seed=seed + NET_SEED_OFFSET, horizon_s=horizon,
        )
    sched = BatchScheduler(
        platform=spec, policy=policy_by_name(p["policy"]), config=config,
        net_fault=net_fault,
    )
    sched.submit_stream(specs)
    if p["fail_inject"]:
        sched.inject_poisson_failures(
            horizon_s=horizon, mtbf_s=p["mtbf"],
            seed=seed + FAIL_SEED_OFFSET,
        )
    if p["thermal_fail"]:
        sched.inject_thermal_failures(
            horizon_s=horizon, mtbf_s=p["mtbf"],
            seed=seed + THERMAL_SEED_OFFSET,
        )
    return sched


def add_scenario_arguments(parser: argparse.ArgumentParser,
                           jobs: int) -> None:
    """Declare the scenario flags on a ``sched`` or ``check`` parser."""
    parser.add_argument("--jobs", type=int, default=jobs,
                        help="jobs in the synthetic Poisson stream")
    parser.add_argument("--policy", default=DEFAULTS["policy"],
                        choices=["fcfs", "backfill", "easy"],
                        help="queue policy")
    parser.add_argument("--fail-inject", action="store_true",
                        help="inject Poisson node failures during the run")
    parser.add_argument("--checkpoint", type=int,
                        default=DEFAULTS["checkpoint"],
                        help="checkpoint every N units (0 disables)")
    parser.add_argument("--platform", default=DEFAULTS["platform"],
                        choices=platform_names(),
                        help="registry platform to schedule on; picks node "
                             "count, node rate AND fabric (default: "
                             f"{DEFAULT_PLATFORM})")
    parser.add_argument("--thermal", action="store_true",
                        help="model blade temperatures (lumped-RC network, "
                             "coolest-first placement, thermal throttling)")
    parser.add_argument("--thermal-accel", type=float,
                        default=DEFAULTS["thermal_accel"],
                        help="thermal time-constant compression factor "
                             "(default 1)")
    parser.add_argument("--thermal-fail", action="store_true",
                        help="temperature-modulated fault injection via the "
                             "Arrhenius intensity (implies --thermal; the "
                             "MTBF is the 40 C baseline)")
    parser.add_argument("--no-throttle", dest="throttle",
                        action="store_false",
                        help="disable the trip-point frequency clamp (hot "
                             "blades run to the overtemp kill point)")
    parser.add_argument("--net-fault", action="store_true",
                        help="inject seeded link/uplink outages; SimMPI "
                             "retransmits with timeout/backoff, long node "
                             "outages partition the blade")
    parser.add_argument("--net-mtbf", type=float,
                        default=DEFAULTS["net_mtbf"], metavar="S",
                        help="per-link mean time between outages, virtual "
                             "seconds (default %(default)s)")
    parser.add_argument("--net-mttr", type=float,
                        default=DEFAULTS["net_mttr"], metavar="S",
                        help="mean outage repair time, virtual seconds "
                             "(default %(default)s)")


def scenario_args(args: argparse.Namespace) -> Dict[str, Any]:
    """The scenario overrides named by the flags of a parsed command."""
    given = {key: getattr(args, key) for key in _FLAG_KEYS}
    given["thermal"] = given["thermal"] or given["thermal_fail"]
    return given

