"""Where the traced run puts its spans, and the per-layer metrics.

Each layer of ``repro`` gets spans around the calls that enter it.
Counts come from the values those calls return or receive, so they
repeat exactly from run to run; ``*_s`` metrics are host seconds spent
inside the outermost calls of a span, except ``core.run_self_s`` and
``sched.run_self_s``, which are self time (the span minus the wrapped
calls nested in it).  ``network.link_busy_s`` and ``sched.lost_cpu_s``
are simulated seconds and ``simmpi.comm_fraction`` is a simulated ratio
(elapsed-weighted over the SimMPI worlds the pass simulated).
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from tracer import Tracer

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("isa.instructions", "count", "lower"),
    ("isa.busy_s", "s", "lower"),
    ("cpus.instructions", "count", "lower"),
    ("cpus.busy_s", "s", "lower"),
    ("cms.instructions", "count", "lower"),
    ("cms.busy_s", "s", "lower"),
    ("cms.interpret_s", "s", "lower"),
    ("cms.translate_s", "s", "lower"),
    ("cms.native_ratio", "ratio", "higher"),
    ("cms.tcache_hit_rate", "ratio", "higher"),
    ("vliw.blocks", "count", "lower"),
    ("vliw.execute_s", "s", "lower"),
    ("nbody.builds", "count", "lower"),
    ("nbody.build_s", "s", "lower"),
    ("nbody.tree_reuse_ratio", "ratio", "higher"),
    ("nbody.traversals", "count", "lower"),
    ("nbody.traversal_s", "s", "lower"),
    ("simmpi.messages", "count", "lower"),
    ("simmpi.bytes", "B", "lower"),
    ("simmpi.post_s", "s", "lower"),
    ("simmpi.comm_fraction", "ratio", "lower"),
    ("simmpi.retransmits", "count", "lower"),
    ("simmpi.retransmit_ratio", "ratio", "lower"),
    ("network.bookings", "count", "lower"),
    ("network.book_s", "s", "lower"),
    ("network.link_busy_s", "s", "lower"),
    ("network.drops", "count", "lower"),
    ("network.partitions", "count", "lower"),
    ("core.events", "count", "lower"),
    ("core.run_self_s", "s", "lower"),
    ("sched.cache_hits", "count", "higher"),
    ("sched.cache_misses", "count", "lower"),
    ("sched.cache_bypasses", "count", "lower"),
    ("sched.cache_hit_ratio", "ratio", "higher"),
    ("sched.requeues", "count", "lower"),
    ("sched.lost_cpu_s", "s", "lower"),
    ("sched.run_self_s", "s", "lower"),
    ("thermal.busy_s", "s", "lower"),
    ("thermal.trips", "count", "lower"),
    ("check.audit_s", "s", "lower"),
    ("telemetry.observe_s", "s", "lower"),
    ("telemetry.export_s", "s", "lower"),
    ("unattributed_s", "s", "lower"),
    ("trace_overhead", "ratio", "lower"),
]

#: Count-valued metrics: equal on every traced pass of one input.
COUNTS = frozenset(
    name for name, unit, _ in PER_LAYER if unit in ("count", "B")
) | {"cms.native_ratio", "cms.tcache_hit_rate", "nbody.tree_reuse_ratio",
     "simmpi.comm_fraction", "simmpi.retransmit_ratio",
     "sched.cache_hit_ratio", "sched.lost_cpu_s",
     "network.link_busy_s"}

#: BatchScheduler methods the event kernel calls back into.
_SCHED_HANDLERS = (
    "_arrive", "_dispatch", "_start_fast", "_profile_job", "_finish_fast",
    "_start", "_world_done", "_finish", "_settle_kill", "_node_fail",
    "_node_repair", "_net_window_start", "_net_window_end",
    "_thermal_trip", "_overtemp_kill", "_end_attempt_thermal", "_on_unit",
)


def _add(name: str, amount_of: Any):
    def after(tracer: Tracer, result, args, kwargs) -> None:
        tracer.counts[name] += amount_of(result, args, kwargs)
    return after


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points of every ``repro`` layer."""
    from repro.check import auditors
    from repro.cms.cms import CodeMorphingSoftware
    from repro.cms.interpreter import GuestInterpreter
    from repro.cms.translator import Translator
    from repro.core.events import EventKernel, Process
    from repro.cpus.crusoe import CrusoeProcessor
    from repro.cpus.portsim import HardwareProcessor
    from repro.isa import machine
    from repro.nbody import traversal
    from repro.nbody.tree import HashedOctree, TreeBuildCache
    from repro.network.link import Calendar
    from repro.sched.scheduler import BatchScheduler
    from repro.simmpi.comm import payload_nbytes
    from repro.simmpi.runtime import SimMpiRuntime
    from repro.telemetry import SpanRecorder, Telemetry
    from repro.thermal.model import ThermalNetwork
    from repro.vliw.engine import VliwEngine

    patch = tracer.patch_method

    # Guest engines.
    tracer.patch_function(
        machine.run_program, "isa.run_program", "isa",
        _add("isa.instructions", lambda r, a, k: r[1].instructions))
    patch(HardwareProcessor, "run_workload", "cpus.run_workload", "cpus",
          _add("cpus.instructions", lambda r, a, k: r.guest_instructions))
    patch(CrusoeProcessor, "run_workload", "cms.run_workload", "cms",
          _add("cms.instructions", lambda r, a, k: r.guest_instructions))

    def after_cms_run(tracer, result, args, kwargs) -> None:
        counts = tracer.counts
        total = result.guest_stats.instructions
        counts["cms.guest_instructions"] += total
        counts["cms.native_instructions"] += (
            total - result.interpreted_instructions)
        stats = args[0].tcache.stats
        counts["cms.tcache_hits"] += stats.hits
        counts["cms.tcache_lookups"] += stats.hits + stats.misses

    patch(CodeMorphingSoftware, "run", "cms.run", "cms", after_cms_run)
    patch(GuestInterpreter, "interpret_block", "cms.interpret", "cms")
    patch(Translator, "translate", "cms.translate", "cms")
    patch(VliwEngine, "execute_block", "vliw.execute", "vliw")

    # Treecode numerics.  Trees built through the cache and directly
    # share one span key, so a cached build is not timed twice.
    patch(HashedOctree, "__init__", "nbody.build", "nbody",
          _add("nbody.builds", lambda r, a, k: 1))

    def after_cache_build(tracer, result, args, kwargs) -> None:
        tracer.counts["nbody.cache_calls"] += 1
        if result.build_kind in ("full_reuse", "topology_reuse"):
            tracer.counts["nbody.cache_reuses"] += 1

    patch(TreeBuildCache, "build", "nbody.build", "nbody",
          after_cache_build)
    tracer.patch_function(
        traversal.tree_accelerations, "nbody.traversal", "nbody")

    # SimMPI and the fabric.
    def obj_bytes(result, args, kwargs) -> int:
        obj = args[3] if len(args) > 3 else kwargs["obj"]
        return payload_nbytes(obj)

    patch(SimMpiRuntime, "post", "simmpi.post", "simmpi",
          _add("simmpi.bytes", obj_bytes))
    # Rank program slices (SimMPI matching plus payload numerics that
    # no narrower span covers), so core self time is the kernel loop.
    patch(Process, "_resume", "simmpi.rank", "simmpi")
    original_launch = SimMpiRuntime.__dict__["launch"]

    def launch(self, fn, *args, on_complete=None, **kwargs):
        def record(result) -> None:
            counts = tracer.counts
            counts["simmpi.worlds_elapsed_s"] += result.elapsed_s
            counts["simmpi.worlds_compute_s"] += result.max_compute_s
            counts["simmpi.retransmits"] += sum(
                s.retransmits for s in result.stats)
            if on_complete is not None:
                on_complete(result)
        return original_launch(self, fn, *args, on_complete=record, **kwargs)

    tracer.replace(SimMpiRuntime, "launch", launch)
    patch(Calendar, "book", "network.book", "network",
          _add("network.link_busy_s",
               lambda r, a, k: a[2] if len(a) > 2 else k["duration"]))

    # Event kernel.  ``step`` must stay untouched: the kernel takes its
    # slow path when a subclass or patch replaces it.
    def kernel_fired(tracer, result, args, kwargs, before) -> None:
        tracer.counts["core.events"] += args[0].fired - before

    patch(EventKernel, "run", "core.run", "core", kernel_fired,
          before=lambda a, k: a[0].fired)

    # Scheduler.
    patch(BatchScheduler, "run", "sched.run", "sched")
    for name in _SCHED_HANDLERS:
        patch(BatchScheduler, name, "sched.handler", "sched")

    # Observers that campaign-faults turns on.
    for name in ("set_power", "set_busy", "set_idle", "finish"):
        patch(ThermalNetwork, name, "thermal.model", "thermal")
    patch(auditors.ClockOrderAuditor, "_on_fire", "check.audit", "check")
    for cls in (auditors.MessageConservationAuditor,
                auditors.RetransmitConservationAuditor):
        for name in ("_on_trace", "finish"):
            patch(cls, name, "check.audit", "check")
    tracer.patch_function(
        auditors.audit_sched_outcome, "check.audit", "check")
    patch(SpanRecorder, "__call__", "telemetry.observe", "telemetry")
    patch(Telemetry, "export", "telemetry.export", "telemetry")
    for name in ("ingest_sched", "finish"):
        patch(Telemetry, name, "telemetry.other", "telemetry")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, wall_s: float,
                  outcomes: List[Any]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (all but ``trace_overhead``).

    *outcomes* are the scheduler outcomes the pass produced; the
    scheduler, thermal and fault ledgers are read from them.
    """
    c = tracer.counts
    busy = tracer.busy
    calls = tracer.calls
    sched: Dict[str, float] = {
        "hits": 0, "misses": 0, "bypasses": 0, "requeues": 0,
        "lost_cpu_s": 0.0, "trips": 0, "drops": 0, "partitions": 0,
    }
    for outcome in outcomes:
        sched["hits"] += outcome.cache_hits
        sched["misses"] += outcome.cache_misses
        sched["bypasses"] += outcome.cache_bypasses
        sched["requeues"] += sum(r.requeues for r in outcome.records)
        sched["lost_cpu_s"] += sum(r.lost_cpu_s for r in outcome.records)
        if outcome.thermal is not None:
            sched["trips"] += outcome.thermal.trips
        if outcome.net is not None:
            sched["drops"] += outcome.net.drops
            sched["partitions"] += outcome.net.partitions
    dispatched = sched["hits"] + sched["misses"] + sched["bypasses"]
    messages = calls("simmpi.post")
    metrics = {
        "isa.instructions": c["isa.instructions"],
        "isa.busy_s": busy("isa.run_program"),
        "cpus.instructions": c["cpus.instructions"],
        "cpus.busy_s": busy("cpus.run_workload"),
        "cms.instructions": c["cms.instructions"],
        "cms.busy_s": busy("cms.run_workload"),
        "cms.interpret_s": busy("cms.interpret"),
        "cms.translate_s": busy("cms.translate"),
        "cms.native_ratio": _ratio(
            c["cms.native_instructions"], c["cms.guest_instructions"]),
        "cms.tcache_hit_rate": _ratio(
            c["cms.tcache_hits"], c["cms.tcache_lookups"]),
        "vliw.blocks": calls("vliw.execute"),
        "vliw.execute_s": busy("vliw.execute"),
        "nbody.builds": c["nbody.builds"],
        "nbody.build_s": busy("nbody.build"),
        "nbody.tree_reuse_ratio": _ratio(
            c["nbody.cache_reuses"], c["nbody.cache_calls"]),
        "nbody.traversals": calls("nbody.traversal"),
        "nbody.traversal_s": busy("nbody.traversal"),
        "simmpi.messages": messages,
        "simmpi.bytes": c["simmpi.bytes"],
        "simmpi.post_s": busy("simmpi.post"),
        "simmpi.comm_fraction": 1.0 - _ratio(
            c["simmpi.worlds_compute_s"], c["simmpi.worlds_elapsed_s"])
        if c["simmpi.worlds_elapsed_s"] else 0.0,
        "simmpi.retransmits": c["simmpi.retransmits"],
        "simmpi.retransmit_ratio": _ratio(c["simmpi.retransmits"], messages),
        "network.bookings": calls("network.book"),
        "network.book_s": busy("network.book"),
        "network.link_busy_s": c["network.link_busy_s"],
        "network.drops": sched["drops"],
        "network.partitions": sched["partitions"],
        "core.events": c["core.events"],
        "core.run_self_s": tracer.layer_self_s.get("core", 0.0),
        "sched.cache_hits": sched["hits"],
        "sched.cache_misses": sched["misses"],
        "sched.cache_bypasses": sched["bypasses"],
        "sched.cache_hit_ratio": _ratio(sched["hits"], dispatched),
        "sched.requeues": sched["requeues"],
        "sched.lost_cpu_s": sched["lost_cpu_s"],
        "sched.run_self_s": tracer.layer_self_s.get("sched", 0.0),
        "thermal.busy_s": busy("thermal.model"),
        "thermal.trips": sched["trips"],
        "check.audit_s": busy("check.audit"),
        "telemetry.observe_s": busy("telemetry.observe"),
        "telemetry.export_s": busy("telemetry.export"),
        "unattributed_s": wall_s - sum(tracer.layer_self_s.values()),
    }
    return {k: float(v) for k, v in metrics.items()}
