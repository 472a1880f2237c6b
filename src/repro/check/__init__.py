"""repro.check: deterministic replay, invariant audit, differential fuzz.

PRs so far assert bit-determinism ad hoc — "Table 2 bit-identical",
"pooled sweeps byte-identical" — by eyeballing regenerated output.
This package turns that convention into a checked property:

- :mod:`repro.check.manifest` — a structured run manifest: seed,
  config hash, and the normalized per-event trace (virtual timestamps
  included) that a recording :class:`~repro.core.events.EventKernel`
  emits.  Manifests round-trip through JSON with bit-exact floats.
- :mod:`repro.check.replay` — record a run, then re-execute it against
  its manifest: every trace event is compared online as the replay
  emits it, and the first divergence is reported with kernel context
  (the mismatching event, the clock, the pending queue, rank clocks).
- :mod:`repro.check.auditors` — invariant auditors registered on the
  kernel (virtual-clock monotonicity, same-timestamp insertion order,
  message conservation per world, retransmit-ledger conservation under
  the network fault layer) plus outcome-level audits (flop vs
  compute-time ledger, energy vs PowerModel, allocator busy/down
  interval consistency).  Opt in via ``SchedConfig(audit=True)`` or
  ``SimConfig(audit=True)``.
- :mod:`repro.check.diff` — the scheduler's differential audit
  behind ``python -m repro.cli check --diff``: each configuration of a
  scheduler matrix runs bare with the profile cache on and off,
  recorded with it on and off, and recorded with the full telemetry
  stack attached, and the outcome digests, trace hashes and net
  ledgers must agree bit for bit.
- :mod:`repro.check.fuzz` — the differential fuzz driver behind
  ``python -m repro.cli check --fuzz``: randomized cases through four
  oracles (CMS translator vs golden interpreter, port-simulator block
  memo vs per-instruction timing, batched vs naive treecode traversal,
  FCFS vs EASY-backfill schedule safety), with
  failing cases shrunk and written as replayable manifest files.
"""

from repro.check.auditors import (
    ClockOrderAuditor,
    InvariantViolation,
    MessageConservationAuditor,
    RetransmitConservationAuditor,
    attach_auditors,
    audit_sched_outcome,
    audit_sim_result,
    detach_auditors,
)
from repro.check.diff import (
    DiffCase,
    DiffReport,
    manifest_trace_hash,
    run_differential,
    sched_outcome_digest,
)
from repro.check.manifest import RunManifest, TraceRecorder, mutate_event
from repro.check.replay import (
    Divergence,
    ReplayReport,
    TraceChecker,
    record_fig3_manifest,
    record_sched_manifest,
    record_simmpi_manifest,
    record_table2_manifest,
    replay_manifest,
    verify_golden_manifest,
)
from repro.check.fuzz import (
    FuzzFailure,
    FuzzReport,
    ORACLES,
    run_fuzz,
    run_fuzz_case,
)
__all__ = [
    "ClockOrderAuditor",
    "DiffCase",
    "DiffReport",
    "Divergence",
    "FuzzFailure",
    "FuzzReport",
    "InvariantViolation",
    "MessageConservationAuditor",
    "ORACLES",
    "ReplayReport",
    "RetransmitConservationAuditor",
    "RunManifest",
    "TraceChecker",
    "TraceRecorder",
    "attach_auditors",
    "audit_sched_outcome",
    "audit_sim_result",
    "detach_auditors",
    "manifest_trace_hash",
    "mutate_event",
    "record_fig3_manifest",
    "record_sched_manifest",
    "record_simmpi_manifest",
    "record_table2_manifest",
    "replay_manifest",
    "run_differential",
    "run_fuzz",
    "sched_outcome_digest",
    "run_fuzz_case",
    "verify_golden_manifest",
]
