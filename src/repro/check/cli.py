"""``python -m repro.cli check``: the checking layer's front end.

Modes (mutually exclusive):

- ``--fuzz``            run the differential fuzz campaign
- ``--record PATH``     record a run manifest (``--kind`` picks the
                        recipe: sched | simmpi | table2 | fig3)
- ``--replay PATH``     replay-verify any saved manifest
- ``--diff``            differential audit of the scheduler: every
                        configuration of a matrix runs bare with the
                        profile cache on and off, recorded with it on
                        and off, and recorded with telemetry attached;
                        outcome digests, trace hashes and net ledgers
                        must agree bit for bit

Exit status is non-zero on any divergence or fuzz failure, and
divergence reports are written under ``--out`` so CI can upload them
as artifacts.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.sched.scenario import add_scenario_arguments, scenario_args


def add_check_arguments(parser: argparse.ArgumentParser) -> None:
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--fuzz", action="store_true",
                      help="run the differential fuzz campaign")
    mode.add_argument("--record", metavar="PATH", default=None,
                      help="record a run manifest to PATH")
    mode.add_argument("--replay", metavar="PATH", default=None,
                      help="replay-verify the manifest at PATH")
    mode.add_argument("--diff", action="store_true",
                      help="scheduler differential audit (cache on/off x "
                           "bare/recorded/telemetry, bit-exact)")
    parser.add_argument("--kind", default="sched",
                        choices=["sched", "simmpi", "table2", "fig3"],
                        help="what --record records (default: sched)")
    parser.add_argument("--seed", type=int, default=2001,
                        help="campaign / manifest seed")
    parser.add_argument("--cases", type=int, default=None,
                        help="fuzz cases (default: 216 quick, 600 full)")
    parser.add_argument("--quick", action="store_true",
                        help="small fuzz ranges / diff matrix (CI smoke)")
    parser.add_argument("--out", metavar="DIR", default="check_reports",
                        help="directory for divergence/fuzz reports")
    # The sched recording scenario; --jobs also sizes the diff audit.
    add_scenario_arguments(parser, jobs=8)


def _write_report(out_dir: str, name: str, text: str) -> Path:
    path = Path(out_dir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n")
    return path


def cmd_check(args) -> int:
    from repro.check import (
        RunManifest,
        record_fig3_manifest,
        record_sched_manifest,
        record_simmpi_manifest,
        record_table2_manifest,
        replay_manifest,
        run_differential,
        run_fuzz,
    )

    if args.diff:
        report = run_differential(
            seed=args.seed, jobs=args.jobs, quick=args.quick,
        )
        print(report.format())
        if not report.ok:
            path = _write_report(args.out, "diff_report.txt",
                                 report.format())
            print(f"differential report written to {path}")
            return 1
        return 0

    if args.fuzz:
        cases = args.cases
        if cases is None:
            cases = 216 if args.quick else 600
        report = run_fuzz(
            cases=cases, seed=args.seed, quick=args.quick,
            out_dir=args.out,
        )
        print(report.format())
        if not report.ok:
            path = _write_report(args.out, "fuzz_report.txt",
                                 report.format())
            print(f"fuzz report written to {path}")
            return 1
        return 0

    if args.record is not None:
        if args.kind == "sched":
            manifest = record_sched_manifest(
                seed=args.seed, **scenario_args(args)
            )
        elif args.kind == "simmpi":
            manifest = record_simmpi_manifest(seed=args.seed)
        elif args.kind == "table2":
            manifest = record_table2_manifest(seed=args.seed)
        else:
            manifest = record_fig3_manifest(seed=args.seed)
        path = manifest.save(args.record)
        print(
            f"recorded {manifest.kind} manifest: {len(manifest.events)} "
            f"events, config {manifest.config_hash[:12]}, -> {path}"
        )
        return 0

    manifest = RunManifest.load(args.replay)
    report = replay_manifest(manifest)
    print(report.format())
    if not report.ok:
        path = _write_report(
            args.out,
            f"divergence_{manifest.kind}_{manifest.config_hash[:12]}.txt",
            report.format(),
        )
        print(f"divergence report written to {path}")
        return 1
    return 0
