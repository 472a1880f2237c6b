"""The command-line interface produces the paper's tables."""

import pytest

from repro.cli import build_parser, main


def test_parser_knows_all_commands():
    parser = build_parser()
    for command in (
        "summary", "table1", "table2", "table3", "table4", "table5",
        "table6", "table7", "fig3", "topper", "green500", "all",
    ):
        args = parser.parse_args([command])
        assert args.command == command


def test_cli_requires_a_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_cli_table5(capsys):
    assert main(["table5"]) == 0
    out = capsys.readouterr().out
    assert "MetaBlade" in out
    assert "$35K" in out


def test_cli_summary(capsys):
    assert main(["summary"]) == 0
    out = capsys.readouterr().out
    assert "633-MHz" in out


def test_cli_summary_is_byte_pinned(capsys):
    # The exact text README's Quickstart quotes.
    assert main(["summary"]) == 0
    assert capsys.readouterr().out == (
        "MetaBlade: 24x 633-MHz Transmeta TM5600 (bladed)\n"
        "  sustained 2.10 Gflops (14% of 15.2 peak)\n"
        "  power 0.52 kW, footprint 6 sq ft\n"
        "  4-year TCO $35K (acquisition $26K, operating $9K)\n"
        "  ToPPeR $16.8K per Gflop\n"
    )


def test_cli_green500(capsys):
    assert main(["green500"]) == 0
    out = capsys.readouterr().out
    assert "Green500-style" in out
    assert "Top500-style" in out


def test_cli_table2_with_options(capsys):
    assert main(["table2", "--particles", "600", "--cpus", "1", "3"]) == 0
    out = capsys.readouterr().out
    assert "Speed-Up" in out


def test_cli_topper(capsys):
    assert main(["topper"]) == 0
    assert "ToPPeR" in capsys.readouterr().out


def test_parser_knows_sched():
    args = build_parser().parse_args(
        ["sched", "--jobs", "12", "--policy", "backfill", "--fail-inject"]
    )
    assert args.command == "sched"
    assert args.jobs == 12
    assert args.policy == "backfill"
    assert args.fail_inject is True
    assert args.seed == 2001


def test_cli_sched_runs_a_small_stream(capsys):
    assert main(
        ["sched", "--jobs", "6", "--policy", "fcfs", "--width", "40"]
    ) == 0
    out = capsys.readouterr().out
    assert "blade  0 |" in out
    assert "Job-stream accounting (fcfs)" in out
    assert "jobs completed" in out


def test_cli_sched_with_failures_and_checkpoints(capsys):
    assert main(
        ["sched", "--jobs", "8", "--policy", "backfill", "--fail-inject",
         "--mtbf", "0.02", "--checkpoint", "1", "--width", "40"]
    ) == 0
    out = capsys.readouterr().out
    assert "Job-stream accounting (backfill)" in out


def test_cli_seed_flag_reproduces_and_varies(capsys):
    def table2(seed):
        assert main(
            ["table2", "--particles", "600", "--cpus", "1", "3",
             "--seed", seed]
        ) == 0
        return capsys.readouterr().out

    assert table2("7") == table2("7")
    assert table2("7") != table2("8")


def test_cli_sched_seed_is_deterministic(capsys):
    def sched(seed):
        assert main(
            ["sched", "--jobs", "5", "--seed", seed, "--width", "40"]
        ) == 0
        return capsys.readouterr().out

    assert sched("3") == sched("3")
    assert sched("3") != sched("4")


def test_check_record_rejects_unknown_platform():
    # Validated at parse time like `sched --platform`, not a KeyError
    # traceback from the registry.
    with pytest.raises(SystemExit) as exc:
        main(["check", "--record", "unused.json", "--platform", "bogus"])
    assert exc.value.code == 2


def test_sched_and_check_record_share_scenario_flags():
    from repro.sched.scenario import scenario_args

    argv = ["--policy", "backfill", "--thermal-fail", "--no-throttle",
            "--net-fault", "--platform", "green-destiny-240"]
    sched = scenario_args(build_parser().parse_args(["sched", *argv]))
    check = scenario_args(
        build_parser().parse_args(["check", "--record", "m.json", *argv])
    )
    assert (sched.pop("jobs"), check.pop("jobs")) == (60, 8)
    assert sched == check
    assert sched["thermal"] is True          # --thermal-fail implies it
    assert sched["throttle"] is False


def test_scenario_params_validation():
    from repro.sched.scenario import DEFAULTS, scenario_params

    assert scenario_params(7, {}) == {**DEFAULTS, "seed": 7}
    with pytest.raises(ValueError, match="unknown sched parameters"):
        scenario_params(7, {"bogus": 1})
    with pytest.raises(ValueError, match="thermal_fail requires"):
        scenario_params(7, {"thermal_fail": True})
