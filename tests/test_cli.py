"""CLI smoke tests for every subcommand."""

from __future__ import annotations

import argparse
import json

import pytest

from repro.analysis.experiments import ScenarioSpec
from repro.cli import build_parser, main


class _Built(Exception):
    """Raised in place of running the scenario a test only builds."""


@pytest.fixture
def built_spec(monkeypatch):
    """The ScenarioSpec that ``simulate <argv>`` hands to ``run_scenario``."""

    def build(*argv: str) -> ScenarioSpec:
        seen = []

        def capture(spec):
            seen.append(spec)
            raise _Built

        monkeypatch.setattr("repro.cli.run_scenario", capture)
        with pytest.raises(_Built):
            main(["simulate", *argv])
        return seen[0]

    return build


def _rows(out: str) -> dict[str, str]:
    """The ``metric | value`` rows of a printed table."""
    return {
        key.strip(): value.strip()
        for key, value in (line.split("|", 1) for line in out.splitlines() if "|" in line)
    }


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    @pytest.mark.parametrize("protocol", ["1", "2", "3"])
    def test_demo_protocols(self, protocol):
        args = build_parser().parse_args(["demo", "--protocol", protocol])
        assert args.protocol == int(protocol)

    def test_bad_protocol_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", "--protocol", "9"])


class TestCommands:
    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "match: replied -> verified" in out
        assert "stranger: relays silently" in out

    def test_demo_protocol2(self, capsys):
        assert main(["demo", "--protocol", "2"]) == 0
        assert "verified" in capsys.readouterr().out

    def test_population(self, capsys):
        assert main(["population", "--users", "300", "--vocabulary", "3000"]) == 0
        out = capsys.readouterr().out
        assert "population summary" in out
        assert "unique profiles" in out
        assert "collision CDF" in out

    def test_simulate(self, capsys):
        assert main(["simulate", "--nodes", "25"]) == 0
        out = capsys.readouterr().out
        assert "simulate run (seed 1, workers=1)" in out
        assert int(_rows(out)["matches"]) > 0
        assert "nodes_joined" not in out  # churn rows only on open-world runs

    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "Table II" in out


class TestConcurrentSimulate:
    def test_simulate_multiple_episodes(self, capsys):
        assert main([
            "simulate", "--nodes", "24", "--episodes", "4", "--arrival-ms", "20",
        ]) == 0
        rows = _rows(capsys.readouterr().out)
        assert (rows["episodes"], rows["arrival_ms"]) == ("4", "20")
        assert float(rows["episodes_per_sim_sec"]) > 0

    def test_too_many_episodes_rejected(self, capsys):
        assert main(["simulate", "--nodes", "5", "--episodes", "50"]) == 2

    def test_zero_episodes_rejected(self, capsys):
        assert main(["simulate", "--episodes", "0"]) == 2
        assert capsys.readouterr().err.startswith("error: episodes must be")

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_arrival_below_one_ms_rejected(self, value, capsys):
        argv = ["simulate", "--nodes", "20", "--episodes", "3", "--arrival-ms", value]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: --arrival-ms must be >= 1")

    def test_bad_workers_rejected(self, capsys):
        assert main(["simulate", "--nodes", "10", "--workers", "0"]) == 2
        assert capsys.readouterr().err.startswith("error: workers must be")

    def test_simulate_with_workers(self, capsys):
        assert main([
            "simulate", "--nodes", "24", "--episodes", "4", "--arrival-ms", "20",
            "--workers", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "simulate run (seed 1, workers=2)" in out
        assert int(_rows(out)["matches"]) > 0

    def test_workers_choice_leaves_outcomes_unchanged(self, capsys):
        """Sharding identity holds on the CLI path, lossy channel included.

        Only the title names the workers; every measured row must match.
        """
        outputs = {}
        for workers in ("1", "3"):
            assert main([
                "simulate", "--nodes", "30", "--episodes", "4", "--seed", "9",
                "--loss", "0.1", "--retries", "1", "--workers", workers,
            ]) == 0
            out = capsys.readouterr().out
            assert int(_rows(out)["matches"]) > 0
            outputs[workers] = [
                line for line in out.splitlines() if "workers=" not in line
            ]
        assert outputs["1"] == outputs["3"]


class TestLossyChannelFlags:
    def test_lossy_flags_flow_into_metrics(self, capsys):
        assert main([
            "simulate", "--nodes", "24", "--episodes", "3", "--seed", "5",
            "--loss", "0.2", "--dup", "0.1", "--corrupt", "0.05",
            "--jitter-ms", "2", "--retries", "2",
        ]) == 0
        rows = _rows(capsys.readouterr().out)
        assert (rows["jitter_ms"], rows["retries"]) == ("2", "2")
        for counter in ("frames_sent", "frames_dropped", "frames_duplicated",
                        "frames_corrupted"):
            assert int(rows[counter]) > 0, counter

    def test_lossy_run_is_seed_deterministic(self, capsys):
        runs = []
        for _ in range(2):
            assert main([
                "simulate", "--nodes", "24", "--episodes", "3", "--seed", "5",
                "--loss", "0.15", "--retries", "1",
            ]) == 0
            runs.append(capsys.readouterr().out)
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("flag,value", [
        ("--loss", "1.5"), ("--dup", "-0.1"), ("--corrupt", "2"),
        ("--jitter-ms", "-3"), ("--retries", "-1"), ("--retries", "256"),
    ])
    def test_bad_channel_values_exit_cleanly(self, flag, value, capsys):
        assert main(["simulate", "--nodes", "10", flag, value]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_channel_version_flag_parsed(self, built_spec):
        assert built_spec().channel_version == 1
        assert built_spec("--channel-version", "2").channel_version == 2

    def test_unknown_channel_version_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--channel-version", "3"])

    def test_channel_version_changes_a_lossy_run(self, capsys):
        measured = {}
        for version in ("1", "2"):
            assert main([
                "simulate", "--nodes", "24", "--episodes", "3", "--seed", "5",
                "--loss", "0.2", "--jitter-ms", "2", "--retries", "1",
                "--channel-version", version,
            ]) == 0
            rows = _rows(capsys.readouterr().out)
            assert rows.pop("channel_version") == version
            assert int(rows["frames_sent"]) > 0
            measured[version] = rows
        # Both planes run end to end; they draw different fates by design.
        assert measured["1"]["frames_dropped"] != measured["2"]["frames_dropped"]
        assert measured["1"] != measured["2"]

    def test_v2_run_is_seed_deterministic(self, capsys):
        runs = []
        for _ in range(2):
            assert main([
                "simulate", "--nodes", "24", "--episodes", "3", "--seed", "5",
                "--loss", "0.15", "--retries", "1", "--channel-version", "2",
            ]) == 0
            runs.append(capsys.readouterr().out)
        assert runs[0] == runs[1]


class TestReliabilityFlags:
    def test_reliability_flag_parsed(self, built_spec):
        assert built_spec().reliability == "simple"
        assert built_spec("--reliability", "window_fec").reliability == "window_fec"

    def test_unknown_reliability_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--reliability", "carrier-pigeon"])

    def test_retransmit_timeout_flag_parsed(self, built_spec):
        assert built_spec().retransmit_timeout_ms == 1000
        spec = built_spec("--retransmit-timeout-ms", "250")
        assert spec.retransmit_timeout_ms == 250

    def test_window_fec_runs_end_to_end(self, capsys):
        assert main([
            "simulate", "--nodes", "24", "--episodes", "3", "--seed", "5",
            "--loss", "0.15", "--reliability", "window_fec",
            "--channel-version", "2",
        ]) == 0
        rows = _rows(capsys.readouterr().out)
        assert rows["reliability"] == "window_fec"
        assert int(rows["frames_sent"]) > 0

    def test_reliability_flows_into_single_episode_path(self, capsys):
        assert main([
            "simulate", "--nodes", "20", "--seed", "5", "--loss", "0.15",
            "--reliability", "window", "--retries", "2",
            "--retransmit-timeout-ms", "200",
        ]) == 0
        rows = _rows(capsys.readouterr().out)
        assert (rows["reliability"], rows["retransmit_timeout_ms"]) == ("window", "200")


# Every simulate flag: the spec field it sets and two values for it.  Each
# value is tried on top of simulate's defaults and on top of the city
# profile, so every flag is seen overriding both bases -- including at a
# value equal to simulate's own default (nodes 50, seed 1, simple, v1, ...).
SIMULATE_FLAGS = [
    ("--nodes", "nodes", (50, 60)),
    ("--radius", "radio_radius", (0.25, 0.3)),
    ("--protocol", "protocol", (1, 3)),
    ("--seed", "seed", (1, 7)),
    ("--episodes", "episodes", (1, 3)),
    ("--arrival-ms", "arrival_ms", (7, 200)),
    ("--workers", "workers", (2, 3)),
    ("--loss", "loss_rate", (0.0, 0.2)),
    ("--dup", "dup_rate", (0.0, 0.01)),
    ("--reorder", "reorder_rate", (0.0, 0.2)),
    ("--corrupt", "corrupt_rate", (0.0, 0.01)),
    ("--jitter-ms", "jitter_ms", (0, 4)),
    ("--retries", "retries", (1, 2)),
    ("--retransmit-timeout-ms", "retransmit_timeout_ms", (250, 400)),
    ("--reliability", "reliability", ("simple", "stage")),
    ("--channel-version", "channel_version", (1, 2)),
    ("--churn-rate", "churn_rate", (1.5, 0.5)),
    ("--churn-crash-rate", "churn_crash_rate", (0.5, 1.0)),
    ("--fault-plan", "fault_plan", ("blackout", "initiator-crash")),
    ("--profile", "profile", ("campus", "vehicular")),
]


class TestSimulateBuildsOneSpec:
    """``simulate``'s flags build one ScenarioSpec; a given flag always wins."""

    def test_cases_cover_every_simulate_flag(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        options = {
            option
            for action in sub.choices["simulate"]._actions
            for option in action.option_strings
        } - {"-h", "--help"}
        assert options == {flag for flag, _, _ in SIMULATE_FLAGS}

    @pytest.mark.parametrize("profile", [None, "city"])
    @pytest.mark.parametrize("flag,field,values", SIMULATE_FLAGS,
                             ids=[flag for flag, _, _ in SIMULATE_FLAGS])
    def test_given_flag_reaches_the_spec(self, built_spec, profile, flag, field, values):
        base = ("--profile", profile) if profile else ()
        for value in values:
            spec = built_spec(*base, flag, str(value))
            assert getattr(spec, field) == value

    def test_bare_simulate_builds_its_own_defaults(self, built_spec):
        assert built_spec() == ScenarioSpec(
            name="simulate", nodes=50, radio_radius=0.25, seed=1, episodes=1,
        )

    def test_flags_not_given_take_the_profile(self, built_spec):
        assert built_spec("--profile", "city") == ScenarioSpec.from_profile(
            "city", name="city"
        )

    def test_profile_takes_a_given_arrival(self, built_spec):
        assert built_spec("--profile", "campus", "--arrival-ms", "7").arrival_ms == 7

    def test_flags_at_simulate_defaults_override_the_profile(self, built_spec):
        spec = built_spec(
            "--profile", "city", "--reliability", "simple",
            "--channel-version", "1", "--seed", "1",
        )
        assert (spec.reliability, spec.channel_version, spec.seed) == ("simple", 1, 1)


class TestOpenWorldSimulate:
    ARGV = [
        "simulate", "--nodes", "200", "--episodes", "4",
        "--churn-rate", "2", "--fault-plan", "blackout",
    ]

    def test_churn_and_faults_run_deterministically(self, capsys):
        outputs = []
        for _ in range(2):
            assert main(self.ARGV) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        rows = _rows(outputs[0])
        assert rows["fault_plan"] == "blackout"
        assert int(rows["nodes_joined"]) > 0
        assert int(rows["nodes_crashed"]) > 0
        for key in ("nodes_left", "orphaned_replies", "degraded_episodes"):
            assert key in rows

    def test_churn_with_workers_rejected(self, capsys):
        assert main(["simulate", "--churn-rate", "1", "--workers", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: churn/fault runs need one live engine")
        assert "use workers=1" in err


class TestProfiles:
    def test_profiles_list(self, capsys):
        assert main(["profiles", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("city", "campus", "vehicular", "stadium-burst"):
            assert name in out
        assert "window_fec" in out

    def test_profiles_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profiles"])

    def test_unknown_profile_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--profile", "atlantis"])

    def test_simulate_profile_run(self, capsys):
        """The full campus: 300 nodes in one component, so floods match."""
        assert main(["simulate", "--profile", "campus"]) == 0
        out = capsys.readouterr().out
        assert "campus run (seed 0, workers=1)" in out
        rows = _rows(out)
        assert rows["nodes"] == "300"
        assert int(rows["matches"]) > 0
        assert "warning:" not in out

    def test_simulate_profile_overrides_reliability(self, capsys):
        assert main([
            "simulate", "--profile", "campus", "--reliability", "stage", "--retries", "1",
        ]) == 0
        out = capsys.readouterr().out
        rows = _rows(out)
        assert (rows["reliability"], rows["retries"]) == ("stage", "1")
        assert int(rows["matches"]) > 0
        assert "warning:" not in out

    def test_profile_rejects_profile_top(self, capsys):
        """``--profile-top`` is gone; tools/profile_engine.py profiles any spec."""
        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", "--profile", "campus", "--profile-top", "5"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --profile-top" in capsys.readouterr().err


class TestExperiments:
    SPEC = {
        "name": "cli-tiny",
        "nodes": 30,
        "episodes": 2,
        "radio_radius": 0.3,
        "communities": 2,
        "seed": 3,
    }

    def test_run_writes_artifacts(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(self.SPEC))
        out_dir = tmp_path / "results"
        assert main(["experiments", "run", str(spec_path), "--out-dir", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "experiment sweep" in out
        assert (out_dir / "cli-tiny.json").exists()
        assert (out_dir / "cli-tiny.md").exists()

    def test_bad_spec_is_a_clean_error(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({**self.SPEC, "protocol": 9}))
        assert main(["experiments", "run", str(spec_path)]) == 2
        assert "protocol" in capsys.readouterr().err

    def test_missing_spec_file(self, capsys):
        assert main(["experiments", "run", "/no/such/spec.json"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_run_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiments"])
