"""CLI smoke tests for every subcommand."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


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
        assert main(["simulate", "--nodes", "25", "--theta", "0.9"]) == 0
        out = capsys.readouterr().out
        assert "friending episode" in out
        assert "matches" in out

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
        out = capsys.readouterr().out
        assert "concurrent friending" in out
        assert "per-episode outcomes" in out
        assert "episodes_per_sim_sec" in out

    def test_too_many_episodes_rejected(self, capsys):
        assert main(["simulate", "--nodes", "5", "--episodes", "50"]) == 2

    def test_bad_workers_rejected(self, capsys):
        assert main(["simulate", "--nodes", "10", "--workers", "0"]) == 2
        assert "--workers" in capsys.readouterr().err

    def test_simulate_with_workers(self, capsys):
        assert main([
            "simulate", "--nodes", "24", "--episodes", "4", "--arrival-ms", "20",
            "--workers", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "workers=2" in out
        assert "per-episode outcomes" in out

    def test_workers_choice_leaves_outcomes_unchanged(self, capsys):
        """Sharding identity holds on the CLI path, lossy channel included.

        Requires per-episode seeded initiator RNGs in `_run_simulate`: an
        episode's request bytes must not depend on how many episodes ran
        before it in the same process.
        """
        outputs = {}
        for workers in ("1", "3"):
            assert main([
                "simulate", "--nodes", "30", "--episodes", "4", "--seed", "9",
                "--loss", "0.1", "--retries", "1", "--workers", workers,
            ]) == 0
            out = capsys.readouterr().out
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
        out = capsys.readouterr().out
        assert "frames_sent" in out
        assert "frames_dropped" in out

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

    def test_channel_version_flag_parsed(self):
        parser = build_parser()
        assert parser.parse_args(["simulate"]).channel_version == 1
        args = parser.parse_args(["simulate", "--channel-version", "2"])
        assert args.channel_version == 2

    def test_unknown_channel_version_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--channel-version", "3"])

    def test_channel_version_changes_a_lossy_run(self, capsys):
        outputs = {}
        for version in ("1", "2"):
            assert main([
                "simulate", "--nodes", "24", "--episodes", "3", "--seed", "5",
                "--loss", "0.2", "--jitter-ms", "2", "--retries", "1",
                "--channel-version", version,
            ]) == 0
            outputs[version] = capsys.readouterr().out
        # Both planes run end to end; they draw different fates by design.
        assert "frames_sent" in outputs["1"]
        assert "frames_sent" in outputs["2"]
        assert outputs["1"] != outputs["2"]

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
    def test_reliability_flag_parsed(self):
        parser = build_parser()
        assert parser.parse_args(["simulate"]).reliability == "simple"
        args = parser.parse_args(["simulate", "--reliability", "window_fec"])
        assert args.reliability == "window_fec"

    def test_unknown_reliability_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--reliability", "carrier-pigeon"])

    def test_retransmit_timeout_flag_parsed(self):
        parser = build_parser()
        assert parser.parse_args(["simulate"]).retransmit_timeout_ms == 1000
        args = parser.parse_args(["simulate", "--retransmit-timeout-ms", "250"])
        assert args.retransmit_timeout_ms == 250

    def test_window_fec_runs_end_to_end(self, capsys):
        assert main([
            "simulate", "--nodes", "24", "--episodes", "3", "--seed", "5",
            "--loss", "0.15", "--reliability", "window_fec",
            "--channel-version", "2",
        ]) == 0
        assert "frames_sent" in capsys.readouterr().out

    def test_reliability_flows_into_single_episode_path(self, capsys):
        assert main([
            "simulate", "--nodes", "20", "--seed", "5", "--loss", "0.15",
            "--reliability", "window", "--retries", "2",
            "--retransmit-timeout-ms", "200",
        ]) == 0
        assert "friending episode" in capsys.readouterr().out


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
        assert main([
            "simulate", "--profile", "campus", "--nodes", "40", "--episodes", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "profile run: campus" in out
        assert "reliability" in out

    def test_simulate_profile_overrides_reliability(self, capsys):
        assert main([
            "simulate", "--profile", "campus", "--nodes", "40", "--episodes", "2",
            "--reliability", "stage", "--retries", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "stage" in out

    def test_profile_rejects_profile_top(self, capsys):
        assert main(["simulate", "--profile", "campus", "--profile-top", "5"]) == 2
        assert "--profile-top" in capsys.readouterr().err


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
