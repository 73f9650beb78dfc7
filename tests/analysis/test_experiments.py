"""ScenarioSpec parsing, sweep expansion and the experiment runner."""

from __future__ import annotations

import gc
import io
import json
import re
import sys
import weakref
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.analysis import experiments
from repro.analysis.experiments import (
    ScenarioSpec,
    SpecError,
    load_plan,
    prepare_scenario,
    render_markdown_report,
    run_plan,
    run_prepared,
    run_scenario,
)

TINY = {
    "name": "tiny",
    "nodes": 40,
    "episodes": 2,
    "radio_radius": 0.25,
    "communities": 2,
    "seed": 7,
}


class TestSpecValidation:
    def test_defaults_are_valid(self):
        spec = ScenarioSpec()
        assert spec.protocol == 2
        assert spec.arrival_ms == 50

    def test_bad_protocol_id(self):
        with pytest.raises(SpecError, match="protocol"):
            ScenarioSpec.from_dict({**TINY, "protocol": 9})

    def test_negative_arrival_rate(self):
        with pytest.raises(SpecError, match="arrival_rate_per_s"):
            ScenarioSpec.from_dict({**TINY, "arrival_rate_per_s": -5.0})

    def test_zero_arrival_rate(self):
        with pytest.raises(SpecError, match="arrival_rate_per_s"):
            ScenarioSpec.from_dict({**TINY, "arrival_rate_per_s": 0})

    def test_unknown_mobility_model(self):
        with pytest.raises(SpecError, match="unknown mobility model"):
            ScenarioSpec.from_dict({**TINY, "mobility": "levy_flight"})

    def test_unknown_field_rejected(self):
        with pytest.raises(SpecError, match="unknown spec field"):
            ScenarioSpec.from_dict({**TINY, "warp_speed": True})

    def test_refresh_requires_waypoint_mobility(self):
        with pytest.raises(SpecError, match="refresh_interval_ms"):
            ScenarioSpec.from_dict(
                {**TINY, "mobility": "static", "refresh_interval_ms": 100}
            )

    def test_unknown_attacker_kind(self):
        with pytest.raises(SpecError, match="unknown attacker kind"):
            ScenarioSpec.from_dict({**TINY, "attackers": {"mind_control": 0.1}})

    def test_attacker_fraction_bounds(self):
        with pytest.raises(SpecError, match="fraction"):
            ScenarioSpec.from_dict({**TINY, "attackers": {"cheating": 1.5}})
        with pytest.raises(SpecError, match="sum"):
            ScenarioSpec.from_dict(
                {**TINY, "attackers": {"cheating": 0.7, "flooder": 0.7}}
            )

    def test_episodes_capped_by_nodes(self):
        with pytest.raises(SpecError, match="episodes"):
            ScenarioSpec.from_dict({**TINY, "episodes": 1000})

    def test_radio_radius_bounds(self):
        with pytest.raises(SpecError, match="radio_radius"):
            ScenarioSpec.from_dict({**TINY, "radio_radius": 0})
        with pytest.raises(SpecError, match="radio_radius"):
            ScenarioSpec.from_dict({**TINY, "radio_radius": 2.0})

    def test_arrival_ms_from_rate(self):
        spec = ScenarioSpec.from_dict({**TINY, "arrival_rate_per_s": 40})
        assert spec.arrival_ms == 25
        # Very high rates clamp to the 1 ms event-queue resolution.
        assert ScenarioSpec.from_dict(
            {**TINY, "arrival_rate_per_s": 5000}
        ).arrival_ms == 1
        # Every whole-ms stagger round-trips through its rate: `simulate
        # --arrival-ms MS` sets arrival_rate_per_s = 1000 / MS.
        arrival_ms = ScenarioSpec.arrival_ms.fget
        assert all(
            arrival_ms(SimpleNamespace(arrival_rate_per_s=1000 / ms)) == ms
            for ms in range(1, 200_001)
        )

    def test_workers_validation(self):
        assert ScenarioSpec().workers == 1
        assert ScenarioSpec.from_dict({**TINY, "workers": 4}).workers == 4
        with pytest.raises(SpecError, match="workers"):
            ScenarioSpec.from_dict({**TINY, "workers": 0})
        with pytest.raises(SpecError, match="workers"):
            ScenarioSpec.from_dict({**TINY, "workers": 2.5})

    def test_channel_version_defaults_and_validation(self):
        assert ScenarioSpec().channel_version == 1
        assert ScenarioSpec.from_dict(
            {**TINY, "channel_version": 2}
        ).channel_version == 2
        with pytest.raises(SpecError, match="channel_version"):
            ScenarioSpec.from_dict({**TINY, "channel_version": 3})
        with pytest.raises(SpecError, match="channel_version"):
            ScenarioSpec.from_dict({**TINY, "channel_version": "2"})

    def test_channel_version_is_sweepable(self):
        plan = load_plan({
            "name": "chan",
            "base": {**TINY, "loss_rate": 0.1},
            "sweep": {"channel_version": [1, 2]},
        })
        assert [s.channel_version for s in plan.specs] == [1, 2]
        with pytest.raises(SpecError, match="channel_version"):
            load_plan({
                "name": "chan", "base": TINY, "sweep": {"channel_version": [1, 9]},
            })

    def test_workers_incompatible_with_refresh(self):
        with pytest.raises(SpecError, match="workers > 1"):
            ScenarioSpec.from_dict({
                **TINY,
                "mobility": "random_waypoint",
                "refresh_interval_ms": 100,
                "workers": 2,
            })

    @pytest.mark.parametrize("open_world", [
        {"churn_rate": 1.0}, {"fault_plan": "blackout"},
    ])
    def test_open_world_incompatible_with_workers(self, open_world):
        with pytest.raises(SpecError, match=r"need one live engine to "
                                            r"join/crash nodes in; .* use workers=1$"):
            ScenarioSpec.from_dict({**TINY, **open_world, "workers": 2})

    @pytest.mark.parametrize("open_world", [
        {"churn_rate": 1.0}, {"fault_plan": "blackout"},
    ])
    def test_open_world_incompatible_with_refresh(self, open_world):
        with pytest.raises(SpecError, match="exclusive with mid-run topology refreshes"):
            ScenarioSpec.from_dict({
                **TINY, **open_world,
                "mobility": "random_waypoint",
                "refresh_interval_ms": 100,
            })


class TestPlanLoading:
    def test_single_spec(self):
        plan = load_plan(TINY)
        assert plan.name == "tiny"
        assert len(plan.specs) == 1

    def test_sweep_expands_cartesian_product(self):
        plan = load_plan({
            "name": "grid",
            "base": TINY,
            "sweep": {"protocol": [1, 2, 3], "mobility": ["static", "random_waypoint"]},
        })
        assert len(plan.specs) == 6
        names = [s.name for s in plan.specs]
        assert len(set(names)) == 6
        assert all(name.startswith("grid/") for name in names)

    def test_sweep_values_must_be_lists(self):
        with pytest.raises(SpecError, match="non-empty JSON list"):
            load_plan({"name": "x", "base": TINY, "sweep": {"protocol": 2}})

    def test_unsweepable_field_rejected(self):
        with pytest.raises(SpecError, match="cannot sweep"):
            load_plan({"name": "x", "base": TINY, "sweep": {"name": ["a", "b"]}})

    def test_swept_values_are_validated(self):
        with pytest.raises(SpecError, match="protocol"):
            load_plan({"name": "x", "base": TINY, "sweep": {"protocol": [1, 9]}})

    def test_missing_file(self):
        with pytest.raises(SpecError, match="not found"):
            load_plan("/nonexistent/spec.json")

    def test_invalid_json_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SpecError, match="not valid JSON"):
            load_plan(bad)


class TestRunScenario:
    def test_record_shape_matches_throughput_bench(self):
        record = run_scenario(ScenarioSpec.from_dict(TINY))
        # The keys bench_engine_throughput.py's PERF_RECORD also carries.
        for key in (
            "nodes", "episodes", "wall_seconds", "episodes_per_wall_sec",
            "episodes_per_sim_sec", "sim_duration_ms", "matches",
            "latency_p50_ms", "latency_p95_ms", "total_bytes",
        ):
            assert key in record, f"missing bench-compatible key {key}"
        assert record["nodes"] == 40
        assert record["episodes"] == 2
        assert record["matches"] > 0  # dense tiny city: communities must meet
        # Perf records name the worker count they measured.
        assert record["workers"] == 1
        # The paper's byte accounting (Table VII's communication cost).
        assert record["total_bytes"] == record["bytes_broadcast"] + record["bytes_unicast"]
        assert record["candidates"] >= record["replies"] > 0
        # End to end: the build's phases are timed beside the run.
        for key in ("population_seconds", "topology_seconds", "network_seconds"):
            assert record[key] >= 0.0, key

    def test_record_carries_channel_version(self):
        v1 = run_scenario(ScenarioSpec.from_dict({**TINY, "loss_rate": 0.1}))
        assert v1["channel_version"] == 1
        v2 = run_scenario(
            ScenarioSpec.from_dict({**TINY, "loss_rate": 0.1, "channel_version": 2})
        )
        assert v2["channel_version"] == 2
        # Same spec, different fate plane: both valid, not interchangeable.
        assert v2["matches"] >= 0
        assert v1["spec"]["channel_version"] == 1
        assert v2["spec"]["channel_version"] == 2

    def test_record_carries_reliability_fields(self):
        record = run_scenario(ScenarioSpec.from_dict(
            {**TINY, "loss_rate": 0.15, "channel_version": 2,
             "reliability": "window_fec"}
        ))
        assert record["reliability"] == "window_fec"
        assert record["retransmit_timeout_ms"] == 1000
        assert record["profile"] is None
        assert record["fec_recovered"] >= 0
        assert record["selective_retx"] == 0
        assert record["spec"]["reliability"] == "window_fec"

    def test_reliability_is_sweepable(self):
        plan = load_plan({
            "name": "rel",
            "base": {**TINY, "loss_rate": 0.1, "retries": 2},
            "sweep": {"reliability": ["simple", "stage", "window", "window_fec"],
                      "retransmit_timeout_ms": [500]},
        })
        assert [s.reliability for s in plan.specs] == [
            "simple", "stage", "window", "window_fec"
        ]
        assert all(s.retransmit_timeout_ms == 500 for s in plan.specs)
        with pytest.raises(SpecError, match="reliability"):
            load_plan({
                "name": "rel", "base": TINY, "sweep": {"reliability": ["simple", "nope"]},
            })

    def test_v2_scenario_is_deterministic(self):
        spec = ScenarioSpec.from_dict(
            {**TINY, "loss_rate": 0.15, "jitter_ms": 2, "channel_version": 2}
        )
        sim_keys = ("matches", "sim_duration_ms", "nodes_reached", "total_bytes")
        a, b = run_scenario(spec), run_scenario(spec)
        assert {k: a[k] for k in sim_keys} == {k: b[k] for k in sim_keys}

    def test_sharding_agrees_on_results(self):
        sim_keys = (
            "matches", "sim_duration_ms", "nodes_reached", "replies",
            "latency_p50_ms", "latency_p95_ms", "total_bytes",
        )
        baseline = run_scenario(ScenarioSpec.from_dict(TINY))
        sharded = run_scenario(ScenarioSpec.from_dict({**TINY, "workers": 2}))
        assert {k: baseline[k] for k in sim_keys} == {k: sharded[k] for k in sim_keys}
        assert sharded["workers"] == 2

    def test_deterministic_given_seed(self):
        sim_keys = (
            "matches", "sim_duration_ms", "nodes_reached", "replies",
            "latency_p50_ms", "latency_p95_ms",
        )
        a = run_scenario(ScenarioSpec.from_dict(TINY))
        b = run_scenario(ScenarioSpec.from_dict(TINY))
        assert {k: a[k] for k in sim_keys} == {k: b[k] for k in sim_keys}

    def test_attackers_cost_traffic_but_never_match(self):
        honest = run_scenario(ScenarioSpec.from_dict(TINY))
        attacked = run_scenario(ScenarioSpec.from_dict(
            {**TINY, "attackers": {"cheating": 0.3, "flooder": 0.1}}
        ))
        assert attacked["attackers"]["cheating"] > 0
        assert attacked["attackers"]["flooder"] > 0
        assert attacked["rejected_replies"] > honest["rejected_replies"]
        # Forged replies are rejected by the ACK / cardinality checks, so
        # replacing honest nodes can only lose matches, never invent them.
        assert attacked["matches"] <= honest["matches"]

    def test_fragmented_network_is_flagged(self):
        # Radio radius far below the connectivity threshold: the record
        # must carry a loud warning instead of a silent zero-metric run.
        record = run_scenario(ScenarioSpec.from_dict(
            {**TINY, "radio_radius": 0.01}
        ))
        assert record["largest_component_fraction"] < 0.9
        assert any("fragmented" in w for w in record["warnings"])

    def test_healthy_network_has_no_warnings(self):
        record = run_scenario(ScenarioSpec.from_dict(TINY))
        assert record["warnings"] == []
        assert record["largest_component_fraction"] > 0.9
        assert record["mean_degree"] > 0

    def test_mobile_scenario_refreshes_topology(self):
        record = run_scenario(ScenarioSpec.from_dict({
            **TINY,
            "mobility": "random_waypoint",
            "refresh_interval_ms": 20,
        }))
        assert record["topology_refreshes"] > 0


class TestCollectorScope:
    """``run_scenario`` builds with the cyclic collector paused and runs
    with the world frozen, and leaves the collector as it found it."""

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collector(self, request):
        was_enabled = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was_enabled else gc.disable)()

    def test_the_run_sees_a_frozen_world_and_the_callers_collector(
        self, collector, monkeypatch
    ):
        seen = []

        def run(spec, prepared):
            seen.append((gc.isenabled(), gc.get_freeze_count() > 0))
            return run_prepared(spec, prepared)

        monkeypatch.setattr(experiments, "run_prepared", run)
        run_scenario(ScenarioSpec.from_dict(TINY))
        assert seen == [(collector, True)]
        assert gc.isenabled() is collector
        assert gc.get_freeze_count() == 0

    def test_a_run_that_raises_leaves_the_collector_as_it_was(self, collector, monkeypatch):
        def run(spec, prepared):
            raise RuntimeError("engine failure")

        monkeypatch.setattr(experiments, "run_prepared", run)
        with pytest.raises(RuntimeError, match="engine failure"):
            run_scenario(ScenarioSpec.from_dict(TINY))
        assert gc.isenabled() is collector
        assert gc.get_freeze_count() == 0

    @pytest.mark.parametrize("extra", [
        {},
        {"churn_rate": 2.0, "churn_crash_rate": 0.5, "fault_plan": "blackout"},
    ], ids=["closed-world", "churn"])
    def test_a_finished_world_is_freed_without_the_collector(self, extra):
        """The engine is no reference cycle, so dropping the prepared
        world frees it by reference counting alone."""
        spec = ScenarioSpec.from_dict({**TINY, **extra})
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            prepared = prepare_scenario(spec)
            run_prepared(spec, prepared)
            engine = weakref.ref(prepared.engine)
            del prepared
            assert engine() is None
        finally:
            if was_enabled:
                gc.enable()


class TestRunPlan:
    def test_writes_json_and_markdown_artifacts(self, tmp_path):
        json_path, md_path, records = run_plan(
            {"name": "artifacts", "base": TINY, "sweep": {"protocol": [1, 2]}},
            tmp_path,
        )
        assert json_path.exists() and md_path.exists()
        payload = json.loads(json_path.read_text())
        assert payload["plan"] == "artifacts"
        assert len(payload["records"]) == len(records) == 2
        report = md_path.read_text()
        assert "# Experiment report: artifacts" in report
        assert "| scenario |" in report
        for record in records:
            assert record["scenario"] in report

    def test_markdown_report_lists_every_scenario(self):
        records = [
            run_scenario(ScenarioSpec.from_dict({**TINY, "name": f"s{i}"}))
            for i in range(2)
        ]
        report = render_markdown_report("demo", records)
        assert report.count("| s") >= 2
        assert "```json" in report


class TestProfileTool:
    """``tools/profile_engine.py`` profiles the run a record measures."""

    @pytest.mark.parametrize("extra", [
        {"mobility": "static"},
        {"fault_plan": "initiator-crash", "until_ms": 200},
    ])
    def test_reports_the_frames_and_matches_of_run_scenario(self, extra):
        sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))
        import profile_engine

        spec = ScenarioSpec.from_dict({
            "name": "profiled", "nodes": 150, "episodes": 4, "seed": 3,
            "radio_radius": 0.14, "loss_rate": 0.1, "channel_version": 2,
            "reliability": "window_fec", **extra,
        })
        out = io.StringIO()
        profile_engine.profile_spec(spec, top=1, sort="tottime", out=out)
        frames, matches = re.search(
            r"(\d+) frames, (\d+) matches", out.getvalue()
        ).groups()
        record = run_scenario(spec)
        assert (int(frames), int(matches)) == (
            record["frames_sent"], record["matches"]
        )
        assert "warning:" not in out.getvalue()

    def test_prints_the_warnings_of_a_fragmented_city(self):
        sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))
        import profile_engine

        spec = ScenarioSpec.from_dict({**TINY, "radio_radius": 0.01})
        out = io.StringIO()
        profile_engine.profile_spec(spec, top=1, sort="tottime", out=out)
        header, warning = out.getvalue().splitlines()[:2]
        assert header.startswith(f"# {spec.name}: ")
        assert warning.startswith("warning: network is fragmented")
