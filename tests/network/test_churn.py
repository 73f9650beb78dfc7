"""Open-world churn: counter-mode schedules, determinism, degradation.

The churn plane inherits the channel planes' determinism contract: every
schedule decision is a pure function of ``(seed, spec)``, so churn-enabled
runs reproduce byte for byte and extending the horizon never rewrites
history.  The hypothesis property at the bottom is the graceful-degradation
guarantee: joins, leaves, crashes and injections at *arbitrary* times
never deadlock the drain.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import (
    ScenarioSpec,
    churn_horizon,
    churn_runner_for,
    prepare_scenario,
    run_scenario,
)
from repro.core.attributes import Profile, RequestProfile
from repro.core.protocols import Initiator, Participant
from repro.network.channel_model import ChannelModel
from repro.network.churn import ChurnEvent, ChurnModel, ChurnRunner, ChurnSpec
from repro.network.engine import EpisodeSpec, FriendingEngine
from repro.network.simulator import AdHocNetwork
from repro.network.topology import city_topology

SPEC_10K = (
    Path(__file__).resolve().parent.parent.parent
    / "examples" / "specs" / "lossy_city.json"
)


class TestChurnSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            ChurnSpec(join_rate_per_s=-1)
        with pytest.raises(ValueError, match="tick_ms"):
            ChurnSpec(tick_ms=0)
        with pytest.raises(ValueError, match="sleep_ms"):
            ChurnSpec(sleep_ms=-5)
        with pytest.raises(ValueError, match="one event per tick"):
            ChurnSpec(join_rate_per_s=100.0, tick_ms=100)

    def test_active(self):
        assert not ChurnSpec().active
        assert ChurnSpec(crash_rate_per_s=0.1).active


class TestChurnModel:
    SPEC = ChurnSpec(join_rate_per_s=2.0, leave_rate_per_s=1.0,
                     crash_rate_per_s=0.5)

    def test_schedule_is_pure_function_of_seed_and_spec(self):
        a = ChurnModel(self.SPEC, seed=42).events(0, 60_000)
        b = ChurnModel(self.SPEC, seed=42).events(0, 60_000)
        assert a == b
        assert a != ChurnModel(self.SPEC, seed=43).events(0, 60_000)
        assert a != ChurnModel(
            ChurnSpec(join_rate_per_s=2.0, leave_rate_per_s=1.0,
                      crash_rate_per_s=0.5, sleep_ms=1), seed=42
        ).events(0, 60_000)

    def test_prefix_stability(self):
        """Windowed reads concatenate to the full schedule: extending the
        horizon or re-reading in chunks never rewrites earlier events."""
        model = ChurnModel(self.SPEC, seed=7)
        whole = model.events(0, 30_000)
        chunks = []
        for lo in range(0, 30_000, 1_300):
            chunks.extend(model.events(lo, min(lo + 1_300, 30_000)))
        assert whole == chunks

    def test_rates_are_respected(self):
        events = ChurnModel(self.SPEC, seed=3).events(0, 200_000)
        joins = sum(1 for e in e_kinds(events) if e == "join")
        leaves = sum(1 for e in e_kinds(events) if e == "leave")
        crashes = sum(1 for e in e_kinds(events) if e == "crash")
        # 200 sim-seconds at 2/1/0.5 per second: expect ~400/200/100
        assert 300 < joins < 500
        assert 140 < leaves < 260
        assert 60 < crashes < 140

    def test_inactive_spec_yields_nothing(self):
        assert ChurnModel(ChurnSpec(), seed=1).events(0, 10**9) == []

    def test_events_are_slotted_and_ordered(self):
        events = ChurnModel(self.SPEC, seed=9).events(500, 5_000)
        assert all(isinstance(e, ChurnEvent) for e in events)
        assert events == sorted(events, key=lambda e: e.time_ms)
        assert all(500 <= e.time_ms < 5_000 for e in events)


def e_kinds(events):
    return [e.kind for e in events]


# -- scenario-level churn ----------------------------------------------------

def _churn_record(**overrides):
    spec = ScenarioSpec.from_dict({
        "name": "churn-run", "nodes": 120, "episodes": 3, "seed": 11,
        "radio_radius": 0.18, "until_ms": 15_000, "loss_rate": 0.05,
        "channel_version": 2, "churn_rate": 4.0, "churn_crash_rate": 0.5,
        **overrides,
    })
    return run_scenario(spec)


RESULT_KEYS = (
    "matches", "frames_sent", "frame_bytes", "total_bytes", "replies",
    "latency_p50_ms", "latency_p95_ms", "sim_duration_ms", "nodes_joined",
    "nodes_left", "nodes_crashed", "orphaned_replies", "degraded_episodes",
)


class TestScenarioChurn:
    def test_churn_run_is_reproducible(self):
        a, b = _churn_record(), _churn_record()
        assert {k: a[k] for k in RESULT_KEYS} == {k: b[k] for k in RESULT_KEYS}
        assert a["nodes_joined"] > 0 and a["nodes_left"] > 0

    def test_seed_changes_the_run(self):
        assert {k: _churn_record()[k] for k in RESULT_KEYS} != {
            k: _churn_record(seed=12)[k] for k in RESULT_KEYS
        }

    def test_crashed_nodes_wake_with_state_lost(self):
        record = _churn_record(churn_rate=0.0, churn_crash_rate=2.0)
        # every crash books a wake; wakes count as joins
        assert record["nodes_crashed"] > 0
        assert record["nodes_joined"] >= record["nodes_crashed"] // 2


# -- crash-mid-flood regression ---------------------------------------------

def _mini_city(version: int = 2):
    adjacency, positions = city_topology(150, radius=0.12, seed=21)
    nodes = list(adjacency)
    participants = {
        node: Participant(
            Profile([f"c{i % 3}:t{j}" for j in range(3)] + [f"noise:{node}"],
                    user_id=node, normalized=True),
            rng=random.Random(3000 + i),
        )
        for i, node in enumerate(nodes)
    }
    channel = ChannelModel(drop_rate=0.05, seed=5, version=version)
    return AdHocNetwork(adjacency, participants, channel=channel), positions, nodes


def _mini_initiator(episode: int) -> Initiator:
    return Initiator(
        RequestProfile(necessary=[f"c{episode % 3}:t0"],
                       optional=[f"c{episode % 3}:t1"], beta=1, normalized=True),
        protocol=2, rng=random.Random(7000 + episode),
    )


class TestCrashMidFlood:
    """March one initiator down at successive times: every variant drains."""

    @pytest.mark.parametrize("crash_at_ms", [1, 5, 12, 30, 80, 200])
    def test_initiator_crash_never_wedges(self, crash_at_ms):
        network, positions, nodes = _mini_city()
        engine = FriendingEngine(network, retries=2, retransmit_timeout_ms=150)
        engine.begin([
            EpisodeSpec(initiator_node=nodes[0], initiator=_mini_initiator(0),
                        start_ms=0),
            EpisodeSpec(initiator_node=nodes[75], initiator=_mini_initiator(1),
                        start_ms=10),
        ])
        engine.step(crash_at_ms)
        if engine.episode_initiator_node(0) is not None:
            engine.crash_node(nodes[0])
        result = engine.finish()
        assert engine.live_episode_count() == 0
        assert not engine.wedged_episodes()
        total = result.aggregate.total
        if total.nodes_crashed:
            assert total.degraded_episodes == 1
        # the second episode is never collateral damage
        assert result.episodes[1].completed_at_ms >= 10


# -- hypothesis: arbitrary churn never deadlocks -----------------------------

_ACTIONS = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=400),      # step target offset
        st.sampled_from(["join", "leave", "crash", "inject"]),
        st.integers(min_value=0, max_value=10**6),    # victim/placement draw
    ),
    min_size=1, max_size=12,
)


class TestNeverDeadlocks:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(actions=_ACTIONS)
    def test_arbitrary_churn_completes(self, actions):
        network, _, nodes = _mini_city()
        engine = FriendingEngine(network, retries=1, retransmit_timeout_ms=150)
        engine.begin([
            EpisodeSpec(initiator_node=nodes[0], initiator=_mini_initiator(0),
                        start_ms=0),
        ])
        live = set(nodes)
        joined = 0
        injected = 1
        now = 0
        for offset, kind, draw in actions:
            now += offset
            engine.step(now)
            if kind == "join":
                name = f"h{joined}"
                joined += 1
                neighbours = sorted(live)[draw % len(live):][:3] if live else []
                engine.join_node(name, None, neighbours)
                live.add(name)
            elif kind in ("leave", "crash") and len(live) > 3:
                victim = sorted(live)[draw % len(live)]
                live.discard(victim)
                if kind == "crash":
                    engine.crash_node(victim)
                else:
                    engine.leave_node(victim)
            elif kind == "inject" and live:
                node = sorted(live)[draw % len(live)]
                engine.inject(EpisodeSpec(
                    initiator_node=node, initiator=_mini_initiator(injected),
                    start_ms=max(engine._queue.now_ms, now),
                ))
                injected += 1
        result = engine.finish()
        assert engine.live_episode_count() == 0
        assert not engine.wedged_episodes()
        assert len(result.episodes) == injected


# -- sleep-wake through the runner ------------------------------------------

class TestSleepWake:
    def test_crashed_node_wakes_and_rejoins(self):
        network, positions_map, nodes = _mini_city()
        engine = FriendingEngine(network)
        engine.begin([
            EpisodeSpec(initiator_node=nodes[0], initiator=_mini_initiator(0),
                        start_ms=0),
        ])
        model = ChurnModel(
            ChurnSpec(crash_rate_per_s=5.0, sleep_ms=500), seed=13
        )
        runner = ChurnRunner(
            engine, model, positions=dict(positions_map), radio_radius=0.12,
        )
        runner.drive(0, 3_000)
        engine.finish()
        crashed = engine.churn_metrics.nodes_crashed
        woken = engine.churn_metrics.nodes_joined
        assert crashed > 0
        # every crash more than sleep_ms before the horizon wakes again
        assert woken >= crashed - 3
        # woken nodes are back in the mesh
        assert len(runner.live) >= len(nodes) - 3


# -- the 10k city goldens ----------------------------------------------------

@pytest.mark.slow
class TestOpenWorld10kGolden:
    """churn=0 through begin/step/finish reproduces the PR-4 flood bytes."""

    def _stepped_record(self, *, channel_version: int):
        from repro.analysis.experiments import load_plan

        plan = load_plan(SPEC_10K)
        (spec,) = [s for s in plan.specs if s.loss_rate == 0.1]
        spec = ScenarioSpec.from_dict({
            **spec.as_dict(), "channel_version": channel_version,
        })
        prepared = prepare_scenario(spec)
        engine = prepared.engine
        engine.begin([
            EpisodeSpec(initiator_node=node, initiator=initiator,
                        start_ms=i * spec.arrival_ms)
            for i, (node, initiator) in enumerate(prepared.launches)
        ])
        while engine.live_episode_count():
            engine.step(engine._queue.now_ms + 500)
        result = engine.finish()
        return result.aggregate

    def test_v1_golden(self):
        agg = self._stepped_record(channel_version=1)
        assert agg.total.frames_sent == 30586
        assert agg.matches == 116

    def test_v2_golden(self):
        agg = self._stepped_record(channel_version=2)
        assert agg.total.frames_sent == 29461
        assert agg.matches == 104


@pytest.mark.slow
class TestChurn10k:
    """A churn-enabled 10k lossy city really churns."""

    def test_nodes_join(self):
        from repro.analysis.experiments import load_plan

        plan = load_plan(SPEC_10K)
        (spec,) = [s for s in plan.specs if s.loss_rate == 0.1]
        spec = ScenarioSpec.from_dict({
            **spec.as_dict(), "channel_version": 2,
            "churn_rate": 4.0, "churn_crash_rate": 0.5, "until_ms": 10_000,
        })
        assert run_scenario(spec)["nodes_joined"] > 0


# -- shared runner plumbing ---------------------------------------------------

class TestChurnRunnerFor:
    def test_horizon_prefers_until_ms(self):
        spec = ScenarioSpec(name="x", nodes=50, until_ms=9_000, churn_rate=1.0)
        prepared = prepare_scenario(spec)
        prepared.engine.begin()
        assert churn_horizon(spec, prepared.engine) == 9_000
        runner = churn_runner_for(spec, prepared, 9_000)
        assert runner.engine is prepared.engine
        assert runner.model.spec.join_rate_per_s == pytest.approx(0.5)
        assert runner.model.spec.crash_rate_per_s == 0.0

    def test_joiner_participants_are_seeded_by_index(self):
        spec = ScenarioSpec(name="x", nodes=50, churn_rate=1.0)
        prepared = prepare_scenario(spec)
        runner = churn_runner_for(spec, prepared, 1_000)
        a = runner.participant_factory("j0", 0)
        b = runner.participant_factory("j0", 0)
        assert a.profile.attributes == b.profile.attributes
