"""Fault campaigns: registry shape, action semantics, spec integration."""

from __future__ import annotations

import random

import pytest

from repro.analysis.experiments import ScenarioSpec, SpecError, run_scenario
from repro.core.attributes import Profile, RequestProfile
from repro.core.protocols import Initiator, Participant
from repro.network.channel_model import ChannelModel
from repro.network.churn import ChurnModel, ChurnRunner, ChurnSpec
from repro.network.engine import EpisodeSpec, FriendingEngine
from repro.network.faults import (
    FAULT_PLANS,
    FaultAction,
    FaultCampaign,
    available_fault_plans,
    compile_campaign,
    load_fault_plan,
)
from repro.network.simulator import AdHocNetwork
from repro.network.topology import city_topology


class TestRegistry:
    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError) as err:
            load_fault_plan("power-surge")
        message = str(err.value)
        assert "unknown fault plan 'power-surge'" in message
        for name in available_fault_plans():
            assert name in message

    def test_load_by_name_and_passthrough(self):
        campaign = load_fault_plan("blackout")
        assert campaign.name == "blackout"
        assert load_fault_plan(campaign) is campaign

    def test_every_builtin_is_well_formed(self):
        for name, campaign in FAULT_PLANS.items():
            assert campaign.name == name
            assert campaign.description
            assert campaign.actions
            compiled = compile_campaign(campaign, 0, 100_000)
            assert all(0 <= t <= 100_000 for t, _ in compiled)


class TestActionValidation:
    def test_at_must_be_fraction(self):
        with pytest.raises(ValueError, match="horizon fraction"):
            FaultAction(at=1.5, kind="crash_initiator")

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultAction(at=0.5, kind="meteor")

    def test_crash_fraction_bounds(self):
        with pytest.raises(ValueError, match="fraction"):
            FaultAction(at=0.5, kind="crash_fraction", fraction=0.0)

    def test_wake_after_ordering(self):
        with pytest.raises(ValueError, match="wake_after"):
            FaultAction(at=0.6, kind="crash_fraction", fraction=0.1,
                        wake_after=0.5)

    def test_session_pressure_needs_count_and_ttl(self):
        with pytest.raises(ValueError, match="session_pressure"):
            FaultAction(at=0.5, kind="session_pressure", count=0, ttl_ms=100)

    def test_campaign_must_be_time_ordered(self):
        with pytest.raises(ValueError, match="time-ordered"):
            FaultCampaign("bad", "x", (
                FaultAction(at=0.9, kind="crash_initiator"),
                FaultAction(at=0.1, kind="crash_initiator"),
            ))

    def test_compile_pins_fractions(self):
        campaign = FaultCampaign("c", "x", (
            FaultAction(at=0.0, kind="crash_initiator"),
            FaultAction(at=0.5, kind="crash_initiator"),
            FaultAction(at=1.0, kind="crash_initiator"),
        ))
        assert [t for t, _ in compile_campaign(campaign, 1_000, 11_000)] == [
            1_000, 6_000, 11_000,
        ]


def _city(session_limit: int = 4096):
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
    channel = ChannelModel(drop_rate=0.05, seed=5, version=2)
    network = AdHocNetwork(adjacency, participants, channel=channel,
                           session_limit=session_limit)
    return network, positions, nodes


def _initiator(episode: int) -> Initiator:
    return Initiator(
        RequestProfile(necessary=[f"c{episode % 3}:t0"],
                       optional=[f"c{episode % 3}:t1"], beta=1, normalized=True),
        protocol=2, rng=random.Random(7000 + episode),
    )


def _drive(engine, positions, faults):
    runner = ChurnRunner(
        engine, ChurnModel(ChurnSpec(), seed=3),
        positions=dict(positions), radio_radius=0.12, faults=faults,
    )
    runner.drive(0, 10_000)
    return engine.finish()


class TestActionSemantics:
    def test_session_pressure_fills_bounded_tables(self):
        network, positions, nodes = _city(session_limit=48)
        engine = FriendingEngine(network)
        engine.begin([EpisodeSpec(initiator_node=nodes[0],
                                  initiator=_initiator(0), start_ms=0)])
        action = FaultAction(at=0.1, kind="session_pressure",
                             count=64, ttl_ms=2_000)
        _drive(engine, positions, [(1_000, action)])
        # 64 synthetic sessions against a 48-slot table: eviction pressure,
        # never unbounded growth
        assert all(len(n.sessions) <= 48 for n in network.nodes.values())
        assert any(len(n.sessions) > 0 for n in network.nodes.values())
        assert engine.live_episode_count() == 0

    def test_blackout_crashes_and_wakes_a_tenth(self):
        network, positions, nodes = _city()
        engine = FriendingEngine(network)
        engine.begin([EpisodeSpec(initiator_node=nodes[0],
                                  initiator=_initiator(0), start_ms=0)])
        faults = compile_campaign(load_fault_plan("blackout"), 0, 10_000)
        result = _drive(engine, positions, faults)
        total = result.aggregate.total
        assert total.nodes_crashed == 15  # 10% of 150
        assert total.nodes_joined == 15   # all woken at 60%
        assert not engine.wedged_episodes()


class TestSpecIntegration:
    def test_fault_plan_field_is_validated(self):
        with pytest.raises(SpecError) as err:
            ScenarioSpec(name="x", fault_plan="power-surge")
        assert "available:" in str(err.value)

    def test_fault_plan_rides_in_records(self):
        record = run_scenario(ScenarioSpec(
            name="x", nodes=100, episodes=2, seed=4, radio_radius=0.2,
            until_ms=8_000, fault_plan="session-pressure",
        ))
        assert record["fault_plan"] == "session-pressure"
        assert record["spec"]["fault_plan"] == "session-pressure"

    def test_initiator_crash_plan_degrades_episode(self):
        record = run_scenario(ScenarioSpec(
            name="x", nodes=100, episodes=1, seed=4, radio_radius=0.2,
            until_ms=200, retries=2, fault_plan="initiator-crash",
        ))
        assert record["nodes_crashed"] == 1
        assert record["degraded_episodes"] == 1
