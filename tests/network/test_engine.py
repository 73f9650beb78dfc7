"""Concurrent multi-episode engine: determinism, isolation, aggregation."""

from __future__ import annotations

import random

import pytest

from repro.core.attributes import Profile, RequestProfile
from repro.core.entropy import AttributeDistribution, EntropyPolicy
from repro.core.protocols import Initiator, Participant
from repro.network.engine import EpisodeSpec, FriendingEngine
from repro.network.simulator import AdHocNetwork, RateLimiter
from repro.network.topology import city_topology, complete_topology, line_topology

N_NODES = 100
N_EPISODES = 20


def _community_attrs(i: int, node: str) -> list[str]:
    community = i % N_EPISODES
    return [f"c{community}:t{j}" for j in range(3)] + [f"noise:{node}"]


def _community_participants(nodes: list[str]) -> dict[str, Participant]:
    """Fresh participants; node i belongs to interest community i % 20."""
    return {
        node: Participant(
            Profile(_community_attrs(i, node), user_id=node, normalized=True),
            rng=random.Random(3000 + i),
        )
        for i, node in enumerate(nodes)
    }


def _episode_request(episode: int) -> RequestProfile:
    return RequestProfile(
        necessary=[f"c{episode}:t0"],
        optional=[f"c{episode}:t1", f"c{episode}:t2"],
        beta=1,
        normalized=True,
    )


def _episode_initiator(episode: int) -> Initiator:
    # Seeded per episode so the concurrent and sequential runs broadcast
    # byte-identical request packages.
    return Initiator(
        _episode_request(episode), protocol=2, rng=random.Random(7000 + episode)
    )


class TestDeterminism:
    def test_concurrent_matches_equal_sequential(self):
        """20 overlapping episodes == the same episodes run in isolation."""
        adjacency, _ = city_topology(N_NODES, 0.18, seed=42)
        nodes = list(adjacency)
        stagger_ms = 7

        # Concurrent: one shared network, one event queue.
        network = AdHocNetwork(adjacency, _community_participants(nodes))
        launches = [
            (nodes[episode * (N_NODES // N_EPISODES)], _episode_initiator(episode))
            for episode in range(N_EPISODES)
        ]
        result = FriendingEngine(network).run_staggered(launches, arrival_ms=stagger_ms)
        assert result.aggregate.episodes == N_EPISODES

        overlapping = sum(
            1 for ep in result.episodes[:-1]
            if ep.completed_at_ms > ep.started_at_ms + stagger_ms
        )
        assert overlapping > 0, "episodes never actually overlapped"

        # Sequential: each episode alone on a fresh network with fresh
        # (identically seeded) participants and the same start time.
        for episode, engine_episode in enumerate(result.episodes):
            fresh = AdHocNetwork(adjacency, _community_participants(nodes))
            solo = fresh.run_friending(
                launches[episode][0],
                _episode_initiator(episode),
                start_ms=episode * stagger_ms,
            )
            assert sorted(engine_episode.matched_ids) == sorted(solo.matched_ids), (
                f"episode {episode} diverged between concurrent and solo runs"
            )
            assert engine_episode.metrics.nodes_reached == solo.metrics.nodes_reached
            assert engine_episode.metrics.replies == solo.metrics.replies

    def test_every_community_found(self):
        """Sanity: the determinism scenario finds matches, not empty sets."""
        adjacency, _ = city_topology(N_NODES, 0.18, seed=42)
        nodes = list(adjacency)
        network = AdHocNetwork(adjacency, _community_participants(nodes))
        launches = [
            (nodes[episode * (N_NODES // N_EPISODES)], _episode_initiator(episode))
            for episode in range(N_EPISODES)
        ]
        result = FriendingEngine(network).run_staggered(launches, arrival_ms=7)
        assert result.aggregate.matches >= N_EPISODES


class TestCrossEpisodeIsolation:
    def _overlapping_line_run(self, participants_by_node):
        adjacency, _ = line_topology(4)
        network = AdHocNetwork(adjacency, participants_by_node)
        launches = [
            ("n0", Initiator(
                RequestProfile.exact(["tag:a", "tag:b"], normalized=True),
                protocol=2, rng=random.Random(1),
            )),
            ("n0", Initiator(
                RequestProfile.exact(["tag:a", "tag:b"], normalized=True),
                protocol=2, rng=random.Random(2),
            )),
        ]
        # 1 ms apart: the floods genuinely interleave hop by hop.
        return network, FriendingEngine(network).run_staggered(launches, arrival_ms=1)

    def test_seen_requests_and_parent_maps_keyed_by_request(self):
        matcher = Participant(
            Profile(["tag:a", "tag:b"], user_id="n3", normalized=True),
            rng=random.Random(9),
        )
        participants = {
            "n0": None,
            "n1": Participant(Profile(["tag:x1"], user_id="n1", normalized=True)),
            "n2": Participant(Profile(["tag:x2"], user_id="n2", normalized=True)),
            "n3": matcher,
        }
        network, result = self._overlapping_line_run(participants)
        rids = [ep.initiator.secret.request_id for ep in result.episodes]
        assert rids[0] != rids[1]

        # Both episodes matched the same far-end participant.
        assert [ep.matched_ids for ep in result.episodes] == [["n3"], ["n3"]]
        # The participant answered each request exactly once.
        assert matcher._seen_requests == set(rids)
        assert set(matcher._pending_secrets) == set(rids)

        # Per-request reverse paths coexist in every relay node's sessions.
        for node_id, expected_parent, expected_hops in (
            ("n1", "n0", 1), ("n2", "n1", 2), ("n3", "n2", 3),
        ):
            node = network.nodes[node_id]
            for rid in rids:
                session = node.sessions.get(rid)
                assert session is not None
                assert session.parent == expected_parent
                assert session.hops == expected_hops

    def test_entropy_ledger_accumulates_across_episodes(self):
        """The φ budget spans episodes (cumulative union), never resets."""
        distribution = AttributeDistribution.uniform({"tag": 4})  # 2 bits each
        policy = EntropyPolicy(distribution, phi=4.0)  # room for 2 attributes
        guarded = Participant(
            Profile(["tag:a", "tag:b", "tag:c"], user_id="n3", normalized=True),
            entropy_policy=policy,
            rng=random.Random(9),
        )
        participants = {
            "n0": None,
            "n1": Participant(Profile(["tag:x1"], user_id="n1", normalized=True)),
            "n2": Participant(Profile(["tag:x2"], user_id="n2", normalized=True)),
            "n3": guarded,
        }
        adjacency, _ = line_topology(4)
        network = AdHocNetwork(adjacency, participants)
        launches = [
            ("n0", Initiator(
                RequestProfile.exact(["tag:a", "tag:b"], normalized=True),
                protocol=3, rng=random.Random(1),
            )),
            ("n0", Initiator(
                RequestProfile.exact(["tag:b", "tag:c"], normalized=True),
                protocol=3, rng=random.Random(2),
            )),
        ]
        result = FriendingEngine(network).run_staggered(launches, arrival_ms=1)

        # Episode 1 disclosed {a, b} (4 bits, at budget).  Episode 2 would
        # push the union to {a, b, c} = 6 bits, so the ledger must block it.
        assert result.episodes[0].matched_ids == ["n3"]
        assert result.episodes[1].matched_ids == []
        assert guarded._disclosed == {"tag:a", "tag:b"}


class TestDroppedTtl:
    """dropped_ttl counts suppressed re-broadcasts, one per suppression."""

    def _network(self, adjacency):
        participants = {
            node: None if node == "n0"
            else Participant(Profile([f"tag:{node}"], user_id=node, normalized=True))
            for node in adjacency
        }
        return AdHocNetwork(adjacency, participants)

    def test_line_suppresses_only_at_frontier(self):
        adjacency, _ = line_topology(6)
        network = self._network(adjacency)
        initiator = Initiator(
            RequestProfile.exact(["tag:q"], normalized=True), rng=random.Random(1), ttl=3
        )
        result = network.run_friending("n0", initiator)
        # n1 and n2 re-broadcast; only n3 (ttl exhausted) suppresses.
        assert result.metrics.nodes_reached == 3
        assert result.metrics.dropped_ttl == 1

    def test_complete_graph_every_receiver_suppresses_at_ttl_one(self):
        adjacency, _ = complete_topology(8)
        network = self._network(adjacency)
        initiator = Initiator(
            RequestProfile.exact(["tag:q"], normalized=True), rng=random.Random(1), ttl=1
        )
        result = network.run_friending("n0", initiator)
        assert result.metrics.nodes_reached == 7
        assert result.metrics.dropped_ttl == 7

    def test_duplicates_never_counted_as_ttl_drops(self):
        adjacency, _ = complete_topology(8)
        network = self._network(adjacency)
        initiator = Initiator(
            RequestProfile.exact(["tag:q"], normalized=True), rng=random.Random(1), ttl=2
        )
        result = network.run_friending("n0", initiator)
        # Every node is reached on the first wave; second-wave copies are
        # duplicates at already-seen nodes, not TTL suppressions.
        assert result.metrics.dropped_ttl == 0
        assert result.metrics.dropped_duplicate > 0


class TestRateLimiterWindow:
    def test_budget_restored_after_window_expires(self):
        limiter = RateLimiter(max_events=3, window_ms=100)
        for t in (0, 10, 20):
            assert limiter.allow("peer", t)
        assert not limiter.allow("peer", 30)
        # 0/10/20 have all left the window; a full budget is available.
        for t in (150, 160, 170):
            assert limiter.allow("peer", t)
        assert not limiter.allow("peer", 180)

    def test_partial_expiry_evicts_only_old_events(self):
        limiter = RateLimiter(max_events=2, window_ms=100)
        assert limiter.allow("peer", 0)
        assert limiter.allow("peer", 90)
        assert not limiter.allow("peer", 95)
        # t=0 expired, t=90 still counts: exactly one slot free.
        assert limiter.allow("peer", 120)
        assert not limiter.allow("peer", 130)


class TestAggregation:
    def test_staggered_starts_and_percentiles(self):
        adjacency, _ = city_topology(30, 0.3, seed=5)
        nodes = list(adjacency)
        participants = {
            node: Participant(
                Profile(["tag:a", "tag:b"] if i % 3 == 0 else [f"tag:z{i}"],
                        user_id=node, normalized=True),
                rng=random.Random(i),
            )
            for i, node in enumerate(nodes)
        }
        network = AdHocNetwork(adjacency, participants)
        launches = [
            (nodes[i], Initiator(
                RequestProfile.exact(["tag:a", "tag:b"], normalized=True),
                protocol=2, rng=random.Random(40 + i),
            ))
            for i in (1, 2, 4)
        ]
        result = FriendingEngine(network).run_staggered(launches, arrival_ms=100)

        assert [ep.started_at_ms for ep in result.episodes] == [0, 100, 200]
        for episode in result.episodes:
            assert episode.completed_at_ms >= episode.started_at_ms
        agg = result.aggregate
        assert agg.episodes == 3
        assert agg.matches > 0
        assert 0 < agg.latency_p50_ms <= agg.latency_p95_ms
        assert agg.episodes_per_sim_sec > 0
        assert agg.total.replies == sum(ep.metrics.replies for ep in result.episodes)

    def test_run_requires_episodes_and_known_nodes(self):
        adjacency, _ = line_topology(3)
        network = AdHocNetwork(adjacency, {n: None for n in adjacency})
        engine = FriendingEngine(network)
        with pytest.raises(ValueError):
            engine.run([])
        with pytest.raises(ValueError):
            engine.run([EpisodeSpec(
                initiator_node="n99",
                initiator=Initiator(RequestProfile.exact(["tag:a"], normalized=True)),
            )])


class _RewiringMobility:
    """Duck-typed mobility stub: the *bridge_on*-th refresh links n1 to n2.

    Bridging on a later refresh regression-tests that refresh ticks keep
    re-arming while episode events are still in flight.
    """

    def __init__(self, bridge_on: int = 1):
        self.steps = 0
        self.bridge_on = bridge_on

    def step(self, dt_s: float) -> None:
        self.steps += 1

    def snapshot_topology(self, radius: float) -> dict[str, list[str]]:
        if self.steps >= self.bridge_on:
            return {"n0": ["n1"], "n1": ["n0", "n2"], "n2": ["n1"]}
        return {"n0": ["n1"], "n1": ["n0"], "n2": []}


class TestTopologyRefresh:
    @pytest.mark.parametrize("bridge_on", [1, 2])
    def test_mid_run_refresh_extends_the_flood(self, bridge_on):
        # n2 starts unreachable; the refresh at t=50ms (or the second one at
        # t=100ms) bridges n1-n2 while the first hop (60 ms) and n1's
        # re-broadcast are still in flight, so the flood arrives.
        adjacency = {"n0": ["n1"], "n1": ["n0"], "n2": []}
        matcher = Participant(
            Profile(["tag:a"], user_id="n2", normalized=True), rng=random.Random(3)
        )
        network = AdHocNetwork(
            adjacency,
            {"n0": None, "n1": Participant(Profile(["tag:z"], user_id="n1", normalized=True)),
             "n2": matcher},
            hop_latency_ms=60,
            processing_latency_ms=50,  # n1 re-broadcasts at t=110, after either bridge
        )
        mobility = _RewiringMobility(bridge_on=bridge_on)
        engine = FriendingEngine(
            network, mobility=mobility, radio_radius=0.5, refresh_interval_ms=50
        )
        initiator = Initiator(
            RequestProfile.exact(["tag:a"], normalized=True),
            protocol=2, rng=random.Random(4), ttl=4,
        )
        result = engine.run(
            [EpisodeSpec(initiator_node="n0", initiator=initiator)], until_ms=600
        )
        assert result.topology_refreshes >= 1
        assert mobility.steps == result.topology_refreshes
        assert result.episodes[0].matched_ids == ["n2"]

    def test_refresh_configuration_validated(self):
        adjacency, _ = line_topology(2)
        network = AdHocNetwork(adjacency, {n: None for n in adjacency})
        with pytest.raises(ValueError):
            FriendingEngine(network, mobility=_RewiringMobility())
        with pytest.raises(ValueError):
            FriendingEngine(network, refresh_interval_ms=100)
        with pytest.raises(ValueError):
            FriendingEngine(
                network, mobility=_RewiringMobility(), refresh_interval_ms=100
            )
