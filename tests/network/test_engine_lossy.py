"""Lossy-channel engine runs: determinism, retransmission, endpoint hygiene."""

from __future__ import annotations

import random

import pytest

from repro.core.attributes import Profile, RequestProfile
from repro.core.protocols import Initiator, Participant
from repro.network.channel_model import ChannelModel
from repro.network.engine import EpisodeSpec, FriendingEngine
from repro.network.simulator import AdHocNetwork
from repro.network.topology import city_topology, line_topology

N_NODES = 60
N_EPISODES = 12


def _build(channel=None, **network_kwargs):
    adjacency, _ = city_topology(N_NODES, 0.22, seed=42)
    nodes = list(adjacency)
    participants = {
        node: Participant(
            Profile(
                [f"c{i % N_EPISODES}:t{j}" for j in range(3)] + [f"noise:{node}"],
                user_id=node, normalized=True,
            ),
            rng=random.Random(3000 + i),
        )
        for i, node in enumerate(nodes)
    }
    launches = [
        (
            nodes[episode * (N_NODES // N_EPISODES)],
            Initiator(
                RequestProfile(
                    necessary=[f"c{episode}:t0"],
                    optional=[f"c{episode}:t1", f"c{episode}:t2"],
                    beta=1, normalized=True,
                ),
                protocol=2, rng=random.Random(7000 + episode),
            ),
        )
        for episode in range(N_EPISODES)
    ]
    return AdHocNetwork(adjacency, participants, channel=channel, **network_kwargs), launches


def _fingerprints(result) -> list[tuple]:
    return [
        (
            ep.episode,
            ep.completed_at_ms,
            ep.matched_ids,
            [(m.responder_id, m.similarity, m.y, m.session_key) for m in ep.matches],
            [r.elements for r in ep.replies],
            tuple(sorted(ep.metrics.as_dict().items())),
        )
        for ep in result.episodes
    ]


LOSSY = dict(drop_rate=0.1, dup_rate=0.05, reorder_rate=0.1,
             corrupt_rate=0.05, jitter_ms=3, seed=5)


class TestLossyDeterminism:
    def test_reproducible_from_seed_and_spec(self):
        results = []
        for _ in range(2):
            network, launches = _build(ChannelModel(**LOSSY))
            results.append(
                FriendingEngine(network, retries=2).run_staggered(launches, arrival_ms=7)
            )
        assert _fingerprints(results[0]) == _fingerprints(results[1])
        total = results[0].aggregate.total
        # The channel actually did things in this scenario.
        assert total.frames_dropped > 0
        assert total.frames_duplicated > 0
        assert total.frames_corrupted > 0
        assert total.frames_rejected > 0

    def test_run_parallel_equals_sequential_under_loss(self):
        """Frame fates hash from (seed, flow, link, seq): sharding is invisible."""
        network, launches = _build(ChannelModel(**LOSSY))
        sequential = FriendingEngine(network, retries=2).run_staggered(launches, arrival_ms=7)

        network, launches = _build(ChannelModel(**LOSSY))
        parallel = FriendingEngine(network, retries=2).run_staggered(
            launches, arrival_ms=7, workers=4
        )
        assert _fingerprints(sequential) == _fingerprints(parallel)
        assert sequential.aggregate.as_dict() == parallel.aggregate.as_dict()

    def test_run_parallel_equals_sequential_under_loss_v2(self):
        """The counter-mode plane honours the same sharding identity: v2
        fates are a pure function of (seed, flow, link, seq) too, so
        worker interleaving cannot perturb a single frame."""
        network, launches = _build(ChannelModel(**LOSSY, version=2))
        sequential = FriendingEngine(network, retries=2).run_staggered(launches, arrival_ms=7)

        network, launches = _build(ChannelModel(**LOSSY, version=2))
        parallel = FriendingEngine(network, retries=2).run_staggered(
            launches, arrival_ms=7, workers=4
        )
        assert _fingerprints(sequential) == _fingerprints(parallel)
        assert sequential.aggregate.as_dict() == parallel.aggregate.as_dict()
        # The channel exercised every perturbation in this scenario.
        total = sequential.aggregate.total
        assert total.frames_dropped > 0
        assert total.frames_duplicated > 0
        assert total.frames_corrupted > 0

    def test_channel_seed_changes_the_run(self):
        network, launches = _build(ChannelModel(drop_rate=0.2, seed=1))
        a = FriendingEngine(network).run_staggered(launches, arrival_ms=7)
        network, launches = _build(ChannelModel(drop_rate=0.2, seed=2))
        b = FriendingEngine(network).run_staggered(launches, arrival_ms=7)
        assert _fingerprints(a) != _fingerprints(b)


class TestRetransmission:
    def _line(self, channel, retries):
        adjacency, _ = line_topology(3)
        matcher = Participant(
            Profile(["tag:a", "tag:b"], user_id="n2", normalized=True),
            rng=random.Random(9),
        )
        participants = {
            "n0": None,
            "n1": Participant(Profile(["tag:x"], user_id="n1", normalized=True)),
            "n2": matcher,
        }
        network = AdHocNetwork(adjacency, participants, channel=channel)
        initiator = Initiator(
            RequestProfile.exact(["tag:a", "tag:b"], normalized=True),
            protocol=2, rng=random.Random(1),
        )
        engine = FriendingEngine(network, retries=retries, retransmit_timeout_ms=100)
        result = engine.run([EpisodeSpec(initiator_node="n0", initiator=initiator)])
        return result, initiator

    def test_waves_heal_a_lossy_line(self):
        """With heavy loss, single-shot fails but retransmission gets through.

        The channel is deterministic, so this is a fixed scenario, not a
        statistical claim: seed 3 drops a first-wave critical hop.
        """
        channel = ChannelModel(drop_rate=0.4, seed=3)
        single, initiator = self._line(channel, retries=0)
        assert initiator.matches == []

        retried, initiator = self._line(channel, retries=8)
        assert [m.responder_id for m in initiator.matches] == ["n2"]
        metrics = retried.episodes[0].metrics
        assert metrics.retransmissions > 0
        assert metrics.frames_dropped > 0

    def test_answered_episode_stops_retransmitting(self):
        from repro.network.channel_model import PerfectChannel

        result, initiator = self._line(PerfectChannel(), retries=5)
        assert initiator.matches  # perfect channel: first wave answers
        assert result.episodes[0].metrics.retransmissions == 0

    def test_wave_forwarding_never_reprocesses(self):
        """Retries re-flood but participants answer each request once."""
        channel = ChannelModel(drop_rate=0.3, seed=4)
        result, initiator = self._line(channel, retries=6)
        metrics = result.episodes[0].metrics
        # However many waves ran, n2 produced at most one reply and the
        # initiator verified at most one match for it.
        assert metrics.replies <= 1
        assert len(initiator.matches) <= 1
        assert len(result.episodes[0].replies) <= 1


class TestEndpointHygiene:
    def test_total_corruption_kills_the_flood_cleanly(self):
        network, launches = _build(ChannelModel(corrupt_rate=1.0, seed=3))
        result = FriendingEngine(network).run_staggered(launches[:4], arrival_ms=7)
        total = result.aggregate.total
        assert result.aggregate.matches == 0
        assert total.nodes_reached == 0
        assert total.frames_corrupted > 0
        assert total.frames_rejected == total.frames_corrupted  # every copy rejected

    def test_duplicated_replies_are_idempotent(self):
        network, launches = _build(ChannelModel(dup_rate=1.0, seed=3))
        result = FriendingEngine(network).run_staggered(launches, arrival_ms=7)
        total = result.aggregate.total
        assert total.frames_duplicated > 0
        assert total.duplicate_replies > 0
        # Dedupe keeps matches one-per-responder per episode.
        for ep in result.episodes:
            assert len(ep.matched_ids) == len(set(ep.matched_ids))
        # And identical to a perfect-channel run, match for match: pure
        # duplication changes delivery counts, never outcomes.
        network, launches = _build()
        perfect = FriendingEngine(network).run_staggered(launches, arrival_ms=7)
        assert [ep.matched_ids for ep in result.episodes] == [
            ep.matched_ids for ep in perfect.episodes
        ]


class TestSessionOverflow:
    def test_drop_new_refuses_relay_state(self):
        adjacency, _ = line_topology(4)
        ends = {
            "n0": Participant(Profile(["tag:a", "tag:b"], user_id="n0", normalized=True),
                              rng=random.Random(1)),
            "n3": Participant(Profile(["tag:a", "tag:b"], user_id="n3", normalized=True),
                              rng=random.Random(2)),
        }
        participants = {
            "n0": ends["n0"],
            "n1": Participant(Profile(["tag:x1"], user_id="n1", normalized=True)),
            "n2": Participant(Profile(["tag:x2"], user_id="n2", normalized=True)),
            "n3": ends["n3"],
        }
        network = AdHocNetwork(
            adjacency, participants, session_limit=1, session_overflow="drop_new"
        )
        launches = [
            ("n0", Initiator(RequestProfile.exact(["tag:a", "tag:b"], normalized=True),
                             protocol=2, rng=random.Random(21))),
            ("n3", Initiator(RequestProfile.exact(["tag:a", "tag:b"], normalized=True),
                             protocol=2, rng=random.Random(22))),
        ]
        result = FriendingEngine(network).run_staggered(launches, arrival_ms=1)
        total = result.aggregate.total
        # Each relay admitted one episode's session and shed the other's.
        assert total.sessions_overflow > 0
        assert result.aggregate.matches < 2

    def test_evict_oldest_default_never_rejects(self):
        network, launches = _build(session_limit=2048)
        result = FriendingEngine(network).run_staggered(launches, arrival_ms=7)
        assert result.aggregate.total.sessions_overflow == 0


class TestBaselineGuards:
    def test_retries_bounded_to_one_envelope_byte(self):
        network, _ = _build()
        with pytest.raises(ValueError, match="255"):
            FriendingEngine(network, retries=256)
        FriendingEngine(network, retries=255)  # the boundary itself is fine
