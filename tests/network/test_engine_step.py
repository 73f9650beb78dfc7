"""Open-world engine plane: begin/step/finish, injection, bounded caches.

The incremental API must be invisible when nothing open-world happens:
``begin()`` + ``step()`` chunks + ``finish()`` reproduces ``run()`` byte
for byte across both channel fate planes and all four reliability modes.
On top of that sit the genuinely open-world behaviours: mid-run episode
injection, node departure degrading -- never wedging -- episodes,
per-episode state retirement, the LRU bounds on the decode caches, and
the loud refusal of a mobility model.
"""

from __future__ import annotations

import random

import pytest

from repro.core.attributes import Profile, RequestProfile
from repro.core.protocols import Initiator, Participant
from repro.network.channel_model import ChannelModel
from repro.network.engine import (
    DEFAULT_DECODE_CACHE_CAP,
    DEFAULT_REJECT_CACHE_CAP,
    EpisodeSpec,
    FriendingEngine,
    _BoundedCache,
)
from repro.network.mobility import StaticPlacement
from repro.network.simulator import AdHocNetwork
from repro.network.topology import city_topology

N_NODES = 200
N_EPISODES = 4

LOSSY = dict(drop_rate=0.1, dup_rate=0.05, reorder_rate=0.1,
             corrupt_rate=0.05, jitter_ms=3, seed=5)


def _build(version: int = 1):
    adjacency, _ = city_topology(N_NODES, radius=0.11, seed=42)
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
    channel = ChannelModel(**LOSSY, version=version)
    return AdHocNetwork(adjacency, participants, channel=channel), nodes


def _initiator(episode: int) -> Initiator:
    return Initiator(
        RequestProfile(
            necessary=[f"c{episode % N_EPISODES}:t0"],
            optional=[f"c{episode % N_EPISODES}:t1"],
            beta=1, normalized=True,
        ),
        protocol=2, rng=random.Random(7000 + episode),
    )


def _specs(nodes, arrival_ms: int = 7):
    return [
        EpisodeSpec(
            initiator_node=nodes[episode * (N_NODES // N_EPISODES)],
            initiator=_initiator(episode),
            start_ms=episode * arrival_ms,
        )
        for episode in range(N_EPISODES)
    ]


def _engine(network, *, reliability: str):
    return FriendingEngine(
        network, retries=2, retransmit_timeout_ms=200, reliability=reliability
    )


def _fingerprints(result) -> list[tuple]:
    return [
        (
            ep.episode, ep.initiator_node, ep.started_at_ms, ep.completed_at_ms,
            ep.matched_ids,
            [(m.responder_id, m.similarity, m.y, m.session_key) for m in ep.matches],
            [r.elements for r in ep.replies],
            tuple(sorted(ep.metrics.as_dict().items())),
        )
        for ep in result.episodes
    ]


class TestStepEqualsRun:
    """begin/step/finish with zero churn is byte-identical to run()."""

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize(
        "reliability", ["simple", "stage", "window", "window_fec"]
    )
    def test_matrix(self, version, reliability):
        network, nodes = _build(version)
        closed = _engine(network, reliability=reliability).run(_specs(nodes))

        network, nodes = _build(version)
        engine = _engine(network, reliability=reliability)
        engine.begin(_specs(nodes))
        for until in range(50, 2_000, 50):  # arbitrary chunk boundaries
            engine.step(until)
        stepped = engine.finish()

        assert closed.aggregate.matches > 0
        assert _fingerprints(closed) == _fingerprints(stepped)
        assert closed.aggregate.as_dict() == stepped.aggregate.as_dict()
        assert closed.completed_at_ms == stepped.completed_at_ms

    def test_step_returns_executed_count(self):
        network, nodes = _build()
        engine = FriendingEngine(network)
        engine.begin(_specs(nodes))
        total = 0
        while engine.live_episode_count():
            executed = engine.step(engine._queue.now_ms + 100)
            assert executed >= 0
            total += executed
        assert total > 0


class TestInjection:
    """Episodes injected at arbitrary sim times."""

    def test_injected_episodes_run(self):
        network, nodes = _build()
        engine = _engine(network, reliability="simple")
        engine.begin(_specs(nodes)[:2])
        engine.step(40)
        idx = engine.inject(EpisodeSpec(
            initiator_node=nodes[N_NODES // 2], initiator=_initiator(2),
            start_ms=60,
        ))
        assert idx == 2
        engine.step(90)
        engine.inject(EpisodeSpec(
            initiator_node=nodes[N_NODES // 3], initiator=_initiator(3),
            start_ms=engine._queue.now_ms + 5,
        ))
        result = engine.finish()
        assert len(result.episodes) == 4
        assert result.episodes[2].matches  # injected episode really ran

    def test_inject_into_the_past_is_rejected(self):
        network, nodes = _build()
        engine = FriendingEngine(network)
        engine.begin(_specs(nodes)[:1])
        engine.step(500)
        with pytest.raises(ValueError, match="clock is already"):
            engine.inject(EpisodeSpec(
                initiator_node=nodes[5], initiator=_initiator(1), start_ms=10,
            ))

    def test_inject_requires_begin(self):
        network, nodes = _build()
        engine = FriendingEngine(network)
        with pytest.raises(RuntimeError):
            engine.inject(EpisodeSpec(
                initiator_node=nodes[0], initiator=_initiator(0), start_ms=0,
            ))

    def test_begin_rejects_a_mobility_model(self):
        network, nodes = _build()
        engine = FriendingEngine(
            network, mobility=StaticPlacement(nodes, seed=1), radio_radius=0.11,
            refresh_interval_ms=100,
        )
        with pytest.raises(ValueError, match="open-world stepping does not "
                                             "support a mobility model"):
            engine.begin(_specs(nodes))

    def test_negative_start_is_rejected_before_anything_runs(self):
        """The wire carries unsigned times: a start before t = 0 fails when
        the episode is specified, not when its first reply is encoded."""
        network, nodes = _build()
        engine = FriendingEngine(network)
        with pytest.raises(ValueError, match="start_ms must be >= 0 simulated ms, got -20"):
            engine.run([EpisodeSpec(nodes[0], _initiator(0), start_ms=-20)])
        with pytest.raises(ValueError, match="start_ms must be >= 0 simulated ms, got -5"):
            engine.begin(start_ms=-5)

    def test_inject_on_departed_node_is_rejected(self):
        network, nodes = _build()
        engine = FriendingEngine(network)
        engine.begin(_specs(nodes)[:1])
        engine.leave_node(nodes[5])
        with pytest.raises(ValueError, match="departed"):
            engine.inject(EpisodeSpec(
                initiator_node=nodes[5], initiator=_initiator(1), start_ms=100,
            ))


class TestDegradation:
    """Departed initiators degrade their episodes; the drain always ends."""

    def test_initiator_departure_degrades_but_completes(self):
        network, nodes = _build()
        engine = FriendingEngine(network, retries=2, retransmit_timeout_ms=200)
        specs = _specs(nodes)[:2]
        engine.begin(specs)
        engine.step(10)  # mid-flood
        engine.leave_node(specs[0].initiator_node)
        result = engine.finish()
        total = result.aggregate.total
        assert total.nodes_left == 1
        assert total.degraded_episodes == 1
        assert engine.live_episode_count() == 0
        assert not engine.wedged_episodes()
        # the untouched episode is unharmed
        assert result.episodes[1].matches

    def test_crash_resets_volatile_state(self):
        network, nodes = _build()
        engine = FriendingEngine(network)
        engine.begin(_specs(nodes)[:1])
        engine.step(30)
        victim = nodes[10]
        engine.crash_node(victim)
        node = network.nodes[victim]
        # A crash returns the node to having no state at all.
        assert node.sessions is None and node.limiter is None
        assert engine.churn_metrics.nodes_crashed == 1
        engine.finish()

    def test_join_wires_node_into_the_mesh(self):
        network, nodes = _build()
        engine = FriendingEngine(network)
        engine.begin(_specs(nodes)[:1])
        engine.join_node("fresh", None, [nodes[0], nodes[1]])
        assert "fresh" in network.nodes
        assert "fresh" in network.nodes[nodes[0]].neighbours
        assert engine.churn_metrics.nodes_joined == 1
        engine.leave_node("fresh")
        assert "fresh" not in network.nodes[nodes[0]].neighbours
        engine.finish()


class TestRetirement:
    """Settled episodes free their state without waiting for finish()."""

    def test_episodes_retire_as_they_settle(self):
        network, nodes = _build()
        engine = FriendingEngine(network)
        engine.begin(_specs(nodes))
        assert engine.live_episode_count() == N_EPISODES
        engine.step(None)  # drain fully but do not finish
        assert engine.live_episode_count() == 0
        assert engine.retired_count() == N_EPISODES
        result = engine.finish()
        assert len(result.episodes) == N_EPISODES
        assert all(ep.matches is not None for ep in result.episodes)

    def test_retired_initiator_lookup_returns_none(self):
        network, nodes = _build()
        engine = FriendingEngine(network)
        engine.begin(_specs(nodes)[:1])
        assert engine.episode_initiator_node(0) == nodes[0]
        engine.step(None)
        assert engine.episode_initiator_node(0) is None
        engine.finish()


class TestBoundedCaches:
    def test_bounded_cache_evicts_oldest_quarter(self):
        cache = _BoundedCache(8)
        for i in range(8):
            cache.put(i, i)
        assert len(cache) == 8
        cache.put(8, 8)  # evicts keys 0 and 1 (8 // 4 = 2 oldest)
        assert len(cache) == 7
        assert 0 not in cache and 1 not in cache
        assert cache[8] == 8 and cache[7] == 7

    def test_cache_cap_validation(self):
        with pytest.raises(ValueError):
            _BoundedCache(3)
        with pytest.raises(ValueError):
            FriendingEngine(_build()[0], decode_cache_cap=2)

    def test_engine_caches_stay_bounded_under_load(self):
        network, nodes = _build(version=2)
        engine = FriendingEngine(
            network, decode_cache_cap=16, reject_cache_cap=4,
        )
        engine.run(_specs(nodes))
        assert len(engine._frame_cache) <= 16
        assert len(engine._package_cache) <= 16
        assert len(engine._reject_cache) <= 4

    def test_default_caps_never_evict_in_closed_world(self):
        """The golden-pinned runs fit far inside the default caps, so the
        bound cannot perturb closed-world byte-identity."""
        network, nodes = _build(version=2)
        engine = FriendingEngine(network)
        engine.run(_specs(nodes))
        assert len(engine._frame_cache) < DEFAULT_DECODE_CACHE_CAP // 4
        assert len(engine._reject_cache) < DEFAULT_REJECT_CACHE_CAP
