"""Per-node state on first use: a flood pays only for the nodes it reaches.

An :class:`~repro.network.simulator.AdHocNetwork` builds its nodes without
a session table or rate limiter; the engine creates both on first use (a
node's first frame, or the start of an episode at it), housekeeping
never creates them, and a crash returns a node to having none.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.core.attributes import Profile, RequestProfile
from repro.core.protocols import Initiator, Participant
from repro.network.engine import EpisodeSpec, FriendingEngine
from repro.network.events import FrameEvent
from repro.network.sessions import SessionTable
from repro.network.simulator import AdHocNetwork, RateLimiter
from repro.network.topology import city_topology, line_topology


@pytest.fixture
def built(monkeypatch) -> Counter:
    """Counts every SessionTable and RateLimiter constructed."""
    counts: Counter = Counter()
    for cls in (SessionTable, RateLimiter):
        original = cls.__init__

        def init(self, *args, _original=original, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", init)
    return counts


def _city(n: int = 300):
    adjacency, _ = city_topology(n, 0.1, seed=8)
    participants = {
        node: Participant(
            Profile([f"c{i % 4}:t0", f"c{i % 4}:t1"], user_id=node, normalized=True),
            rng=random.Random(i),
        )
        for i, node in enumerate(adjacency)
    }
    return AdHocNetwork(adjacency, participants)


def _initiator(ttl: int) -> Initiator:
    request = RequestProfile.exact(["c0:t0", "c0:t1"], normalized=True)
    return Initiator(request, protocol=2, ttl=ttl, rng=random.Random(1))


class TestStateOnFirstUse:
    def test_a_flood_builds_state_only_for_the_nodes_it_reaches(self, built):
        network = _city()
        assert not built
        assert all(n.sessions is None and n.limiter is None for n in network.nodes.values())

        receivers: set[str] = set()
        engine = FriendingEngine(network, frame_tap=lambda src, dst, data: receivers.add(dst))
        origin = next(iter(network.nodes))
        result = engine.run([EpisodeSpec(initiator_node=origin, initiator=_initiator(ttl=3))])
        assert result.episodes[0].matches  # replies travelled back too

        reached = receivers | {origin}
        assert built["SessionTable"] == built["RateLimiter"] == len(reached)
        assert len(reached) < len(network.nodes)  # the TTL kept the flood local
        assert {n for n, node in network.nodes.items() if node.sessions is not None} == reached
        assert {n for n, node in network.nodes.items() if node.limiter is not None} == reached

    def test_housekeeping_creates_no_state(self, built):
        network = _city()
        assert network.evict_expired_sessions(10_000) == 0
        assert network.prune_rate_limiters(10_000) == 0
        assert not built
        assert all(n.sessions is None and n.limiter is None for n in network.nodes.values())

        origin = next(iter(network.nodes))
        FriendingEngine(network).run(
            [EpisodeSpec(initiator_node=origin, initiator=_initiator(ttl=2))]
        )
        after_flood = Counter(built)
        # Past the request's validity every session is dead weight and
        # every limiter history is outside its window.
        expired = sum(
            len(n.sessions) for n in network.nodes.values() if n.sessions is not None
        )
        assert network.evict_expired_sessions(10**9) == expired > 0
        assert network.prune_rate_limiters(10**9) > 0
        assert built == after_flood

    def test_a_bad_session_config_fails_when_the_network_is_built(self):
        adjacency, _ = line_topology(2)
        with pytest.raises(ValueError, match="max_sessions"):
            AdHocNetwork(adjacency, {}, session_limit=0)
        with pytest.raises(ValueError, match="overflow policy"):
            AdHocNetwork(adjacency, {}, session_overflow="drop_all")


class TestCrashReset:
    def test_the_next_frame_meets_a_fresh_empty_table(self):
        adjacency, _ = line_topology(3)
        network = AdHocNetwork(adjacency, {"n0": None, "n1": None, "n2": None})
        engine = FriendingEngine(network)
        engine.begin([EpisodeSpec(initiator_node="n0", initiator=_initiator(ttl=4))])
        engine.step(3)  # n1 has served the request; its relay is in flight
        episode = engine._episodes[0]
        node = network.nodes["n1"]
        served = node.sessions
        assert served.get(episode.rid).parent == "n0"

        # Without a crash, another copy is a duplicate.
        duplicates = episode.metrics.dropped_duplicate
        engine._on_frame(FrameEvent(0, "n1", "n2", episode.frame))
        assert episode.metrics.dropped_duplicate == duplicates + 1

        network.reset_node_state("n1")
        assert node.sessions is None and node.limiter is None

        reached = episode.metrics.nodes_reached
        engine._on_frame(FrameEvent(0, "n1", "n2", episode.frame))
        # First contact again: a new table holding only this request,
        # whose reverse path now runs through the copy's sender.
        assert episode.metrics.nodes_reached == reached + 1
        assert node.sessions is not served
        assert node.sessions.request_ids() == {episode.rid}
        assert node.sessions.get(episode.rid).parent == "n2"
        assert served.get(episode.rid).parent == "n0"  # the old table is untouched
        engine.finish()
