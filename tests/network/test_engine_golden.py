"""Byte-identity of the datagram engine vs the pre-refactor object engine.

``data/golden_perfect_channel.json`` was generated by the object-passing
engine (no frames, no channel model) immediately before the datagram
refactor, and is frozen.  Over a :class:`PerfectChannel`, the engine must
reproduce it exactly -- matches (including key material), reply wire
elements, per-episode metrics and aggregate -- for ``run`` and
``run_parallel(workers=4)``.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.core.attributes import Profile, RequestProfile
from repro.core.protocols import Initiator, Participant
from repro.network.engine import FriendingEngine
from repro.network.simulator import AdHocNetwork
from repro.network.topology import city_topology, line_topology

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_perfect_channel.json").read_text()
)

N_NODES = 60
N_EPISODES = 12


def _build_community():
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
    return AdHocNetwork(adjacency, participants), launches, 7


def _build_line_p1():
    adjacency, _ = line_topology(5)
    participants = {
        "n0": None,
        "n1": Participant(Profile(["tag:x1"], user_id="n1", normalized=True), rng=random.Random(11)),
        "n2": Participant(Profile(["tag:a", "tag:b"], user_id="n2", normalized=True), rng=random.Random(12)),
        "n3": Participant(Profile(["tag:x3"], user_id="n3", normalized=True), rng=random.Random(13)),
        "n4": Participant(Profile(["tag:a", "tag:b", "tag:c"], user_id="n4", normalized=True), rng=random.Random(14)),
    }
    launches = [
        ("n0", Initiator(RequestProfile.exact(["tag:a", "tag:b"], normalized=True),
                         protocol=1, rng=random.Random(21))),
    ]
    return AdHocNetwork(adjacency, participants), launches, 1


_SCENARIOS = {"community_p2": _build_community, "line_p1": _build_line_p1}


def _assert_matches_golden(result, golden):
    assert result.completed_at_ms == golden["completed_at_ms"]
    for key, value in golden["aggregate"].items():
        assert result.aggregate.as_dict()[key] == value, f"aggregate[{key}] diverged"
    assert len(result.episodes) == len(golden["episodes"])
    for ep, gold in zip(result.episodes, golden["episodes"]):
        assert ep.episode == gold["episode"]
        assert ep.initiator_node == gold["initiator_node"]
        assert ep.started_at_ms == gold["started_at_ms"]
        assert ep.completed_at_ms == gold["completed_at_ms"]
        assert ep.matched_ids == gold["matched_ids"]
        assert [
            {"responder_id": m.responder_id, "similarity": m.similarity,
             "y": m.y.hex(), "session_key": m.session_key.hex()}
            for m in ep.matches
        ] == gold["matches"]
        assert [
            hashlib.sha256(
                r.request_id + r.responder_id.encode() + b"".join(r.elements)
            ).hexdigest()
            for r in ep.replies
        ] == gold["reply_digests"]
        metrics = ep.metrics.as_dict()
        for key, value in gold["metrics"].items():
            assert metrics[key] == value, f"episode {ep.episode} metrics[{key}] diverged"


@pytest.mark.parametrize("scenario", sorted(_SCENARIOS))
def test_run_matches_pre_refactor_golden(scenario):
    network, launches, arrival = _SCENARIOS[scenario]()
    result = FriendingEngine(network).run_staggered(launches, arrival_ms=arrival)
    _assert_matches_golden(result, GOLDEN[scenario])


def test_run_parallel_matches_pre_refactor_golden():
    network, launches, arrival = _build_community()
    result = FriendingEngine(network).run_staggered(
        launches, arrival_ms=arrival, workers=4
    )
    _assert_matches_golden(result, GOLDEN["community_p2"])
