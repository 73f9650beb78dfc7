"""Multi-core episode sharding: run_parallel == run, episode for episode."""

from __future__ import annotations

import random

import pytest

from repro.core.attributes import Profile, RequestProfile
from repro.core.protocols import Initiator, Participant
from repro.network.engine import EpisodeSpec, FriendingEngine
from repro.network.simulator import AdHocNetwork
from repro.network.topology import city_topology, line_topology

N_NODES = 60
N_EPISODES = 12


def _build() -> tuple[AdHocNetwork, list[tuple[str, Initiator]]]:
    """Community scenario with per-entity seeded RNGs (the determinism
    precondition run_parallel inherits from the engine's episode-isolation
    property)."""
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
    return AdHocNetwork(adjacency, participants), launches


def _fingerprints(result) -> list[tuple]:
    return [
        (
            ep.episode,
            ep.initiator_node,
            ep.started_at_ms,
            ep.completed_at_ms,
            ep.matched_ids,
            [(m.responder_id, m.similarity, m.y, m.session_key) for m in ep.matches],
            [r.elements for r in ep.replies],
            tuple(sorted(ep.metrics.as_dict().items())),
        )
        for ep in result.episodes
    ]


class TestParallelDeterminism:
    def test_workers4_equals_sequential(self):
        network, launches = _build()
        sequential = FriendingEngine(network).run_staggered(launches, arrival_ms=7)

        network, launches = _build()
        parallel = FriendingEngine(network).run_staggered(
            launches, arrival_ms=7, workers=4
        )

        assert sequential.aggregate.matches >= N_EPISODES  # scenario is non-trivial
        assert _fingerprints(sequential) == _fingerprints(parallel)
        assert sequential.aggregate.as_dict() == parallel.aggregate.as_dict()
        assert sequential.completed_at_ms == parallel.completed_at_ms
        assert parallel.topology_refreshes == 0

    def test_result_order_is_spec_order(self):
        network, launches = _build()
        result = FriendingEngine(network).run_parallel(
            [
                EpisodeSpec(initiator_node=node, initiator=initiator, start_ms=7 * i)
                for i, (node, initiator) in enumerate(launches)
            ],
            workers=5,
        )
        assert [ep.episode for ep in result.episodes] == list(range(N_EPISODES))
        assert [ep.started_at_ms for ep in result.episodes] == [
            7 * i for i in range(N_EPISODES)
        ]

    def test_workers_one_delegates_to_run(self):
        network, launches = _build()
        specs = [
            EpisodeSpec(initiator_node=node, initiator=initiator, start_ms=i)
            for i, (node, initiator) in enumerate(launches[:2])
        ]
        result = FriendingEngine(network).run_parallel(specs, workers=1)
        # The sequential path mutates the caller's initiators in place.
        assert result.episodes[0].initiator is specs[0].initiator
        assert specs[0].initiator.secret is not None

    def test_worker_copies_leave_caller_state_untouched(self):
        network, launches = _build()
        specs = [
            EpisodeSpec(initiator_node=node, initiator=initiator, start_ms=i)
            for i, (node, initiator) in enumerate(launches[:4])
        ]
        result = FriendingEngine(network).run_parallel(specs, workers=2)
        # Episode state lives on worker-side copies; results come from the
        # returned EpisodeResult objects, not the submitted initiators.
        assert all(spec.initiator.secret is None for spec in specs)
        assert all(ep.initiator.secret is not None for ep in result.episodes)


class TestParallelValidation:
    def _engine(self) -> FriendingEngine:
        adjacency, _ = line_topology(3)
        network = AdHocNetwork(adjacency, {n: None for n in adjacency})
        return FriendingEngine(network)

    def _spec(self, node: str = "n0") -> EpisodeSpec:
        return EpisodeSpec(
            initiator_node=node,
            initiator=Initiator(RequestProfile.exact(["tag:a"], normalized=True)),
        )

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="workers"):
            self._engine().run_parallel([self._spec()], workers=0)

    def test_rejects_empty_specs(self):
        with pytest.raises(ValueError, match="at least one episode"):
            self._engine().run_parallel([], workers=2)

    def test_rejects_unknown_node(self):
        with pytest.raises(ValueError, match="unknown initiator node"):
            self._engine().run_parallel([self._spec("n99")], workers=2)

    def test_rejects_mobility_refresh(self):
        class _Mobility:
            def step(self, dt_s):
                pass

            def snapshot_topology(self, radius):
                return {"n0": [], "n1": [], "n2": []}

        adjacency, _ = line_topology(3)
        network = AdHocNetwork(adjacency, {n: None for n in adjacency})
        engine = FriendingEngine(
            network, mobility=_Mobility(), radio_radius=0.5, refresh_interval_ms=50
        )
        with pytest.raises(ValueError, match="topology refresh"):
            engine.run_parallel([self._spec()], workers=2)
