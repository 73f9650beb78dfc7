"""Reliability modes: registry, XOR parity algebra, wave schedules, engine runs."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.attributes import Profile, RequestProfile
from repro.core.protocols import Initiator, Participant
from repro.network.channel_model import ChannelModel
from repro.network.engine import FriendingEngine
from repro.network.events import RetransmitEvent
from repro.network.reliability import (
    DEFAULT_FEC_WINDOW,
    RELIABILITY_MODES,
    ReliabilityMode,
    available_reliability_modes,
    fec_parity_elements,
    fec_reconstruct,
    load_reliability_mode,
    xor_bytes,
)
from repro.network.simulator import AdHocNetwork
from repro.network.topology import city_topology

N_NODES = 60
N_EPISODES = 12

LOSSY = dict(drop_rate=0.1, dup_rate=0.05, reorder_rate=0.1,
             corrupt_rate=0.05, jitter_ms=3, seed=5)


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


class TestModeRegistry:
    def test_builtin_modes_present(self):
        assert available_reliability_modes() == ("simple", "stage", "window", "window_fec")

    def test_load_mode_by_name(self):
        mode = load_reliability_mode("window_fec")
        assert mode.segmented
        assert not mode.waves
        assert mode.fec_window == DEFAULT_FEC_WINDOW

    def test_load_mode_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown reliability mode"):
            load_reliability_mode("not-a-mode")

    def test_unknown_mode_error_lists_the_choices(self):
        with pytest.raises(ValueError, match="simple.*stage.*window"):
            load_reliability_mode("carrier-pigeon")

    def test_instance_passes_through(self):
        custom = ReliabilityMode(name="custom", description="x", wave_backoff=3.0)
        assert load_reliability_mode(custom) is custom

    def test_registry_names_match_keys(self):
        for name, mode in RELIABILITY_MODES.items():
            assert mode.name == name

    def test_wave_delay_simple_is_constant(self):
        mode = RELIABILITY_MODES["simple"]
        assert [mode.wave_delay_ms(k, 250) for k in (1, 2, 3, 8)] == [250] * 4

    def test_wave_delay_stage_doubles(self):
        mode = RELIABILITY_MODES["stage"]
        assert [mode.wave_delay_ms(k, 100) for k in (1, 2, 3, 4)] == [100, 200, 400, 800]

    def test_wave_delay_monotone_under_backoff(self):
        """A backoff >= 1 never shortens the gap from one wave to the next."""
        for mode in RELIABILITY_MODES.values():
            delays = [mode.wave_delay_ms(k, 130) for k in range(1, 10)]
            assert all(b >= a for a, b in zip(delays, delays[1:])), mode.name

    def test_wave_delay_rejects_attempt_zero(self):
        with pytest.raises(ValueError, match="attempt"):
            RELIABILITY_MODES["simple"].wave_delay_ms(0, 100)

    def test_wave_delay_never_zero(self):
        tiny = ReliabilityMode(name="t", description="x", wave_backoff=0.001)
        assert tiny.wave_delay_ms(5, 1) == 1


class TestFecAlgebra:
    def test_xor_bytes_length_mismatch(self):
        with pytest.raises(ValueError, match="XOR"):
            xor_bytes(b"ab", b"abc")

    def test_parity_covers_short_final_window(self):
        elements = [bytes([i]) * 4 for i in range(5)]
        parities = fec_parity_elements(elements, 4)
        assert len(parities) == 2
        assert parities[0] == xor_bytes(
            xor_bytes(elements[0], elements[1]), xor_bytes(elements[2], elements[3])
        )
        assert parities[1] == elements[4]  # lone element: parity is itself

    def test_parity_rejects_bad_window(self):
        with pytest.raises(ValueError, match="window"):
            fec_parity_elements([b"xxxx"], 0)
        with pytest.raises(ValueError, match="window"):
            fec_reconstruct(1, 0, {}, {})

    def test_single_loss_per_window_recovers(self):
        elements = [bytes([i]) * 48 for i in range(8)]
        parity = dict(enumerate(fec_parity_elements(elements, 4)))
        data = {i: e for i, e in enumerate(elements) if i not in (1, 6)}
        completed, recovered = fec_reconstruct(8, 4, data, parity)
        assert recovered == [1, 6]
        assert completed == dict(enumerate(elements))

    def test_double_loss_in_one_window_stays_lost(self):
        elements = [bytes([i]) * 48 for i in range(4)]
        parity = dict(enumerate(fec_parity_elements(elements, 4)))
        data = {0: elements[0], 3: elements[3]}
        completed, recovered = fec_reconstruct(4, 4, data, parity)
        assert recovered == []
        assert completed == data

    def test_missing_parity_cannot_recover(self):
        elements = [bytes([i]) * 48 for i in range(4)]
        data = {i: e for i, e in enumerate(elements) if i != 2}
        completed, recovered = fec_reconstruct(4, 4, data, {})
        assert recovered == []
        assert completed == data

    def test_parity_past_the_data_is_ignored(self):
        completed, recovered = fec_reconstruct(2, 4, {0: b"a" * 48, 1: b"b" * 48},
                                               {5: b"z" * 48})
        assert recovered == []
        assert len(completed) == 2

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_reconstruction_exact_under_any_in_budget_loss(self, data):
        """The satellite property: under ANY loss pattern within the parity
        budget (at most one data element lost per window, that window's
        parity delivered), reconstruction returns exactly the original
        element set -- nothing missing, nothing invented, nothing altered."""
        n = data.draw(st.integers(min_value=1, max_value=12), label="n_data")
        window = data.draw(st.integers(min_value=1, max_value=5), label="window")
        elements = [
            data.draw(st.binary(min_size=48, max_size=48), label=f"element[{i}]")
            for i in range(n)
        ]
        parity = dict(enumerate(fec_parity_elements(elements, window)))
        lost: set[int] = set()
        for w in range(len(parity)):
            start, stop = w * window, min((w + 1) * window, n)
            victim = data.draw(
                st.one_of(st.none(), st.integers(min_value=start, max_value=stop - 1)),
                label=f"loss[{w}]",
            )
            if victim is not None:
                lost.add(victim)
        received = {i: e for i, e in enumerate(elements) if i not in lost}
        completed, recovered = fec_reconstruct(n, window, received, parity)
        assert completed == dict(enumerate(elements))
        assert recovered == sorted(lost)


def _silent_line(reliability: str, retries: int = 3, timeout: int = 100):
    """A 2-node line where every frame is dropped: waves keep firing.

    Returns the (now_ms, attempt) log of every RetransmitEvent handled.
    """
    adjacency = {"n0": ["n1"], "n1": ["n0"]}
    participants = {
        "n0": None,
        "n1": Participant(Profile(["tag:a"], user_id="n1", normalized=True)),
    }
    network = AdHocNetwork(adjacency, participants, channel=ChannelModel(drop_rate=1.0, seed=1))
    initiator = Initiator(
        RequestProfile.exact(["tag:a"], normalized=True), protocol=2, rng=random.Random(1)
    )
    engine = FriendingEngine(
        network, retries=retries, retransmit_timeout_ms=timeout, reliability=reliability
    )
    fired: list[tuple[int, int]] = []
    inner = engine._handlers[RetransmitEvent]

    def spy(event):
        fired.append((engine._queue.now_ms, event.attempt))
        inner(event)

    engine._handlers[RetransmitEvent] = spy
    from repro.network.engine import EpisodeSpec

    engine.run([EpisodeSpec(initiator_node="n0", initiator=initiator)])
    return fired


class TestWaveSchedules:
    def test_simple_fires_exactly_at_timeout_boundaries(self):
        """Wave k of ``simple`` lands at exactly k * timeout -- the frozen
        pre-strategy timetable, to the millisecond."""
        assert _silent_line("simple") == [(100, 1), (200, 2), (300, 3)]

    def test_stage_backoff_escalates(self):
        """``stage`` doubles each gap: waves at T, T+2T, T+2T+4T."""
        assert _silent_line("stage") == [(100, 1), (300, 2), (700, 3)]

    def test_window_falls_back_to_reflood_when_silent(self):
        """Total silence gives ``window`` nothing to aim at: it re-floods
        on the same timetable as ``simple``."""
        assert _silent_line("window") == [(100, 1), (200, 2), (300, 3)]

    def test_window_fec_never_schedules_waves(self):
        assert _silent_line("window_fec") == []

    def test_retries_bounded_to_one_envelope_byte_in_every_mode(self):
        """The envelope seq names the wave in one byte; no mode escapes
        the 255-wave ceiling (and 255 itself is fine everywhere)."""
        network, _ = _build()
        for name in available_reliability_modes():
            with pytest.raises(ValueError, match="255"):
                FriendingEngine(network, retries=256, reliability=name)
            FriendingEngine(network, retries=255, reliability=name)


class TestEngineModes:
    def test_unknown_mode_raises_at_construction(self):
        network, _ = _build()
        with pytest.raises(ValueError, match="unknown reliability mode"):
            FriendingEngine(network, reliability="nope")

    def test_simple_is_byte_frozen_against_the_default(self):
        """Passing reliability='simple' explicitly is the identity: same
        fingerprints as an engine that never heard of modes."""
        network, launches = _build(ChannelModel(**LOSSY))
        default = FriendingEngine(network, retries=2).run_staggered(launches, arrival_ms=7)
        network, launches = _build(ChannelModel(**LOSSY))
        explicit = FriendingEngine(
            network, retries=2, reliability="simple"
        ).run_staggered(launches, arrival_ms=7)
        assert _fingerprints(default) == _fingerprints(explicit)

    def test_window_fec_recovers_without_waves(self):
        network, launches = _build(ChannelModel(**LOSSY))
        result = FriendingEngine(
            network, retries=2, reliability="window_fec"
        ).run_staggered(launches, arrival_ms=7)
        total = result.aggregate.total
        assert total.fec_recovered > 0
        assert total.retransmissions == 0  # no waves, ever
        assert total.selective_retx == 0
        assert result.aggregate.matches > 0

    def test_window_resends_only_missing_segments(self):
        network, launches = _build(ChannelModel(**LOSSY))
        result = FriendingEngine(
            network, retries=2, reliability="window", retransmit_timeout_ms=100
        ).run_staggered(launches, arrival_ms=7)
        total = result.aggregate.total
        assert total.selective_retx > 0
        assert total.fec_recovered == 0  # no parity in plain window mode
        assert result.aggregate.matches > 0

    def test_segmented_modes_reproducible_from_seed(self):
        for name in ("window", "window_fec"):
            runs = []
            for _ in range(2):
                network, launches = _build(ChannelModel(**LOSSY))
                runs.append(
                    FriendingEngine(
                        network, retries=2, reliability=name, retransmit_timeout_ms=100
                    ).run_staggered(launches, arrival_ms=7)
                )
            assert _fingerprints(runs[0]) == _fingerprints(runs[1]), name

    @pytest.mark.parametrize("name", ["simple", "stage", "window", "window_fec"])
    def test_run_parallel_equals_sequential_in_every_mode(self, name):
        """The acceptance bar: sharding stays invisible no matter how the
        mode reshapes the retransmission traffic."""
        network, launches = _build(ChannelModel(**LOSSY))
        sequential = FriendingEngine(
            network, retries=2, reliability=name, retransmit_timeout_ms=100
        ).run_staggered(launches, arrival_ms=7)
        network, launches = _build(ChannelModel(**LOSSY))
        parallel = FriendingEngine(
            network, retries=2, reliability=name, retransmit_timeout_ms=100
        ).run_staggered(launches, arrival_ms=7, workers=4)
        assert _fingerprints(sequential) == _fingerprints(parallel)
        assert sequential.aggregate.as_dict() == parallel.aggregate.as_dict()

    def test_matches_survive_loss_in_every_mode(self):
        """Every mode still completes friendings over the lossy city block."""
        for name in available_reliability_modes():
            network, launches = _build(ChannelModel(**LOSSY))
            result = FriendingEngine(
                network, retries=2, reliability=name, retransmit_timeout_ms=100
            ).run_staggered(launches, arrival_ms=7)
            assert result.aggregate.matches > 0, name
