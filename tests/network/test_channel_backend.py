"""The v2 fate stream: broadcast_fates against the per-link reference."""

from __future__ import annotations

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.channel_backend import (
    PREFIX_LEN,
    FateParams,
    _link_fate,
    broadcast_fates,
    fate_threshold,
)


def _params(
    drop=0.0, dup=0.0, reorder=0.0, corrupt=0.0, jitter_ms=0, reorder_delay_ms=8
) -> FateParams:
    """Build FateParams the way ChannelModel.__post_init__ does."""
    return FateParams(
        drop_t=fate_threshold(drop),
        dup_t=fate_threshold(dup),
        reorder_t=fate_threshold(reorder),
        corrupt_t=fate_threshold(corrupt),
        jitter_n=jitter_ms + 1,
        jitter_mask=(1 << jitter_ms.bit_length()) - 1,
        reorder_delay_ms=reorder_delay_ms,
    )


def _prefix(seed: int = 0) -> bytes:
    """A structurally valid 76-byte broadcast prefix."""
    import struct

    return (
        struct.pack(">qI", seed, 0)
        + hashlib.sha256(b"flow").digest()
        + hashlib.sha256(b"src").digest()
    )


def _dsts(n: int) -> list[bytes]:
    return [hashlib.sha256(f"n{i}".encode()).digest() for i in range(n)]


rates = st.sampled_from([0.0, 0.03, 0.25, 0.5, 0.85, 1.0])
jitters = st.integers(min_value=0, max_value=9)
prefixes = st.binary(min_size=PREFIX_LEN, max_size=PREFIX_LEN)
digest_lists = st.lists(st.binary(min_size=32, max_size=32), min_size=0, max_size=24)


class TestFateThreshold:
    def test_endpoints(self):
        assert fate_threshold(0.0) == 0
        assert fate_threshold(1.0) == 1 << 32
        assert fate_threshold(0.5) == 1 << 31

    def test_monotone(self):
        points = [fate_threshold(r / 20) for r in range(21)]
        assert points == sorted(points)
        assert all(0 <= t <= 1 << 32 for t in points)


class TestPureAgainstReference:
    """The unrolled hashlib loop must equal _link_fate word for word."""

    @settings(max_examples=60, deadline=None)
    @given(
        prefix=prefixes,
        dsts=digest_lists,
        drop=rates,
        dup=rates,
        reorder=rates,
        corrupt=rates,
        jitter_ms=jitters,
        frame_len=st.integers(min_value=0, max_value=80),
    )
    def test_broadcast_equals_per_link_reference(
        self, prefix, dsts, drop, dup, reorder, corrupt, jitter_ms, frame_len
    ):
        params = _params(drop, dup, reorder, corrupt, jitter_ms)
        frame_bits = max(1, frame_len * 8)
        bit_mask = (1 << (frame_bits - 1).bit_length()) - 1
        assert broadcast_fates(prefix, dsts, params, frame_bits) == [
            _link_fate(prefix, dst, params, frame_bits, bit_mask) for dst in dsts
        ]

    def test_heavy_config_spills_past_first_block(self):
        # jitter mask 15 with n=10 rejects ~37% of draws; corrupt=1.0 adds
        # a bit draw per copy; dup=1.0 doubles it all.  Many links need a
        # second keystream block, which must match the rolling reference.
        params = _params(dup=1.0, corrupt=1.0, reorder=1.0, jitter_ms=9)
        frame_bits = 8 * 61
        bit_mask = (1 << (frame_bits - 1).bit_length()) - 1
        prefix, dsts = _prefix(7), _dsts(64)
        fates = broadcast_fates(prefix, dsts, params, frame_bits)
        assert fates == [
            _link_fate(prefix, dst, params, frame_bits, bit_mask) for dst in dsts
        ]
        assert all(len(f) == 2 for f in fates)  # dup=1.0: two copies each


class TestEdgeCases:
    def test_empty_destination_list(self):
        assert broadcast_fates(_prefix(), [], _params(drop=0.5), 8) == []

    def test_all_zero_params_deliver_everything_clean(self):
        fates = broadcast_fates(_prefix(), _dsts(10), _params(), 8)
        assert fates == [((0, -1),)] * 10

    def test_certain_drop_beats_certain_dup(self):
        # drop decides before dup: drop=1.0 drops even with dup=1.0.
        fates = broadcast_fates(_prefix(), _dsts(10), _params(drop=1.0, dup=1.0), 8)
        assert fates == [()] * 10

    def test_one_bit_frame_corrupt_bit_is_zero(self):
        # frame_bits=1 forces the bit rejection loop to converge on 0.
        fates = broadcast_fates(_prefix(), _dsts(6), _params(corrupt=1.0), 1)
        assert fates == [((0, 0),)] * 6
