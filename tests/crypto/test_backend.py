"""The batched SWAR AES against its per-block FIPS-197 reference."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.backend import CIPHER, PureBackend, TablesBackend
from repro.crypto.modes import decrypt_ecb, encrypt_ecb

PURE = PureBackend()
TABLES = CIPHER

keys = st.sampled_from([16, 24, 32]).flatmap(
    lambda n: st.binary(min_size=n, max_size=n)
)
key_lists = st.lists(
    st.binary(min_size=32, max_size=32), min_size=0, max_size=12
)
buffers = st.integers(min_value=0, max_value=24).flatmap(
    lambda n: st.binary(min_size=16 * n, max_size=16 * n)
)
small_buffers = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.binary(min_size=16 * n, max_size=16 * n)
)


def test_hot_path_calls_the_batched_cipher():
    assert type(CIPHER) is TablesBackend


class TestEquivalence:
    """Batched == per-block, bit for bit, for every key size and buffer shape."""

    @settings(max_examples=40, deadline=None)
    @given(key=keys, plaintext=buffers)
    def test_encrypt_decrypt_roundtrip(self, key, plaintext):
        ciphertext = TABLES.encrypt_ecb(key, plaintext)
        assert ciphertext == PURE.encrypt_ecb(key, plaintext)
        assert TABLES.decrypt_ecb(key, ciphertext) == plaintext
        assert PURE.decrypt_ecb(key, ciphertext) == plaintext

    @settings(max_examples=40, deadline=None)
    @given(keys_=key_lists, payload=small_buffers)
    def test_seal_many_and_open_many(self, keys_, payload):
        assert TABLES.seal_many(keys_, payload) == PURE.seal_many(keys_, payload)
        assert TABLES.open_many(keys_, payload) == PURE.open_many(keys_, payload)

    @settings(max_examples=40, deadline=None)
    @given(keys_=key_lists, payload=small_buffers)
    def test_open_many_matches_per_key_loop(self, keys_, payload):
        assert TABLES.open_many(keys_, payload) == [
            decrypt_ecb(k, payload) for k in keys_
        ]
        assert TABLES.seal_many(keys_, payload) == [
            encrypt_ecb(k, payload) for k in keys_
        ]

    @settings(max_examples=25, deadline=None)
    @given(
        payload=small_buffers,
        key128=st.binary(min_size=16, max_size=16),
        key192=st.binary(min_size=24, max_size=24),
        key256=st.binary(min_size=32, max_size=32),
    )
    def test_open_many_mixed_key_lengths(self, payload, key128, key192, key256):
        # Mixed lengths exercise the per-round-count grouping: results must
        # still come back in input order.
        mixed = [key256, key128, key192, key256, key128]
        assert TABLES.open_many(mixed, payload) == PURE.open_many(mixed, payload)
        assert TABLES.seal_many(mixed, payload) == PURE.seal_many(mixed, payload)


class TestAlignmentRejection:
    @settings(max_examples=20, deadline=None)
    @given(
        key=keys,
        bad=st.binary(min_size=1, max_size=64).filter(lambda b: len(b) % 16),
    )
    def test_non_block_aligned_rejected(self, key, bad):
        for backend in (PURE, TABLES):
            with pytest.raises(ValueError, match="block-aligned"):
                backend.encrypt_ecb(key, bad)
            with pytest.raises(ValueError, match="block-aligned"):
                backend.decrypt_ecb(key, bad)
            with pytest.raises(ValueError, match="block-aligned"):
                backend.seal_many([key], bad)
            with pytest.raises(ValueError, match="block-aligned"):
                backend.open_many([key], bad)

    def test_misaligned_rejected_even_with_no_keys(self):
        for backend in (PURE, TABLES):
            with pytest.raises(ValueError, match="block-aligned"):
                backend.seal_many([], b"x")
            with pytest.raises(ValueError, match="block-aligned"):
                backend.open_many([], b"x")

    def test_bad_key_length_rejected(self):
        for backend in (PURE, TABLES):
            with pytest.raises(ValueError, match="AES key"):
                backend.encrypt_ecb(b"short", b"\x00" * 16)
            with pytest.raises(ValueError, match="AES key"):
                backend.open_many([b"\x00" * 17], b"\x00" * 16)


class TestEdgeCases:
    def test_empty_buffer(self):
        key = b"k" * 32
        for backend in (PURE, TABLES):
            assert backend.encrypt_ecb(key, b"") == b""
            assert backend.decrypt_ecb(key, b"") == b""
            assert backend.seal_many([key, key], b"") == [b"", b""]
            assert backend.open_many([key, key], b"") == [b"", b""]

    def test_empty_key_list(self):
        for backend in (PURE, TABLES):
            assert backend.seal_many([], b"\x00" * 16) == []
            assert backend.open_many([], b"\x00" * 16) == []

    def test_fips197_vector(self):
        # FIPS-197 Appendix C.1, through both buffer paths.
        key = bytes(range(16))
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        for backend in (PURE, TABLES):
            assert backend.encrypt_ecb(key, plaintext * 3) == expected * 3
            assert backend.decrypt_ecb(key, expected * 3) == plaintext * 3

    def test_repeated_keys_in_open_many(self):
        key = b"r" * 32
        payload = b"p" * 48
        assert TABLES.open_many([key, key, key], payload) == [
            decrypt_ecb(key, payload)
        ] * 3


class TestBatchedKeySchedule:
    """The SWAR multi-key expansion must equal FIPS-197 word for word."""

    @settings(max_examples=25, deadline=None)
    @given(
        key_len=st.sampled_from([16, 24, 32]),
        seeds=st.lists(st.binary(min_size=8, max_size=8), min_size=1, max_size=9),
    )
    def test_batch_equals_reference_schedule(self, key_len, seeds):
        from repro.crypto.aes import AES

        backend = TablesBackend()  # fresh instance: no cache interference
        keys = [(seed * 4)[:key_len] for seed in seeds]
        batched = backend._expand_uncached(list(dict.fromkeys(keys)))
        reference = {
            key: [bytes(rk) for rk in AES(key)._round_keys]
            for key in dict.fromkeys(keys)
        }
        for key, schedule in zip(dict.fromkeys(keys), batched):
            assert schedule == reference[key]

    def test_cache_burst_does_not_lose_in_flight_hits(self):
        backend = TablesBackend()
        backend._RK_CACHE_MAX = 8  # force eviction pressure
        old = b"o" * 32
        backend.encrypt_ecb(old, b"\x00" * 16)  # cache `old`
        burst = [old] + [bytes([i]) * 32 for i in range(16)]
        payload = b"p" * 16
        assert backend.seal_many(burst, payload) == [
            encrypt_ecb(k, payload) for k in burst
        ]
