"""Adversarial-input fuzzing: malformed bytes must fail *cleanly*.

A relay in a hostile MANET feeds the parsers attacker-controlled bytes;
every decode path must either succeed or raise SerializationError -- never
an unhandled IndexError/struct.error/UnicodeDecodeError, and never hang.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.attributes import RequestProfile
from repro.core.exceptions import SerializationError
from repro.core.matching import build_request
from repro.core.protocols import Participant, Reply
from repro.core.request import REQUEST_MAGIC, RequestPackage
from repro.core.wire import decode_reply, decode_session_message, encode_reply


def _package_bytes() -> bytes:
    request = RequestProfile(
        necessary=["tag:n"], optional=["tag:o1", "tag:o2"], beta=1, normalized=True
    )
    package, _ = build_request(request, protocol=2, rng=random.Random(1))
    return package.encode()


class TestRequestDecodeFuzz:
    @given(st.binary(min_size=0, max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_random_bytes_never_crash(self, data):
        try:
            RequestPackage.decode(data)
        except SerializationError:
            pass

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_mutated_valid_package(self, data):
        raw = bytearray(_package_bytes())
        index = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
        raw[index] ^= data.draw(st.integers(min_value=1, max_value=255))
        try:
            decoded = RequestPackage.decode(bytes(raw))
        except SerializationError:
            return
        # If it still parses, processing it must not crash either.
        participant = Participant(
            __import__("repro.core.attributes", fromlist=["Profile"]).Profile(
                ["tag:n", "tag:o1"], normalized=True
            )
        )
        participant.handle_request(decoded, now_ms=0)

    @given(st.binary(min_size=0, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_magic_prefix_with_garbage(self, tail):
        try:
            RequestPackage.decode(REQUEST_MAGIC + tail)
        except SerializationError:
            pass


class TestReplyDecodeFuzz:
    @given(st.binary(min_size=0, max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_random_bytes_never_crash(self, data):
        try:
            decode_reply(data)
        except SerializationError:
            pass

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_mutated_valid_reply(self, data):
        reply = Reply(
            request_id=b"abcdefgh", responder_id="bob",
            elements=(b"\x01" * 48, b"\x02" * 48), sent_at_ms=5,
        )
        raw = bytearray(encode_reply(reply))
        index = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
        raw[index] ^= data.draw(st.integers(min_value=1, max_value=255))
        try:
            decode_reply(bytes(raw))
        except SerializationError:
            pass


class TestSessionDecodeFuzz:
    @given(st.binary(min_size=0, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_random_bytes_never_crash(self, data):
        try:
            decode_session_message(data)
        except SerializationError:
            pass


class TestHostileRequestProcessing:
    """Crafted-but-valid packages must stay within the enumeration budget."""

    def test_all_zero_remainders_bounded(self):
        # Worst case: every position accepts every attribute.
        from repro.core.hint import build_hint_matrix
        from repro.core.profile_vector import ParticipantVector
        from repro.core.attributes import Profile
        from repro.core.matching import process_request

        rng = random.Random(2)
        m_t = 8
        fake_optional = [rng.getrandbits(256) for _ in range(m_t)]
        hint = build_hint_matrix(fake_optional, gamma=4, rng=rng)
        package = RequestPackage(
            protocol=2, p=11,
            remainders=tuple([0] * m_t),
            necessary_mask=tuple([False] * m_t),
            beta=4, hint=hint,
            ciphertext=b"\x00" * 32,
            request_id=b"hostile!", ttl=4, expiry_ms=1 << 40,
        )
        victim = Profile([f"tag:v{i}" for i in range(20)], normalized=True)
        vector = ParticipantVector.from_profile(victim)
        # Force many collisions: shift values so they are ≡ 0 mod 11.
        crafted = ParticipantVector(
            values=tuple(sorted(v - (v % 11) for v in vector.values)),
            attributes=vector.attributes,
        )
        outcome = process_request(crafted, package)
        assert outcome.budget.max_visits >= 1
        assert len(outcome.keys) <= outcome.budget.max_candidates

    def test_deep_request_does_not_crash_a_phone(self):
        # 1200 positions, all optional, gamma = 1199, every remainder one of
        # the phone's own: a decodable 13,427-byte frame.  No walk may
        # recurse once per request position: a RecursionError would escape
        # handle_datagram, and the engine catches only decode errors.
        from repro.core.agent import SealedBottleAgent
        from repro.core.hint import HintMatrix
        from repro.core.matching import process_request
        from repro.core.wire import encode_request_frame

        agent = SealedBottleAgent("phone", ["music", "hiking", "chess"], rng=random.Random(4))
        vector = agent._participant.vector
        m_t = 1200
        gamma = m_t - 1
        package = RequestPackage(
            protocol=2, p=11,
            remainders=(vector.values[0] % 11,) * m_t,
            necessary_mask=(False,) * m_t,
            beta=1,
            hint=HintMatrix(gamma=gamma, beta=1, r_block=((1,),) * gamma, b_vector=(0,) * gamma),
            ciphertext=b"\x00" * 32,
            request_id=b"deep-req", ttl=4, expiry_ms=1 << 40,
        )
        frame = encode_request_frame(package)
        assert len(frame) == 13_427

        outcome = process_request(vector, package)
        assert outcome.candidate and outcome.budget.exhausted

        agent.handle_datagram(frame, now_ms=0)
        assert agent._participant.last_outcome.budget.exhausted

    def test_expired_hostile_package_ignored(self):
        package = RequestPackage(
            protocol=2, p=11, remainders=(0,), necessary_mask=(True,),
            beta=0, hint=None, ciphertext=b"\x00" * 32,
            request_id=b"hostile!", ttl=4, expiry_ms=0,
        )
        from repro.core.attributes import Profile

        participant = Participant(Profile(["tag:a"], normalized=True))
        assert participant.handle_request(package, now_ms=10) is None
