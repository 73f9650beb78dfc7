"""The three privacy-preserving profile matching protocols (Sec. III-E).

Protocol 1
    The sealed message carries a public confirmation string, so a candidate
    self-verifies and only a *matching* user replies (one reply element).
Protocol 2
    No confirmation: a candidate cannot tell which candidate key is right,
    so it replies one acknowledge element per candidate key.  The initiator
    filters replies by a time window and a reply-cardinality threshold,
    which exposes dictionary-armed repliers (their candidate sets are huge
    and slow).
Protocol 3
    Protocol 2 plus a participant-side φ-entropy budget limiting which
    candidate profiles the participant is willing to test at all.

All three complete profile matching and key exchange in a single
broadcast + unicast-replies round.
"""

from __future__ import annotations

import os
import random
from collections.abc import Sequence
from dataclasses import dataclass

from repro.analysis.counters import NULL_COUNTER, OpCounter
from repro.core.attributes import Profile, RequestProfile
from repro.core.channel import group_session_key, pair_session_key
from repro.core.entropy import EntropyPolicy
from repro.core.matching import (
    SECRET_LEN,
    InitiatorSecret,
    MatchOutcome,
    build_request,
    process_request,
    unseal_many,
)
from repro.core.profile_vector import ParticipantVector
from repro.core.remainder import EnumerationBudget
from repro.core.request import RequestPackage
from repro.crypto import backend
from repro.crypto.hashes import hmac_sha256

__all__ = [
    "ACK",
    "Reply",
    "MatchRecord",
    "RejectedReply",
    "Initiator",
    "Participant",
    "build_reply_element",
    "open_reply_element",
    "open_reply_elements",
]

ACK = b"SEALED-BTL-ACK1"[:15]  # 15 bytes; 16th byte carries the similarity
_REPLY_PLAINTEXT_LEN = 48  # ACK(15) + similarity(1) + y(32)
DEFAULT_REPLY_WINDOW_MS = 5_000
DEFAULT_MAX_REPLY_ELEMENTS = 16


@dataclass(frozen=True)
class Reply:
    """A participant's acknowledge set for one request."""

    request_id: bytes
    responder_id: str
    elements: tuple[bytes, ...]
    sent_at_ms: int


@dataclass(frozen=True)
class MatchRecord:
    """Initiator-side record of one verified matching user."""

    responder_id: str
    y: bytes
    similarity: int
    session_key: bytes


@dataclass(frozen=True)
class RejectedReply:
    """A reply the initiator discarded, with the reason (Sec. III-E, step 3)."""

    responder_id: str
    reason: str


def _reply_plaintext(similarity: int, y: bytes) -> bytes:
    """The reply-element payload ``ack || similarity || y`` (one layout)."""
    if len(y) != SECRET_LEN:
        raise ValueError("y must be 32 bytes")
    plaintext = ACK + bytes([min(similarity, 255)]) + y
    assert len(plaintext) == _REPLY_PLAINTEXT_LEN
    return plaintext


def build_reply_element(
    x_candidate: bytes, y: bytes, similarity: int, counter: OpCounter = NULL_COUNTER
) -> bytes:
    """Encrypt ``(ack, similarity, y)`` under one candidate ``x_j``."""
    if len(x_candidate) != SECRET_LEN:
        raise ValueError("x must be 32 bytes")
    plaintext = _reply_plaintext(similarity, y)
    if counter is not NULL_COUNTER:
        counter.add("E", len(plaintext) // 16)
    return backend.CIPHER.encrypt_ecb(x_candidate, plaintext)


def open_reply_element(
    x: bytes, element: bytes, counter: OpCounter = NULL_COUNTER
) -> tuple[int, bytes] | None:
    """Try to open one reply element with the true ``x``.

    Returns ``(similarity, y)`` when the ACK verifies, else ``None`` --
    which proves the replier did not actually recover ``x`` (anti-cheating,
    Sec. IV-A3).
    """
    if len(element) != _REPLY_PLAINTEXT_LEN:
        return None
    if counter is not NULL_COUNTER:
        counter.add("D", len(element) // 16)
    plaintext = backend.CIPHER.decrypt_ecb(x, element)
    if counter is not NULL_COUNTER:
        counter.add("CMP256")
    if plaintext[: len(ACK)] != ACK:
        return None
    similarity = plaintext[len(ACK)]
    y = plaintext[len(ACK) + 1 :]
    return similarity, y


def open_reply_elements(
    x: bytes, elements: Sequence[bytes], counter: OpCounter = NULL_COUNTER
) -> tuple[int, bytes] | None:
    """Open a whole acknowledge set with the true ``x`` in one batched pass.

    All elements of one reply share the key, so the entire set decrypts
    as a single buffer -- one schedule lookup and one round loop for the
    reply instead of one per element.  Returns the first element's
    ``(similarity, y)`` whose ACK verifies (element order is preserved,
    matching the sequential scan it replaces), else ``None``.

    *counter* records the protocol cost model of that sequential scan --
    ``D``/``CMP256`` per element examined, stopping at the verifying one,
    exactly what per-element :func:`open_reply_element` calls would have
    recorded -- so Table III comparisons are unaffected by the batching
    (the batched call itself decrypts the whole set; the over-decryption
    beyond the verifying element is the price of one-call batching).
    """
    valid = [e for e in elements if len(e) == _REPLY_PLAINTEXT_LEN]
    if not valid:
        return None
    opened = backend.CIPHER.decrypt_ecb(x, b"".join(valid))
    ack_len = len(ACK)
    for i in range(len(valid)):
        if counter is not NULL_COUNTER:
            counter.add("D", _REPLY_PLAINTEXT_LEN // 16)
            counter.add("CMP256")
        plaintext = opened[i * _REPLY_PLAINTEXT_LEN : (i + 1) * _REPLY_PLAINTEXT_LEN]
        if plaintext[:ack_len] == ACK:
            return plaintext[ack_len], plaintext[ack_len + 1 :]
    return None


class Initiator:
    """Initiator-side protocol driver for one friending request."""

    def __init__(
        self,
        request: RequestProfile,
        *,
        protocol: int = 2,
        p: int = 11,
        reply_window_ms: int = DEFAULT_REPLY_WINDOW_MS,
        max_reply_elements: int = DEFAULT_MAX_REPLY_ELEMENTS,
        binding: bytes | None = None,
        ttl: int = 8,
        validity_ms: int = 60_000,
        rng: random.Random | None = None,
        counter: OpCounter = NULL_COUNTER,
    ):
        self.request = request
        self.protocol = protocol
        self.p = p
        self.reply_window_ms = reply_window_ms
        self.max_reply_elements = max_reply_elements
        self.binding = binding
        self.ttl = ttl
        self.validity_ms = validity_ms
        self.rng = rng
        self.counter = counter
        self.secret: InitiatorSecret | None = None
        self.sent_at_ms: int | None = None
        self.matches: list[MatchRecord] = []
        self.rejected: list[RejectedReply] = []

    def create_request(self, now_ms: int = 0) -> RequestPackage:
        """Build and remember the request package (one broadcast)."""
        package, secret = build_request(
            self.request,
            protocol=self.protocol,
            p=self.p,
            binding=self.binding,
            ttl=self.ttl,
            now_ms=now_ms,
            validity_ms=self.validity_ms,
            rng=self.rng,
            counter=self.counter,
        )
        self.secret = secret
        self.sent_at_ms = now_ms
        return package

    def handle_reply(self, reply: Reply, now_ms: int) -> MatchRecord | None:
        """Validate one reply; record and return a match if it verifies.

        Implements the initiator-side malicious-replier exclusion: replies
        arriving outside the time window or carrying more elements than the
        cardinality threshold are rejected unopened.
        """
        if self.secret is None or self.sent_at_ms is None:
            raise RuntimeError("create_request must be called before handling replies")
        if reply.request_id != self.secret.request_id:
            self.rejected.append(RejectedReply(reply.responder_id, "unknown request id"))
            return None
        if now_ms - self.sent_at_ms > self.reply_window_ms:
            self.rejected.append(RejectedReply(reply.responder_id, "outside time window"))
            return None
        if len(reply.elements) > self.max_reply_elements:
            self.rejected.append(RejectedReply(reply.responder_id, "reply set too large"))
            return None
        # Every element of one reply is sealed under candidate keys but
        # opened with the same true x, so the whole acknowledge set
        # decrypts as one batched buffer.
        opened = open_reply_elements(self.secret.x, reply.elements, self.counter)
        if opened is not None:
            similarity, y = opened
            record = MatchRecord(
                responder_id=reply.responder_id,
                y=y,
                similarity=similarity,
                session_key=pair_session_key(self.secret.x, y),
            )
            self.matches.append(record)
            return record
        self.rejected.append(RejectedReply(reply.responder_id, "no element verified"))
        return None

    def best_match(self) -> MatchRecord | None:
        """The verified match with the highest reported similarity."""
        return max(self.matches, key=lambda m: m.similarity, default=None)

    def group_key(self) -> bytes:
        """The community key ``x`` shared with all matching users."""
        if self.secret is None:
            raise RuntimeError("create_request must be called first")
        return group_session_key(self.secret.x)


class Participant:
    """Participant-side protocol driver (relay user / candidate / match)."""

    def __init__(
        self,
        profile: Profile,
        *,
        mode: str = "robust",
        entropy_policy: EntropyPolicy | None = None,
        binding: bytes | None = None,
        budget: EnumerationBudget | None = None,
        reply_min_interval_ms: int = 0,
        rng: random.Random | None = None,
        counter: OpCounter = NULL_COUNTER,
    ):
        self.profile = profile
        self.mode = mode
        self.entropy_policy = entropy_policy
        self.binding = binding
        self.budget_template = budget
        self.reply_min_interval_ms = reply_min_interval_ms
        self.rng = rng
        # Seeded participants derive the per-request reply secret ``y``
        # from one master secret via a PRF of the request id, so the
        # bytes a participant sends for request R depend only on (seed,
        # R) -- never on how concurrent episodes interleave.  This is
        # what lets sharded engine runs (``FriendingEngine.run_parallel``)
        # reproduce sequential runs byte for byte.
        self._y_seed = rng.randbytes(SECRET_LEN) if rng is not None else None
        self.counter = counter
        # Hash/sort once and reuse until the attributes change (Sec. IV-B1).
        self.vector = ParticipantVector.from_profile(profile, binding=binding, counter=counter)
        self.last_outcome: MatchOutcome | None = None
        self._pending_secrets: dict[bytes, list[tuple[bytes, bytes]]] = {}
        # Cumulative disclosure ledger: the phi budget applies to the union
        # of everything this participant has ever been willing to test, so
        # repeated probing cannot drain attributes one request at a time.
        self._disclosed: set[str] = set()
        self._seen_requests: set[bytes] = set()
        self._last_reply_ms: int | None = None

    def handle_request(self, package: RequestPackage, now_ms: int = 0) -> Reply | None:
        """Process a request package; return an acknowledge reply or None.

        Returning ``None`` means the participant only relays the package
        (non-candidate, expired request, or empty post-policy key set).
        """
        if package.is_expired(now_ms):
            return None
        # Each request is answered at most once, and replies are throttled
        # (the paper's request-frequency defence, Sec. III-E).
        if package.request_id in self._seen_requests:
            return None
        self._seen_requests.add(package.request_id)
        if (
            self.reply_min_interval_ms
            and self._last_reply_ms is not None
            and now_ms - self._last_reply_ms < self.reply_min_interval_ms
        ):
            return None
        budget = EnumerationBudget(
            max_candidates=(self.budget_template.max_candidates if self.budget_template else 256),
            max_visits=(self.budget_template.max_visits if self.budget_template else 100_000),
        )
        outcome = process_request(
            self.vector,
            package,
            mode=self.mode,
            budget=budget,
            counter=self.counter,
        )
        self.last_outcome = outcome
        if not outcome.candidate:
            return None

        if package.protocol == 1:
            reply = self._reply_protocol1(package, outcome, now_ms)
        else:
            reply = self._reply_protocol23(package, outcome, now_ms)
        if reply is not None:
            self._last_reply_ms = now_ms
        return reply

    def _reply_protocol1(
        self, package: RequestPackage, outcome: MatchOutcome, now_ms: int
    ) -> Reply | None:
        if outcome.x is None:
            return None  # candidate but not matching: nothing to say
        matched_vector = next(
            vec for vec, key in zip(outcome.recovered_vectors, outcome.keys)
            if key == outcome.matched_key
        )
        similarity = len(set(self.vector.values) & set(matched_vector))
        y = self._random_secret(package.request_id)
        element = build_reply_element(outcome.x, y, similarity, self.counter)
        self._pending_secrets.setdefault(package.request_id, []).append((outcome.x, y))
        return Reply(
            request_id=package.request_id,
            responder_id=self.profile.user_id,
            elements=(element,),
            sent_at_ms=now_ms,
        )

    def _reply_protocol23(
        self, package: RequestPackage, outcome: MatchOutcome, now_ms: int
    ) -> Reply | None:
        keys = outcome.keys
        vectors = outcome.recovered_vectors
        if package.protocol == 3 and self.entropy_policy is not None:
            exposures = [self._own_attributes_in(v) for v in vectors]
            chosen = self.entropy_policy.select(
                exposures, already_disclosed=frozenset(self._disclosed)
            )
            keys = [keys[i] for i in chosen]
            vectors = [vectors[i] for i in chosen]
            for i in chosen:
                self._disclosed |= exposures[i]
        if not keys:
            return None
        y = self._random_secret(package.request_id)
        # Both halves of reply building are batched: the sealed message is
        # trial-decrypted under every candidate key in one pass, and the
        # same (ack, similarity=0, y) payload is sealed under every
        # recovered x candidate in one pass.
        x_candidates = unseal_many(keys, package.ciphertext, self.counter)
        plaintext = _reply_plaintext(0, y)
        if self.counter is not NULL_COUNTER:
            self.counter.add("E", (len(plaintext) // 16) * len(x_candidates))
        elements = backend.CIPHER.seal_many(x_candidates, plaintext)
        self._pending_secrets.setdefault(package.request_id, []).extend(
            (x_candidate, y) for x_candidate in x_candidates
        )
        return Reply(
            request_id=package.request_id,
            responder_id=self.profile.user_id,
            elements=tuple(elements),
            sent_at_ms=now_ms,
        )

    def _own_attributes_in(self, recovered_vector: tuple[int, ...]) -> frozenset[str]:
        """Which of the participant's own attributes a candidate would expose."""
        recovered = set(recovered_vector)
        return frozenset(
            attr for attr, h in zip(self.vector.attributes, self.vector.values) if h in recovered
        )

    def channel_keys(self, request_id: bytes) -> list[bytes]:
        """Candidate pairwise session keys for a request this user replied to.

        Under Protocols 2/3 the participant does not learn whether it
        matched until the initiator opens the channel; it then tries each
        candidate ``(x_j, y)`` pair it replied with.
        """
        return [
            pair_session_key(x_candidate, y)
            for x_candidate, y in self._pending_secrets.get(request_id, [])
        ]

    def _random_secret(self, request_id: bytes) -> bytes:
        if self._y_seed is not None:
            return hmac_sha256(self._y_seed, request_id)
        return os.urandom(SECRET_LEN)
