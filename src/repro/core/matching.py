"""Initiator-side request building and participant-side matching (Fig. 1).

This module implements the two halves of the basic mechanism:

- :func:`build_request` -- normalize/hash/sort the request profile, derive
  the profile key, seal the secret, compute remainder vector and (for fuzzy
  search) the hint matrix, and pack everything into a
  :class:`~repro.core.request.RequestPackage`.
- :func:`process_request` -- the relay/candidate pipeline: fast check via
  the remainder vector, candidate enumeration, hint solving, candidate key
  generation and (Protocol 1) trial decryption with confirmation.

Protocol-level message flows (replies, time windows, channels) live in
:mod:`repro.core.protocols`.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

from repro.analysis.counters import NULL_COUNTER, OpCounter
from repro.core.attributes import Profile, RequestProfile
from repro.core.exceptions import HintSolveError, InvalidRequestError
from repro.core.hint import build_hint_matrix, solve_candidate
from repro.core.profile_vector import ParticipantVector, RequestVector, profile_key
from repro.core.remainder import (
    EnumerationBudget,
    buckets_for,
    is_candidate,
    iter_candidates,
    remainder_vector,
)
from repro.core.request import RequestPackage
from repro.crypto import backend

__all__ = [
    "CONFIRMATION",
    "SECRET_LEN",
    "InitiatorSecret",
    "MatchOutcome",
    "build_request",
    "process_request",
    "seal_secret",
    "unseal_many",
    "unseal_secret",
]

# Publicly known confirmation string for Protocol 1 (Sec. III-E).
CONFIRMATION = b"SEALED-BTL-CONFv1"[:16]
SECRET_LEN = 32  # |x| = |y| = 256 bits
_DEFAULT_PRIME = 11
_DEFAULT_TTL = 8
_DEFAULT_VALIDITY_MS = 60_000


@dataclass(frozen=True)
class InitiatorSecret:
    """Initiator-side private state for one outstanding request."""

    x: bytes
    request_key: bytes
    request_vector: RequestVector
    protocol: int
    request_id: bytes


@dataclass
class MatchOutcome:
    """Result of a participant processing one request package.

    ``keys`` holds every distinct candidate profile key; for Protocol 1,
    ``x`` is set iff one of them verified against the confirmation string
    (i.e. the participant proved to itself that it matches).
    """

    candidate: bool
    keys: list[bytes] = field(default_factory=list)
    recovered_vectors: list[tuple[int, ...]] = field(default_factory=list)
    x: bytes | None = None
    matched_key: bytes | None = None
    budget: EnumerationBudget = field(default_factory=EnumerationBudget)

    @property
    def matched(self) -> bool:
        """Protocol 1 only: the participant self-verified as a match."""
        return self.x is not None


def seal_secret(key: bytes, protocol: int, x: bytes, counter: OpCounter = NULL_COUNTER) -> bytes:
    """Encrypt the sealed message for the given protocol.

    Protocol 1 prepends the public confirmation string so a candidate can
    self-verify; Protocols 2/3 seal the bare ``x`` so decryption under any
    key yields *some* plausible value (no confirmation oracle).
    """
    if len(x) != SECRET_LEN:
        raise ValueError(f"x must be {SECRET_LEN} bytes")
    plaintext = (CONFIRMATION + x) if protocol == 1 else x
    if counter is not NULL_COUNTER:
        counter.add("E", len(plaintext) // 16)
    return backend.CIPHER.encrypt_ecb(key, plaintext)


def unseal_secret(
    key: bytes, protocol: int, ciphertext: bytes, counter: OpCounter = NULL_COUNTER
) -> tuple[bytes | None, bytes]:
    """Decrypt a sealed message with a candidate key.

    Returns ``(x, raw)`` for Protocol 1 where ``x`` is None unless the
    confirmation verified; for Protocols 2/3 returns ``(None, x_candidate)``
    -- the caller cannot tell whether ``x_candidate`` is correct.
    """
    if counter is not NULL_COUNTER:
        counter.add("D", len(ciphertext) // 16)
    plaintext = backend.CIPHER.decrypt_ecb(key, ciphertext)
    if protocol == 1:
        if counter is not NULL_COUNTER:
            counter.add("CMP256")
        if plaintext[: len(CONFIRMATION)] == CONFIRMATION:
            return plaintext[len(CONFIRMATION):], plaintext
        return None, plaintext
    return None, plaintext


def unseal_many(
    keys: list[bytes], ciphertext: bytes, counter: OpCounter = NULL_COUNTER
) -> list[bytes]:
    """Trial-decrypt one sealed message under every candidate key, batched.

    The Protocol 2/3 participant-side hot path: every candidate profile
    key yields *some* plausible ``x`` (no confirmation oracle), so all
    keys must be tried.  The batched cipher amortizes schedule lookup and
    the round loops across the whole key set in one call.
    """
    if counter is not NULL_COUNTER:
        counter.add("D", (len(ciphertext) // 16) * len(keys))
    return backend.CIPHER.open_many(keys, ciphertext)


def build_request(
    request: RequestProfile,
    *,
    protocol: int = 2,
    p: int = _DEFAULT_PRIME,
    binding: bytes | None = None,
    ttl: int = _DEFAULT_TTL,
    now_ms: int = 0,
    validity_ms: int = _DEFAULT_VALIDITY_MS,
    rng: random.Random | None = None,
    x: bytes | None = None,
    counter: OpCounter = NULL_COUNTER,
) -> tuple[RequestPackage, InitiatorSecret]:
    """Create a request package and the initiator's private state.

    Parameters mirror the paper: *p* is the small remainder prime (must
    exceed m_t), *binding* the optional dynamic location key, *ttl* the
    relay hop budget and *validity_ms* the expiry window after which relays
    drop the request.
    """
    if protocol not in (1, 2, 3):
        raise InvalidRequestError(f"unknown protocol {protocol}")
    vector = RequestVector.from_request(request, binding=binding, counter=counter)
    if p <= len(vector):
        raise InvalidRequestError(
            f"remainder prime p={p} must exceed the request size m_t={len(vector)}"
        )
    key = vector.key(counter)
    if x is None:
        x = rng.randbytes(SECRET_LEN) if rng is not None else os.urandom(SECRET_LEN)
    ciphertext = seal_secret(key, protocol, x, counter)
    remainders = remainder_vector(vector.values, p, counter)
    hint = None
    if vector.gamma > 0:
        hint = build_hint_matrix(vector.optional_values(), vector.gamma, rng=rng, counter=counter)
    request_id = rng.randbytes(8) if rng is not None else os.urandom(8)
    package = RequestPackage(
        protocol=protocol,
        p=p,
        remainders=remainders,
        necessary_mask=vector.necessary_mask,
        beta=vector.beta,
        hint=hint,
        ciphertext=ciphertext,
        request_id=request_id,
        ttl=ttl,
        expiry_ms=now_ms + validity_ms,
    )
    secret = InitiatorSecret(
        x=x, request_key=key, request_vector=vector, protocol=protocol, request_id=request_id
    )
    return package, secret


def process_request(
    profile: Profile | ParticipantVector,
    package: RequestPackage,
    *,
    binding: bytes | None = None,
    mode: str = "robust",
    budget: EnumerationBudget | None = None,
    counter: OpCounter = NULL_COUNTER,
) -> MatchOutcome:
    """Run the full participant pipeline of Fig. 1 on one request.

    Accepts either a raw :class:`Profile` (hashed on the fly) or a cached
    :class:`ParticipantVector` -- the paper notes that sorting/hashing are
    computed once per profile and reused until attributes change.

    Deterministic: the outcome (candidacy, recovered vectors/keys, ``x``)
    is a pure function of the profile, the package bytes and the budget;
    no clock or RNG is consulted, so replaying a package yields an
    identical :class:`MatchOutcome`.  Expiry is *not* checked here -- time
    (simulated ms) enters only at the protocol layer
    (``Participant.handle_request``).
    """
    if isinstance(profile, Profile):
        vector = ParticipantVector.from_profile(profile, binding=binding, counter=counter)
    else:
        vector = profile
    outcome = MatchOutcome(candidate=False, budget=budget or EnumerationBudget())

    optional_positions = [i for i, nec in enumerate(package.necessary_mask) if not nec]
    # An attacker-controlled package may carry a hint whose dimensions do
    # not cover the optional positions; no candidate can ever be solved
    # against it, so reject before doing any work (and never let the
    # mismatch surface as a raw ValueError from the solver).
    if package.hint is not None and (
        package.hint.gamma + package.hint.beta != len(optional_positions)
    ):
        return outcome

    # One bucketing pass serves both the fast check and the enumeration;
    # the mod half is cached on the vector and shared across episodes.
    buckets = buckets_for(
        package.remainders, vector.remainder_index(package.p, counter)
    )

    # Fast check: most unmatched users stop here after m_k mod operations.
    if not is_candidate(
        package.remainders,
        package.necessary_mask,
        package.gamma,
        vector.values,
        package.p,
        mode=mode,
        counter=counter,
        buckets=buckets,
    ):
        return outcome

    outcome.candidate = True
    candidates = iter_candidates(
        package.remainders,
        package.necessary_mask,
        package.gamma,
        vector.values,
        package.p,
        mode=mode,
        budget=outcome.budget,
        counter=counter,
        buckets=buckets,
    )
    seen: set[tuple[int, ...]] = set()
    for candidate in candidates:
        values = list(candidate.values)
        if not candidate.is_complete():
            if package.hint is None:
                continue  # perfect-match request: incomplete candidates are useless
            optional_segment = [values[i] for i in optional_positions]
            try:
                recovered = solve_candidate(package.hint, optional_segment, counter=counter)
            except HintSolveError:
                continue
            rejected = False
            for pos, value in zip(optional_positions, recovered):
                if values[pos] is None:
                    # Recovered hashes must agree with the published remainders.
                    if counter is not NULL_COUNTER:
                        counter.add("M")
                    if value % package.p != package.remainders[pos]:
                        rejected = True
                        break
                    values[pos] = value
            if rejected:
                continue
        if any(v is None for v in values):
            continue
        full = tuple(values)  # type: ignore[arg-type]
        if full in seen:
            continue
        seen.add(full)
        outcome.recovered_vectors.append(full)
        key = profile_key(full, counter)
        outcome.keys.append(key)
        if package.protocol == 1 and outcome.x is None:
            x, _ = unseal_secret(key, 1, package.ciphertext, counter)
            if x is not None:
                outcome.x = x
                outcome.matched_key = key
                break  # self-verified: no need to mine further candidates
        if len(outcome.keys) >= outcome.budget.max_candidates:
            outcome.budget.exhausted = True
            break
    return outcome
