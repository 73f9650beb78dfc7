"""A minimal, independent second endpoint over the SBFM wire format.

Written only from ``docs/wire_format.md`` and ``docs/protocols.md``: this
module deliberately shares **no code** with ``core/wire.py``,
``core/request.py`` or ``network/sessions.py`` — it has its own frame
codec, request/reply/session payload codecs, session table, candidate
enumeration, hint solver and Protocol 1/2/3 request/reply handling, all
built from the spec's byte layouts and stated semantics.  Wherever the
two stacks disagree, either the spec has a gap or one implementation has
a bug — the conformance harness exists to surface both.

Allowed building blocks (the spec names the *algorithms*, not a Python
API): the stdlib (``hashlib``, ``hmac``, ``zlib.crc32``, ``fractions``)
and the repo's per-block FIPS-197 AES-256-ECB from
:mod:`repro.crypto.modes` — AES is a cited standard cipher, not part of
the wire codec under test.  The independence constraint covers the
codecs, session semantics and protocol logic.  It extends to the cipher
too: the repro stack seals and opens with the batched SWAR AES of
:mod:`repro.crypto.backend`, this module with the per-block code, so a
SWAR bug shows as a failed episode check.

Deliberate scope cuts, each documented where it bites:

- Only ``robust`` candidate-enumeration mode (the repo default).
- No per-neighbour rate limiter (an engine-side DoS courtesy; the wire
  spec does not require one and the conformance scenarios never trip
  the repro default of 50 events / 10 s).
- No φ-entropy policy, so Protocol 3 behaves exactly like Protocol 2 —
  the policy is participant-local and never visible on the wire.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import random
import zlib
from dataclasses import dataclass, field
from fractions import Fraction

from repro.crypto.modes import decrypt_ecb as _aes_decrypt, encrypt_ecb as _aes_encrypt

__all__ = [
    "MiniRejection",
    "MiniFrame",
    "MiniHint",
    "MiniRequest",
    "MiniReply",
    "MiniWire",
    "MiniSession",
    "MiniSessionTable",
    "MiniParticipant",
    "MiniInitiator",
    "MiniNode",
    "MiniDelivery",
    "MiniPeer",
    "mini_hash_attribute",
    "mini_profile_key",
    "mini_hkdf",
    "mini_pair_key",
    "mini_group_key",
]

_FRAME_MAGIC = b"SBFM"
_FRAME_VERSION = 1
_FRAME_TYPES = (1, 2, 3)  # request, reply, session
_HEADER_LEN = 16

_REQUEST_MAGIC = b"SBRQ"
_REQUEST_VERSION = 1
_REQUEST_HEADER_LEN = 30  # magic(4) v(1) proto(1) flags(1) p(2) m_t(2) rid(8) ttl(1) expiry(8) beta(2)
_FLAG_HINT = 0x01

_REPLY_MAGIC = b"SBRP"
_REPLY_HEADER_LEN = 23  # magic(4) rid(8) sent(8) n(2) id_len(1)
_ELEMENT_LEN = 48
_MAX_ELEMENTS = 0xFFFF
_MAX_RESPONDER = 255

_CHANNEL_ID_LEN = 8
_MAX_SESSION_CT = 0xFFFF

_SECRET_LEN = 32
_CONFIRMATION = b"SEALED-BTL-CONFv1"[:16]
_ACK = b"SEALED-BTL-ACK1"[:15]
_REPLY_PLAINTEXT_LEN = 48  # ACK(15) + similarity(1) + y(32)


class MiniRejection(Exception):
    """The mini stack's strict-and-total decode rejection."""


# -- hashing / key-derivation conventions (wire_format.md, "Protocol
#    constants and key derivation") --------------------------------------


def mini_hash_attribute(attribute: str, binding: bytes | None = None) -> int:
    """SHA-256 of the attribute (optionally ``attr || 0x00 || binding``)."""
    payload = attribute.encode("utf-8")
    if binding is not None:
        payload += b"\x00" + binding
    return int.from_bytes(hashlib.sha256(payload).digest(), "big")


def mini_profile_key(values) -> bytes:
    """``K = SHA-256(v_1 || ... || v_m)`` over 32-byte big-endian entries."""
    hasher = hashlib.sha256()
    for value in values:
        hasher.update(value.to_bytes(32, "big"))
    return hasher.digest()


def mini_hkdf(ikm: bytes, info: bytes, length: int = 32) -> bytes:
    """HKDF-SHA256 (RFC 5869) with an empty salt, spelled out from the RFC."""
    prk = hmac.digest(b"\x00" * 32, ikm, "sha256")
    okm = b""
    block = b""
    counter = 1
    while len(okm) < length:
        block = hmac.digest(prk, block + info + bytes([counter]), "sha256")
        okm += block
        counter += 1
    return okm[:length]


def mini_pair_key(x: bytes, y: bytes) -> bytes:
    return mini_hkdf(x + y, b"sealed-bottle pair channel", 32)


def mini_group_key(x: bytes) -> bytes:
    return mini_hkdf(x, b"sealed-bottle group channel", 32)


# -- decoded message models ----------------------------------------------


@dataclass(frozen=True)
class MiniFrame:
    ftype: int
    payload: bytes
    ttl: int = 0
    seq: int = 0


@dataclass(frozen=True)
class MiniHint:
    gamma: int
    beta: int
    r_block: tuple[tuple[int, ...], ...]
    b_vector: tuple[int, ...]


@dataclass(frozen=True)
class MiniRequest:
    protocol: int
    p: int
    remainders: tuple[int, ...]
    necessary_mask: tuple[bool, ...]
    beta: int
    hint: MiniHint | None
    ciphertext: bytes
    request_id: bytes
    ttl: int
    expiry_ms: int

    @property
    def m_t(self) -> int:
        return len(self.remainders)

    @property
    def alpha(self) -> int:
        return sum(self.necessary_mask)

    @property
    def gamma(self) -> int:
        return (self.m_t - self.alpha) - self.beta

    def is_expired(self, now_ms: int) -> bool:
        return now_ms > self.expiry_ms


@dataclass(frozen=True)
class MiniReply:
    request_id: bytes
    responder_id: str
    elements: tuple[bytes, ...]
    sent_at_ms: int


# -- the wire codec -------------------------------------------------------


class MiniWire:
    """Frame envelope + the three payload codecs, built from the doc tables.

    Small internal seams (``_frame_checksum``, ``_pack_length``,
    ``_read_length``, ``hop``) exist so the mutant set can break exactly
    one spec clause at a time; the honest implementation is this class.
    """

    # envelope ------------------------------------------------------------

    def _frame_checksum(self, head: bytes, payload: bytes) -> int:
        """CRC-32 over bytes 4..12 of the header plus the payload."""
        crc = zlib.crc32(head[4:12])
        return zlib.crc32(payload, crc) & 0xFFFF_FFFF

    def _pack_length(self, length: int) -> bytes:
        return length.to_bytes(4, "big")

    def _read_length(self, data: bytes) -> int:
        return int.from_bytes(data[8:12], "big")

    def encode_frame(self, ftype: int, payload: bytes, *, ttl: int = 0, seq: int = 0) -> bytes:
        if ftype not in _FRAME_TYPES:
            raise MiniRejection(f"unknown frame type {ftype!r}")
        if not 0 <= ttl <= 255:
            raise MiniRejection(f"ttl must fit one byte, got {ttl!r}")
        if not 0 <= seq <= 255:
            raise MiniRejection(f"seq must fit one byte, got {seq!r}")
        if len(payload) > 0xFFFF_FFFF:
            raise MiniRejection("payload too large")
        head = _FRAME_MAGIC + bytes([_FRAME_VERSION, ftype, ttl, seq]) + self._pack_length(
            len(payload)
        )
        crc = self._frame_checksum(head, payload)
        return head + crc.to_bytes(4, "big") + payload

    def decode_frame(self, data: bytes) -> MiniFrame:
        if len(data) < _HEADER_LEN:
            raise MiniRejection("frame shorter than its header")
        if data[:4] != _FRAME_MAGIC:
            raise MiniRejection("bad frame magic")
        version, ftype, ttl, seq = data[4], data[5], data[6], data[7]
        if version != _FRAME_VERSION:
            raise MiniRejection(f"unsupported frame version {version}")
        if ftype not in _FRAME_TYPES:
            raise MiniRejection(f"unknown frame type {ftype}")
        length = self._read_length(data)
        if len(data) != _HEADER_LEN + length:
            raise MiniRejection("length field does not match the datagram")
        payload = data[_HEADER_LEN:]
        crc = int.from_bytes(data[12:16], "big")
        if crc != self._frame_checksum(data[:12], payload):
            raise MiniRejection("frame checksum mismatch")
        return MiniFrame(ftype=ftype, payload=payload, ttl=ttl, seq=seq)

    def hop(self, data: bytes, *, ttl: int | None = None, seq: int | None = None) -> bytes:
        """Relay a frame with TTL/wave patched.

        Deliberately *not* zero-copy: the mini stack decodes and fully
        re-encodes, which is exactly what makes byte-equality against the
        repro ``reframe``/``patch_frame`` fast path a meaningful check.
        """
        frame = self.decode_frame(data)
        return self.encode_frame(
            frame.ftype,
            frame.payload,
            ttl=frame.ttl if ttl is None else ttl,
            seq=frame.seq if seq is None else seq,
        )

    # request payload -----------------------------------------------------

    def encode_request(self, req: MiniRequest) -> bytes:
        self._validate_request(req)
        flags = _FLAG_HINT if req.hint is not None else 0
        out = bytearray()
        out += _REQUEST_MAGIC
        out += bytes([_REQUEST_VERSION, req.protocol, flags])
        out += req.p.to_bytes(2, "big")
        out += req.m_t.to_bytes(2, "big")
        out += req.request_id
        out += bytes([req.ttl])
        out += req.expiry_ms.to_bytes(8, "big")
        out += req.beta.to_bytes(2, "big")
        mask = bytearray((req.m_t + 7) // 8)
        for i, necessary in enumerate(req.necessary_mask):
            if necessary:
                mask[i // 8] |= 1 << (i % 8)
        out += mask
        for remainder in req.remainders:
            out += remainder.to_bytes(4, "big")
        if req.hint is not None:
            out += req.hint.gamma.to_bytes(2, "big")
            out += req.hint.beta.to_bytes(2, "big")
            for row in req.hint.r_block:
                for entry in row:
                    out += entry.to_bytes(4, "big")
            for b in req.hint.b_vector:
                encoded = b.to_bytes((b.bit_length() + 7) // 8 or 1, "big")
                out += len(encoded).to_bytes(2, "big") + encoded
        out += len(req.ciphertext).to_bytes(2, "big") + req.ciphertext
        return bytes(out)

    def decode_request(self, data: bytes) -> MiniRequest:
        if data[:4] != _REQUEST_MAGIC:
            raise MiniRejection("bad request magic")
        if len(data) < _REQUEST_HEADER_LEN:
            raise MiniRejection("truncated request header")
        version, protocol, flags = data[4], data[5], data[6]
        if version != _REQUEST_VERSION:
            raise MiniRejection(f"unsupported request version {version}")
        p = int.from_bytes(data[7:9], "big")
        m_t = int.from_bytes(data[9:11], "big")
        request_id = data[11:19]
        ttl = data[19]
        expiry_ms = int.from_bytes(data[20:28], "big")
        beta = int.from_bytes(data[28:30], "big")
        offset = _REQUEST_HEADER_LEN

        mask_len = (m_t + 7) // 8
        if offset + mask_len > len(data):
            raise MiniRejection("truncated necessary mask")
        # LSB-first bits; trailing padding bits are ignored per the spec.
        necessary_mask = tuple(
            bool(data[offset + i // 8] >> (i % 8) & 1) for i in range(m_t)
        )
        offset += mask_len

        if offset + 4 * m_t > len(data):
            raise MiniRejection("truncated remainder vector")
        remainders = tuple(
            int.from_bytes(data[offset + 4 * i : offset + 4 * i + 4], "big")
            for i in range(m_t)
        )
        offset += 4 * m_t

        hint = None
        if flags & _FLAG_HINT:
            if offset + 4 > len(data):
                raise MiniRejection("truncated hint header")
            gamma = int.from_bytes(data[offset : offset + 2], "big")
            hint_beta = int.from_bytes(data[offset + 2 : offset + 4], "big")
            offset += 4
            if offset + 4 * gamma * hint_beta > len(data):
                raise MiniRejection("truncated hint block")
            r_block = []
            for _ in range(gamma):
                row = tuple(
                    int.from_bytes(data[offset + 4 * j : offset + 4 * j + 4], "big")
                    for j in range(hint_beta)
                )
                offset += 4 * hint_beta
                r_block.append(row)
            b_vector = []
            for _ in range(gamma):
                if offset + 2 > len(data):
                    raise MiniRejection("truncated hint rhs length")
                blen = int.from_bytes(data[offset : offset + 2], "big")
                offset += 2
                if offset + blen > len(data):
                    raise MiniRejection("truncated hint rhs entry")
                # Any length is accepted, zero and zero-padded included.
                b_vector.append(int.from_bytes(data[offset : offset + blen], "big"))
                offset += blen
            hint = MiniHint(
                gamma=gamma, beta=hint_beta, r_block=tuple(r_block), b_vector=tuple(b_vector)
            )

        if offset + 2 > len(data):
            raise MiniRejection("truncated ciphertext length")
        clen = int.from_bytes(data[offset : offset + 2], "big")
        offset += 2
        ciphertext = data[offset : offset + clen]
        if len(ciphertext) != clen:
            raise MiniRejection("truncated ciphertext")
        if offset + clen != len(data):
            raise MiniRejection("trailing bytes after request package")

        req = MiniRequest(
            protocol=protocol,
            p=p,
            remainders=remainders,
            necessary_mask=necessary_mask,
            beta=beta,
            hint=hint,
            ciphertext=ciphertext,
            request_id=request_id,
            ttl=ttl,
            expiry_ms=expiry_ms,
        )
        self._validate_request(req)
        return req

    def _validate_request(self, req: MiniRequest) -> None:
        if req.protocol not in (1, 2, 3):
            raise MiniRejection(f"unknown protocol {req.protocol}")
        if len(req.request_id) != 8:
            raise MiniRejection("request id must be 8 bytes")
        if not req.ciphertext or len(req.ciphertext) % 16:
            raise MiniRejection("sealed message must be non-empty AES blocks")
        if req.remainders and max(req.remainders) >= req.p:
            raise MiniRejection("remainder not reduced modulo p")

    # reply payload -------------------------------------------------------

    def encode_reply(self, reply: MiniReply) -> bytes:
        responder = reply.responder_id.encode("utf-8")
        if len(responder) > _MAX_RESPONDER:
            raise MiniRejection(
                f"responder id too long: {len(responder)} bytes > {_MAX_RESPONDER}"
            )
        if len(reply.request_id) != 8:
            raise MiniRejection("reply request id must be 8 bytes")
        if len(reply.elements) > _MAX_ELEMENTS:
            raise MiniRejection(
                f"acknowledge set too large: {len(reply.elements)} > {_MAX_ELEMENTS}"
            )
        if not 0 <= reply.sent_at_ms <= 0xFFFF_FFFF_FFFF_FFFF:
            raise MiniRejection(f"sent_at_ms out of range: {reply.sent_at_ms!r}")
        for element in reply.elements:
            if len(element) != _ELEMENT_LEN:
                raise MiniRejection(
                    f"reply elements must be {_ELEMENT_LEN} bytes, got {len(element)}"
                )
        out = bytearray()
        out += _REPLY_MAGIC
        out += reply.request_id
        out += reply.sent_at_ms.to_bytes(8, "big")
        out += len(reply.elements).to_bytes(2, "big")
        out += bytes([len(responder)])
        out += responder
        for element in reply.elements:
            out += element
        return bytes(out)

    def decode_reply(self, data: bytes) -> MiniReply:
        if data[:4] != _REPLY_MAGIC:
            raise MiniRejection("bad reply magic")
        if len(data) < _REPLY_HEADER_LEN:
            raise MiniRejection("truncated reply header")
        request_id = data[4:12]
        sent_at_ms = int.from_bytes(data[12:20], "big")
        n_elements = int.from_bytes(data[20:22], "big")
        id_len = data[22]
        offset = _REPLY_HEADER_LEN
        if offset + id_len > len(data):
            raise MiniRejection("truncated responder id")
        try:
            responder = data[offset : offset + id_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MiniRejection(f"responder id is not UTF-8: {exc}") from exc
        offset += id_len
        if offset + n_elements * _ELEMENT_LEN != len(data):
            raise MiniRejection("reply element set does not match the payload")
        elements = tuple(
            data[offset + i * _ELEMENT_LEN : offset + (i + 1) * _ELEMENT_LEN]
            for i in range(n_elements)
        )
        return MiniReply(
            request_id=request_id,
            responder_id=responder,
            elements=elements,
            sent_at_ms=sent_at_ms,
        )

    # session payload -----------------------------------------------------

    def encode_session_frame(self, channel_id: bytes, ciphertext: bytes, *, ttl: int = 0) -> bytes:
        if len(channel_id) != _CHANNEL_ID_LEN:
            raise MiniRejection(
                f"channel id must be {_CHANNEL_ID_LEN} bytes, got {len(channel_id)}"
            )
        if len(ciphertext) > _MAX_SESSION_CT:
            raise MiniRejection("session message too large for one frame")
        return self.encode_frame(3, channel_id + ciphertext, ttl=ttl)

    def decode_session_payload(self, payload: bytes) -> tuple[bytes, bytes]:
        if len(payload) < _CHANNEL_ID_LEN:
            raise MiniRejection("session payload shorter than its channel id")
        return payload[:_CHANNEL_ID_LEN], payload[_CHANNEL_ID_LEN:]


# -- bounded session table ------------------------------------------------


@dataclass
class MiniSession:
    request_id: bytes
    parent: str | None
    hops: int
    expires_ms: int
    last_seq: int = 0


class MiniSessionTable:
    """Bounded request-id → session map with lazy TTL eviction.

    Implemented as a plain dict with a min-scan eviction (no heap): at
    conformance scale the observable semantics are what matter — strict
    ``expires < now`` expiry, and overflow eviction of the session
    closest to expiry with ties broken by ascending request-id bytes,
    exactly as the spec declares.
    """

    def __init__(self, max_sessions: int = 4096, overflow: str = "evict_oldest"):
        if max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        if overflow not in ("evict_oldest", "drop_new"):
            raise ValueError(f"unknown overflow policy {overflow!r}")
        self.max_sessions = max_sessions
        self.overflow = overflow
        self._sessions: dict[bytes, MiniSession] = {}
        self.evicted_expired = 0
        self.evicted_overflow = 0
        self.rejected_overflow = 0

    def get(self, request_id: bytes) -> MiniSession | None:
        return self._sessions.get(request_id)

    def open(
        self,
        request_id: bytes,
        *,
        parent: str | None,
        hops: int,
        expires_ms: int,
        now_ms: int,
    ) -> MiniSession | None:
        self.evict_expired(now_ms)
        if len(self._sessions) >= self.max_sessions:
            if self.overflow == "drop_new":
                self.rejected_overflow += 1
                return None
            victim = min(
                self._sessions.values(), key=lambda s: (s.expires_ms, s.request_id)
            )
            del self._sessions[victim.request_id]
            self.evicted_overflow += 1
        session = MiniSession(
            request_id=request_id, parent=parent, hops=hops, expires_ms=expires_ms
        )
        self._sessions[request_id] = session
        return session

    def evict_expired(self, now_ms: int) -> int:
        # Strict boundary: a session expiring AT now_ms is still live.
        dead = [rid for rid, s in self._sessions.items() if s.expires_ms < now_ms]
        for rid in dead:
            del self._sessions[rid]
        self.evicted_expired += len(dead)
        return len(dead)

    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, request_id: bytes) -> bool:
        return request_id in self._sessions

    def request_ids(self) -> set[bytes]:
        return set(self._sessions)


# -- participant: candidate enumeration, hint solving, replies ------------


@dataclass
class _MiniOutcome:
    candidate: bool
    keys: list[bytes] = field(default_factory=list)
    vectors: list[tuple[int, ...]] = field(default_factory=list)
    x: bytes | None = None
    matched_key: bytes | None = None


class MiniParticipant:
    """Participant endpoint: Fig. 1 pipeline rebuilt from the doc text.

    The candidate walk is an independent algorithm (plain recursive DFS
    over positions with a strictly-increasing-value constraint and
    voluntary unknowns at optional positions — ``robust`` mode), and the
    hint solver does exact Gaussian elimination over ``fractions.Fraction``
    rather than the repo's prime-field shortcut; both must nevertheless
    agree with the repro stack on every candidate set and recovered
    vector, which is precisely the point.
    """

    def __init__(
        self,
        attributes,
        user_id: str,
        *,
        y_seed: bytes | None = None,
        binding: bytes | None = None,
        max_candidates: int = 256,
        max_visits: int = 200_000,
    ):
        pairs = sorted((mini_hash_attribute(a, binding), a) for a in set(attributes))
        self.values = tuple(h for h, _ in pairs)
        self.attributes = tuple(a for _, a in pairs)
        self.user_id = user_id
        self._y_seed = y_seed
        self.max_candidates = max_candidates
        self.max_visits = max_visits
        self.last_candidate: bool | None = None
        self._seen_requests: set[bytes] = set()
        self._pending: dict[bytes, list[tuple[bytes, bytes]]] = {}

    # -- secrets ---------------------------------------------------------

    def _y_for(self, request_id: bytes) -> bytes:
        if self._y_seed is not None:
            return hmac.digest(self._y_seed, request_id, "sha256")
        return os.urandom(_SECRET_LEN)

    def channel_keys(self, request_id: bytes) -> list[bytes]:
        """Candidate pairwise keys for a request this endpoint answered."""
        return [mini_pair_key(x, y) for x, y in self._pending.get(request_id, [])]

    def has_seen(self, request_id: bytes) -> bool:
        """True once this endpoint has answered (or declined) the request."""
        return request_id in self._seen_requests

    # -- the pipeline ----------------------------------------------------

    def handle_request(self, req: MiniRequest, now_ms: int = 0) -> MiniReply | None:
        if req.is_expired(now_ms):
            return None
        if req.request_id in self._seen_requests:
            return None
        self._seen_requests.add(req.request_id)
        outcome = self.process(req)
        self.last_candidate = outcome.candidate
        if not outcome.candidate:
            return None
        if req.protocol == 1:
            return self._reply_protocol1(req, outcome, now_ms)
        return self._reply_protocol23(req, outcome, now_ms)

    def process(self, req: MiniRequest) -> _MiniOutcome:
        outcome = _MiniOutcome(candidate=False)
        optional_positions = [i for i, nec in enumerate(req.necessary_mask) if not nec]
        # A hint whose dimensions do not cover the optional positions can
        # never be solved: the spec says reject before any work.
        if req.hint is not None and (
            req.hint.gamma + req.hint.beta != len(optional_positions)
        ):
            return outcome

        gamma = len(optional_positions) - req.beta
        assignments = self._enumerate(req, gamma)
        if not assignments:
            return outcome
        outcome.candidate = True

        seen: set[tuple[int, ...]] = set()
        for values in assignments:
            filled = self._complete(req, values, optional_positions)
            if filled is None:
                continue
            if filled in seen:
                continue
            seen.add(filled)
            key = mini_profile_key(filled)
            outcome.vectors.append(filled)
            outcome.keys.append(key)
            if req.protocol == 1 and outcome.x is None:
                plaintext = _aes_decrypt(key, req.ciphertext)
                if plaintext[: len(_CONFIRMATION)] == _CONFIRMATION:
                    outcome.x = plaintext[len(_CONFIRMATION) : len(_CONFIRMATION) + _SECRET_LEN]
                    outcome.matched_key = key
                    break
            if len(outcome.keys) >= self.max_candidates:
                break
        return outcome

    def _enumerate(self, req: MiniRequest, gamma: int) -> list[tuple[int | None, ...]]:
        """Every order-consistent assignment with ≤ gamma optional unknowns."""
        buckets: dict[int, list[int]] = {}
        for h in self.values:  # self.values is sorted, so buckets are too
            buckets.setdefault(h % req.p, []).append(h)
        n = req.m_t
        results: list[tuple[int | None, ...]] = []
        visits = 0

        def walk(pos: int, prev: int, unknowns: int, assignment: list[int | None]) -> None:
            nonlocal visits
            visits += 1
            if visits > self.max_visits or len(results) > 4 * self.max_candidates:
                return
            if pos == n:
                results.append(tuple(assignment))
                return
            necessary = req.necessary_mask[pos]
            for h in buckets.get(req.remainders[pos], ()):
                if h > prev:
                    assignment.append(h)
                    walk(pos + 1, h, unknowns, assignment)
                    assignment.pop()
            # Robust mode: an optional position may stay unknown even when
            # the bucket offered a value (the value might belong elsewhere).
            if not necessary and unknowns < max(gamma, 0):
                assignment.append(None)
                walk(pos + 1, prev, unknowns + 1, assignment)
                assignment.pop()

        walk(0, -1, 0, [])
        return results

    def _complete(
        self,
        req: MiniRequest,
        values: tuple[int | None, ...],
        optional_positions: list[int],
    ) -> tuple[int, ...] | None:
        """Fill unknowns via the hint; None when the candidate is dead."""
        if all(v is not None for v in values):
            return tuple(values)  # type: ignore[arg-type]
        if req.hint is None:
            return None  # perfect-match request: incomplete candidates are useless
        segment = [values[i] for i in optional_positions]
        recovered = self._solve_hint(req.hint, segment)
        if recovered is None:
            return None
        filled = list(values)
        for pos, value in zip(optional_positions, recovered):
            if filled[pos] is None:
                # Recovered hashes must agree with the published remainders.
                if value % req.p != req.remainders[pos]:
                    return None
                filled[pos] = value
        if any(v is None for v in filled):
            return None
        return tuple(filled)  # type: ignore[arg-type]

    def _solve_hint(
        self, hint: MiniHint, segment: list[int | None]
    ) -> list[int] | None:
        """Solve ``B = C·h_opt`` for the unknown entries, exactly over Q."""
        width = hint.gamma + hint.beta
        if len(segment) != width:
            return None
        unknown = [i for i, v in enumerate(segment) if v is None]
        if len(unknown) > hint.gamma:
            return None
        col_of = {pos: k for k, pos in enumerate(unknown)}
        rows: list[list[Fraction]] = []
        rhs: list[Fraction] = []
        for i in range(hint.gamma):
            # Row i of C = [I_gamma | R]: coefficient 1 at position i,
            # R[i][j] at position gamma + j.
            coeffs = [0] * width
            coeffs[i] = 1
            for j in range(hint.beta):
                coeffs[hint.gamma + j] = hint.r_block[i][j]
            row = [Fraction(0)] * len(unknown)
            acc = Fraction(hint.b_vector[i])
            for pos, coeff in enumerate(coeffs):
                if coeff == 0:
                    continue
                if segment[pos] is None:
                    row[col_of[pos]] += coeff
                else:
                    acc -= coeff * segment[pos]
            rows.append(row)
            rhs.append(acc)

        solution = _gauss_exact(rows, rhs, len(unknown))
        if solution is None:
            return None
        recovered = list(segment)
        for pos, value in zip(unknown, solution):
            if value.denominator != 1:
                return None
            value = value.numerator
            if not 0 <= value < (1 << 256):
                return None
            recovered[pos] = value
        # Exact re-check of every equation over the integers.
        for i in range(hint.gamma):
            acc = recovered[i]
            for j in range(hint.beta):
                acc += hint.r_block[i][j] * recovered[hint.gamma + j]
            if acc != hint.b_vector[i]:
                return None
        return recovered  # type: ignore[return-value]

    # -- reply building --------------------------------------------------

    def _reply_protocol1(
        self, req: MiniRequest, outcome: _MiniOutcome, now_ms: int
    ) -> MiniReply | None:
        if outcome.x is None:
            return None  # candidate but not matching
        matched_vector = next(
            vec for vec, key in zip(outcome.vectors, outcome.keys)
            if key == outcome.matched_key
        )
        similarity = len(set(self.values) & set(matched_vector))
        y = self._y_for(req.request_id)
        element = _aes_encrypt(outcome.x, _ACK + bytes([min(similarity, 255)]) + y)
        self._pending.setdefault(req.request_id, []).append((outcome.x, y))
        return MiniReply(
            request_id=req.request_id,
            responder_id=self.user_id,
            elements=(element,),
            sent_at_ms=now_ms,
        )

    def _reply_protocol23(
        self, req: MiniRequest, outcome: _MiniOutcome, now_ms: int
    ) -> MiniReply | None:
        if not outcome.keys:
            return None
        y = self._y_for(req.request_id)
        plaintext = _ACK + b"\x00" + y  # similarity 0: no oracle under P2/P3
        elements = []
        pending = self._pending.setdefault(req.request_id, [])
        for key in outcome.keys:
            x_candidate = _aes_decrypt(key, req.ciphertext)
            elements.append(_aes_encrypt(x_candidate, plaintext))
            pending.append((x_candidate, y))
        return MiniReply(
            request_id=req.request_id,
            responder_id=self.user_id,
            elements=tuple(elements),
            sent_at_ms=now_ms,
        )


def _gauss_exact(
    rows: list[list[Fraction]], rhs: list[Fraction], n_unknown: int
) -> list[Fraction] | None:
    """Exact Gaussian elimination over Q; None when inconsistent or rank-deficient."""
    m = len(rows)
    aug = [row[:] + [b] for row, b in zip(rows, rhs)]
    pivot_cols: list[int] = []
    rank = 0
    for col in range(n_unknown):
        pivot = next((r for r in range(rank, m) if aug[r][col] != 0), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        inv = 1 / aug[rank][col]
        aug[rank] = [v * inv for v in aug[rank]]
        for r in range(m):
            if r != rank and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * p for v, p in zip(aug[r], aug[rank])]
        pivot_cols.append(col)
        rank += 1
    for r in range(rank, m):
        if aug[r][n_unknown] != 0:
            return None  # inconsistent: candidate is not the request
    if rank < n_unknown:
        return None  # underdetermined
    solution = [Fraction(0)] * n_unknown
    for r, col in enumerate(pivot_cols):
        solution[col] = aug[r][n_unknown]
    return solution


# -- initiator ------------------------------------------------------------


class MiniInitiator:
    """Initiator endpoint: builds sealed requests, verifies acknowledge sets.

    With the same seeded RNG the built request is byte-identical to the
    repro stack's (same draw order: secret ``x``, then the hint matrix's
    random block row-major, then the request id) — pinned by the
    conformance suite as the strongest possible encoder agreement.
    """

    def __init__(
        self,
        necessary,
        optional,
        beta: int,
        *,
        protocol: int = 2,
        p: int = 11,
        ttl: int = 8,
        validity_ms: int = 60_000,
        reply_window_ms: int = 5_000,
        max_reply_elements: int = 16,
        rng: random.Random | None = None,
        binding: bytes | None = None,
    ):
        self.necessary = list(necessary)
        self.optional = list(optional)
        self.beta = beta
        self.protocol = protocol
        self.p = p
        self.ttl = ttl
        self.validity_ms = validity_ms
        self.reply_window_ms = reply_window_ms
        self.max_reply_elements = max_reply_elements
        self.rng = rng or random.Random()
        self.binding = binding
        self.x: bytes | None = None
        self.request_id: bytes | None = None
        self.created_ms: int | None = None
        self.matches: list[dict] = []
        self.rejected: list[tuple[str, str]] = []

    def build_request(self, now_ms: int = 0) -> MiniRequest:
        tagged = sorted(
            [(mini_hash_attribute(a, self.binding), True) for a in self.necessary]
            + [(mini_hash_attribute(a, self.binding), False) for a in self.optional]
        )
        values = [h for h, _ in tagged]
        mask = tuple(nec for _, nec in tagged)
        m_t = len(values)
        if self.p <= m_t:
            raise ValueError(f"remainder prime p={self.p} must exceed m_t={m_t}")
        key = mini_profile_key(values)
        # RNG draw order is part of the encoder-identity contract:
        # x, then R row-major, then the request id.
        x = self.rng.randbytes(_SECRET_LEN)
        sealed = (_CONFIRMATION + x) if self.protocol == 1 else x
        ciphertext = _aes_encrypt(key, sealed)
        remainders = tuple(v % self.p for v in values)
        optional_values = [h for h, nec in tagged if not nec]
        gamma = len(optional_values) - self.beta
        hint = None
        if gamma > 0:
            r_block = tuple(
                tuple(self.rng.randrange(1, 1 << 32) for _ in range(self.beta))
                for _ in range(gamma)
            )
            b_vector = tuple(
                optional_values[i]
                + sum(r_block[i][j] * optional_values[gamma + j] for j in range(self.beta))
                for i in range(gamma)
            )
            hint = MiniHint(gamma=gamma, beta=self.beta, r_block=r_block, b_vector=b_vector)
        request_id = self.rng.randbytes(8)
        self.x = x
        self.request_id = request_id
        self.created_ms = now_ms
        return MiniRequest(
            protocol=self.protocol,
            p=self.p,
            remainders=remainders,
            necessary_mask=mask,
            beta=self.beta,
            hint=hint,
            ciphertext=ciphertext,
            request_id=request_id,
            ttl=self.ttl,
            expiry_ms=now_ms + self.validity_ms,
        )

    def handle_reply(self, reply: MiniReply, now_ms: int) -> dict | None:
        if self.x is None or self.request_id is None or self.created_ms is None:
            raise RuntimeError("build_request must be called first")
        if reply.request_id != self.request_id:
            self.rejected.append((reply.responder_id, "unknown request id"))
            return None
        # The window is anchored at request creation, not the reply stamp.
        if now_ms - self.created_ms > self.reply_window_ms:
            self.rejected.append((reply.responder_id, "outside time window"))
            return None
        if len(reply.elements) > self.max_reply_elements:
            self.rejected.append((reply.responder_id, "reply set too large"))
            return None
        for element in reply.elements:
            if len(element) != _REPLY_PLAINTEXT_LEN:
                continue
            plaintext = _aes_decrypt(self.x, element)
            if plaintext[: len(_ACK)] == _ACK:
                record = {
                    "responder_id": reply.responder_id,
                    "similarity": plaintext[len(_ACK)],
                    "y": plaintext[len(_ACK) + 1 :],
                    "session_key": mini_pair_key(self.x, plaintext[len(_ACK) + 1 :]),
                }
                self.matches.append(record)
                return record
        self.rejected.append((reply.responder_id, "no element verified"))
        return None


# -- sessionized node endpoint -------------------------------------------


@dataclass
class MiniDelivery:
    """What one delivered datagram did to a mini node."""

    status: str  # rejected | ignored | duplicate | expired | overflow | wave-forwarded | processed
    reply_frame: bytes | None = None
    forward_frame: bytes | None = None
    candidate: bool | None = None


class MiniNode:
    """One flood endpoint: frame in, (reply frame, forward frame) out.

    Implements the sessionized-endpoint semantics of the spec: per-request
    dedupe on the envelope ``seq`` (a wave mark), forward-once without
    re-processing for fresh waves, strict expiry, reverse-path bookkeeping
    and bounded session state.
    """

    def __init__(
        self,
        node_id: str,
        participant: MiniParticipant | None = None,
        *,
        wire: MiniWire | None = None,
        sessions: MiniSessionTable | None = None,
    ):
        self.node_id = node_id
        self.participant = participant
        self.wire = wire or MiniWire()
        self.sessions = sessions or MiniSessionTable()

    def handle_datagram(
        self, data: bytes, *, parent: str | None = None, now_ms: int = 0
    ) -> MiniDelivery:
        try:
            frame = self.wire.decode_frame(data)
        except MiniRejection:
            return MiniDelivery(status="rejected")
        if frame.ftype != 1:
            return MiniDelivery(status="ignored")
        try:
            req = self.wire.decode_request(frame.payload)
        except MiniRejection:
            return MiniDelivery(status="rejected")

        session = self.sessions.get(req.request_id)
        if session is not None:
            if frame.seq <= session.last_seq:
                return MiniDelivery(status="duplicate")
            # A fresh retransmission wave: forward once, never re-process.
            if req.is_expired(now_ms):
                return MiniDelivery(status="expired")
            session.last_seq = frame.seq
            forward = None
            if frame.ttl > 1:
                forward = self.wire.hop(data, ttl=frame.ttl - 1)
            return MiniDelivery(status="wave-forwarded", forward_frame=forward)

        if req.is_expired(now_ms):
            return MiniDelivery(status="expired")
        hops = req.ttl - frame.ttl + 1
        session = self.sessions.open(
            req.request_id,
            parent=parent,
            hops=hops,
            expires_ms=req.expiry_ms,
            now_ms=now_ms,
        )
        if session is None:
            return MiniDelivery(status="overflow")
        session.last_seq = frame.seq

        reply_frame = None
        candidate = None
        if self.participant is not None:
            reply = self.participant.handle_request(req, now_ms=now_ms)
            candidate = self.participant.last_candidate
            if reply is not None:
                reply_frame = self.wire.encode_frame(
                    2, self.wire.encode_reply(reply), ttl=min(hops, 255)
                )
        forward = None
        if frame.ttl > 1:
            forward = self.wire.hop(data, ttl=frame.ttl - 1)
        return MiniDelivery(
            status="processed",
            reply_frame=reply_frame,
            forward_frame=forward,
            candidate=candidate,
        )


# -- the facade -----------------------------------------------------------


class MiniPeer:
    """One coherent mini endpoint stack, with seams for the mutant set.

    The conformance harness drives everything through a ``MiniPeer`` so a
    mutant can swap exactly one component (wire codec, session table,
    node) while the rest of the stack stays honest.
    """

    def __init__(
        self,
        *,
        wire: MiniWire | None = None,
        table_factory=MiniSessionTable,
        node_factory=MiniNode,
    ):
        self.wire = wire or MiniWire()
        self.table_factory = table_factory
        self.node_factory = node_factory

    def session_table(self, max_sessions: int = 4096, overflow: str = "evict_oldest"):
        return self.table_factory(max_sessions, overflow)

    def participant(self, attributes, user_id: str, **kwargs) -> MiniParticipant:
        return MiniParticipant(attributes, user_id, **kwargs)

    def initiator(self, necessary, optional, beta: int, **kwargs) -> MiniInitiator:
        return MiniInitiator(necessary, optional, beta, **kwargs)

    def node(
        self,
        node_id: str,
        participant: MiniParticipant | None = None,
        *,
        max_sessions: int = 4096,
        overflow: str = "evict_oldest",
    ) -> MiniNode:
        return self.node_factory(
            node_id,
            participant,
            wire=self.wire,
            sessions=self.table_factory(max_sessions, overflow),
        )
