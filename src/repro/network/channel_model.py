"""Per-hop lossy-channel model for the datagram engine.

A :class:`ChannelModel` decides what the radio medium does to each frame
transmitted over one link: deliver it, drop it, deliver a duplicate copy,
corrupt bits in flight, and/or delay it (latency jitter, which is also how
reordering arises -- a jittered frame can overtake or fall behind its
neighbours in the event queue).

Determinism is the load-bearing property.  Every transmission's fate is a
pure function of ``(channel seed, flow id, link, seq)`` -- never of a
shared RNG stream.  Two consequences:

- a lossy run is reproducible from ``(seed, spec)`` alone, and
- the fate of a transmission does not depend on how concurrent episodes
  interleave in the event queue, so a sharded engine run
  (:meth:`~repro.network.engine.FriendingEngine.run_parallel`) perturbs
  exactly the same frames as a sequential one.

*How* the fate derives from that key is itself versioned, because the
exact drawn values are part of the reproducibility contract
(``docs/wire_format.md`` has the policy):

``version=1`` (default)
    The original plane: the key is hashed and the digest reseeds a
    private scratch :class:`random.Random` whose draws decide the fate.
    Kept bit-for-bit stable -- every recorded v1 spec reproduces
    draw-for-draw, pinned by the flood-plane bench's frame goldens.

``version=2``
    The counter-mode plane: fates come straight from a SHA-256
    keystream over ``(seed, flow, link, seq, draw index)`` -- uniform
    ints via rejection sampling on 32-bit stream words, no scratch-MT
    reseed, no :class:`random.Random` anywhere on the hot path.  This
    removes the fixed ~6us per-transmission reseed that dominated v1
    lossy floods; the stream itself lives in
    :mod:`repro.network.channel_backend`.

:class:`PerfectChannel` (all rates zero) short-circuits before any
hashing: one copy, base latency, bytes untouched.
"""

from __future__ import annotations

import hashlib
import random
import struct
from dataclasses import dataclass
from typing import NamedTuple

from repro.core.wire import flip_bit
from repro.network.channel_backend import FateParams, broadcast_fates, fate_threshold

__all__ = ["ChannelModel", "PerfectChannel", "Delivery"]

CHANNEL_VERSIONS = (1, 2)

# v2 hashes node ids and flow ids to fixed-width 32-byte digests so the
# keystream messages have a static layout (no separator bytes).  Both
# caches are value-pure -- a digest only depends on its key -- so sharded
# workers recomputing them stay byte-identical; the bound just stops a
# pathological id churn from growing them without limit.
_DIGEST_CACHE_MAX = 1 << 17
_NODE_DIGESTS: dict[str, bytes] = {}
_FLOW_DIGESTS: dict[bytes, bytes] = {}
_PACK_SEED_SEQ = struct.Struct(">qI").pack


def _node32(node_id: str) -> bytes:
    digest = _NODE_DIGESTS.get(node_id)
    if digest is None:
        if len(_NODE_DIGESTS) >= _DIGEST_CACHE_MAX:
            _NODE_DIGESTS.clear()
        digest = _NODE_DIGESTS[node_id] = hashlib.sha256(
            node_id.encode("utf-8")
        ).digest()
    return digest


def _flow32(flow: bytes) -> bytes:
    digest = _FLOW_DIGESTS.get(flow)
    if digest is None:
        if len(_FLOW_DIGESTS) >= _DIGEST_CACHE_MAX:
            _FLOW_DIGESTS.clear()
        digest = _FLOW_DIGESTS[flow] = hashlib.sha256(flow).digest()
    return digest


# One Mersenne-Twister instance serves every fate draw: ``Random(x)`` and
# ``rng.seed(x)`` initialise the identical generator state, but reseeding
# skips the object construction that used to dominate the per-transmission
# cost.  Single-threaded by design (the engine is), and never shared with
# callers beyond the duration of one fate draw.
_SCRATCH_RNG = random.Random()
# The C base-class seed, bound to the scratch instance: for an int seed the
# Python-level ``random.Random.seed`` wrapper only type-dispatches (and
# resets unused gauss state) before delegating here, and that wrapper is
# measurable at one call per transmission of a city flood.  State produced
# is bit-identical for ints; the transmit-equivalence test pins it.
_SCRATCH_RESEED = random.Random.__base__.seed.__get__(_SCRATCH_RNG)


class Delivery(NamedTuple):
    """One physical copy the channel puts on the air for a transmission.

    A named tuple rather than a dataclass: one is allocated per delivered
    copy of every transmission of a flood, and tuple construction is the
    cheapest immutable record CPython offers.
    """

    delay_ms: int
    data: bytes
    corrupted: bool = False


@dataclass(frozen=True)
class ChannelModel:
    """Seedable lossy radio medium applied independently per transmission.

    Parameters (all probabilities in ``[0, 1]``):

    drop_rate:
        The frame is transmitted but never received.
    dup_rate:
        The link-layer delivers a second copy (e.g. an ACK was lost and
        the sender repeated itself).
    reorder_rate:
        The copy is held back by an extra :attr:`reorder_delay_ms`,
        letting later frames overtake it.
    corrupt_rate:
        One random bit of the copy is flipped in flight; the frame
        envelope's CRC turns this into a clean endpoint-side rejection.
    jitter_ms:
        Uniform extra per-copy latency in ``[0, jitter_ms]`` simulated ms.
    seed:
        Folded into every per-transmission hash; two channels with
        different seeds perturb different frames.
    version:
        Fate-derivation plane, ``1`` (scratch-MT, default) or ``2``
        (counter-mode keystream).  Part of the determinism contract:
        the two planes draw *different* (equally valid) fates for the
        same key, so a recorded run only reproduces under the version
        that produced it.
    """

    drop_rate: float = 0.0
    dup_rate: float = 0.0
    reorder_rate: float = 0.0
    corrupt_rate: float = 0.0
    jitter_ms: int = 0
    reorder_delay_ms: int = 8
    seed: int = 0
    version: int = 1

    def __post_init__(self) -> None:
        for name in ("drop_rate", "dup_rate", "reorder_rate", "corrupt_rate"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not 0 <= value <= 1:
                raise ValueError(f"{name} must be a probability in [0, 1], got {value!r}")
        if not isinstance(self.jitter_ms, int) or self.jitter_ms < 0:
            raise ValueError(f"jitter_ms must be a non-negative integer, got {self.jitter_ms!r}")
        if not isinstance(self.reorder_delay_ms, int) or self.reorder_delay_ms < 0:
            raise ValueError(
                f"reorder_delay_ms must be a non-negative integer, got {self.reorder_delay_ms!r}"
            )
        if self.version not in CHANNEL_VERSIONS:
            raise ValueError(
                f"version must be one of {CHANNEL_VERSIONS} "
                f"(1 = scratch-MT, 2 = counter-mode), got {self.version!r}"
            )
        if self.version == 2:
            # Derived draw parameters, precomputed once per channel.  The
            # dataclass is frozen, so the cache goes through
            # object.__setattr__; it lives in __dict__ (pickles with the
            # instance for run_parallel workers) and, not being a field,
            # never affects __eq__ or repr.
            object.__setattr__(
                self,
                "_fate_params",
                FateParams(
                    drop_t=fate_threshold(self.drop_rate),
                    dup_t=fate_threshold(self.dup_rate),
                    reorder_t=fate_threshold(self.reorder_rate),
                    corrupt_t=fate_threshold(self.corrupt_rate),
                    jitter_n=self.jitter_ms + 1,
                    jitter_mask=(1 << self.jitter_ms.bit_length()) - 1,
                    reorder_delay_ms=self.reorder_delay_ms,
                ),
            )

    @property
    def is_perfect(self) -> bool:
        """True when the channel can never perturb a frame."""
        return (
            self.drop_rate == 0
            and self.dup_rate == 0
            and self.reorder_rate == 0
            and self.corrupt_rate == 0
            and self.jitter_ms == 0
        )

    def _rng(self, flow: bytes, link: tuple[str, str], seq: int) -> random.Random:
        digest = hashlib.sha256(
            struct.pack(">qI", self.seed, seq & 0xFFFF_FFFF)
            + flow
            + b"\x00"
            + link[0].encode("utf-8")
            + b"\x00"
            + link[1].encode("utf-8")
        ).digest()
        rng = _SCRATCH_RNG
        _SCRATCH_RESEED(int.from_bytes(digest[:8], "big"))
        return rng

    def _fate(self, frame, rng: random.Random, latency_ms: int) -> list[Delivery]:
        """Draw one transmission's fate from an already-seeded *rng*."""
        if rng.random() < self.drop_rate:
            return []
        copies = 2 if rng.random() < self.dup_rate else 1
        return self._copies(frame, rng, latency_ms, copies)

    def _copies(
        self, frame, rng: random.Random, latency_ms: int, copies: int
    ) -> list[Delivery]:
        """Draw the per-copy perturbations (jitter, reorder, corruption)."""
        out = []
        for _ in range(copies):
            delay = latency_ms
            if self.jitter_ms:
                delay += rng.randint(0, self.jitter_ms)
            if self.reorder_rate and rng.random() < self.reorder_rate:
                delay += self.reorder_delay_ms
            data = frame
            corrupted = False
            if self.corrupt_rate and rng.random() < self.corrupt_rate:
                data = flip_bit(frame, rng.randrange(max(1, len(frame) * 8)))
                corrupted = True
            out.append(Delivery(delay, data, corrupted))
        return out

    def transmit(
        self,
        frame: bytes,
        *,
        flow: bytes,
        link: tuple[str, str],
        seq: int,
        latency_ms: int,
    ) -> list[Delivery]:
        """Decide this transmission's fate; returns the delivered copies.

        *flow* names the logical stream (request id plus direction),
        *link* is ``(src, dst)`` and *seq* distinguishes repeat
        transmissions of the same flow over the same link (retransmission
        waves, reply hop indices).  An empty list means the frame was
        lost in the air.
        """
        if self.is_perfect:
            return [Delivery(latency_ms, frame)]
        if self.version == 2:
            return self._deliveries_v2(frame, flow, link[0], [link[1]], seq, latency_ms)[0]
        return self._fate(frame, self._rng(flow, link, seq), latency_ms)

    def transmit_many(
        self,
        frame: bytes,
        *,
        flow: bytes,
        src: str,
        dsts: list[str],
        seq: int,
        latency_ms: int,
    ) -> list[list[Delivery]]:
        """Draw the fates of one broadcast over every ``(src, dst)`` link.

        Returns one :meth:`transmit` result per destination, in order,
        with bit-identical per-link values: each link's fate still hashes
        from ``(seed, flow, (src, dst), seq)``.  The batching win is the
        shared hash prefix -- ``seed | seq | flow | src`` is absorbed into
        one SHA-256 state that is then copied per destination -- plus a
        single short-circuit for the perfect channel, where every link
        shares one immutable :class:`Delivery`.
        """
        if self.is_perfect:
            delivery = [Delivery(latency_ms, frame)]
            return [delivery for _ in dsts]
        if self.version == 2:
            return self._deliveries_v2(frame, flow, src, dsts, seq, latency_ms)
        prefix = hashlib.sha256(
            struct.pack(">qI", self.seed, seq & 0xFFFF_FFFF)
            + flow
            + b"\x00"
            + src.encode("utf-8")
            + b"\x00"
        )
        # The loop below is `_fate` unrolled for the single-copy case with
        # everything hoisted: this path runs once per neighbour of every
        # broadcast of a city flood, and the draw order must replicate
        # `_fate` exactly (drop, dup, then per-copy jitter/reorder/corrupt)
        # so batched fates stay bit-identical to one-at-a-time ones.
        rng = _SCRATCH_RNG
        reseed = _SCRATCH_RESEED
        rand = rng.random
        getrandbits = rng.getrandbits
        from_bytes = int.from_bytes
        prefix_copy = prefix.copy
        drop_rate = self.drop_rate
        dup_rate = self.dup_rate
        reorder_rate = self.reorder_rate
        corrupt_rate = self.corrupt_rate
        # randint(0, jitter_ms) inlined as CPython's _randbelow rejection
        # loop (k-bit draws until < n): same underlying getrandbits stream,
        # same values, three call layers fewer.  The transmit-equivalence
        # test pins this against Random.randint, so a CPython algorithm
        # change would fail loudly rather than silently fork the fates.
        jitter_n = self.jitter_ms + 1
        jitter_bits = jitter_n.bit_length()
        has_jitter = self.jitter_ms > 0
        out = []
        append = out.append
        for dst in dsts:
            h = prefix_copy()
            h.update(dst.encode("utf-8"))
            reseed(from_bytes(h.digest()[:8], "big"))
            if rand() < drop_rate:
                append([])
                continue
            if rand() < dup_rate:
                append(self._copies(frame, rng, latency_ms, 2))
                continue
            delay = latency_ms
            if has_jitter:
                r = getrandbits(jitter_bits)
                while r >= jitter_n:
                    r = getrandbits(jitter_bits)
                delay += r
            if reorder_rate and rand() < reorder_rate:
                delay += self.reorder_delay_ms
            if corrupt_rate and rand() < corrupt_rate:
                data = flip_bit(frame, rng.randrange(max(1, len(frame) * 8)))
                append([Delivery(delay, data, True)])
            else:
                append([Delivery(delay, frame)])
        return out

    def _deliveries_v2(
        self,
        frame: bytes,
        flow: bytes,
        src: str,
        dsts: list[str],
        seq: int,
        latency_ms: int,
    ) -> list[list[Delivery]]:
        """Counter-mode fate plane: one keystream per link, no RNG objects.

        The 76-byte broadcast prefix ``seed | seq | flow32 | src32`` keys
        the whole neighbourhood;
        :func:`~repro.network.channel_backend.broadcast_fates` turns it
        into per-link ``(extra_delay, corrupt_bit)`` fates, which map 1:1
        onto :class:`Delivery` copies here.
        """
        prefix = (
            _PACK_SEED_SEQ(self.seed, seq & 0xFFFF_FFFF) + _flow32(flow) + _node32(src)
        )
        fates = broadcast_fates(
            prefix,
            [_node32(dst) for dst in dsts],
            self._fate_params,
            max(1, len(frame) * 8),
        )
        out = []
        append = out.append
        for fate in fates:
            if not fate:
                append([])
            elif len(fate) == 1:
                extra, bit = fate[0]
                if bit < 0:
                    append([Delivery(latency_ms + extra, frame)])
                else:
                    append([Delivery(latency_ms + extra, flip_bit(frame, bit), True)])
            else:
                append(
                    [
                        Delivery(latency_ms + extra, frame)
                        if bit < 0
                        else Delivery(latency_ms + extra, flip_bit(frame, bit), True)
                        for extra, bit in fate
                    ]
                )
        return out


@dataclass(frozen=True)
class PerfectChannel(ChannelModel):
    """Lossless, jitter-free medium: one copy per transmission, untouched.

    The engine's default.  Runs over a perfect channel are byte-identical
    (matches, wire elements, metrics) to the pre-datagram engine's frozen
    fixture, pinned by ``tests/network/test_engine_golden.py``.
    """
