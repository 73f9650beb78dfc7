"""The fate stream of the v2 channel plane.

:class:`~repro.network.channel_model.ChannelModel` version 2 derives every
per-link fate (drop/dup/reorder/corrupt decisions, jitter draws, the
corrupted bit position) from a **counter-mode SHA-256 keystream** instead
of reseeding a scratch Mersenne-Twister per transmission:

- block ``c`` of one link's stream is
  ``SHA-256(prefix || dst32 || c)``, where ``prefix`` is the 76-byte
  ``seed | seq | flow32 | src32`` broadcast prefix, ``dst32`` /
  ``src32`` / ``flow32`` are SHA-256 digests of the node ids / flow id
  (fixed-width, so the 112-byte message layout is static) and ``c`` a
  32-bit big-endian counter;
- each block is consumed as eight big-endian 32-bit words, in order,
  rolling into block ``c+1`` when exhausted;
- a probability ``p`` decision fires when ``word < round(p * 2**32)``,
  and a uniform draw in ``[0, n)`` rejection-samples the low
  ``(n-1).bit_length()`` bits of successive words.

The word-consumption order per link is fixed by :func:`_link_fate` (the
executable reference): drop, dup, then per delivered copy jitter draw(s),
reorder decision, corrupt decision and bit draw(s) -- draws gated off by a
zero parameter consume nothing.  :func:`broadcast_fates` is the one
implementation the channel calls: the reference unrolled over
:mod:`hashlib`, with the broadcast prefix absorbed into one copied
SHA-256 state, so the common fate costs a single short hash call per
link.  Vectorising the stream does not pay at this repo's fan-outs: a
numpy version lost to this loop at every fan-out up to 1000
(``docs/performance.md``).
"""

from __future__ import annotations

import hashlib
import struct
from collections.abc import Iterator, Sequence
from typing import NamedTuple

__all__ = ["FateParams", "broadcast_fates", "fate_threshold"]

PREFIX_LEN = 12 + 32 + 32  # struct.pack(">qI", seed, seq) || flow32 || src32

_WORDS = struct.Struct(">8I")
_CTR0 = b"\x00\x00\x00\x00"


def fate_threshold(rate: float) -> int:
    """32-bit keystream-word threshold for a probability-*rate* decision.

    A decision fires when ``word < fate_threshold(rate)``: ``0.0`` maps
    to 0 (never) and ``1.0`` to ``2**32`` (always, like
    ``random() < 1.0`` in the v1 plane).
    """
    return min(1 << 32, round(rate * (1 << 32)))


class FateParams(NamedTuple):
    """Precomputed draw parameters one :class:`ChannelModel` hands the stream.

    Thresholds are :func:`fate_threshold` of the corresponding rate; a
    zero threshold gates the decision's word consumption off entirely
    (mirroring v1's ``if rate and rng.random() < rate``).  ``jitter_n``
    is ``jitter_ms + 1`` (the draw is uniform on ``[0, jitter_ms]``;
    ``1`` means no jitter draw) and ``jitter_mask`` keeps the low
    ``jitter_ms.bit_length()`` bits for its rejection loop.
    """

    drop_t: int
    dup_t: int
    reorder_t: int
    corrupt_t: int
    jitter_n: int
    jitter_mask: int
    reorder_delay_ms: int


def _keystream_words(prefix: bytes, dst32: bytes) -> Iterator[int]:
    """Big-endian 32-bit words of one link's counter-mode stream."""
    head = hashlib.sha256(prefix)
    head.update(dst32)
    unpack = _WORDS.unpack
    counter = 0
    while True:
        h = head.copy()
        h.update(counter.to_bytes(4, "big"))
        yield from unpack(h.digest())
        counter += 1


def _link_fate(
    prefix: bytes,
    dst32: bytes,
    params: FateParams,
    frame_bits: int,
    bit_mask: int,
) -> tuple[tuple[int, int], ...]:
    """The reference fate of one link: the v2 word-consumption contract.

    Returns ``()`` for a dropped transmission, else one
    ``(extra_delay_ms, corrupt_bit)`` pair per delivered copy
    (``corrupt_bit`` is ``-1`` for a clean copy).
    :func:`broadcast_fates` must reproduce this function word for word;
    the equivalence tests pin it against this reference.
    """
    take = _keystream_words(prefix, dst32).__next__
    if take() < params.drop_t:
        return ()
    copies = 2 if take() < params.dup_t else 1
    jitter_n = params.jitter_n
    jitter_mask = params.jitter_mask
    fate = []
    for _ in range(copies):
        extra = 0
        if jitter_n > 1:
            r = take() & jitter_mask
            while r >= jitter_n:
                r = take() & jitter_mask
            extra = r
        if params.reorder_t and take() < params.reorder_t:
            extra += params.reorder_delay_ms
        bit = -1
        if params.corrupt_t and take() < params.corrupt_t:
            bit = take() & bit_mask
            while bit >= frame_bits:
                bit = take() & bit_mask
        fate.append((extra, bit))
    return tuple(fate)


def broadcast_fates(
    prefix: bytes,
    dst_digests: Sequence[bytes],
    params: FateParams,
    frame_bits: int,
) -> list[tuple[tuple[int, int], ...]]:
    """One broadcast's per-link fates: :func:`_link_fate` over hashlib.

    *prefix* is the :data:`PREFIX_LEN`-byte broadcast prefix
    (``seed | seq | flow32 | src32``) and *dst_digests* the 32-byte
    destination-id digests, in delivery order.  *frame_bits* bounds the
    corrupted-bit draw (``max(1, 8 * frame length)``).

    The prefix is absorbed into one SHA-256 state and copied per
    destination (the same trick the v1 batched path uses), so the common
    lossy-flood fate -- first keystream block covers every draw -- costs
    exactly one short hash call per link.  Block refills (heavy configs,
    rejection-loop spills) recompute from the copied prefix state, which
    the equivalence tests pin against the rolling reference stream.
    """
    unpack = _WORDS.unpack
    prefix_copy = hashlib.sha256(prefix).copy
    (
        drop_t, dup_t, reorder_t, corrupt_t,
        jitter_n, jitter_mask, reorder_delay_ms,
    ) = params
    has_jitter = jitter_n > 1
    bit_mask = (1 << (frame_bits - 1).bit_length()) - 1
    def refill(dst32: bytes, counter: int) -> tuple[int, ...]:
        h = prefix_copy()
        h.update(dst32)
        h.update(counter.to_bytes(4, "big"))
        return unpack(h.digest())

    out: list[tuple[tuple[int, int], ...]] = []
    append = out.append
    for dst32 in dst_digests:
        h = prefix_copy()
        h.update(dst32)
        h.update(_CTR0)
        words = unpack(h.digest())
        if words[0] < drop_t:
            append(())
            continue
        copies = 2 if words[1] < dup_t else 1
        idx = 2
        counter = 0
        fate = []
        for _ in range(copies):
            extra = 0
            if has_jitter:
                while True:
                    if idx == 8:
                        counter += 1
                        words = refill(dst32, counter)
                        idx = 0
                    r = words[idx] & jitter_mask
                    idx += 1
                    if r < jitter_n:
                        extra = r
                        break
            if reorder_t:
                if idx == 8:
                    counter += 1
                    words = refill(dst32, counter)
                    idx = 0
                if words[idx] < reorder_t:
                    extra += reorder_delay_ms
                idx += 1
            bit = -1
            if corrupt_t:
                if idx == 8:
                    counter += 1
                    words = refill(dst32, counter)
                    idx = 0
                hit = words[idx] < corrupt_t
                idx += 1
                if hit:
                    while True:
                        if idx == 8:
                            counter += 1
                            words = refill(dst32, counter)
                            idx = 0
                        bit = words[idx] & bit_mask
                        idx += 1
                        if bit < frame_bits:
                            break
            fate.append((extra, bit))
        append(tuple(fate))
    return out
