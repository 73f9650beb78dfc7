"""The batched symmetric hot path: one AES for every friending episode.

Every friending episode is dominated by symmetric work: sealing the
request under the profile key, trial-decrypting the sealed message under
every candidate key, sealing one acknowledge element per candidate, and
the initiator opening reply elements (Tables IV-VII of the paper measure
exactly this cost).  The protocol code does all of it through one shared
:class:`TablesBackend`, :data:`CIPHER`.

:class:`TablesBackend` processes *whole multi-block buffers in one call*.
SubBytes/InvSubBytes run through 256-byte translation tables via
:meth:`bytes.translate` (C speed); ShiftRows, MixColumns and AddRoundKey
run as SWAR bitwise algebra on one large integer covering the entire
buffer, so the Python interpreter executes a few dozen operations per
*round per buffer* instead of dozens per *round per block*.
:meth:`~TablesBackend.open_many` and :meth:`~TablesBackend.seal_many`
extend the same trick across keys: all candidate keys of a reply element
are trial-decrypted in a single pass over one packed integer.

:class:`PureBackend` offers the same methods over
:mod:`repro.crypto.modes`' per-block FIPS-197 code.  It is the reference
the SWAR code is held to: the hypothesis equivalence properties in
``tests/crypto/test_backend.py`` and the speed floors of
``benchmarks/bench_crypto_backends.py`` compare the two directly, and the
conformance mini-peer seals and opens with the per-block code, so every
episode check is also a differential test of the SWAR AES.

Call sites read ``backend.CIPHER`` at call time, never a copy bound at
import, so a bench or test can substitute ``PureBackend()`` for one run.
The one instance is shared on purpose: its round-key LRU serves both the
participant's ``seal_many`` under x and the initiator's ``decrypt_ecb``
under the same x.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Sequence

from repro.crypto.aes import BLOCK_SIZE, _INV_SBOX, _RCON, _ROUNDS_BY_KEY_LEN, _SBOX
from repro.crypto.modes import (
    decrypt_ecb as _pure_decrypt_ecb,
    decrypt_ecb_under_keys as _pure_decrypt_under_keys,
    encrypt_ecb as _pure_encrypt_ecb,
    encrypt_ecb_under_keys as _pure_encrypt_under_keys,
)

__all__ = ["CIPHER", "PureBackend", "TablesBackend"]


class PureBackend:
    """The per-block FIPS-197 reference over :mod:`repro.crypto.modes`."""

    def encrypt_ecb(self, key: bytes, plaintext: bytes) -> bytes:
        return _pure_encrypt_ecb(key, plaintext)

    def decrypt_ecb(self, key: bytes, ciphertext: bytes) -> bytes:
        return _pure_decrypt_ecb(key, ciphertext)

    def seal_many(self, keys: Sequence[bytes], plaintext: bytes) -> list[bytes]:
        if not keys:
            _require_aligned(plaintext, "plaintext")
            return []
        return _pure_encrypt_under_keys(keys, plaintext)

    def open_many(self, keys: Sequence[bytes], ciphertext: bytes) -> list[bytes]:
        if not keys:
            _require_aligned(ciphertext, "ciphertext")
            return []
        return _pure_decrypt_under_keys(keys, ciphertext)


# -- tables backend ----------------------------------------------------------

_SBOX_TABLE = bytes(_SBOX)
_INV_SBOX_TABLE = bytes(_INV_SBOX)


def _pattern_mask(offsets: Sequence[int], n_blocks: int) -> int:
    """Big-endian mask selecting byte *offsets* within every 16-byte block."""
    pattern = bytearray(BLOCK_SIZE)
    for offset in offsets:
        pattern[offset] = 0xFF
    return int.from_bytes(bytes(pattern) * n_blocks, "big")


class _SwarMasks:
    """All repeating byte-position masks for a buffer of *n_blocks* blocks.

    The state is column-major inside each block (byte of row ``r``,
    column ``c`` lives at offset ``4c + r``) and the whole buffer is one
    big-endian integer, so moving a byte to a lower offset is a left
    shift.  Every mask is a 16-byte pattern repeated ``n_blocks`` times;
    a single masked shift therefore applies the same permutation step to
    every block of the buffer at once.
    """

    __slots__ = (
        "lo7", "hi1", "row", "sr_left", "sr_right", "isr_left", "isr_right",
        "rot1_hi", "rot2_hi", "rot2_lo", "rot3_lo",
    )

    def __init__(self, n_blocks: int):
        self.lo7 = int.from_bytes(b"\x7f" * (BLOCK_SIZE * n_blocks), "big")
        self.hi1 = int.from_bytes(b"\x80" * (BLOCK_SIZE * n_blocks), "big")
        self.row = [
            _pattern_mask([4 * c + r for c in range(4)], n_blocks) for r in range(4)
        ]
        # ShiftRows sends the byte at offset 4c+r to 4((c-r) mod 4)+r:
        # columns c >= r move left by 32r bits, columns c < r wrap right.
        self.sr_left = [
            _pattern_mask([4 * c + r for c in range(r, 4)], n_blocks) for r in range(4)
        ]
        self.sr_right = [
            _pattern_mask([4 * c + r for c in range(r)], n_blocks) for r in range(4)
        ]
        # InvShiftRows sends 4c+r to 4((c+r) mod 4)+r: the mirror image.
        self.isr_right = [
            _pattern_mask([4 * c + r for c in range(4 - r)], n_blocks) for r in range(4)
        ]
        self.isr_left = [
            _pattern_mask([4 * c + r for c in range(4 - r, 4)], n_blocks) for r in range(4)
        ]
        # Byte rotations inside each column, for the MixColumns algebra.
        self.rot1_hi = self.row[1] | self.row[2] | self.row[3]
        self.rot2_hi = self.row[2] | self.row[3]
        self.rot2_lo = self.row[0] | self.row[1]
        self.rot3_lo = self.row[0] | self.row[1] | self.row[2]


class TablesBackend:
    """Whole-buffer AES via translation tables + SWAR big-int algebra.

    One call encrypts/decrypts every block of the buffer: SubBytes is a
    single :meth:`bytes.translate` over the buffer, and the linear layers
    are a handful of mask/shift/xor operations on one arbitrary-precision
    integer, all executing in C.  Cost per round is therefore ~40 Python
    operations for the *entire* buffer, against ~60 per *block* for the
    per-block reference -- the bigger the batch, the bigger the win (the
    crypto bench measures >20x on kilobyte buffers, >4x even on one
    48-byte reply element).  Buffers must be block-aligned; misaligned
    input and bad key lengths raise ``ValueError``, as in
    :mod:`repro.crypto.modes`.
    """

    # Masks are pure functions of the block count; buffers repeat a small
    # set of shapes (48-byte elements, n_keys * 3 blocks, ...), so a
    # bounded cache makes them effectively free.
    _MASK_CACHE_MAX = 64
    _RK_CACHE_MAX = 1024

    def __init__(self):
        self._masks: OrderedDict[int, _SwarMasks] = OrderedDict()
        self._round_keys: OrderedDict[bytes, list[bytes]] = OrderedDict()

    # -- caches -------------------------------------------------------------

    def _masks_for(self, n_blocks: int) -> _SwarMasks:
        masks = self._masks.get(n_blocks)
        if masks is None:
            masks = self._masks[n_blocks] = _SwarMasks(n_blocks)
            while len(self._masks) > self._MASK_CACHE_MAX:
                self._masks.popitem(last=False)
        else:
            self._masks.move_to_end(n_blocks)
        return masks

    def _round_key_bytes(self, key: bytes) -> list[bytes]:
        """Per-round 16-byte round keys for one key (cached)."""
        rks = self._round_keys.get(key)
        if rks is None:
            rks = self._expand_uncached([bytes(key)])[0]
        else:
            self._round_keys.move_to_end(key)
        return rks

    def _expand_uncached(self, keys: list[bytes]) -> list[list[bytes]]:
        """SWAR key schedule: expand many same-length keys in one pass.

        The FIPS-197 schedule is sequential in *words* but embarrassingly
        parallel across *keys*, so word ``i`` of every key is computed at
        once on one packed integer: RotWord is a masked rotate, SubWord a
        single :meth:`bytes.translate`, the rest XORs.  Trial decryption
        mints mostly-fresh candidate keys (wrong-key decryptions of the
        sealed message), so expansion -- not the rounds -- dominates once
        the round loops are batched; this removes that wall.  Results are
        cached per key; every key in *keys* must have the same length.
        """
        n_keys = len(keys)
        key_len = len(keys[0])
        _validate_key_len(key_len)
        rounds = _ROUNDS_BY_KEY_LEN[key_len]
        nk = key_len // 4
        total_words = 4 * (rounds + 1)
        cell = 4 * n_keys
        words = [
            int.from_bytes(b"".join(key[4 * i : 4 * i + 4] for key in keys), "big")
            for i in range(nk)
        ]
        tail3 = int.from_bytes(b"\x00\xff\xff\xff" * n_keys, "big")
        head1 = int.from_bytes(b"\xff\x00\x00\x00" * n_keys, "big")
        for i in range(nk, total_words):
            temp = words[i - 1]
            if i % nk == 0:
                temp = ((temp & tail3) << 8) | ((temp & head1) >> 24)
                temp = int.from_bytes(
                    temp.to_bytes(cell, "big").translate(_SBOX_TABLE), "big"
                )
                rcon = _RCON[i // nk - 1]
                temp ^= int.from_bytes(bytes([rcon, 0, 0, 0]) * n_keys, "big")
            elif nk > 6 and i % nk == 4:
                temp = int.from_bytes(
                    temp.to_bytes(cell, "big").translate(_SBOX_TABLE), "big"
                )
            words.append(words[i - nk] ^ temp)
        word_bytes = [w.to_bytes(cell, "big") for w in words]
        schedules = []
        for j in range(n_keys):
            lo = 4 * j
            rks = [
                b"".join(word_bytes[4 * r + c][lo : lo + 4] for c in range(4))
                for r in range(rounds + 1)
            ]
            self._round_keys[keys[j]] = rks
            schedules.append(rks)
        while len(self._round_keys) > self._RK_CACHE_MAX:
            self._round_keys.popitem(last=False)
        return schedules

    def _schedules_for(self, keys: list[bytes]) -> list[list[bytes]]:
        """Round keys for a same-length key group, batch-expanding misses.

        Results are held locally rather than re-read from the cache: a
        large burst of fresh keys may evict this call's own hits.
        """
        schedules: dict[bytes, list[bytes]] = {}
        missing: list[bytes] = []
        for key in keys:
            if key in schedules:
                continue
            cached = self._round_keys.get(key)
            if cached is not None:
                self._round_keys.move_to_end(key)
                schedules[key] = cached
            else:
                missing.append(bytes(key))
                schedules[key] = []  # placeholder: marks the key as seen
        if missing:
            for key, rks in zip(missing, self._expand_uncached(missing)):
                schedules[key] = rks
        return [schedules[key] for key in keys]

    # -- SWAR building blocks ----------------------------------------------

    @staticmethod
    def _shift_rows(state: int, m: _SwarMasks) -> int:
        out = state & m.row[0]
        out |= ((state & m.sr_left[1]) << 32) | ((state & m.sr_right[1]) >> 96)
        out |= ((state & m.sr_left[2]) << 64) | ((state & m.sr_right[2]) >> 64)
        out |= ((state & m.sr_left[3]) << 96) | ((state & m.sr_right[3]) >> 32)
        return out

    @staticmethod
    def _inv_shift_rows(state: int, m: _SwarMasks) -> int:
        out = state & m.row[0]
        out |= ((state & m.isr_right[1]) >> 32) | ((state & m.isr_left[1]) << 96)
        out |= ((state & m.isr_right[2]) >> 64) | ((state & m.isr_left[2]) << 64)
        out |= ((state & m.isr_right[3]) >> 96) | ((state & m.isr_left[3]) << 32)
        return out

    @staticmethod
    def _rot1(state: int, m: _SwarMasks) -> int:
        """Rotate each column up one byte (row r takes row r+1)."""
        return ((state & m.rot1_hi) << 8) | ((state & m.row[0]) >> 24)

    @staticmethod
    def _rot2(state: int, m: _SwarMasks) -> int:
        return ((state & m.rot2_hi) << 16) | ((state & m.rot2_lo) >> 16)

    @staticmethod
    def _rot3(state: int, m: _SwarMasks) -> int:
        return ((state & m.row[3]) << 24) | ((state & m.rot3_lo) >> 8)

    @staticmethod
    def _xtime(state: int, m: _SwarMasks) -> int:
        """Multiply every byte by x in GF(2^8), all blocks at once.

        The reduction term is a multiply: isolating the carried-out high
        bits leaves one bit per byte, so ``* 0x1B`` spreads the Rijndael
        polynomial into exactly the right bytes without carries.
        """
        return ((state & m.lo7) << 1) ^ (((state & m.hi1) >> 7) * 0x1B)

    @classmethod
    def _mix_columns(cls, state: int, m: _SwarMasks) -> int:
        r1 = cls._rot1(state, m)
        return cls._xtime(state ^ r1, m) ^ r1 ^ cls._rot2(state, m) ^ cls._rot3(state, m)

    @classmethod
    def _inv_mix_columns(cls, state: int, m: _SwarMasks) -> int:
        x2 = cls._xtime(state, m)
        x4 = cls._xtime(x2, m)
        x8 = cls._xtime(x4, m)
        e = x8 ^ x4 ^ x2      # 14·a
        f = x8 ^ x2 ^ state   # 11·a
        g = x8 ^ x4 ^ state   # 13·a
        h = x8 ^ state        # 9·a
        return e ^ cls._rot1(f, m) ^ cls._rot2(g, m) ^ cls._rot3(h, m)

    # -- core passes --------------------------------------------------------

    def _encrypt_int(
        self, data: bytes, rk_rep: list[int], n_blocks: int
    ) -> bytes:
        """Encrypt *data* given per-round replicated round-key integers."""
        m = self._masks_for(n_blocks)
        length = len(data)
        rounds = len(rk_rep) - 1
        state = int.from_bytes(data, "big") ^ rk_rep[0]
        for r in range(1, rounds):
            state = int.from_bytes(
                state.to_bytes(length, "big").translate(_SBOX_TABLE), "big"
            )
            state = self._shift_rows(state, m)
            state = self._mix_columns(state, m)
            state ^= rk_rep[r]
        state = int.from_bytes(
            state.to_bytes(length, "big").translate(_SBOX_TABLE), "big"
        )
        state = self._shift_rows(state, m)
        state ^= rk_rep[rounds]
        return state.to_bytes(length, "big")

    def _decrypt_int(
        self, data: bytes, rk_rep: list[int], n_blocks: int
    ) -> bytes:
        """Decrypt *data* given per-round replicated round-key integers."""
        m = self._masks_for(n_blocks)
        length = len(data)
        rounds = len(rk_rep) - 1
        state = int.from_bytes(data, "big") ^ rk_rep[rounds]
        for r in range(rounds - 1, 0, -1):
            state = self._inv_shift_rows(state, m)
            state = int.from_bytes(
                state.to_bytes(length, "big").translate(_INV_SBOX_TABLE), "big"
            )
            state ^= rk_rep[r]
            state = self._inv_mix_columns(state, m)
        state = self._inv_shift_rows(state, m)
        state = int.from_bytes(
            state.to_bytes(length, "big").translate(_INV_SBOX_TABLE), "big"
        )
        state ^= rk_rep[0]
        return state.to_bytes(length, "big")

    def _replicated_round_keys(self, key: bytes, n_blocks: int) -> list[int]:
        return [
            int.from_bytes(rk * n_blocks, "big") for rk in self._round_key_bytes(key)
        ]

    # -- public API ---------------------------------------------------------

    def encrypt_ecb(self, key: bytes, plaintext: bytes) -> bytes:
        _require_aligned(plaintext, "plaintext")
        _validate_key_len(len(key))
        if not plaintext:
            return b""
        n_blocks = len(plaintext) // BLOCK_SIZE
        return self._encrypt_int(
            plaintext, self._replicated_round_keys(key, n_blocks), n_blocks
        )

    def decrypt_ecb(self, key: bytes, ciphertext: bytes) -> bytes:
        _require_aligned(ciphertext, "ciphertext")
        _validate_key_len(len(key))
        if not ciphertext:
            return b""
        n_blocks = len(ciphertext) // BLOCK_SIZE
        return self._decrypt_int(
            ciphertext, self._replicated_round_keys(key, n_blocks), n_blocks
        )

    def _many(self, keys: Sequence[bytes], data: bytes, *, encrypt: bool) -> list[bytes]:
        """One SWAR pass over ``data`` replicated under every key.

        Keys of equal length share one packed buffer (same round count);
        mixed lengths are grouped and processed per group, results
        scattered back into input order.
        """
        _require_aligned(data, "plaintext" if encrypt else "ciphertext")
        results: list[bytes | None] = [None] * len(keys)
        if not keys:
            return []
        by_len: dict[int, list[int]] = {}
        for i, key in enumerate(keys):
            _validate_key_len(len(key))
            by_len.setdefault(len(key), []).append(i)
        blocks_per_key = len(data) // BLOCK_SIZE
        size = len(data)
        for indices in by_len.values():
            group = [keys[i] for i in indices]
            if not data:
                for i in indices:
                    results[i] = b""
                continue
            n_blocks = blocks_per_key * len(group)
            schedules = self._schedules_for(group)
            rk_rep = [
                int.from_bytes(
                    b"".join(rks[r] * blocks_per_key for rks in schedules), "big"
                )
                for r in range(len(schedules[0]))
            ]
            packed = data * len(group)
            out = (
                self._encrypt_int(packed, rk_rep, n_blocks)
                if encrypt
                else self._decrypt_int(packed, rk_rep, n_blocks)
            )
            for slot, i in enumerate(indices):
                results[i] = out[slot * size : (slot + 1) * size]
        return results  # type: ignore[return-value]

    def seal_many(self, keys: Sequence[bytes], plaintext: bytes) -> list[bytes]:
        """Encrypt one block-aligned plaintext under each of *keys*.

        The reply-building hot path: a Protocol 2/3 candidate seals the
        same acknowledge payload under every candidate key it recovered.
        """
        return self._many(keys, plaintext, encrypt=True)

    def open_many(self, keys: Sequence[bytes], ciphertext: bytes) -> list[bytes]:
        """Trial-decrypt one block-aligned ciphertext under each of *keys*.

        The participant-side hot path: the sealed message is opened under
        every candidate profile key, amortizing schedule lookup and the
        round loops across the whole key set.
        """
        return self._many(keys, ciphertext, encrypt=False)


def _require_aligned(data: bytes, kind: str) -> None:
    if len(data) % BLOCK_SIZE:
        raise ValueError(f"ECB requires block-aligned {kind}")


def _validate_key_len(key_len: int) -> None:
    if key_len not in _ROUNDS_BY_KEY_LEN:
        raise ValueError(f"AES key must be 16/24/32 bytes, got {key_len}")


# The one cipher the protocol hot path calls (see the module docstring).
CIPHER = TablesBackend()
