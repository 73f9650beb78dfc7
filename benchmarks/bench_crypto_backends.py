"""Crypto bench: the batched SWAR AES vs its per-block FIPS-197 reference.

``TablesBackend`` is the AES the protocol hot path calls; ``PureBackend``
runs the same methods over :mod:`repro.crypto.modes`' per-block code.
Two measurements, each emitting a JSON perf record (``PERF_RECORD {...}``
on stdout) that ``tools/bench_record.py`` can append to the
``BENCH_crypto.json`` trajectory:

1. ``test_aes_buffer_throughput`` -- ECB encrypt + decrypt of one
   multi-block buffer.  Asserts bit-identical ciphertext across the two
   and a >= 5x ``TablesBackend`` speedup (``AES_SPEEDUP_FLOOR`` relaxes
   the floor on noisy shared runners).
2. ``test_open_many_throughput`` -- the reply-element shape: one 48-byte
   sealed message trial-decrypted under many candidate keys in a single
   batched call.  Same equality + floor.

Run with:  PYTHONPATH=src python benchmarks/bench_crypto_backends.py
      or:  PYTHONPATH=src python -m pytest benchmarks/bench_crypto_backends.py -s
"""

from __future__ import annotations

import json
import os
import random
import timeit

from repro.crypto import aes
from repro.crypto.backend import PureBackend, TablesBackend

AES_SPEEDUP_FLOOR = float(os.environ.get("AES_SPEEDUP_FLOOR", "5.0"))
BUFFER_BLOCKS = 1024
N_KEYS = 64
REPLY_ELEMENT_LEN = 48  # ack(15) + similarity(1) + y(32), the protocol unit

_RNG = random.Random(20130708)  # ICDCS'13 -- deterministic bench inputs


def _best_of(fn, repeat: int = 5) -> float:
    """Best wall-clock of *repeat* single runs (noise floor, not mean)."""
    return min(timeit.repeat(fn, number=1, repeat=repeat))


def _emit(record: dict) -> None:
    print()
    print("PERF_RECORD " + json.dumps(record))


def test_aes_buffer_throughput():
    """Whole-buffer ECB must be >= 5x the per-block reference, bit-identical."""
    aes.configure_schedule_cache(1024)
    pure, tables = PureBackend(), TablesBackend()
    key = _RNG.randbytes(32)
    plaintext = _RNG.randbytes(16 * BUFFER_BLOCKS)

    ciphertext = tables.encrypt_ecb(key, plaintext)
    assert ciphertext == pure.encrypt_ecb(key, plaintext), "AES paths disagree on ciphertext"
    assert tables.decrypt_ecb(key, ciphertext) == plaintext
    assert pure.decrypt_ecb(key, ciphertext) == plaintext

    enc_tables = _best_of(lambda: tables.encrypt_ecb(key, plaintext))
    enc_pure = _best_of(lambda: pure.encrypt_ecb(key, plaintext), repeat=3)
    dec_tables = _best_of(lambda: tables.decrypt_ecb(key, ciphertext))
    dec_pure = _best_of(lambda: pure.decrypt_ecb(key, ciphertext), repeat=3)

    enc_speedup = enc_pure / enc_tables
    dec_speedup = dec_pure / dec_tables
    _emit({
        "bench": "crypto_aes_buffer",
        "blocks": BUFFER_BLOCKS,
        "key_bits": 256,
        "encrypt_pure_seconds": round(enc_pure, 5),
        "encrypt_tables_seconds": round(enc_tables, 5),
        "encrypt_speedup": round(enc_speedup, 2),
        "decrypt_pure_seconds": round(dec_pure, 5),
        "decrypt_tables_seconds": round(dec_tables, 5),
        "decrypt_speedup": round(dec_speedup, 2),
        "tables_blocks_per_sec": round(BUFFER_BLOCKS / enc_tables),
        "floor": AES_SPEEDUP_FLOOR,
    })
    assert enc_speedup >= AES_SPEEDUP_FLOOR, (
        f"tables encrypt speedup {enc_speedup:.2f}x < {AES_SPEEDUP_FLOOR}x"
    )
    assert dec_speedup >= AES_SPEEDUP_FLOOR, (
        f"tables decrypt speedup {dec_speedup:.2f}x < {AES_SPEEDUP_FLOOR}x"
    )


def test_open_many_throughput():
    """Batched multi-key trial decryption must beat the per-key loop >= 5x."""
    aes.configure_schedule_cache(1024)
    pure, tables = PureBackend(), TablesBackend()
    keys = [_RNG.randbytes(32) for _ in range(N_KEYS)]
    sealed = _RNG.randbytes(REPLY_ELEMENT_LEN)

    batched = tables.open_many(keys, sealed)
    assert batched == pure.open_many(keys, sealed), "AES paths disagree on trial decryption"
    assert tables.seal_many(keys, sealed) == pure.seal_many(keys, sealed)

    t_tables = _best_of(lambda: tables.open_many(keys, sealed))
    t_pure = _best_of(lambda: pure.open_many(keys, sealed), repeat=3)
    speedup = t_pure / t_tables
    _emit({
        "bench": "crypto_open_many",
        "keys": N_KEYS,
        "ciphertext_bytes": REPLY_ELEMENT_LEN,
        "pure_seconds": round(t_pure, 5),
        "tables_seconds": round(t_tables, 5),
        "speedup": round(speedup, 2),
        "tables_trials_per_sec": round(N_KEYS / t_tables),
        "floor": AES_SPEEDUP_FLOOR,
    })
    assert speedup >= AES_SPEEDUP_FLOOR, (
        f"open_many speedup {speedup:.2f}x < {AES_SPEEDUP_FLOOR}x"
    )


if __name__ == "__main__":
    test_aes_buffer_throughput()
    test_open_many_throughput()
