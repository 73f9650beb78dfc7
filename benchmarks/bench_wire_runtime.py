"""Datagram-runtime cost: the frame codec per hop.

``test_codec_microbench`` prices the per-hop codec work in isolation:
request-frame decode (envelope + payload), reply-frame encode/decode, and
the relay fast path (``reframe``: patch two routing bytes, refresh the
CRC).  It asserts throughput floors so a regression that makes frames an
order of magnitude slower fails loudly, and emits a ``PERF_RECORD`` JSON
line for ``BENCH_crypto.json`` via ``tools/bench_record.py`` (the CI
perf-smoke job appends it).

Run with:  PYTHONPATH=src python -m pytest benchmarks/bench_wire_runtime.py -s
"""

from __future__ import annotations

import json
import os
import random
import time

from repro.core.attributes import RequestProfile
from repro.core.protocols import Initiator, Reply
from repro.core.wire import (
    decode_frame,
    decode_payload,
    encode_reply_frame,
    encode_request_frame,
    reframe,
)

# Floors in frames/second; measured values are ~100x higher locally.
DECODE_FLOOR = float(os.environ.get("WIRE_DECODE_FLOOR", "2000"))
REFRAME_FLOOR = float(os.environ.get("WIRE_REFRAME_FLOOR", "20000"))


def _sample_frames():
    request = RequestProfile(
        necessary=["tag:n"], optional=["tag:o1", "tag:o2", "tag:o3"], beta=1,
        normalized=True,
    )
    initiator = Initiator(request, protocol=2, rng=random.Random(7))
    package = initiator.create_request(now_ms=0)
    reply = Reply(
        request_id=package.request_id,
        responder_id="responder-17",
        elements=tuple(bytes([i]) * 48 for i in range(8)),
        sent_at_ms=3,
    )
    return package, encode_request_frame(package), reply


def _rate(fn, n: int) -> tuple[float, float]:
    """(ops/sec, µs/op) for *n* calls of *fn*."""
    start = time.perf_counter()
    for _ in range(n):
        fn()
    elapsed = time.perf_counter() - start
    return n / elapsed, elapsed / n * 1e6


def test_codec_microbench():
    """Per-hop codec costs in isolation; assert throughput floors."""
    package, request_frame, reply = _sample_frames()
    reply_frame = encode_reply_frame(reply, ttl=4)

    decode_request_rate, decode_request_us = _rate(
        lambda: decode_payload(decode_frame(request_frame)), 3000
    )
    encode_reply_rate, encode_reply_us = _rate(
        lambda: encode_reply_frame(reply, ttl=4), 3000
    )
    decode_reply_rate, decode_reply_us = _rate(
        lambda: decode_payload(decode_frame(reply_frame)), 3000
    )
    reframe_rate, reframe_us = _rate(
        lambda: reframe(request_frame, ttl=3), 10000
    )

    record = {
        "bench": "wire_codec",
        "request_frame_bytes": len(request_frame),
        "reply_frame_bytes": len(reply_frame),
        "decode_request_per_sec": round(decode_request_rate),
        "decode_request_us": round(decode_request_us, 2),
        "encode_reply_per_sec": round(encode_reply_rate),
        "encode_reply_us": round(encode_reply_us, 2),
        "decode_reply_per_sec": round(decode_reply_rate),
        "decode_reply_us": round(decode_reply_us, 2),
        "reframe_per_sec": round(reframe_rate),
        "reframe_us": round(reframe_us, 2),
    }
    print("PERF_RECORD " + json.dumps(record))

    assert decode_request_rate >= DECODE_FLOOR
    assert decode_reply_rate >= DECODE_FLOOR
    assert reframe_rate >= REFRAME_FLOOR


if __name__ == "__main__":  # pragma: no cover
    test_codec_microbench()
