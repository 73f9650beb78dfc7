"""NetworkMetrics: merge and as_dict cover every counter field."""

from __future__ import annotations

from dataclasses import fields

from repro.network.metrics import NetworkMetrics

COUNTERS = [f.name for f in fields(NetworkMetrics) if f.name != "reply_latency_ms"]


def _distinct(offset: int) -> NetworkMetrics:
    """Every counter a different value (powers of two never collide in sums)."""
    return NetworkMetrics(
        **{name: 1 << (i + offset) for i, name in enumerate(COUNTERS)},
        reply_latency_ms=[offset, offset + 1],
    )


def test_every_field_but_latencies_is_an_int_counter():
    # merge sums every field except the latency list; a non-int field
    # would need its own rule there.
    assert all(type(getattr(NetworkMetrics(), name)) is int for name in COUNTERS)


def test_merge_sums_each_counter_and_concatenates_latencies():
    a, b = _distinct(0), _distinct(32)
    a.merge(b)
    for i, name in enumerate(COUNTERS):
        assert getattr(a, name) == (1 << i) + (1 << (i + 32)), name
    assert a.reply_latency_ms == [0, 1, 32, 33]
    assert b == _distinct(32)  # the operand is untouched


def test_as_dict_reports_each_counter_in_order():
    metrics = _distinct(0)
    summary = metrics.as_dict()
    # repro simulate prints these rows in this order.
    assert list(summary) == [
        "broadcasts", "unicasts", "bytes_broadcast", "bytes_unicast",
        "total_bytes", "nodes_reached", "candidates", "replies",
        "dropped_duplicate", "dropped_ttl", "dropped_expired",
        "dropped_rate_limited", "frames_sent", "frames_dropped",
        "frames_duplicated", "frames_corrupted", "frames_rejected",
        "frame_bytes", "duplicate_replies", "retransmissions",
        "selective_retx", "fec_recovered", "sessions_overflow",
        "nodes_joined", "nodes_left", "nodes_crashed", "orphaned_replies",
        "degraded_episodes", "mean_reply_latency_ms",
    ]
    for i, name in enumerate(COUNTERS):
        assert summary[name] == 1 << i, name
    assert summary["total_bytes"] == metrics.bytes_broadcast + metrics.bytes_unicast
    assert summary["mean_reply_latency_ms"] == 0.5
    assert NetworkMetrics().as_dict()["mean_reply_latency_ms"] == 0.0
