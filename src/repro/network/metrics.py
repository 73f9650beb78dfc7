"""Transmission and outcome accounting for simulated friending runs."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, fields

__all__ = ["AggregateMetrics", "NetworkMetrics", "percentile"]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of *values* (``0.0`` on empty input)."""
    if not 0 <= q <= 100:
        raise ValueError("percentile must be in [0, 100]")
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return float(ordered[rank - 1])


@dataclass
class NetworkMetrics:
    """Counters accumulated over one simulated request's lifetime.

    A *broadcast* is one node transmitting the request package to all of
    its neighbours at once (the wireless medium is shared); a *unicast* is
    one hop of a reply travelling back towards the initiator.

    Two byte accountings coexist deliberately.  ``bytes_broadcast`` /
    ``bytes_unicast`` follow the paper's communication cost model (payload
    bytes, Table VII) and are unchanged by the datagram runtime.  The
    ``frames_*`` / ``frame_bytes`` counters account the datagram layer:
    one frame per link transmission, envelope included, with the channel
    model's drops, link-layer duplicates and in-flight corruption broken
    out.  ``frames_rejected`` counts frames an endpoint discarded at
    decode time (checksum or codec failure); ``duplicate_replies`` counts
    reply copies the initiator endpoint deduplicated; ``retransmissions``
    counts origin re-broadcast waves for unanswered requests; and
    ``sessions_overflow`` counts requests refused because a node's bounded
    session table was full.

    The segmented reliability modes add two recovery counters:
    ``selective_retx`` counts individual reply segments re-sent by a
    ``window``-mode wave (full re-flood waves still count under
    ``retransmissions``), and ``fec_recovered`` counts 48-byte reply
    elements the initiator reconstructed from XOR parity in
    ``window_fec`` mode instead of ever receiving.

    The open-world churn plane adds five degradation counters.
    ``nodes_joined`` / ``nodes_left`` / ``nodes_crashed`` count live
    population changes during a run (a crash is a departure that also
    loses the node's session table and rate-limiter state).
    ``degraded_episodes`` marks episodes whose initiator departed before
    the episode settled (at most 1 per episode), and ``orphaned_replies``
    counts reply or segment frames that arrived at such a departed
    initiator and were discarded instead of matched.
    """

    broadcasts: int = 0
    unicasts: int = 0
    bytes_broadcast: int = 0
    bytes_unicast: int = 0
    nodes_reached: int = 0
    candidates: int = 0
    replies: int = 0
    dropped_duplicate: int = 0
    dropped_ttl: int = 0
    dropped_expired: int = 0
    dropped_rate_limited: int = 0
    frames_sent: int = 0
    frames_dropped: int = 0
    frames_duplicated: int = 0
    frames_corrupted: int = 0
    frames_rejected: int = 0
    frame_bytes: int = 0
    duplicate_replies: int = 0
    retransmissions: int = 0
    selective_retx: int = 0
    fec_recovered: int = 0
    sessions_overflow: int = 0
    nodes_joined: int = 0
    nodes_left: int = 0
    nodes_crashed: int = 0
    orphaned_replies: int = 0
    degraded_episodes: int = 0
    reply_latency_ms: list[int] = field(default_factory=list)

    @property
    def total_bytes(self) -> int:
        """All bytes put on the air."""
        return self.bytes_broadcast + self.bytes_unicast

    def merge(self, other: "NetworkMetrics") -> None:
        """Accumulate *other* into this instance (engine-level aggregation).

        Every counter is owned by exactly one accumulator at a time — the
        engine's per-episode split relies on each increment landing in
        exactly one operand, so merging in any grouping sums to the same
        totals.  ``reply_latency_ms`` is order-sensitive: callers merge in
        episode order so the concatenated list is reproducible.
        """
        for name in _COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.reply_latency_ms.extend(other.reply_latency_ms)

    def as_dict(self) -> dict[str, float]:
        """Flat summary for reporting: every counter in declaration order,
        ``total_bytes`` right after the two byte counters it sums, then
        ``mean_reply_latency_ms``."""
        summary = {}
        for name in _COUNTERS:
            summary[name] = getattr(self, name)
            if name == "bytes_unicast":
                summary["total_bytes"] = self.total_bytes
        latencies = self.reply_latency_ms
        summary["mean_reply_latency_ms"] = (
            sum(latencies) / len(latencies) if latencies else 0.0
        )
        return summary


# Every field but the latency list is an int counter that merges by sum.
_COUNTERS = tuple(f.name for f in fields(NetworkMetrics) if f.name != "reply_latency_ms")


@dataclass
class AggregateMetrics:
    """Cross-episode summary of one multi-episode engine run.

    Simulated throughput is episodes per simulated second (first broadcast
    to last event); wall-clock throughput is the benchmark's concern and is
    measured outside the engine.
    """

    episodes: int
    matches: int
    sim_duration_ms: int
    total: NetworkMetrics
    latency_p50_ms: float
    latency_p95_ms: float

    @property
    def episodes_per_sim_sec(self) -> float:
        if self.sim_duration_ms <= 0:
            return 0.0
        return self.episodes / (self.sim_duration_ms / 1000)

    def as_dict(self) -> dict[str, float]:
        """Flat summary for reporting, prefixed to avoid metric-name clashes."""
        summary = {
            "episodes": self.episodes,
            "matches": self.matches,
            "sim_duration_ms": self.sim_duration_ms,
            "episodes_per_sim_sec": round(self.episodes_per_sim_sec, 3),
            "latency_p50_ms": self.latency_p50_ms,
            "latency_p95_ms": self.latency_p95_ms,
        }
        summary.update(self.total.as_dict())
        return summary
