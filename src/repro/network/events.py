"""Discrete-event queue and the typed events of a friending episode.

The queue itself is payload-agnostic (time-ordered callbacks); the event
dataclasses below are the vocabulary the multi-episode engine speaks.  The
unit the events carry is a **datagram** -- the encoded frame bytes that
would be on the air -- so everything a receiving node learns, it learns by
decoding bytes.  Each event also carries the episode index it belongs to;
that index is engine bookkeeping (metrics attribution), never protocol
state: any number of overlapping episodes can share one queue and one set
of nodes, and the protocol handling derives everything from the frame.

The queue is a **calendar queue** (an ms-granularity ring of deques with a
sorted overflow tier), the classic discrete-event-simulator structure:
near-future events cost O(1) deque appends/pops instead of O(log n) heap
sifts, which matters when a city-scale flood schedules hundreds of
thousands of deliveries.  The drain order is exactly the (time, sequence)
total order of the old binary-heap queue -- :class:`_HeapQueue` keeps that
reference implementation alive for the equivalence property test
(``tests/network/test_events.py``).
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

__all__ = [
    "EventQueue",
    "BroadcastEvent",
    "FrameEvent",
    "DeliveryEvent",
    "ReplyHopEvent",
    "RetransmitEvent",
    "SegmentFlushEvent",
    "TopologyRefreshEvent",
]


@dataclass(frozen=True, slots=True)
class BroadcastEvent:
    """Node *node* transmits episode *episode*'s request frame to all neighbours.

    ``frame`` is the encoded request datagram; its envelope TTL is the
    remaining hop budget and its envelope seq the retransmission wave.
    """

    episode: int
    node: str
    frame: bytes


@dataclass(frozen=True, slots=True)
class FrameEvent:
    """One datagram copy arrives at *node* from *from_node*.

    ``data`` is exactly what the channel delivered -- possibly corrupted
    bytes that will fail the envelope checksum.  The engine's flood fast
    path batches same-instant copies into a :class:`DeliveryEvent`; this
    single-copy event remains the unit type that path expands to, and the
    engine still accepts it (external tooling may schedule one directly).
    """

    episode: int
    node: str
    from_node: str
    data: bytes


@dataclass(frozen=True, slots=True)
class DeliveryEvent:
    """All copies of one broadcast arriving at the same instant.

    ``deliveries`` is a tuple of ``(receiver, data)`` pairs in the exact
    per-link scheduling order the channel produced them, so handling them
    in sequence inside one event reproduces the old one-event-per-copy
    execution order while paying one queue entry per time bucket instead
    of one per copy.  ``data`` is shared between entries whenever the
    channel delivered the frame untouched (corruption forks a private
    copy), which is what lets the engine decode each distinct datagram
    once per event.
    """

    episode: int
    from_node: str
    deliveries: tuple[tuple[str, bytes], ...]


@dataclass(frozen=True, slots=True)
class ReplyHopEvent:
    """A reply frame travels one hop back towards the episode's initiator.

    ``frame`` is the encoded reply datagram; ``remaining_hops`` counts down
    to endpoint delivery.  ``n_elements`` and ``frame_len`` ride along for
    the byte accounting at relay hops (the paper's cost model counts
    payload bytes; the frame counters count datagram bytes), and ``flow``
    is the channel-model flow id derived once at reply creation.  ``copy``
    is the lineage index of this physical copy (link-layer duplication
    forks it), folded into the channel seq so sibling copies draw
    independent fates at subsequent hops.
    """

    episode: int
    frame: bytes
    via: str
    remaining_hops: int
    n_elements: int
    frame_len: int
    flow: bytes
    copy: int = 0


@dataclass(frozen=True, slots=True)
class RetransmitEvent:
    """Initiator-side retransmission timer for an unanswered request."""

    episode: int
    attempt: int


@dataclass(frozen=True, slots=True)
class SegmentFlushEvent:
    """Reply-window close for one episode under a segmented reliability mode.

    Fires once per episode at ``start_ms + reply_window_ms``: responders
    whose segmented replies are still incomplete have whatever elements
    did arrive (plus anything parity can reconstruct) delivered as a
    partial reply -- the initiator's acceptance window is closing, so a
    partial set now beats a complete set never.
    """

    episode: int


@dataclass(frozen=True, slots=True)
class TopologyRefreshEvent:
    """Mid-run topology refresh tick (mobility re-snapshot)."""

    interval_ms: int


# Sentinel distinguishing "no argument" from "call with None": the queue
# stores ``(callback, arg)`` pairs directly so hot schedulers (the engine)
# never allocate a closure/partial per event.
_NO_ARG = object()


class _HeapQueue:
    """Binary-heap reference queue: the original (time, seq) total order.

    Kept as the executable specification of the drain order the calendar
    :class:`EventQueue` must reproduce; the Hypothesis property test in
    ``tests/network/test_events.py`` drives both with the same schedule
    interleavings (overflow-tier spills, ``until_ms`` cutoffs included)
    and asserts identical drains.
    """

    def __init__(self, start_ms: int = 0):
        self.now_ms = start_ms
        self._heap: list[tuple[int, int, Callable, Any]] = []
        self._sequence = 0

    def schedule(self, delay_ms: int, callback: Callable, arg: Any = _NO_ARG) -> None:
        """Run ``callback()`` -- or ``callback(arg)`` -- *delay_ms* from now."""
        if delay_ms < 0:
            raise ValueError("delay must be non-negative")
        heapq.heappush(
            self._heap, (self.now_ms + delay_ms, self._sequence, callback, arg)
        )
        self._sequence += 1

    def run(self, until_ms: int | None = None) -> int:
        """Drain the queue (optionally up to *until_ms*); returns events run."""
        executed = 0
        while self._heap:
            when, _, callback, arg = self._heap[0]
            if until_ms is not None and when > until_ms:
                break
            heapq.heappop(self._heap)
            self.now_ms = when
            if arg is _NO_ARG:
                callback()
            else:
                callback(arg)
            executed += 1
        return executed

    def __len__(self) -> int:
        return len(self._heap)


# Ring span in milliseconds.  Wide enough that per-hop latencies, jitter
# and processing delays (a few ms) always land in the ring; far-future
# entries (retransmission timers at +1000 ms, staggered episode starts)
# take the overflow heap and migrate into the ring as the clock
# approaches.  A power of two keeps the modulo cheap.
_DEFAULT_RING_MS = 512


class EventQueue:
    """Time-ordered callback queue with a stable tie-break sequence.

    Calendar-queue implementation: a ring of per-millisecond deques over
    the next :data:`_DEFAULT_RING_MS` simulated milliseconds plus a heap
    for events beyond that horizon.  Scheduling into the ring and popping
    the next event are O(1); the total drain order is identical to
    :class:`_HeapQueue`'s (time, then schedule sequence).

    Invariants the implementation maintains:

    - every ring entry's fire time is in ``[cursor, cursor + ring_ms)``,
      so one bucket never mixes two distinct fire times;
    - overflow entries migrate into the ring (in (time, seq) heap order)
      the moment the advancing cursor brings them inside the horizon,
      and always before any same-time entry can be scheduled directly --
      so per-bucket FIFO order is schedule order.
    """

    def __init__(self, start_ms: int = 0, *, ring_ms: int = _DEFAULT_RING_MS):
        if ring_ms < 1:
            raise ValueError("ring_ms must be >= 1")
        self.now_ms = start_ms
        self._ring_ms = ring_ms
        self._ring: list[deque[tuple[int, int, Callable, Any]]] = [
            deque() for _ in range(ring_ms)
        ]
        self._cursor = start_ms  # earliest time that may still hold ring entries
        self._ring_count = 0
        self._overflow: list[tuple[int, int, Callable, Any]] = []
        self._sequence = 0
        self._count = 0

    def schedule(self, delay_ms: int, callback: Callable, arg: Any = _NO_ARG) -> None:
        """Run ``callback()`` -- or ``callback(arg)`` -- *delay_ms* from now."""
        if delay_ms < 0:
            raise ValueError("delay must be non-negative")
        when = self.now_ms + delay_ms
        if when < self._cursor:
            self._pull_back(when)
        if when - self._cursor < self._ring_ms:
            self._ring[when % self._ring_ms].append(
                (when, self._sequence, callback, arg)
            )
            self._ring_count += 1
        else:
            heapq.heappush(self._overflow, (when, self._sequence, callback, arg))
        self._sequence += 1
        self._count += 1

    def _pull_back(self, when: int) -> None:
        """Rewind the cursor to *when* (an ``until_ms`` cutoff left it ahead).

        Rare path: only a ``run(until_ms)`` break can leave the cursor
        beyond ``now_ms``, and only a subsequent schedule into that gap
        lands here.  Rewinding shrinks the ring horizon, so any ring entry
        the new horizon no longer covers is demoted to the overflow heap
        (its original sequence number travels with it, preserving the
        total order).
        """
        self._cursor = when
        horizon = when + self._ring_ms
        if self._ring_count:
            for bucket in self._ring:
                if bucket and bucket[0][0] >= horizon:
                    while bucket:
                        heapq.heappush(self._overflow, bucket.popleft())
                        self._ring_count -= 1

    def _migrate(self) -> None:
        """Move overflow entries the horizon now covers into the ring."""
        overflow = self._overflow
        horizon = self._cursor + self._ring_ms
        while overflow and overflow[0][0] < horizon:
            entry = heapq.heappop(overflow)
            self._ring[entry[0] % self._ring_ms].append(entry)
            self._ring_count += 1

    def run(self, until_ms: int | None = None) -> int:
        """Drain the queue (optionally up to *until_ms*); returns events run."""
        executed = 0
        ring = self._ring
        ring_ms = self._ring_ms
        while self._count:
            if self._ring_count == 0:
                # Ring dry: jump the cursor straight to the overflow head.
                when = self._overflow[0][0]
                if until_ms is not None and when > until_ms:
                    break
                self._cursor = when
                self._migrate()
            bucket = ring[self._cursor % ring_ms]
            while not bucket:
                self._cursor += 1
                self._migrate()
                bucket = ring[self._cursor % ring_ms]
            when = bucket[0][0]
            if until_ms is not None and when > until_ms:
                break
            _, _, callback, arg = bucket.popleft()
            self._ring_count -= 1
            self._count -= 1
            self.now_ms = when
            if arg is _NO_ARG:
                callback()
            else:
                callback(arg)
            executed += 1
        return executed

    def __len__(self) -> int:
        return self._count
