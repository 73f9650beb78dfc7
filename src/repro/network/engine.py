"""Concurrent multi-episode friending engine over a datagram network.

The paper's typical scenario (Table VII) assumes many users friending
*simultaneously* in one network.  This engine runs N overlapping episodes --
each its own initiator, request package and metrics -- through a single
:class:`~repro.network.events.EventQueue` over one shared set of
:class:`~repro.network.simulator.Node` objects.

The unit of transmission is a **datagram**: every hop carries the encoded
frame bytes (``docs/wire_format.md``), pushed through the network's
:class:`~repro.network.channel_model.ChannelModel`, and every receiving
node learns what it knows by decoding those bytes.  Concretely:

- a broadcast puts one request frame per neighbour on the channel, which
  may drop, duplicate, delay or corrupt each copy independently;
- a receiving node validates the envelope (corrupted frames fail the CRC
  and are rejected, counted per episode), dedupes against its bounded
  :class:`~repro.network.sessions.SessionTable`, hands the decoded package
  to its participant, and forwards with the envelope TTL decremented;
- replies are encoded once and hop back as frames, deduplicated at the
  initiator endpoint (duplicate-frame idempotence);
- initiators whose requests go unanswered re-broadcast up to ``retries``
  retransmission *waves* (envelope seq); nodes forward each wave at most
  once without re-processing, so a wave heals loss holes at flood cost
  but never double-replies.

How an episode spends that reliability budget is a pluggable, named
strategy (:mod:`repro.network.reliability`): ``simple`` is the blind
re-flood above, byte-frozen; ``stage`` re-floods on an escalating
timetable; ``window`` ships replies as per-element segment frames and
re-sends only the segments the initiator is still missing; and
``window_fec`` adds XOR parity segments so lost elements are
reconstructed with no retransmission at all.  Under the segmented modes
each episode additionally fires one :class:`SegmentFlushEvent` when the
initiator's reply window closes, delivering partial element sets for
responders whose replies never completed.

Per-episode results carry the usual :class:`NetworkMetrics` (the paper's
payload accounting plus the new frame-layer counters); the engine
additionally reports aggregate throughput and reply-latency percentiles.

Determinism: with the default :class:`PerfectChannel` a run is
byte-identical (matches, wire elements, metrics) to the frozen fixture the
pre-datagram engine produced (pinned by
``tests/network/test_engine_golden.py``); with a lossy channel every
frame's fate is a pure function of ``(channel seed, flow, link, seq)``, so
runs reproduce from (seed, spec) alone and ``run_parallel`` shards equal
sequential runs.  The fate *derivation* is version-gated
(``ChannelModel(version=...)``: 1 scratch-MT, 2 counter-mode keystream);
the engine is agnostic -- it hands the channel the same keys either way,
and both planes keep the pure-function property, so the sharding identity
holds under both.
"""

from __future__ import annotations

from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import islice

from repro.core.exceptions import SerializationError
from repro.core.protocols import Initiator, MatchRecord, Reply
from repro.core.request import RequestPackage
from repro.core.wire import (
    FRAME_HEADER_LEN,
    FT_REPLY,
    FT_REPLY_SEG,
    FT_REQUEST,
    Frame,
    ReplySegment,
    decode_frame,
    decode_reply,
    decode_reply_segment,
    encode_reply_frame,
    encode_request_frame,
    encode_segment_frame,
    reframe,
)
from repro.network.events import (
    BroadcastEvent,
    DeliveryEvent,
    EventQueue,
    FrameEvent,
    ReplyHopEvent,
    RetransmitEvent,
    SegmentFlushEvent,
    TopologyRefreshEvent,
)
from repro.network.metrics import AggregateMetrics, NetworkMetrics, percentile
from repro.network.reliability import (
    ReliabilityMode,
    fec_parity_elements,
    fec_reconstruct,
    load_reliability_mode,
)
from repro.network.simulator import (
    REPLY_ELEMENT_BYTES,
    REPLY_OVERHEAD_BYTES,
    AdHocNetwork,
)

__all__ = ["EpisodeSpec", "EpisodeResult", "EngineResult", "FriendingEngine",
           "DEFAULT_RETRANSMIT_TIMEOUT_MS", "DEFAULT_DECODE_CACHE_CAP",
           "DEFAULT_REJECT_CACHE_CAP"]

DEFAULT_RETRANSMIT_TIMEOUT_MS = 1_000

# Decode-cache bounds (docs/robustness.md).  Closed-world runs -- the 10k
# lossy-city goldens included -- stay far below the default caps, so bounding
# never evicts there and every golden is byte-identical by construction; an
# open-world soak is what the caps exist for.
DEFAULT_DECODE_CACHE_CAP = 1 << 16
DEFAULT_REJECT_CACHE_CAP = 1 << 10


class _BoundedCache(dict):
    """A dict with an LRU-style size cap (insertion-age eviction).

    Lookups stay native ``dict.get`` -- zero hit-path cost.  When an insert
    finds the cache full, the oldest quarter is evicted in one sweep:
    flood-workload keys (request datagrams, reply frames) age with their
    episodes, so insertion age tracks recency closely enough that per-hit
    reordering would buy nothing and cost the hot path plenty.
    """

    __slots__ = ("cap",)

    def __init__(self, cap: int):
        if cap < 4:
            raise ValueError("cache cap must be >= 4")
        super().__init__()
        self.cap = cap

    def put(self, key, value) -> None:
        if len(self) >= self.cap:
            for stale in list(islice(iter(self), self.cap // 4)):
                del self[stale]
        self[key] = value


@dataclass(frozen=True)
class EpisodeSpec:
    """One episode to schedule: who initiates, from where, and when.

    ``start_ms`` is simulated milliseconds on the engine's shared clock;
    the episode's request package is created (and its validity window
    anchored) at that instant.  The wire carries times as unsigned
    integers, so a negative start is rejected here, before anything runs.
    """

    initiator_node: str
    initiator: Initiator
    start_ms: int = 0

    def __post_init__(self) -> None:
        if self.start_ms < 0:
            raise ValueError(f"start_ms must be >= 0 simulated ms, got {self.start_ms}")


@dataclass
class EpisodeResult:
    """Outcome of one episode inside a multi-episode run."""

    episode: int
    initiator_node: str
    initiator: Initiator
    started_at_ms: int
    completed_at_ms: int
    metrics: NetworkMetrics
    replies: list[Reply] = field(default_factory=list)

    @property
    def matches(self) -> list[MatchRecord]:
        return list(self.initiator.matches)

    @property
    def matched_ids(self) -> list[str]:
        return [m.responder_id for m in self.initiator.matches]


@dataclass
class EngineResult:
    """All episodes of one engine run plus the aggregate view."""

    episodes: list[EpisodeResult]
    aggregate: AggregateMetrics
    completed_at_ms: int
    topology_refreshes: int = 0


class _SegmentState:
    """Reassembly state for one responder's segmented reply (initiator side)."""

    __slots__ = ("n_data", "window", "sent_at_ms", "data", "parity")

    def __init__(self, n_data: int, window: int, sent_at_ms: int):
        self.n_data = n_data
        self.window = window
        self.sent_at_ms = sent_at_ms
        self.data: dict[int, bytes] = {}
        self.parity: dict[int, bytes] = {}


class _Episode:
    """Mutable in-flight state of one episode (the initiator endpoint)."""

    __slots__ = ("spec", "index", "package", "package_bytes", "rid", "flow",
                 "frame", "metrics", "replies", "last_event_ms",
                 "seen_responders", "seg_rx", "seg_sent", "degraded")

    def __init__(self, spec: EpisodeSpec, index: int):
        self.spec = spec
        self.index = index
        self.package = spec.initiator.create_request(now_ms=spec.start_ms)
        self.package_bytes = self.package.wire_size_bytes()
        self.rid = self.package.request_id
        # The request flood's channel-model flow id, built once: every
        # broadcast of every wave reuses this exact bytes object.
        self.flow = self.rid + b"Q"
        # The request is encoded exactly once; relays patch only the
        # envelope's routing bytes, so the payload on the air is identical
        # at every hop.
        self.frame = encode_request_frame(self.package)
        self.metrics = NetworkMetrics()
        self.replies: list[Reply] = []
        self.last_event_ms = spec.start_ms
        self.seen_responders: set[str] = set()
        # Segmented reliability modes only: per-responder reassembly state
        # at the initiator endpoint, and the sender-side record of encoded
        # data-segment frames (what a selective wave re-sends).
        self.seg_rx: dict[str, _SegmentState] = {}
        self.seg_sent: dict[str, tuple[str, int, dict[int, bytes]]] = {}
        # Set once (never cleared) when the initiator departs or crashes
        # mid-episode: the endpoint stops accepting, replies in flight are
        # counted as orphaned, and retransmit timers die quietly.
        self.degraded = False


def _run_episode_shard(
    network: AdHocNetwork,
    indexed_specs: list[tuple[int, EpisodeSpec]],
    until_ms: int | None,
    retries: int,
    retransmit_timeout_ms: int,
    reliability: "str | ReliabilityMode" = "simple",
) -> tuple[list[EpisodeResult], int]:
    """Worker-process entry point: run one shard of episodes sequentially.

    *network* arrives as this process's private pickled copy (channel model
    included), so shards never share mutable state.  Episode indices are
    restored to their position in the caller's spec list before results
    travel back.  The reliability mode pickles as plain field data (or a
    registry name) and is resolved worker-side.
    """
    engine = FriendingEngine(
        network, retries=retries, retransmit_timeout_ms=retransmit_timeout_ms,
        reliability=reliability,
    )
    result = engine.run([spec for _, spec in indexed_specs], until_ms=until_ms)
    for (original_index, _), episode in zip(indexed_specs, result.episodes):
        episode.episode = original_index
    return result.episodes, result.completed_at_ms


class FriendingEngine:
    """Schedules overlapping friending episodes over one `AdHocNetwork`.

    All times are simulated milliseconds (``start_ms``, ``until_ms``,
    latencies, refresh intervals); aggregate throughput is reported in
    episodes per simulated second.  Wall-clock time never enters the
    simulation, so a run is deterministic given seeded initiator and
    participant RNGs: the same specs over the same network (and the same
    channel model) produce bit-identical event orders, metrics and match
    sets, and N overlapping episodes match N isolated runs episode-for-
    episode (``tests/network/test_engine.py::TestDeterminism``).

    Parameters
    ----------
    network:
        The shared node set, channel model and latency parameters.
    mobility / radio_radius / refresh_interval_ms:
        When all three are given, the engine steps *mobility* every
        *refresh_interval_ms* of simulated time and rewires the network
        from a unit-disk snapshot at *radio_radius* (unit-square widths) --
        episodes launched before a refresh finish flooding over the new
        links.  Models exposing ``topology_delta`` (the grid-backed ones in
        :mod:`repro.network.mobility`) are refreshed incrementally: only
        the adjacency rows disturbed by motion are rewired.
    retries / retransmit_timeout_ms:
        Initiator-side reliability budget: when an episode has received no
        reply *retransmit_timeout_ms* after a (re)broadcast, the origin
        floods a fresh retransmission wave, up to *retries* times.
        ``retries=0`` (the default) is exactly the old single-shot
        behaviour.
    reliability:
        Named strategy deciding how that budget is spent -- ``"simple"``
        (default; blind re-floods at a constant timeout, byte-identical
        to the pre-strategy engine), ``"stage"`` (re-floods with the
        timeout doubling per wave), ``"window"`` (segmented replies,
        waves re-send only missing segments) or ``"window_fec"``
        (segmented replies with XOR parity, no waves).  A
        :class:`~repro.network.reliability.ReliabilityMode` instance is
        accepted too; unknown names raise ``ValueError``.
    frame_tap:
        Optional callable ``(src, dst, data: bytes)`` invoked for every
        datagram copy the channel delivers -- the global-eavesdropper hook
        (:class:`repro.attacks.eavesdrop.Eavesdropper.capture`).
    """

    def __init__(
        self,
        network: AdHocNetwork,
        *,
        mobility=None,
        radio_radius: float | None = None,
        refresh_interval_ms: int | None = None,
        retries: int = 0,
        retransmit_timeout_ms: int = DEFAULT_RETRANSMIT_TIMEOUT_MS,
        reliability: str | ReliabilityMode = "simple",
        frame_tap=None,
        decode_cache_cap: int = DEFAULT_DECODE_CACHE_CAP,
        reject_cache_cap: int = DEFAULT_REJECT_CACHE_CAP,
    ):
        if (mobility is None) != (refresh_interval_ms is None):
            raise ValueError("mobility and refresh_interval_ms must be given together")
        if mobility is not None and radio_radius is None:
            raise ValueError("topology refresh needs a radio_radius")
        if refresh_interval_ms is not None and refresh_interval_ms <= 0:
            raise ValueError("refresh interval must be positive")
        if not 0 <= retries <= 255:
            raise ValueError(
                "retries must be in [0, 255]: one envelope byte names the wave"
            )
        if retransmit_timeout_ms <= 0:
            raise ValueError("retransmit_timeout_ms must be positive")
        self.reliability = load_reliability_mode(reliability)
        self.network = network
        self.mobility = mobility
        self.radio_radius = radio_radius
        self.refresh_interval_ms = refresh_interval_ms
        self.retries = retries
        self.retransmit_timeout_ms = retransmit_timeout_ms
        self.frame_tap = frame_tap
        if decode_cache_cap < 4 or reject_cache_cap < 4:
            raise ValueError("decode/reject cache caps must be >= 4")
        self.decode_cache_cap = decode_cache_cap
        self.reject_cache_cap = reject_cache_cap
        self.topology_refreshes = 0
        self._episodes: list[_Episode | None] = []
        self._queue: EventQueue | None = None
        self._pending_episode_events = 0
        self._refresh_horizon_ms = 0
        self._package_cache = _BoundedCache(decode_cache_cap)
        self._frame_cache = _BoundedCache(decode_cache_cap)
        self._reject_cache = _BoundedCache(reject_cache_cap)
        # Open-world churn state (begin()/step()/inject()): departed node
        # ids, per-episode in-flight event counts (the retirement gate),
        # retired episode results, and run-level churn accounting.
        self._open_world = False
        self._first_start = 0
        self._departed: set[str] = set()
        self._pending_by_episode: dict[int, int] = {}
        self._retired: dict[int, EpisodeResult] = {}
        self.churn_metrics = NetworkMetrics()
        self._handlers: dict[type, Callable] | None = self._jump_table()

    # -- public API ---------------------------------------------------------

    def run_staggered(
        self,
        launches: list[tuple[str, Initiator]],
        *,
        arrival_ms: int = 50,
        start_ms: int = 0,
        until_ms: int | None = None,
        workers: int = 1,
    ) -> EngineResult:
        """Launch one episode per ``(node, initiator)`` pair, *arrival_ms* apart.

        *workers* > 1 shards the episodes across processes via
        :meth:`run_parallel` instead of interleaving them in one queue.
        """
        specs = [
            EpisodeSpec(initiator_node=node, initiator=initiator,
                        start_ms=start_ms + i * arrival_ms)
            for i, (node, initiator) in enumerate(launches)
        ]
        if workers > 1:
            return self.run_parallel(specs, workers=workers, until_ms=until_ms)
        return self.run(specs, until_ms=until_ms)

    def run(self, specs: list[EpisodeSpec], *, until_ms: int | None = None) -> EngineResult:
        """Run every episode to completion (or *until_ms*) in one queue."""
        first_start = self._setup_run(specs, until_ms)
        self._queue.run(until_ms=until_ms)
        return self._collect_results(first_start)

    def _reset_run_state(self, first_start: int) -> None:
        """Fresh per-run state: queue, caches, counters, churn accounting."""
        self._queue = EventQueue(first_start)
        self.topology_refreshes = 0
        self._pending_episode_events = 0
        self._package_cache = _BoundedCache(self.decode_cache_cap)
        self._frame_cache = _BoundedCache(self.decode_cache_cap)
        self._reject_cache = _BoundedCache(self.reject_cache_cap)
        self._open_world = False
        self._first_start = first_start
        self._departed = set()
        self._pending_by_episode = {}
        self._retired = {}
        self.churn_metrics = NetworkMetrics()
        if self._handlers is None:
            self._handlers = self._jump_table()

    def _jump_table(self) -> dict[type, Callable]:
        """Event dispatch: one dict lookup on the exact event type.

        The engine only ever schedules these concrete types.  The bound
        methods make the engine a reference cycle, so a finished run
        drops the table (:meth:`_collect_results`) and the next run
        builds it again.
        """
        return {
            DeliveryEvent: self._on_delivery,
            BroadcastEvent: self._on_broadcast,
            ReplyHopEvent: self._on_reply_hop,
            FrameEvent: self._on_frame,
            RetransmitEvent: self._on_retransmit,
            SegmentFlushEvent: self._on_segment_flush,
            TopologyRefreshEvent: self._on_topology_refresh,
        }

    def _admit_episode(self, episode: _Episode, origin_ms: int) -> None:
        """Open the origin session and schedule one episode's root events.

        *origin_ms* is the queue's zero point for the delays: the run's
        ``first_start`` during setup, the current clock for an
        :meth:`inject`.  The call order (session, broadcast, wave-1 timer,
        segment flush) is byte-frozen -- closed-world goldens depend on it.
        """
        # The initiator's own node never re-processes its own request:
        # its session exists from the start (hops 0, no parent).
        network = self.network
        network.node_state(network.nodes[episode.spec.initiator_node]).open(
            episode.rid, parent=None, hops=0,
            expires_ms=episode.package.expiry_ms,
            now_ms=episode.spec.start_ms,
        )
        self._schedule(
            episode.spec.start_ms - origin_ms,
            BroadcastEvent(episode.index, episode.spec.initiator_node,
                           episode.frame),
        )
        if self.retries > 0 and self.reliability.waves:
            # Wave 1 fires one base timeout after the initial broadcast
            # in every mode (backoff**0 == 1), so ``simple`` schedules
            # the exact pre-strategy value.
            self._schedule(
                episode.spec.start_ms - origin_ms
                + self.reliability.wave_delay_ms(1, self.retransmit_timeout_ms),
                RetransmitEvent(episode.index, attempt=1),
            )
        if self.reliability.segmented:
            # Reply-window close: deliver partial segment sets for
            # responders whose replies never completed.  The window
            # check in ``handle_reply`` is strict (>), so a flush at
            # exactly the boundary is still accepted.
            self._schedule(
                episode.spec.start_ms - origin_ms
                + episode.spec.initiator.reply_window_ms,
                SegmentFlushEvent(episode.index),
            )

    def _setup_run(self, specs: list[EpisodeSpec], until_ms: int | None) -> int:
        """Validate specs, build episode state, schedule every root event."""
        if not specs:
            raise ValueError("need at least one episode")
        for spec in specs:
            if spec.initiator_node not in self.network.nodes:
                raise ValueError(f"unknown initiator node {spec.initiator_node!r}")

        first_start = min(spec.start_ms for spec in specs)
        self._reset_run_state(first_start)
        self._episodes = [_Episode(spec, i) for i, spec in enumerate(specs)]

        for episode in self._episodes:
            self._admit_episode(episode, first_start)

        if self.mobility is not None:
            self._schedule_refreshes(first_start, until_ms)
        return first_start

    # -- open-world lifecycle (begin / step / inject / churn) ----------------

    def begin(self, specs: list[EpisodeSpec] | tuple[EpisodeSpec, ...] = (),
              *, start_ms: int = 0) -> None:
        """Enter open-world mode: admit *specs* (possibly none) and stop.

        Nothing executes until :meth:`step`; episodes and nodes can then be
        injected at any simulated time (:meth:`inject`, :meth:`join_node`,
        :meth:`leave_node`, :meth:`crash_node`) and the run ends with
        :meth:`finish`.  The closed-world :meth:`run` path is untouched --
        with zero churn actions, ``begin + step...+ finish`` is
        byte-identical to ``run`` (pinned by
        ``tests/network/test_engine_step.py``).

        Open-world mode drives its own population dynamics through churn,
        so a mobility model (whose refresh timer assumes a run-to-drain
        queue) is rejected.
        """
        if self.mobility is not None:
            raise ValueError(
                "open-world stepping does not support a mobility model; "
                "churn supplies the population dynamics"
            )
        if start_ms < 0:
            raise ValueError(f"start_ms must be >= 0 simulated ms, got {start_ms}")
        specs = list(specs)
        for spec in specs:
            if spec.initiator_node not in self.network.nodes:
                raise ValueError(f"unknown initiator node {spec.initiator_node!r}")
        first_start = start_ms
        if specs:
            first_start = min(first_start, min(spec.start_ms for spec in specs))
        self._reset_run_state(first_start)
        self._episodes = []
        self._open_world = True
        for i, spec in enumerate(specs):
            episode = _Episode(spec, i)
            self._episodes.append(episode)
            self._admit_episode(episode, first_start)

    def step(self, until_ms: int | None = None) -> int:
        """Execute events up to *until_ms* (inclusive); return the count.

        Settled episodes (no in-flight events, start time reached) are
        retired on the way out: their results are finalized and their
        flood state -- reply-dedup sets, segment reassembly buffers,
        sender-side segment records -- is freed, which is what bounds an
        hours-long soak.
        """
        if not self._open_world:
            raise RuntimeError("step() requires begin() first")
        executed = self._queue.run(until_ms=until_ms)
        self._retire_settled()
        return executed

    def finish(self) -> EngineResult:
        """Drain every remaining event and assemble the final result."""
        if not self._open_world:
            raise RuntimeError("finish() requires begin() first")
        self.step(None)
        result = self._collect_results(self._first_start)
        self._open_world = False
        return result

    def inject(self, spec: EpisodeSpec) -> int:
        """Admit a new episode mid-run; returns its episode index.

        ``spec.start_ms`` must not be in the simulated past, and the
        initiator node must be present (joined and not departed).
        """
        if not self._open_world:
            raise RuntimeError("inject() requires begin() first")
        if spec.initiator_node not in self.network.nodes:
            raise ValueError(f"unknown initiator node {spec.initiator_node!r}")
        if spec.initiator_node in self._departed:
            raise ValueError(f"initiator node {spec.initiator_node!r} has departed")
        now_ms = self._queue.now_ms
        if spec.start_ms < now_ms:
            raise ValueError(
                f"cannot inject an episode starting at {spec.start_ms} ms: "
                f"the clock is already at {now_ms} ms"
            )
        episode = _Episode(spec, len(self._episodes))
        self._episodes.append(episode)
        self._admit_episode(episode, now_ms)
        return episode.index

    def join_node(self, node_id: str, participant=None,
                  neighbours: list[str] | tuple[str, ...] = ()):
        """A node arrives (brand new) or wakes (previously departed).

        A waking node keeps whatever session state survived its sleep (a
        crash wiped it already).
        """
        if not self._open_world:
            raise RuntimeError("join_node() requires begin() first")
        network = self.network
        if node_id in network.nodes:
            if node_id not in self._departed:
                raise ValueError(f"node {node_id!r} is already present")
            self._departed.discard(node_id)
            network.attach_node(node_id, neighbours)
        else:
            # A brand-new id -- or a forgotten one being reused, which
            # re-enters as a fresh arrival.
            self._departed.discard(node_id)
            network.add_node(node_id, participant, neighbours)
        self.churn_metrics.nodes_joined += 1

    def leave_node(self, node_id: str, *, crash: bool = False) -> None:
        """A node departs: detached from the mesh, deliveries to it dropped.

        With ``crash=True`` the node also loses its volatile state (session
        table, rate limiter).  Episodes whose initiator departs are marked
        degraded: their endpoints stop accepting (later replies count as
        ``orphaned_replies``) and their retransmit timers die quietly, so
        the drain always completes.
        """
        if not self._open_world:
            raise RuntimeError("leave_node() requires begin() first")
        if node_id not in self.network.nodes:
            raise ValueError(f"unknown node {node_id!r}")
        if node_id in self._departed:
            raise ValueError(f"node {node_id!r} has already departed")
        self.network.detach_node(node_id)
        self._departed.add(node_id)
        if crash:
            self.network.reset_node_state(node_id)
            self.churn_metrics.nodes_crashed += 1
        else:
            self.churn_metrics.nodes_left += 1
        for episode in self._episodes:
            if episode is not None and not episode.degraded \
                    and episode.spec.initiator_node == node_id:
                episode.degraded = True
                episode.metrics.degraded_episodes += 1
                # Free the endpoint's reassembly state now; the flush event
                # (if any) finds nothing to deliver.
                episode.seg_rx.clear()
                episode.seg_sent.clear()

    def crash_node(self, node_id: str) -> None:
        """A node dies abruptly: departure plus session-state loss."""
        self.leave_node(node_id, crash=True)

    def forget_node(self, node_id: str) -> None:
        """Free a permanently-departed node's remaining state entirely.

        Only valid after the node departed.  The id stays in the
        departed set, so late deliveries and injections keep refusing
        it; what goes away is the Node shell (participant, session
        table, limiter history).  Callers that might wake the node
        later -- a crash with a sleep window booked -- must NOT forget
        it; the churn runner only forgets graceful leavers, for which
        it never books a wake.
        """
        if node_id not in self._departed:
            raise ValueError(f"node {node_id!r} has not departed")
        self.network.forget_node(node_id)

    # -- open-world introspection -------------------------------------------

    @property
    def departed_nodes(self) -> frozenset[str]:
        return frozenset(self._departed)

    def live_episode_count(self) -> int:
        return sum(1 for episode in self._episodes if episode is not None)

    def retired_count(self) -> int:
        return len(self._retired)

    def episode_initiator_node(self, index: int) -> str | None:
        """Initiator node id of a live episode (None once retired)."""
        episode = self._episodes[index]
        return None if episode is None else episode.spec.initiator_node

    def open_horizon_ms(self) -> int:
        """Latest request-validity deadline across live episodes."""
        deadlines = [ep.package.expiry_ms for ep in self._episodes if ep is not None]
        return max(deadlines, default=self._queue.now_ms if self._queue else 0)

    def wedged_episodes(self, grace_ms: int = 60_000) -> list[int]:
        """Live episodes still holding events long past their validity window.

        An episode with in-flight events *within* its window is just in
        flight; one still pending *grace_ms* past expiry has a stuck timer
        or an orphaned event chain -- the soak harness asserts this list is
        empty.  (A fully drained queue can never leave a wedge: zero
        pending events retires the episode.)
        """
        now_ms = self._queue.now_ms
        pending = self._pending_by_episode
        return [
            episode.index
            for episode in self._episodes
            if episode is not None
            and pending.get(episode.index, 0) > 0
            and now_ms > episode.package.expiry_ms + grace_ms
        ]

    def _retire_settled(self) -> None:
        """Finalize and free every episode with zero in-flight events.

        Event genealogy is closed per episode (every event an episode's
        handler schedules belongs to that episode), so a zero pending
        count is a proof the episode can never be touched again.
        """
        pending = self._pending_by_episode
        episodes = self._episodes
        for idx, episode in enumerate(episodes):
            if episode is None:
                continue
            if pending.get(idx, 0) == 0:
                self._retired[idx] = self._episode_result(episode)
                episodes[idx] = None
                pending.pop(idx, None)

    @staticmethod
    def _episode_result(episode: _Episode) -> EpisodeResult:
        return EpisodeResult(
            episode=episode.index,
            initiator_node=episode.spec.initiator_node,
            initiator=episode.spec.initiator,
            started_at_ms=episode.spec.start_ms,
            completed_at_ms=episode.last_event_ms,
            metrics=episode.metrics,
            replies=episode.replies,
        )

    def _collect_results(self, first_start: int) -> EngineResult:
        """Assemble the :class:`EngineResult` after the queue has drained.

        Ends the run's jump table too: with it gone a finished engine is
        no reference cycle, so dropping the engine frees its world by
        reference counting, without waiting for the cyclic collector.
        """
        self._handlers = None
        retired = self._retired
        episodes = [
            retired[idx] if ep is None else self._episode_result(ep)
            for idx, ep in enumerate(self._episodes)
        ]
        # Aggregate throughput runs to the last *episode* event: trailing
        # topology-refresh ticks keep the queue alive but do no episode work.
        last_episode_event = max(
            (ep.completed_at_ms for ep in episodes), default=first_start
        )
        return EngineResult(
            episodes=episodes,
            aggregate=self._aggregate(episodes, first_start, last_episode_event,
                                      extra=self.churn_metrics),
            completed_at_ms=self._queue.now_ms,
            topology_refreshes=self.topology_refreshes,
        )

    def run_parallel(
        self,
        specs: list[EpisodeSpec],
        *,
        workers: int,
        until_ms: int | None = None,
    ) -> EngineResult:
        """Shard episodes across *workers* processes; merge deterministically.

        Episodes are dealt round-robin to worker processes; each worker
        runs its shard through an ordinary :meth:`run` over a pickled
        copy of the network, and the merged result restores sequential
        episode order.  Given seeded per-episode initiator RNGs and
        seeded per-participant RNGs, concurrent episodes in one queue
        already equal the same episodes run in isolation
        (``tests/network/test_engine.py::TestDeterminism``), so sharding
        preserves results episode-for-episode: ``run_parallel(workers=4)``
        returns the same matches, metrics and aggregate as :meth:`run`
        (pinned by ``tests/network/test_engine_parallel.py``).  A lossy
        channel keeps this property because every frame's fate hashes
        from (seed, flow, link, seq), never from a shared RNG stream --
        under both fate planes: the pickled network carries the
        channel's ``version``, v2 workers recompute the same counter-mode
        streams, and the v2 digest caches are value-pure, so sharded
        lossy runs stay byte-identical to sequential ones.

        Differences from :meth:`run`:

        - episode state is mutated on *worker-side copies*: the caller's
          ``Initiator``/``Participant`` objects are untouched, and results
          must be read from the returned :class:`EpisodeResult`\\ s;
        - mid-run topology refresh is not supported (a refresh is a
          cross-episode side effect, which sharding removes) -- engines
          configured with a mobility model must use :meth:`run`;
        - the frame tap is not forwarded to workers (taps close over
          caller-side state); capture frames with a sequential run;
        - session-table overflow is cross-episode coupling too: shard
          results match sequential ones only while no node's table fills
          (see :mod:`repro.network.sessions`).
        """
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if self.mobility is not None:
            raise ValueError(
                "run_parallel does not support mid-run topology refresh; use run()"
            )
        if not specs:
            raise ValueError("need at least one episode")
        for spec in specs:
            if spec.initiator_node not in self.network.nodes:
                raise ValueError(f"unknown initiator node {spec.initiator_node!r}")
        workers = min(workers, len(specs))
        if workers == 1:
            return self.run(specs, until_ms=until_ms)

        indexed = list(enumerate(specs))
        shards = [indexed[w::workers] for w in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(
                    _run_episode_shard, self.network, shard, until_ms,
                    self.retries, self.retransmit_timeout_ms, self.reliability,
                )
                for shard in shards
            ]
            outputs = [future.result() for future in futures]

        episodes = sorted(
            (episode for shard_episodes, _ in outputs for episode in shard_episodes),
            key=lambda episode: episode.episode,
        )
        first_start = min(spec.start_ms for spec in specs)
        last_episode_event = max(ep.completed_at_ms for ep in episodes)
        return EngineResult(
            episodes=episodes,
            aggregate=self._aggregate(episodes, first_start, last_episode_event),
            completed_at_ms=max(completed for _, completed in outputs),
            topology_refreshes=0,
        )

    # -- frame plumbing -----------------------------------------------------

    def _decode(self, data: bytes) -> Frame:
        """Envelope validation: bytes in, checked Frame out (or raises).

        Memoized on the exact datagram bytes: a broadcast delivers the
        same frame object to every neighbour and a relay's reframe output
        is value-identical across relays of the same (ttl, wave), so each
        distinct datagram pays the CRC walk once per run.  Corrupt
        datagrams go to a separate *negative* cache: link-layer duplicates
        of a corrupted copy re-reject without re-walking the CRC, and the
        bound keeps dead bytes from accumulating.  Both caches are
        size-capped (:class:`_BoundedCache`) and live for one run.
        """
        frame = self._frame_cache.get(data)
        if frame is None:
            if data in self._reject_cache:
                raise SerializationError("datagram previously rejected (cached)")
            try:
                frame = decode_frame(data)
            except SerializationError:
                self._reject_cache.put(data, True)
                raise
            self._frame_cache.put(data, frame)
        return frame

    def _request_package(self, frame: Frame) -> RequestPackage:
        """Decode a request payload, memoized on the exact payload bytes.

        The payload is identical at every hop (relays patch only envelope
        routing bytes), so each distinct request decodes once per engine
        -- the cache key being the bytes keeps this transparent: any
        corruption changes the key and fails envelope validation first.
        """
        package = self._package_cache.get(frame.payload)
        if package is None:
            package = RequestPackage.decode(frame.payload)
            self._package_cache.put(frame.payload, package)
        return package

    def _transmit(
        self, episode: _Episode, frame, *, flow: bytes, link: tuple[str, str],
        seq: int, latency_ms: int, frame_len: int,
    ) -> list:
        """Push one datagram through the channel; account the frame layer."""
        deliveries = self.network.channel.transmit(
            frame, flow=flow, link=link, seq=seq, latency_ms=latency_ms
        )
        metrics = episode.metrics
        copies = len(deliveries)
        metrics.frames_sent += max(1, copies)
        metrics.frame_bytes += frame_len * max(1, copies)
        if copies == 0:
            metrics.frames_dropped += 1
        elif copies > 1:
            metrics.frames_duplicated += copies - 1
        for delivery in deliveries:
            if delivery.corrupted:
                metrics.frames_corrupted += 1
            if self.frame_tap is not None:
                self.frame_tap(link[0], link[1], delivery.data)
        return deliveries

    # -- event handling -----------------------------------------------------

    def _dispatch(self, event) -> None:
        cls = type(event)
        handler = self._handlers.get(cls)
        if handler is None:  # pragma: no cover -- the engine only schedules known types
            raise TypeError(f"unknown event {event!r}")
        if cls is not TopologyRefreshEvent:
            self._pending_episode_events -= 1
            if self._open_world:
                self._pending_by_episode[event.episode] -= 1
        handler(event)

    def _schedule(self, delay_ms: int, event) -> None:
        """Queue an episode event (counted against the refresh horizon).

        Without a mobility model or open-world stepping the in-flight
        counters are dead weight: events then go straight to their
        handler, skipping the dispatch hop entirely.  Open-world mode
        additionally counts per episode -- the retirement gate.
        """
        if self._open_world:
            self._pending_episode_events += 1
            pending = self._pending_by_episode
            pending[event.episode] = pending.get(event.episode, 0) + 1
            self._queue.schedule(delay_ms, self._dispatch, event)
        elif self.mobility is not None:
            self._pending_episode_events += 1
            self._queue.schedule(delay_ms, self._dispatch, event)
        else:
            self._queue.schedule(delay_ms, self._handlers[type(event)], event)

    def _schedule_refresh_event(self, delay_ms: int, event: TopologyRefreshEvent) -> None:
        """Queue a topology tick without counting it as episode work."""
        self._queue.schedule(delay_ms, self._dispatch, event)

    def _on_broadcast(self, event: BroadcastEvent) -> None:
        """Flood one hop: draw every link's fate at once, batch deliveries.

        All per-neighbour channel fates are drawn in one
        :meth:`~repro.network.channel_model.ChannelModel.transmit_many`
        pass (bit-identical per-link values), and the resulting copies are
        aggregated into one :class:`DeliveryEvent` per arrival instant
        instead of one queue entry per copy.  Within a time bucket the
        receiver order is the per-link scheduling order, so execution
        order -- and therefore every golden-pinned result -- matches the
        old copy-at-a-time path exactly.
        """
        episode = self._episodes[event.episode]
        if self._departed and event.node in self._departed:
            # The transmitter left or crashed before this (re)broadcast
            # fired: nothing goes on the air.
            return
        node = self.network.nodes[event.node]
        metrics = episode.metrics
        metrics.broadcasts += 1
        metrics.bytes_broadcast += episode.package_bytes
        episode.last_event_ms = self._queue.now_ms
        frame = event.frame
        wave = frame[7]  # the envelope's seq byte, read without a decode
        neighbours = node.neighbours
        if not neighbours:
            return
        frame_len = FRAME_HEADER_LEN + episode.package_bytes
        fates = self.network.channel.transmit_many(
            frame, flow=episode.flow, src=event.node, dsts=neighbours,
            seq=wave, latency_ms=self.network.hop_latency_ms,
        )
        tap = self.frame_tap
        frames_sent = 0
        dropped = 0
        duplicated = 0
        corrupted = 0
        groups: dict[int, list[tuple[str, object]]] = {}
        groups_get = groups.get
        for neighbour, deliveries in zip(neighbours, fates):
            copies = len(deliveries)
            if copies == 0:
                frames_sent += 1
                dropped += 1
                continue
            frames_sent += copies
            if copies > 1:
                duplicated += copies - 1
            for delay_ms, data, was_corrupted in deliveries:
                if was_corrupted:
                    corrupted += 1
                if tap is not None:
                    tap(event.node, neighbour, data)
                group = groups_get(delay_ms)
                if group is None:
                    group = groups[delay_ms] = []
                group.append((neighbour, data))
        metrics.frames_sent += frames_sent
        metrics.frame_bytes += frame_len * frames_sent
        if dropped:
            metrics.frames_dropped += dropped
        if duplicated:
            metrics.frames_duplicated += duplicated
        if corrupted:
            metrics.frames_corrupted += corrupted
        for delay_ms, batch in groups.items():
            self._schedule(
                delay_ms,
                DeliveryEvent(event.episode, event.node, tuple(batch)),
            )

    def _on_delivery(self, event: DeliveryEvent) -> None:
        """Process every copy of one broadcast arriving at this instant.

        The batch shares one decode per distinct datagram (untouched
        copies are literally the same bytes object; corruption forks a
        private one) and then runs the per-receiver protocol handling in
        the batch's scheduling order.
        """
        episode = self._episodes[event.episode]
        episode.last_event_ms = self._queue.now_ms
        metrics = episode.metrics
        nodes = self.network.nodes
        from_node = event.from_node
        departed = self._departed
        last_data: object = None
        frame = None
        package = None
        rid = b""
        seq = 0
        for node_id, data in event.deliveries:
            if departed and node_id in departed:
                # The receiver left or crashed while this copy was on the
                # air: the radio copy reaches nobody.
                continue
            if data is not last_data:
                last_data = data
                try:
                    frame = self._decode(data)
                    if frame.ftype != FT_REQUEST:
                        raise SerializationError(
                            f"unexpected frame type {frame.ftype} on flood"
                        )
                    package = self._request_package(frame)
                except SerializationError:
                    # Corrupted or malformed on the air: dropped whole.
                    frame = None
                else:
                    rid = package.request_id
                    seq = frame.seq
            if frame is None:
                metrics.frames_rejected += 1
                continue
            node = nodes[node_id]
            sessions = node.sessions
            if sessions is None:  # the node's first frame
                sessions = self.network.node_state(node)
            session = sessions.lookup(rid)
            if session is not None and seq <= session.last_seq:
                # The overwhelmingly common flood outcome -- the node has
                # already served this request and this is just another
                # neighbour's copy -- handled inline, before the call.
                metrics.dropped_duplicate += 1
                continue
            self._handle_request_copy(
                episode, node, node_id, from_node, frame, package, session, data
            )

    def _on_frame(self, event: FrameEvent) -> None:
        """Single-copy compatibility path: a batch of one."""
        self._on_delivery(
            DeliveryEvent(event.episode, event.from_node,
                          ((event.node, event.data),))
        )

    def _handle_request_copy(
        self, episode: _Episode, node, node_id: str, from_node: str,
        frame: Frame, package: RequestPackage, session, data,
    ) -> None:
        """A request copy that is not a plain duplicate: process or forward.

        *session* is the node's existing session for this request id (the
        caller already looked it up), or None on first contact.  A non-None
        session with a stale wave mark never reaches this method -- the
        duplicate drop happens inline at the delivery loop.
        """
        queue = self._queue
        rid = package.request_id
        if session is not None:
            # Session exists and frame.seq > session.last_seq: a fresh
            # retransmission wave to relay without re-processing.
            self._forward_wave(episode, node, node_id, from_node,
                               frame, package, session, data)
            return
        if package.is_expired(queue.now_ms):
            episode.metrics.dropped_expired += 1
            return
        if not node.limiter.allow(from_node, queue.now_ms):
            episode.metrics.dropped_rate_limited += 1
            return
        # Hop count derives from the bytes: initial TTL minus what remains.
        hops = package.ttl - frame.ttl + 1
        session = node.sessions.open(
            rid, parent=from_node, hops=hops,
            expires_ms=package.expiry_ms, now_ms=queue.now_ms,
        )
        if session is None:
            episode.metrics.sessions_overflow += 1
            return
        session.last_seq = frame.seq
        episode.metrics.nodes_reached += 1

        participant = node.participant
        if participant is not None:
            reply = participant.handle_request(package, now_ms=queue.now_ms)
            outcome = participant.last_outcome
            if outcome is not None and outcome.candidate:
                episode.metrics.candidates += 1
            if reply is not None:
                episode.metrics.replies += 1
                self._send_reply(episode, reply, node_id, hops)
        if frame.ttl > 1:
            # Forward the *datagram* (data), not the decoded view: the
            # relay patches the envelope TTL on the received bytes.
            self._schedule(
                self.network.processing_latency_ms,
                BroadcastEvent(episode.index, node_id,
                               reframe(data, ttl=frame.ttl - 1)),
            )
        else:
            # TTL exhausted: the packet was received and fully processed
            # (the node may even have replied); what is dropped is the
            # re-broadcast that would otherwise go out -- count exactly one
            # suppression here, at the point of suppression.
            episode.metrics.dropped_ttl += 1

    def _forward_wave(
        self, episode, node, node_id: str, from_node: str,
        frame, package, session, data,
    ) -> None:
        """Forward a fresh retransmission wave without re-processing.

        The node already served this request (its session is open); a
        higher envelope seq means the origin re-flooded.  The node relays
        the wave exactly once -- patching nothing but its own wave mark --
        so retransmissions heal loss holes at flood cost, while the
        participant layer stays idempotent (it never sees the request
        again).

        The wave mark is only advanced once the copy survives the expiry
        and rate-limit checks: a rejected copy leaves state untouched, so
        a later copy of the same wave from another neighbour (whose
        limiter budget is intact) can still carry the wave onward --
        mirroring the first-contact path, where a rate-limited copy does
        not open the session.
        """
        if package.is_expired(self._queue.now_ms):
            episode.metrics.dropped_expired += 1
            return
        if not node.limiter.allow(from_node, self._queue.now_ms):
            episode.metrics.dropped_rate_limited += 1
            return
        session.last_seq = frame.seq
        if frame.ttl > 1:
            self._schedule(
                self.network.processing_latency_ms,
                BroadcastEvent(episode.index, node_id,
                               reframe(data, ttl=frame.ttl - 1)),
            )
        else:
            episode.metrics.dropped_ttl += 1

    def _send_reply(self, episode: _Episode, reply: Reply, via: str, hops: int) -> None:
        """Encode a participant's reply and start it hopping home."""
        n_elements = len(reply.elements)
        if self.reliability.segmented and n_elements:
            # Element-less replies (nothing to protect) keep the classic
            # single-frame path; the segment codec carries exactly one
            # element per frame.
            self._send_reply_segments(episode, reply, via, hops)
            return
        frame = encode_reply_frame(reply, ttl=min(hops, 255))
        self._schedule(
            self.network.processing_latency_ms,
            ReplyHopEvent(
                episode.index, frame, via, hops, n_elements, len(frame),
                flow=episode.rid + b"R" + reply.responder_id.encode("utf-8"),
            ),
        )

    @staticmethod
    def _segment_flow(
        rid: bytes, responder: bytes, is_parity: bool, index: int, attempt: int
    ) -> bytes:
        """Channel-model flow id for one segment transmission.

        Every (segment, retransmission attempt) pair gets its own flow, so
        each draws independent deterministic fates -- a re-sent segment is
        a fresh chance on the channel, not a replay of the original draw.
        """
        return (
            rid
            + b"S"
            + (b"\x01" if is_parity else b"\x00")
            + index.to_bytes(2, "big")
            + bytes((attempt,))
            + responder
        )

    def _send_reply_segments(
        self, episode: _Episode, reply: Reply, via: str, hops: int
    ) -> None:
        """Ship one reply as per-element segment frames (plus parity in FEC mode).

        Data segments go out in element order, then parity segments in
        window order, all at the same processing latency -- a fixed,
        deterministic schedule.  Under ``window`` mode the encoded data
        frames are recorded so a later selective wave can re-send exactly
        the ones the initiator reports missing.
        """
        mode = self.reliability
        elements = reply.elements
        n = len(elements)
        responder = reply.responder_id
        responder_bytes = responder.encode("utf-8")
        ttl = min(hops, 255)
        window = mode.fec_window
        segments = [
            ReplySegment(
                request_id=episode.rid, responder_id=responder,
                sent_at_ms=reply.sent_at_ms, seg_index=i, n_data=n,
                window=window, is_parity=False, element=element,
            )
            for i, element in enumerate(elements)
        ]
        if window:
            segments.extend(
                ReplySegment(
                    request_id=episode.rid, responder_id=responder,
                    sent_at_ms=reply.sent_at_ms, seg_index=w, n_data=n,
                    window=window, is_parity=True, element=parity,
                )
                for w, parity in enumerate(fec_parity_elements(elements, window))
            )
        record: dict[int, bytes] | None = {} if mode.selective_retx else None
        delay = self.network.processing_latency_ms
        for segment in segments:
            frame = encode_segment_frame(segment, ttl=ttl)
            if record is not None and not segment.is_parity:
                record[segment.seg_index] = frame
            self._schedule(
                delay,
                ReplyHopEvent(
                    episode.index, frame, via, hops, 1, len(frame),
                    flow=self._segment_flow(
                        episode.rid, responder_bytes,
                        segment.is_parity, segment.seg_index, 0,
                    ),
                ),
            )
        if record is not None:
            episode.seg_sent[responder] = (via, hops, record)

    def _on_reply_hop(self, event: ReplyHopEvent) -> None:
        episode = self._episodes[event.episode]
        episode.last_event_ms = self._queue.now_ms
        if event.remaining_hops <= 0:
            self._deliver_reply(episode, event)
            return
        episode.metrics.unicasts += 1
        episode.metrics.bytes_unicast += (
            REPLY_OVERHEAD_BYTES + event.n_elements * REPLY_ELEMENT_BYTES
        )
        # The channel seq folds in the copy lineage so sibling copies of a
        # duplicated reply draw independent fates at every later hop
        # (otherwise duplication would be all-or-nothing redundancy).
        deliveries = self._transmit(
            episode, event.frame, flow=event.flow,
            link=(event.via, episode.spec.initiator_node),
            seq=event.remaining_hops + (event.copy << 8),
            latency_ms=self.network.hop_latency_ms,
            frame_len=event.frame_len,
        )
        for fork, delivery in enumerate(deliveries):
            self._schedule(
                delivery.delay_ms,
                ReplyHopEvent(event.episode, delivery.data, event.via,
                              event.remaining_hops - 1, event.n_elements,
                              event.frame_len, event.flow,
                              copy=event.copy * 2 + fork),
            )

    def _deliver_reply(self, episode: _Episode, event: ReplyHopEvent) -> None:
        """Initiator endpoint: validate, dedupe, and hand up one reply frame."""
        if episode.degraded:
            # The initiator departed mid-episode: the endpoint is gone, so
            # the reply falls on the floor -- counted, never matched.
            episode.metrics.orphaned_replies += 1
            return
        try:
            frame = self._decode(event.frame)
            if frame.ftype == FT_REPLY_SEG:
                segment = decode_reply_segment(frame.payload)
            elif frame.ftype == FT_REPLY:
                segment = None
                reply = decode_reply(frame.payload)
            else:
                raise SerializationError(f"unexpected frame type {frame.ftype} for a reply")
        except SerializationError:
            episode.metrics.frames_rejected += 1
            return
        if segment is not None:
            self._deliver_segment(episode, segment)
            return
        if reply.responder_id in episode.seen_responders:
            # Duplicate-frame idempotence: link-layer copies of a reply
            # reach the endpoint once.
            episode.metrics.duplicate_replies += 1
            return
        episode.seen_responders.add(reply.responder_id)
        episode.spec.initiator.handle_reply(reply, self._queue.now_ms)
        episode.metrics.reply_latency_ms.append(
            self._queue.now_ms - episode.spec.start_ms
        )
        episode.replies.append(reply)

    def _deliver_segment(self, episode: _Episode, segment: ReplySegment) -> None:
        """Initiator endpoint for one reply segment: store, reconstruct, deliver.

        Segments accumulate per responder; the reply is handed up the
        moment every data element is present -- received or reconstructed
        from XOR parity (counted as ``fec_recovered``).  Anything still
        incomplete when the reply window closes is delivered partially by
        :meth:`_on_segment_flush`.
        """
        metrics = episode.metrics
        if segment.request_id != episode.rid:
            metrics.frames_rejected += 1
            return
        responder = segment.responder_id
        if responder in episode.seen_responders:
            # The responder's reply is already delivered; late or duplicate
            # segment copies are endpoint-idempotent like duplicate replies.
            metrics.duplicate_replies += 1
            return
        state = episode.seg_rx.get(responder)
        if state is None:
            state = episode.seg_rx[responder] = _SegmentState(
                segment.n_data, segment.window, segment.sent_at_ms
            )
        if segment.n_data != state.n_data or segment.window != state.window:
            # Inconsistent geometry across one responder's segments: not a
            # well-formed reply stream.
            metrics.frames_rejected += 1
            return
        if segment.is_parity:
            if state.window == 0 or segment.seg_index * state.window >= state.n_data:
                metrics.frames_rejected += 1
                return
            store = state.parity
        else:
            if segment.seg_index >= state.n_data:
                metrics.frames_rejected += 1
                return
            store = state.data
        if segment.seg_index in store:
            metrics.duplicate_replies += 1
            return
        store[segment.seg_index] = segment.element
        completed, recovered = self._reassemble(state)
        if len(completed) == state.n_data:
            self._finish_segment_reply(episode, responder, state, completed, recovered)

    @staticmethod
    def _reassemble(state: _SegmentState) -> tuple[dict[int, bytes], list[int]]:
        """Received data plus whatever parity can reconstruct right now.

        Recovery is recomputed from the raw received sets on every attempt
        (nothing reconstructed is persisted), so ``fec_recovered`` counts
        each recovered element exactly once -- at delivery.
        """
        if state.window and state.parity:
            return fec_reconstruct(state.n_data, state.window, state.data, state.parity)
        return dict(state.data), []

    def _finish_segment_reply(
        self,
        episode: _Episode,
        responder: str,
        state: _SegmentState,
        completed: dict[int, bytes],
        recovered: list[int],
    ) -> None:
        """Hand one reassembled (possibly partial) reply up to the initiator."""
        reply = Reply(
            request_id=episode.rid,
            responder_id=responder,
            elements=tuple(completed[i] for i in sorted(completed)),
            sent_at_ms=state.sent_at_ms,
        )
        episode.seen_responders.add(responder)
        del episode.seg_rx[responder]
        episode.seg_sent.pop(responder, None)
        if recovered:
            episode.metrics.fec_recovered += len(recovered)
        episode.spec.initiator.handle_reply(reply, self._queue.now_ms)
        episode.metrics.reply_latency_ms.append(
            self._queue.now_ms - episode.spec.start_ms
        )
        episode.replies.append(reply)

    def _on_segment_flush(self, event: SegmentFlushEvent) -> None:
        """Reply-window close: deliver what arrived for unfinished responders.

        A partial element set now beats a complete set never -- the true
        acknowledging element may well be among the survivors, and the
        initiator's window check would refuse anything later anyway.
        """
        episode = self._episodes[event.episode]
        if episode.degraded:
            return
        delivered = False
        for responder in sorted(episode.seg_rx):
            state = episode.seg_rx[responder]
            completed, recovered = self._reassemble(state)
            if not completed:
                del episode.seg_rx[responder]
                continue
            self._finish_segment_reply(episode, responder, state, completed, recovered)
            delivered = True
        if delivered:
            episode.last_event_ms = self._queue.now_ms

    def _on_retransmit(self, event: RetransmitEvent) -> None:
        episode = self._episodes[event.episode]
        if episode.degraded:
            return  # the initiator is gone: the wave timer dies quietly
        mode = self.reliability
        if mode.selective_retx:
            self._on_selective_wave(episode, event)
            return
        if episode.replies:
            return  # answered: the timer dies quietly
        if episode.package.is_expired(self._queue.now_ms):
            return
        episode.metrics.retransmissions += 1
        episode.last_event_ms = self._queue.now_ms
        origin = self.network.nodes[episode.spec.initiator_node]
        session = origin.sessions.get(episode.rid)
        if session is not None:
            session.last_seq = event.attempt
        self._schedule(
            0,
            BroadcastEvent(
                event.episode, episode.spec.initiator_node,
                reframe(episode.frame, ttl=episode.package.ttl, seq=event.attempt),
            ),
        )
        if event.attempt < self.retries:
            # ``simple`` (backoff 1.0) chains at exactly the base timeout,
            # preserving the pre-strategy schedule byte for byte.
            self._schedule(
                mode.wave_delay_ms(event.attempt + 1, self.retransmit_timeout_ms),
                RetransmitEvent(event.episode, attempt=event.attempt + 1),
            )

    def _on_selective_wave(self, episode: _Episode, event: RetransmitEvent) -> None:
        """``window``-mode wave: re-send only what the initiator is missing.

        The initiator knows exactly which data segments each partially
        heard responder still owes (its ``seg_rx`` holes); the wave
        re-sends those frames from the sender-side record along the
        recorded reply path, each with a fresh per-attempt flow (the
        simulation's stand-in for a NACK travelling upstream -- the
        engine is both endpoints, so the request round trip is elided).
        While *nothing* has been heard from anyone, the wave falls back
        to a full re-flood: there are no known holes to aim at yet.
        """
        now_ms = self._queue.now_ms
        if episode.package.is_expired(now_ms):
            return
        resent = 0
        for responder in sorted(episode.seg_rx):
            state = episode.seg_rx[responder]
            record = episode.seg_sent.get(responder)
            if record is None:  # pragma: no cover -- this engine sent them
                continue
            via, hops, frames = record
            responder_bytes = responder.encode("utf-8")
            for index in range(state.n_data):
                if index in state.data:
                    continue
                frame = frames[index]
                self._schedule(
                    0,
                    ReplyHopEvent(
                        episode.index, frame, via, hops, 1, len(frame),
                        flow=self._segment_flow(
                            episode.rid, responder_bytes, False, index,
                            event.attempt,
                        ),
                    ),
                )
                resent += 1
        if resent:
            episode.metrics.selective_retx += resent
            episode.last_event_ms = now_ms
        elif not episode.replies and not episode.seg_rx:
            # Total silence: no segment ever arrived, so there is nothing
            # to aim a selective wave at -- re-flood the request instead.
            episode.metrics.retransmissions += 1
            episode.last_event_ms = now_ms
            origin = self.network.nodes[episode.spec.initiator_node]
            session = origin.sessions.get(episode.rid)
            if session is not None:
                session.last_seq = event.attempt
            self._schedule(
                0,
                BroadcastEvent(
                    event.episode, episode.spec.initiator_node,
                    reframe(episode.frame, ttl=episode.package.ttl, seq=event.attempt),
                ),
            )
        else:
            # Every heard reply is complete and no re-flood is warranted:
            # the budget rests.
            return
        if event.attempt < self.retries:
            self._schedule(
                self.reliability.wave_delay_ms(
                    event.attempt + 1, self.retransmit_timeout_ms
                ),
                RetransmitEvent(event.episode, attempt=event.attempt + 1),
            )

    def _on_topology_refresh(self, event: TopologyRefreshEvent) -> None:
        self.mobility.step(event.interval_ms / 1000)
        # Prefer the incremental path: a grid-backed model hands back only
        # the adjacency rows the motion actually changed, so a refresh in a
        # 10k-node city costs O(moved neighbourhoods), not an O(n²) rescan.
        delta = getattr(self.mobility, "topology_delta", None)
        if delta is not None:
            changed = delta(self.radio_radius)
            if changed:
                self.network.update_topology(changed)
        else:
            self.network.update_topology(
                self.mobility.snapshot_topology(self.radio_radius)
            )
        self.topology_refreshes += 1
        # Re-arm only while episode work is still in flight and the horizon
        # allows: the queue must drain once the last flood/reply settles.
        if (
            self._pending_episode_events > 0
            and self._queue.now_ms + event.interval_ms <= self._refresh_horizon_ms
        ):
            self._schedule_refresh_event(event.interval_ms, event)

    def _schedule_refreshes(self, first_start: int, until_ms: int | None) -> None:
        horizon = until_ms
        if horizon is None:
            horizon = max(ep.package.expiry_ms for ep in self._episodes)
        self._refresh_horizon_ms = horizon
        interval = self.refresh_interval_ms
        if first_start + interval <= horizon:
            self._schedule_refresh_event(interval, TopologyRefreshEvent(interval))

    # -- aggregation --------------------------------------------------------

    @staticmethod
    def _aggregate(
        episodes: list[EpisodeResult], first_start: int, end_ms: int,
        extra: NetworkMetrics | None = None,
    ) -> AggregateMetrics:
        total = NetworkMetrics()
        if extra is not None:
            # Run-level churn accounting (joins/leaves/crashes are not
            # owned by any single episode); all-zero in closed-world runs.
            total.merge(extra)
        for episode in episodes:
            total.merge(episode.metrics)
        return AggregateMetrics(
            episodes=len(episodes),
            matches=sum(len(ep.initiator.matches) for ep in episodes),
            sim_duration_ms=end_ms - first_start,
            total=total,
            latency_p50_ms=percentile(total.reply_latency_ms, 50),
            latency_p95_ms=percentile(total.reply_latency_ms, 95),
        )
