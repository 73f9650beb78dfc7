"""Discrete-event ad-hoc network simulator for friending episodes.

One episode: an initiator node broadcasts its request package; every node
that receives it for the first time processes it (candidate pipeline) and
re-broadcasts while the TTL and validity window allow; candidate replies
travel back to the initiator hop-by-hop along the reverse flooding path.
The simulator accounts every transmission at the byte level, which is what
the paper's communication evaluation (Table VII, Sec. IV-B2) reports.

The event logic itself lives in :mod:`repro.network.engine`, which can run
many overlapping episodes through one queue; :meth:`AdHocNetwork.run_friending`
is the single-episode convenience wrapper.
"""

from __future__ import annotations

import random
import sys
from collections import deque
from dataclasses import dataclass

from repro.core.protocols import Initiator, MatchRecord, Participant, Reply
from repro.network.channel_model import ChannelModel, PerfectChannel
from repro.network.metrics import NetworkMetrics
from repro.network.sessions import (
    DEFAULT_SESSION_LIMIT,
    SessionTable,
    check_session_config,
)

__all__ = [
    "AdHocNetwork",
    "FriendingResult",
    "Node",
    "RateLimiter",
    "REPLY_OVERHEAD_BYTES",
    "REPLY_ELEMENT_BYTES",
]

REPLY_OVERHEAD_BYTES = 12  # request id (8) + element count (2) + framing (2)
REPLY_ELEMENT_BYTES = 48


class RateLimiter:
    """Sliding-window per-peer rate limiter (the paper's DoS defence).

    Each node refuses to relay or answer more than *max_events* packets
    from the same immediate neighbour within *window_ms*.
    """

    def __init__(self, max_events: int = 5, window_ms: int = 10_000):
        self.max_events = max_events
        self.window_ms = window_ms
        self._history: dict[str, deque[int]] = {}

    def allow(self, peer: str, now_ms: int) -> bool:
        """Record an event from *peer*; False when the peer is over budget."""
        events = self._history.setdefault(peer, deque())
        cutoff = now_ms - self.window_ms
        while events and events[0] < cutoff:
            events.popleft()
        if len(events) >= self.max_events:
            return False
        events.append(now_ms)
        return True

    def prune(self, now_ms: int) -> int:
        """Drop per-peer histories that are empty or wholly outside the window.

        Under open-world churn a long-lived node meets an unbounded stream
        of transient peers; without pruning the per-peer dict keys (not the
        bounded deques) are the leak.  Returns the number of peers dropped.
        """
        cutoff = now_ms - self.window_ms
        stale = [peer for peer, events in self._history.items() if not events or events[-1] < cutoff]
        for peer in stale:
            del self._history[peer]
        return len(stale)


class Node:
    """One radio node: identity, links, and per-request session state.

    Session state is keyed by request id, so a node can take part in any
    number of overlapping episodes: the :class:`SessionTable` suppresses
    duplicate copies and records the reverse path (parent, hop count) each
    request flooded in on, bounded and TTL-evicted.  The limiter is
    *shared* across episodes -- it models the node's per-neighbour traffic
    budget, not per-request bookkeeping.

    A node starts with neither (both None): a TTL-bounded flood reaches a
    small part of a city, so :meth:`AdHocNetwork.node_state` creates the
    pair on first use, and a crash returns it to None.
    """

    __slots__ = ("node_id", "participant", "neighbours", "limiter", "sessions")

    def __init__(
        self, node_id: str, participant: Participant | None, neighbours: list[str]
    ):
        # Node ids are the hottest dict keys in the engine (node lookups,
        # limiter history, channel-fate link encoding): intern them once so
        # every later comparison is an identity hit on one shared string.
        self.node_id = sys.intern(node_id)
        self.participant = participant
        self.neighbours = [sys.intern(n) for n in neighbours]
        self.limiter: RateLimiter | None = None
        self.sessions: SessionTable | None = None


@dataclass
class FriendingResult:
    """Outcome of one simulated friending episode."""

    matches: list[MatchRecord]
    metrics: NetworkMetrics
    replies: list[Reply]
    completed_at_ms: int

    @property
    def matched_ids(self) -> list[str]:
        return [m.responder_id for m in self.matches]


class AdHocNetwork:
    """A static-snapshot MANET running the sealed-bottle protocols.

    All latency parameters are simulated milliseconds; nothing here reads
    the wall clock, so runs over this network are deterministic given
    seeded participant/initiator RNGs.  The node set is fixed at
    construction; :meth:`update_topology` rewires links (fully or
    partially) without touching per-request flood state, which is how the
    engine applies mid-run mobility refreshes.

    Parameters
    ----------
    adjacency:
        Node id → neighbour ids (from :mod:`repro.network.topology` or a
        mobility model snapshot).
    participants:
        Node id → :class:`~repro.core.protocols.Participant` (the initiator
        node may map to None; a None participant relays but never replies).
    hop_latency_ms / processing_latency_ms:
        Per-hop radio latency and per-node processing delay, in simulated
        milliseconds.
    channel:
        The :class:`~repro.network.channel_model.ChannelModel` every hop's
        frames pass through; defaults to a lossless
        :class:`~repro.network.channel_model.PerfectChannel`.
    session_limit / session_overflow:
        Per-node :class:`~repro.network.sessions.SessionTable` bound and
        overflow policy (``"evict_oldest"`` or ``"drop_new"``).
    """

    def __init__(
        self,
        adjacency: dict[str, list[str]],
        participants: dict[str, Participant | None],
        *,
        hop_latency_ms: int = 2,
        processing_latency_ms: int = 1,
        rate_limit: RateLimiter | None = None,
        rng: random.Random | None = None,
        channel: ChannelModel | None = None,
        session_limit: int = DEFAULT_SESSION_LIMIT,
        session_overflow: str = "evict_oldest",
    ):
        unknown = set(participants) - set(adjacency)
        if unknown:
            raise ValueError(f"participants reference unknown nodes: {sorted(unknown)}")
        check_session_config(session_limit, session_overflow)
        self.adjacency = adjacency
        self.hop_latency_ms = hop_latency_ms
        self.processing_latency_ms = processing_latency_ms
        self.rng = rng or random.Random()
        self.channel = channel if channel is not None else PerfectChannel()
        # Templates of the per-node state :meth:`node_state` creates.
        self._rate_limit_max = rate_limit.max_events if rate_limit else 50
        self._rate_limit_window = rate_limit.window_ms if rate_limit else 10_000
        self._session_limit = session_limit
        self._session_overflow = session_overflow
        self.nodes = {
            node: Node(node, participants.get(node), neigh)
            for node, neigh in adjacency.items()
        }

    def node_state(self, node: Node) -> SessionTable:
        """*node*'s session table, created with its rate limiter on first use.

        Nodes are built without either (see :class:`Node`); the engine
        calls this on a node's first frame and on an initiator's node
        when its episode is admitted, so a run builds state only for the
        nodes its floods reach.
        """
        sessions = node.sessions
        if sessions is None:
            sessions = node.sessions = SessionTable(
                self._session_limit, self._session_overflow
            )
            node.limiter = RateLimiter(self._rate_limit_max, self._rate_limit_window)
        return sessions

    def update_topology(self, adjacency: dict[str, list[str]]) -> None:
        """Swap neighbour lists mid-run (mobility refresh); state is kept.

        *adjacency* may be partial: only the listed nodes are rewired,
        which is what the grid-backed mobility models exploit by handing
        over just the rows that motion changed (``topology_delta``).  Only
        nodes present at construction are rewired; a refresh cannot add or
        remove nodes.
        """
        unknown = set(adjacency) - set(self.nodes)
        if unknown:
            raise ValueError(f"refresh references unknown nodes: {sorted(unknown)}")
        for node_id, neigh in adjacency.items():
            self.nodes[node_id].neighbours = [sys.intern(n) for n in neigh]
        self.adjacency.update({n: list(v) for n, v in adjacency.items()})

    def _link_both_ways(self, node_id: str, neighbours: list[str]) -> None:
        unknown = [n for n in neighbours if n not in self.nodes]
        if unknown:
            raise ValueError(f"neighbours reference unknown nodes: {sorted(unknown)}")
        node = self.nodes[node_id]
        node.neighbours = neighbours
        self.adjacency[node_id] = list(neighbours)
        for peer_id in neighbours:
            peer = self.nodes[peer_id]
            if node_id not in peer.neighbours:
                peer.neighbours.append(node_id)
                self.adjacency[peer_id] = list(peer.neighbours)

    def add_node(
        self,
        node_id: str,
        participant: Participant | None = None,
        neighbours: list[str] | tuple[str, ...] = (),
    ) -> Node:
        """Create a brand-new node mid-run and wire it symmetrically.

        The open-world churn plane uses this for arrivals; joiners are
        appended to each neighbour's list, which keeps broadcast receiver
        order deterministic given a deterministic arrival schedule.
        """
        node_id = sys.intern(node_id)
        if node_id in self.nodes:
            raise ValueError(f"node {node_id!r} already exists")
        node = Node(node_id, participant, [])
        self.nodes[node_id] = node
        self.adjacency[node_id] = []
        self._link_both_ways(node_id, [sys.intern(n) for n in neighbours])
        return node

    def attach_node(self, node_id: str, neighbours: list[str] | tuple[str, ...]) -> None:
        """Rewire an existing (previously detached) node back into the mesh."""
        if node_id not in self.nodes:
            raise ValueError(f"unknown node {node_id!r}")
        self._link_both_ways(sys.intern(node_id), [sys.intern(n) for n in neighbours])

    def detach_node(self, node_id: str) -> None:
        """Remove a node from the radio mesh without deleting its state.

        The Node object (sessions, limiter) survives so a sleeping node can
        wake with its flood state intact; a *crash* additionally calls
        :meth:`reset_node_state`.
        """
        node = self.nodes.get(node_id)
        if node is None:
            raise ValueError(f"unknown node {node_id!r}")
        for peer_id in node.neighbours:
            peer = self.nodes[peer_id]
            try:
                peer.neighbours.remove(node_id)
            except ValueError:
                pass
            self.adjacency[peer_id] = list(peer.neighbours)
        node.neighbours = []
        self.adjacency[node_id] = []

    def reset_node_state(self, node_id: str) -> None:
        """Lose a node's volatile state (crash semantics): sessions + limiter.

        The node goes back to having none; its next frame meets a fresh,
        empty table (:meth:`node_state`).
        """
        node = self.nodes.get(node_id)
        if node is None:
            raise ValueError(f"unknown node {node_id!r}")
        node.sessions = None
        node.limiter = None

    def forget_node(self, node_id: str) -> None:
        """Delete a departed node outright (permanent-leave semantics).

        :meth:`detach_node` keeps the Node object so a sleeper can wake
        with its state intact.  When the caller knows the departure is
        permanent, that shell (participant, session table, limiter
        history) is dead weight -- over hours of sim time under churn it
        is the dominant leak.  The node must already be detached.
        """
        node = self.nodes.get(node_id)
        if node is None:
            raise ValueError(f"unknown node {node_id!r}")
        if node.neighbours:
            raise ValueError(f"node {node_id!r} is still attached")
        del self.nodes[node_id]
        del self.adjacency[node_id]

    def prune_rate_limiters(self, now_ms: int) -> int:
        """Prune every node's per-peer limiter history (soak housekeeping).

        Nodes without state are skipped, and none is created.
        """
        return sum(
            node.limiter.prune(now_ms)
            for node in self.nodes.values() if node.limiter is not None
        )

    def evict_expired_sessions(self, now_ms: int) -> int:
        """Sweep expired sessions from every node (soak housekeeping).

        Eviction normally rides on ``open()``; a node that stops seeing
        fresh requests keeps its dead sessions indefinitely, which reads
        as a leak over hours of sim time.  The sweep uses the same
        expiry boundary as the on-access path, so it is semantically
        invisible.  Nodes without state are skipped, and none is created.
        """
        return sum(
            node.sessions.evict_expired(now_ms)
            for node in self.nodes.values() if node.sessions is not None
        )

    def run_friending(
        self,
        initiator_node: str,
        initiator: Initiator,
        *,
        start_ms: int = 0,
        deadline_ms: int | None = None,
        retries: int = 0,
        retransmit_timeout_ms: int | None = None,
        reliability: str = "simple",
    ) -> FriendingResult:
        """Run one full episode and return matches plus metrics.

        *retries* is the initiator's retransmission budget for an
        unanswered request (meaningful over a lossy ``channel``);
        *retransmit_timeout_ms* and *reliability* select the base wave
        timeout and the named reliability mode spending that budget
        (:mod:`repro.network.reliability`).
        """
        from repro.network.engine import (
            DEFAULT_RETRANSMIT_TIMEOUT_MS,
            EpisodeSpec,
            FriendingEngine,
        )

        engine = FriendingEngine(
            self,
            retries=retries,
            retransmit_timeout_ms=(
                DEFAULT_RETRANSMIT_TIMEOUT_MS
                if retransmit_timeout_ms is None
                else retransmit_timeout_ms
            ),
            reliability=reliability,
        )
        result = engine.run(
            [EpisodeSpec(initiator_node=initiator_node, initiator=initiator, start_ms=start_ms)],
            until_ms=deadline_ms,
        )
        episode = result.episodes[0]
        return FriendingResult(
            matches=list(initiator.matches),
            metrics=episode.metrics,
            replies=episode.replies,
            completed_at_ms=result.completed_at_ms,
        )
