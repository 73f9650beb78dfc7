"""Per-node session state for the datagram engine: bounded, TTL-evicting.

A **session** is everything one node remembers about one request id: the
reverse-path parent it first heard the request from, the hop count, the
request's validity deadline, and the highest retransmission wave it has
already forwarded.  In the pre-datagram engine this state lived in three
parallel unbounded dicts (``seen`` / ``parent`` / ``hops``); at
million-user scale unbounded per-request state is a memory leak with a
protocol attached, so the :class:`SessionTable` bounds it explicitly:

- **TTL eviction**: sessions whose request validity window has passed are
  purged lazily (amortised via an expiry min-heap) whenever a new session
  is opened.
- **Bounded size** with a declared overflow policy.  ``evict_oldest``
  (default) drops the session closest to expiry to admit the new one --
  the dropped request is near death anyway; ``drop_new`` refuses the new
  session, modelling a node that sheds load under state pressure.

Everything here is deterministic (no randomness, no wall clock), so
bounded tables preserve the engine's reproducibility guarantees.  Note
that overflow behaviour *is* cross-episode coupling: a sharded run
(``run_parallel``) gives each worker its own node copies, so sequential
and sharded results stay byte-identical only while no table overflows --
size the limit for the concurrency you simulate (the default admits
thousands of in-flight requests per node).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

__all__ = [
    "Session", "SessionTable", "OVERFLOW_POLICIES", "DEFAULT_SESSION_LIMIT",
    "check_session_config",
]

OVERFLOW_POLICIES = ("evict_oldest", "drop_new")
DEFAULT_SESSION_LIMIT = 4096


@dataclass(slots=True)
class Session:
    """One node's routing state for one request id."""

    request_id: bytes
    parent: str | None
    hops: int
    expires_ms: int
    last_seq: int = 0


def check_session_config(max_sessions: int, overflow: str) -> None:
    """Raise ``ValueError`` unless a table could be built with these settings.

    Lets a network that creates its tables on first use reject a bad
    configuration when it is built, not mid-run.
    """
    if max_sessions < 1:
        raise ValueError("max_sessions must be >= 1")
    if overflow not in OVERFLOW_POLICIES:
        raise ValueError(
            f"unknown overflow policy {overflow!r}; choose from {OVERFLOW_POLICIES}"
        )


class SessionTable:
    """Bounded request-id → :class:`Session` map with TTL eviction.

    Key-interning contract: callers are expected to pass one *canonical*
    bytes object per request id (the engine guarantees this -- request
    ids come off the bytes-keyed package memo, so every node's lookups
    for one flood share a single bytes object whose hash is computed
    once and cached).  The table works with arbitrary equal bytes, but
    the hot path is identity-fast only under that contract.
    """

    __slots__ = ("max_sessions", "overflow", "_sessions", "_expiry_heap",
                 "evicted_expired", "evicted_overflow", "rejected_overflow",
                 "lookup")

    def __init__(
        self,
        max_sessions: int = DEFAULT_SESSION_LIMIT,
        overflow: str = "evict_oldest",
    ):
        check_session_config(max_sessions, overflow)
        self.max_sessions = max_sessions
        self.overflow = overflow
        self._sessions: dict[bytes, Session] = {}
        self._expiry_heap: list[tuple[int, bytes]] = []
        self.evicted_expired = 0
        self.evicted_overflow = 0
        self.rejected_overflow = 0
        # Bound dict-get, exposed as the documented fast path: the engine
        # performs one session lookup per delivered flood copy, and the
        # wrapper frame of :meth:`get` is measurable at that rate.
        self.lookup = self._sessions.get

    def get(self, request_id: bytes) -> Session | None:
        """The live session for *request_id*, or None (see also ``lookup``)."""
        return self._sessions.get(request_id)

    def open(
        self,
        request_id: bytes,
        *,
        parent: str | None,
        hops: int,
        expires_ms: int,
        now_ms: int,
    ) -> Session | None:
        """Admit a new session; returns None when the table refuses it.

        Expired sessions are purged first; if the table is still full the
        overflow policy decides: ``evict_oldest`` sacrifices the session
        closest to expiry, ``drop_new`` rejects the caller's.
        """
        self.evict_expired(now_ms)
        if len(self._sessions) >= self.max_sessions:
            if self.overflow == "drop_new":
                self.rejected_overflow += 1
                return None
            self._evict_one()
        session = Session(
            request_id=request_id, parent=parent, hops=hops, expires_ms=expires_ms
        )
        self._sessions[request_id] = session
        heapq.heappush(self._expiry_heap, (expires_ms, request_id))
        return session

    def evict_expired(self, now_ms: int) -> int:
        """Drop every session whose validity deadline has passed.

        The boundary matches ``RequestPackage.is_expired`` (strictly
        ``now > expiry``): a session expiring *at* ``now_ms`` is still
        live, exactly like the request it tracks -- so a frame arriving
        on the deadline still dedupes against it instead of being
        re-processed.
        """
        evicted = 0
        heap = self._expiry_heap
        while heap and heap[0][0] < now_ms:
            expires_ms, request_id = heapq.heappop(heap)
            session = self._sessions.get(request_id)
            if session is not None and session.expires_ms == expires_ms:
                del self._sessions[request_id]
                evicted += 1
        self.evicted_expired += evicted
        return evicted

    def _evict_one(self) -> None:
        """Sacrifice the live session closest to expiry (heap order)."""
        heap = self._expiry_heap
        while heap:
            expires_ms, request_id = heapq.heappop(heap)
            session = self._sessions.get(request_id)
            if session is not None and session.expires_ms == expires_ms:
                del self._sessions[request_id]
                self.evicted_overflow += 1
                return
        raise RuntimeError("session table full but expiry heap empty")  # pragma: no cover

    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, request_id: bytes) -> bool:
        return request_id in self._sessions

    def request_ids(self) -> set[bytes]:
        """The live request ids (test/introspection helper)."""
        return set(self._sessions)
