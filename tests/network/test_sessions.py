"""SessionTable: TTL eviction, bounded size, overflow policies."""

from __future__ import annotations

import pytest

from repro.network.sessions import SessionTable


def _rid(i: int) -> bytes:
    return i.to_bytes(8, "big")


class TestBasics:
    def test_open_and_get(self):
        table = SessionTable()
        session = table.open(_rid(1), parent="n0", hops=2, expires_ms=100, now_ms=0)
        assert table.get(_rid(1)) is session
        assert session.parent == "n0" and session.hops == 2
        assert _rid(1) in table and len(table) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            SessionTable(max_sessions=0)
        with pytest.raises(ValueError, match="overflow"):
            SessionTable(overflow="lru")


class TestTtlEviction:
    def test_expired_sessions_purged_on_open(self):
        table = SessionTable()
        table.open(_rid(1), parent=None, hops=0, expires_ms=50, now_ms=0)
        table.open(_rid(2), parent=None, hops=0, expires_ms=500, now_ms=0)
        table.open(_rid(3), parent=None, hops=0, expires_ms=1000, now_ms=60)
        assert table.get(_rid(1)) is None
        assert table.get(_rid(2)) is not None
        assert table.evicted_expired == 1

    def test_explicit_evict_expired(self):
        table = SessionTable()
        for i in range(10):
            table.open(_rid(i), parent=None, hops=0, expires_ms=100 + 10 * i, now_ms=0)
        assert table.evict_expired(145) == 5
        assert len(table) == 5
        assert table.request_ids() == {_rid(i) for i in range(5, 10)}

    def test_eviction_is_deadline_not_insertion_order(self):
        table = SessionTable()
        table.open(_rid(1), parent=None, hops=0, expires_ms=900, now_ms=0)
        table.open(_rid(2), parent=None, hops=0, expires_ms=100, now_ms=0)
        table.evict_expired(500)
        assert table.get(_rid(1)) is not None
        assert table.get(_rid(2)) is None

    def test_session_on_its_deadline_is_still_live(self):
        """Boundary matches RequestPackage.is_expired (strict now > expiry):
        a frame arriving at exactly expiry_ms must still dedupe, not
        re-process."""
        table = SessionTable()
        table.open(_rid(1), parent=None, hops=0, expires_ms=100, now_ms=0)
        assert table.evict_expired(100) == 0
        assert table.get(_rid(1)) is not None
        assert table.evict_expired(101) == 1
        assert table.get(_rid(1)) is None


class TestOverflow:
    def test_evict_oldest_sacrifices_nearest_expiry(self):
        table = SessionTable(max_sessions=3)
        table.open(_rid(1), parent=None, hops=0, expires_ms=300, now_ms=0)
        table.open(_rid(2), parent=None, hops=0, expires_ms=100, now_ms=0)  # nearest death
        table.open(_rid(3), parent=None, hops=0, expires_ms=200, now_ms=0)
        admitted = table.open(_rid(4), parent=None, hops=0, expires_ms=400, now_ms=0)
        assert admitted is not None
        assert table.get(_rid(2)) is None
        assert len(table) == 3
        assert table.evicted_overflow == 1

    def test_drop_new_refuses_the_caller(self):
        table = SessionTable(max_sessions=2, overflow="drop_new")
        table.open(_rid(1), parent=None, hops=0, expires_ms=100, now_ms=0)
        table.open(_rid(2), parent=None, hops=0, expires_ms=100, now_ms=0)
        assert table.open(_rid(3), parent=None, hops=0, expires_ms=100, now_ms=0) is None
        assert table.rejected_overflow == 1
        assert len(table) == 2

    def test_expired_purge_makes_room_before_policy_applies(self):
        table = SessionTable(max_sessions=2, overflow="drop_new")
        table.open(_rid(1), parent=None, hops=0, expires_ms=10, now_ms=0)
        table.open(_rid(2), parent=None, hops=0, expires_ms=999, now_ms=0)
        # rid 1 is expired by now: the new session fits without rejection.
        assert table.open(_rid(3), parent=None, hops=0, expires_ms=999, now_ms=50) is not None
        assert table.rejected_overflow == 0

    def test_stale_heap_entries_skipped(self):
        """Overflow-evicted sessions leave heap entries that must be ignored."""
        table = SessionTable(max_sessions=2)
        table.open(_rid(1), parent=None, hops=0, expires_ms=100, now_ms=0)
        table.open(_rid(2), parent=None, hops=0, expires_ms=200, now_ms=0)
        table.open(_rid(3), parent=None, hops=0, expires_ms=300, now_ms=0)  # evicts rid1
        table.open(_rid(4), parent=None, hops=0, expires_ms=400, now_ms=0)  # evicts rid2
        assert table.request_ids() == {_rid(3), _rid(4)}
        assert table.evicted_overflow == 2

