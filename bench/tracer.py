"""Span tracer that times each layer of the program from outside.

The tracer never edits the program: it replaces a layer's public function
with a timing wrapper *at the name the caller looks up* -- a module global
in the importing module (``repro.network.engine.decode_frame``) or a
method on its class (``Participant.handle_request``) -- and puts the
original back on :meth:`Tracer.restore`.

Each call becomes a span: name, start, end, parent span and, when the
call's arguments carry one, the request id.  Spans live in flat arrays
(about 26 bytes each) and are written as JSONL only when the run ends.
A span's *self time* is its duration minus the durations of its direct
children, so the self times of all spans add up to the time the
top-level spans cover.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable

_MISSING = object()


def _rid_arg1(args, kwargs):
    """Request id of a ``(self_or_vector, package_or_reply, ...)`` call."""
    return args[1].request_id


def _rid_session_open(args, kwargs):
    return args[1]


def _rid_flow(args, kwargs):
    # Every channel flow id starts with the 8-byte request id.
    return kwargs["flow"][:8]


@dataclass(frozen=True)
class Boundary:
    """One layer entry point: where to patch and what to call the span."""

    module: str
    attr: str  # "name" (module global) or "Class.method"
    span: str
    rid: Callable | None = None
    count_only: bool = False


# The probes every repetition carries, traced or not: two protocol calls
# give the end-to-end per-call latencies (process_us_*, verify_us_*),
# create_request hands over each episode's initiator, and the engine entry
# points bound the engine's run window.  The entry points' self time is
# the calendar-queue drain, dispatch and bookkeeping.
PROBES = (
    Boundary("repro.core.protocols", "Participant.handle_request",
             "protocol.handle_request", _rid_arg1),
    Boundary("repro.core.protocols", "Initiator.handle_reply",
             "protocol.handle_reply", _rid_arg1),
    Boundary("repro.core.protocols", "Initiator.create_request",
             "protocol.create_request"),
    Boundary("repro.network.engine", "FriendingEngine.run", "engine"),
    Boundary("repro.network.engine", "FriendingEngine.begin", "engine"),
    Boundary("repro.network.engine", "FriendingEngine.step", "engine"),
    Boundary("repro.network.engine", "FriendingEngine.finish", "engine"),
)

LAYERS = PROBES + (
    # setup: placement + topology, population, network build, crowd
    Boundary("repro.network.mobility", "StaticPlacement.snapshot_topology",
             "topology.snapshot"),
    Boundary("repro.network.mobility", "RandomWaypoint.snapshot_topology",
             "topology.snapshot"),
    Boundary("repro.core.protocols", "Participant.__init__",
             "population.participant_init"),
    Boundary("repro.network.simulator", "AdHocNetwork.__init__", "network.build"),
    Boundary("repro.dataset.weibo", "WeiboGenerator.generate", "dataset.generate"),
    Boundary("repro.network.events", "EventQueue.schedule", "events.scheduled",
             count_only=True),
    # open-world churn
    Boundary("repro.network.churn", "ChurnRunner.drive", "churn.drive"),
    Boundary("repro.network.engine", "FriendingEngine.join_node", "churn.join"),
    Boundary("repro.network.engine", "FriendingEngine.leave_node", "churn.leave"),
    # candidate pipeline
    Boundary("repro.core.protocols", "process_request", "matching.process_request",
             _rid_arg1),
    Boundary("repro.core.matching", "is_candidate", "matching.is_candidate"),
    Boundary("repro.core.matching", "solve_candidate", "matching.solve_candidate"),
    Boundary("repro.core.matching", "profile_key", "matching.profile_key"),
    # crypto
    Boundary("repro.core.protocols", "unseal_many", "crypto.unseal_many"),
    Boundary("repro.crypto.backend", "TablesBackend.seal_many", "crypto.seal_many"),
    Boundary("repro.crypto.backend", "PureBackend.seal_many", "crypto.seal_many"),
    Boundary("repro.core.protocols", "open_reply_elements", "crypto.open_reply"),
    Boundary("repro.core.protocols", "pair_session_key", "crypto.session_key"),
    # frame codec (engine-side names)
    Boundary("repro.network.engine", "decode_frame", "wire.decode_frame"),
    Boundary("repro.network.engine", "reframe", "wire.reframe"),
    Boundary("repro.network.engine", "encode_request_frame", "wire.encode_request_frame"),
    Boundary("repro.network.engine", "encode_reply_frame", "wire.encode_reply_frame"),
    Boundary("repro.network.engine", "encode_segment_frame", "wire.encode_segment_frame"),
    Boundary("repro.network.engine", "decode_reply", "wire.decode_reply"),
    Boundary("repro.network.engine", "decode_reply_segment", "wire.decode_reply_segment"),
    Boundary("repro.core.request", "RequestPackage.decode", "wire.decode_request"),
    # channel, sessions, reliability
    Boundary("repro.network.channel_model", "ChannelModel.transmit_many",
             "channel.transmit_many", _rid_flow),
    Boundary("repro.network.channel_model", "ChannelModel.transmit",
             "channel.transmit", _rid_flow),
    Boundary("repro.network.sessions", "SessionTable.open", "sessions.open",
             _rid_session_open),
    Boundary("repro.network.engine", "fec_parity_elements", "reliability.fec_parity"),
    Boundary("repro.network.engine", "fec_reconstruct", "reliability.fec_reconstruct"),
)


def count_outcomes(counts: dict[str, int]) -> dict[str, Callable]:
    """Result hooks for the useful-outcome counts behind the layer ratios."""
    for key in ("protocol.candidates", "protocol.replies", "protocol.matches",
                "channel.links"):
        counts.setdefault(key, 0)

    def candidates(args, kwargs, outcome):
        if outcome.candidate:
            counts["protocol.candidates"] += 1

    def replies(args, kwargs, reply):
        if reply is not None:
            counts["protocol.replies"] += 1

    def matches(args, kwargs, record):
        if record is not None:
            counts["protocol.matches"] += 1

    def links(args, kwargs, fates):
        counts["channel.links"] += len(fates)

    return {
        "matching.process_request": candidates,
        "protocol.handle_request": replies,
        "protocol.handle_reply": matches,
        "channel.transmit_many": links,
    }


class Tracer:
    """Install timing wrappers on a set of boundaries; collect spans.

    Use as a context manager (or call :meth:`install` / :meth:`restore`);
    the originals are always put back, so one process can run traced and
    untraced repetitions in turn.
    """

    def __init__(self, boundaries=LAYERS):
        self.boundaries = tuple(boundaries)
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.rid = array("i")
        self.rids: dict[bytes, int] = {}
        self.counts: dict[str, int] = {}
        # span name -> callable(args, kwargs, result), run after each call;
        # set before install().
        self.hooks: dict[str, Callable] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    # -- patching ------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def install(self) -> None:
        for boundary in self.boundaries:
            owner = importlib.import_module(boundary.module)
            name = boundary.attr
            if "." in name:
                cls_name, name = name.split(".")
                owner = getattr(owner, cls_name)
            self._patch(owner, name, boundary)

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    def _patch(self, owner, name: str, boundary: Boundary) -> None:
        # On a class, save what its own dict holds (_MISSING for an
        # inherited method, which restore() then simply deletes).
        if isinstance(owner, type):
            original = vars(owner).get(name, _MISSING)
        else:
            original = getattr(owner, name)
        wrapped = self._wrap(getattr(owner, name), boundary)
        if isinstance(original, classmethod):
            # getattr gave the class-bound method; keep Class.method(data).
            wrapped = staticmethod(wrapped)
        self._saved.append((owner, name, original))
        setattr(owner, name, wrapped)

    def _wrap(self, fn: Callable, boundary: Boundary) -> Callable:
        counts = self.counts
        if boundary.count_only:
            counts.setdefault(boundary.span, 0)
            key = boundary.span

            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return counted

        nid = self._name_ids.get(boundary.span)
        if nid is None:
            nid = self._name_ids[boundary.span] = len(self.span_names)
            self.span_names.append(boundary.span)
        names, starts, ends, parents, rids = (
            self.name, self.start, self.end, self.parent, self.rid)
        stack = self._stack
        rid_of = boundary.rid
        rid_table = self.rids
        after = self.hooks.get(boundary.span)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            rid = -1 if rid_of is None else rid_table.setdefault(
                rid_of(args, kwargs), len(rid_table))
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            rids.append(rid)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- analysis ------------------------------------------------------------

    def _indices(self, span: str) -> list[int]:
        nid = self._name_ids.get(span)
        return [i for i, n in enumerate(self.name) if n == nid]

    def durations_ns(self, span: str, since_ns: int = 0) -> list[int]:
        """Inclusive duration of each span with this name started at or
        after *since_ns*, in call order."""
        starts, ends = self.start, self.end
        return [ends[i] - starts[i] for i in self._indices(span) if starts[i] >= since_ns]

    def window_ns(self, span: str) -> tuple[int, int]:
        """(first start, last end) over the spans with this name."""
        indices = self._indices(span)
        return (min(self.start[i] for i in indices), max(self.end[i] for i in indices))

    def summary(self, run_start_ns: int, skip_ns: tuple[int, int] | None = None
                ) -> dict[str, Any]:
        """Per-name self time, inclusive time and call count, plus coverage.

        ``setup_covered_s`` is the inclusive time of the top-level spans
        that started before *run_start_ns*; ``covered_s`` is the inclusive
        time of every top-level span (what the self times add up to).
        Spans that start inside *skip_ns* (an untimed warm-up) are left out.
        """
        n = len(self.start)
        starts, ends, parents, names = self.start, self.end, self.parent, self.name
        child_ns = [0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child_ns[p] += ends[i] - starts[i]
        k = len(self.span_names)
        self_ns = [0] * k
        incl_ns = [0] * k
        calls = [0] * k
        covered = 0
        setup_covered = 0
        skip_from, skip_to = skip_ns or (0, 0)
        for i in range(n):
            if skip_from <= starts[i] < skip_to:
                continue
            nid = names[i]
            duration = ends[i] - starts[i]
            p = parents[i]
            self_ns[nid] += duration - child_ns[i]
            calls[nid] += 1
            if p < 0:
                covered += duration
                if starts[i] < run_start_ns:
                    setup_covered += duration
            # A span nested in a same-name parent (finish -> step) is
            # already inside that parent's inclusive time.
            if p < 0 or names[p] != nid:
                incl_ns[nid] += duration
        return {
            "self_s": {s: self_ns[i] / 1e9 for i, s in enumerate(self.span_names)},
            "incl_s": {s: incl_ns[i] / 1e9 for i, s in enumerate(self.span_names)},
            "calls": {s: calls[i] for i, s in enumerate(self.span_names)},
            "counts": dict(self.counts),
            "spans": sum(calls),
            "covered_s": covered / 1e9,
            "setup_covered_s": setup_covered / 1e9,
        }

    def write_jsonl(self, path, origin_ns: int) -> None:
        """Write every span as one JSON object per line (times in µs)."""
        rid_hex = {idx: rid.hex() for rid, idx in self.rids.items()}
        names = self.span_names
        with open(path, "w", encoding="utf-8") as out:
            for i in range(len(self.start)):
                out.write(json.dumps({
                    "id": i,
                    "name": names[self.name[i]],
                    "start_us": (self.start[i] - origin_ns) / 1e3,
                    "end_us": (self.end[i] - origin_ns) / 1e3,
                    "parent": self.parent[i],
                    "rid": rid_hex.get(self.rid[i]),
                }, separators=(",", ":")))
                out.write("\n")
