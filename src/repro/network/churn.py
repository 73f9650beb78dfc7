"""Deterministic open-world churn: arrival, departure and sleep-wake plans.

The open-world plane (``FriendingEngine.begin/step/inject``) lets nodes
join, leave, crash and come back at any simulated time; this module
decides *when* and *to whom* that happens, and drives the engine through
it.  Two rules carry over from the channel planes:

1. **Counter-mode schedules.**  Every churn decision comes from a
   SHA-256 keystream keyed by ``(seed, spec)`` alone -- tick ``k``'s
   words are ``SHA256(prefix || k)``, a probability-``p`` decision fires
   when a 32-bit word falls below :func:`~repro.network.channel_backend.
   fate_threshold`\\ ``(p)``, exactly the ChannelModel v2 fate
   discipline.  No shared RNG stream threads through the run, so a
   churn-enabled run reproduces from ``(seed, spec)`` byte for byte
   (the schedule is computed outside the engine and applied at
   identical step boundaries).
2. **Deterministic application.**  Victims are drawn by indexing the
   *sorted* live population with a schedule word; joiners get ids
   ``j0, j1, ...`` (disjoint from the ``n{i}`` population), positions
   from schedule words, and neighbours from the positions of the live
   nodes within the radio radius.

The :class:`ChurnRunner` applies churn events, sleep-wake returns and
:mod:`~repro.network.faults` campaign actions between engine steps; see
``docs/robustness.md`` for the full determinism contract.
"""

from __future__ import annotations

import hashlib
import heapq
import struct
from dataclasses import dataclass, fields

from repro.network.channel_backend import fate_threshold

__all__ = [
    "ChurnEvent",
    "ChurnModel",
    "ChurnRunner",
    "ChurnSpec",
    "SCENARIO_CHURN_SLEEP_MS",
]

# Crashed nodes driven by a scenario-level churn rate wake after this
# much simulated time, their volatile state already lost (graceful leaves
# are permanent).  Fixed policy rather than a spec knob: the scenario
# fields stay the sweepable pair (rate, crash rate).
SCENARIO_CHURN_SLEEP_MS = 5_000

_TICK_PREFIX_TAG = b"repro.churn.v1:"
_U64 = struct.Struct(">Q")


@dataclass(frozen=True)
class ChurnSpec:
    """Rates and granularity of one churn plan (all per simulated second).

    ``tick_ms`` is the schedule granularity: each tick draws one
    keystream block and fires at most one join, one leave and one crash.
    Rates are therefore capped at one event per tick
    (``rate * tick_ms / 1000 <= 1``); raise the granularity for hotter
    churn.  ``sleep_ms > 0`` makes *crashes* temporary: a crashed node
    wakes that much simulated time later with its volatile state already
    lost.  Graceful leaves are permanent -- paired with arrivals they
    keep the population stationary in expectation, where waking every
    departure would grow it without bound.
    """

    join_rate_per_s: float = 0.0
    leave_rate_per_s: float = 0.0
    crash_rate_per_s: float = 0.0
    sleep_ms: int = 0
    tick_ms: int = 100

    def __post_init__(self):
        for name in ("join_rate_per_s", "leave_rate_per_s", "crash_rate_per_s"):
            rate = getattr(self, name)
            if not isinstance(rate, (int, float)) or rate < 0:
                raise ValueError(f"{name} must be a non-negative number, got {rate!r}")
        if not isinstance(self.tick_ms, int) or self.tick_ms < 1:
            raise ValueError(f"tick_ms must be a positive integer, got {self.tick_ms!r}")
        if not isinstance(self.sleep_ms, int) or self.sleep_ms < 0:
            raise ValueError(f"sleep_ms must be a non-negative integer, got {self.sleep_ms!r}")
        per_tick = self.tick_ms / 1000.0
        for name in ("join_rate_per_s", "leave_rate_per_s", "crash_rate_per_s"):
            if getattr(self, name) * per_tick > 1.0:
                raise ValueError(
                    f"{name} exceeds one event per tick at tick_ms={self.tick_ms}; "
                    "shrink tick_ms"
                )

    @property
    def active(self) -> bool:
        return bool(self.join_rate_per_s or self.leave_rate_per_s or self.crash_rate_per_s)


@dataclass(frozen=True, slots=True)
class ChurnEvent:
    """One scheduled churn decision.

    ``kind`` is ``"join"`` / ``"leave"`` / ``"crash"``; ``draw`` selects
    the victim (modulo the live population at apply time) and ``x`` /
    ``y`` place a joiner.  Sleep-wake returns are derived by the runner
    (the victim is only known at apply time), not scheduled here.
    """

    time_ms: int
    kind: str
    draw: int
    x: float = 0.0
    y: float = 0.0


class ChurnModel:
    """Counter-mode churn schedule: a pure function of ``(seed, spec)``.

    Tick ``k`` (fire time ``k * tick_ms``) hashes
    ``SHA256(tag || seed || spec-digest || k)`` into eight 32-bit words:
    words 0-2 gate join/leave/crash against their per-tick thresholds,
    words 3-4 place a joiner in the unit square, words 5-6 are the
    leave/crash victim draws.  The schedule for any window is therefore
    reproducible and prefix-stable (extending the horizon never changes
    earlier events).
    """

    def __init__(self, spec: ChurnSpec, seed: int):
        self.spec = spec
        self.seed = seed
        blob = repr(tuple(
            (f.name, getattr(spec, f.name)) for f in fields(spec)
        )).encode("ascii")
        self._prefix = (
            _TICK_PREFIX_TAG
            + struct.pack(">q", seed)
            + hashlib.sha256(blob).digest()[:16]
        )
        per_tick = spec.tick_ms / 1000.0
        self._join_t = fate_threshold(spec.join_rate_per_s * per_tick)
        self._leave_t = fate_threshold(spec.leave_rate_per_s * per_tick)
        self._crash_t = fate_threshold(spec.crash_rate_per_s * per_tick)

    def events(self, start_ms: int, until_ms: int) -> list[ChurnEvent]:
        """Churn events with ``start_ms <= time < until_ms``, time-ordered."""
        spec = self.spec
        if until_ms <= start_ms or not spec.active:
            return []
        tick = spec.tick_ms
        prefix = self._prefix
        join_t, leave_t, crash_t = self._join_t, self._leave_t, self._crash_t
        out: list[ChurnEvent] = []
        first = -(-start_ms // tick)  # ceil division
        for k in range(first, -(-until_ms // tick)):
            time_ms = k * tick
            if time_ms >= until_ms:
                break
            words = struct.unpack(
                ">8I", hashlib.sha256(prefix + _U64.pack(k)).digest()
            )
            if join_t and words[0] < join_t:
                out.append(ChurnEvent(
                    time_ms, "join", words[3],
                    x=words[3] / 2**32, y=words[4] / 2**32,
                ))
            if leave_t and words[1] < leave_t:
                out.append(ChurnEvent(time_ms, "leave", words[5]))
            if crash_t and words[2] < crash_t:
                out.append(ChurnEvent(time_ms, "crash", words[6]))
        return out


class ChurnRunner:
    """Drive an open-world engine through churn, wakes and fault actions.

    The runner owns the *application* side of determinism: it steps the
    engine to each action boundary (so a run executes exactly the same
    events before the same action), resolves victims against its sorted
    live set, computes join neighbourhoods from positions, and books
    sleep-wake returns.

    Parameters
    ----------
    engine:
        An engine already in open-world mode (``begin()`` called).
    model:
        The :class:`ChurnModel` naming the schedule.
    positions:
        node id -> (x, y) of the initial population; the runner keeps it
        current for joiners and uses it for neighbourhood computation.
        Departed nodes keep their position (they wake where they slept).
    radio_radius:
        Unit-disk radius for join/wake neighbourhoods.
    participant_factory:
        ``(node_id, joiner_index) -> Participant | None`` for brand-new
        joiners; wakers keep their original participant.
    faults:
        Compiled fault actions ``(time_ms, FaultAction)`` (see
        :func:`repro.network.faults.compile_campaign`).
    """

    def __init__(
        self,
        engine,
        model: ChurnModel,
        *,
        positions: dict[str, tuple[float, float]],
        radio_radius: float,
        participant_factory=None,
        faults: list[tuple[int, object]] | tuple = (),
    ):
        self.engine = engine
        self.model = model
        self.positions = dict(positions)
        self.radio_radius = radio_radius
        self.participant_factory = participant_factory
        self.faults = list(faults)
        self.live: set[str] = set(self.positions)
        self.joined = 0
        self.events_applied = 0
        self._agenda: list[tuple[int, int, str, object]] = []
        self._agenda_seq = 0
        # Drive window, exposed so fault actions can pin horizon fractions
        # (e.g. blackout wake times) to absolute simulated milliseconds.
        self._fault_start = 0
        self._fault_horizon = 0

    # -- agenda plumbing -----------------------------------------------------

    def _book(self, time_ms: int, kind: str, payload) -> None:
        heapq.heappush(self._agenda, (time_ms, self._agenda_seq, kind, payload))
        self._agenda_seq += 1

    def _neighbours_of(self, node_id: str) -> list[str]:
        """Live nodes within the radio radius of *node_id*'s position."""
        x, y = self.positions[node_id]
        radius_sq = self.radio_radius * self.radio_radius
        live = self.live
        out = []
        for other, (ox, oy) in self.positions.items():
            if other == node_id or other not in live:
                continue
            dx = ox - x
            dy = oy - y
            if dx * dx + dy * dy <= radius_sq:
                out.append(other)
        return out

    # -- applying one action -------------------------------------------------

    def _apply_churn(self, event: ChurnEvent) -> None:
        engine = self.engine
        if event.kind == "join":
            node_id = f"j{self.joined}"
            self.joined += 1
            self.positions[node_id] = (event.x, event.y)
            self.live.add(node_id)
            participant = (
                self.participant_factory(node_id, self.joined - 1)
                if self.participant_factory is not None
                else None
            )
            engine.join_node(node_id, participant, self._neighbours_of(node_id))
        else:
            candidates = sorted(self.live)
            if not candidates:
                return
            victim = candidates[event.draw % len(candidates)]
            self.live.discard(victim)
            if event.kind == "crash":
                engine.crash_node(victim)
                if self.model.spec.sleep_ms > 0:
                    self._book(event.time_ms + self.model.spec.sleep_ms, "wake", victim)
            else:
                engine.leave_node(victim)
                # Graceful leaves are permanent -- the runner books no
                # wake -- so the departed node's state is unreachable.
                # Free it, or an hours-long soak leaks one Node (and its
                # session table) per leave.
                engine.forget_node(victim)
                self.positions.pop(victim, None)
        self.events_applied += 1

    def _apply_wake(self, node_id: str) -> None:
        if node_id in self.live:  # pragma: no cover -- victims leave the live set
            return
        self.live.add(node_id)
        self.engine.join_node(node_id, None, self._neighbours_of(node_id))
        self.events_applied += 1

    def _apply_fault(self, action) -> None:
        from repro.network.faults import apply_fault_action

        apply_fault_action(self, action)
        self.events_applied += 1

    # -- the drive loop ------------------------------------------------------

    def drive(self, start_ms: int, horizon_ms: int, *,
              step_ms: int | None = None, on_step=None) -> None:
        """Step the engine to *horizon_ms*, applying every action on the way.

        Actions (churn events, fault actions, booked wakes) execute at
        their exact boundary: the engine first steps to the action time,
        then the action applies.  *step_ms* adds regular boundaries with
        no action of their own; *on_step(runner, now_ms)* runs at each of
        them -- the soak harness's injection/assertion hook.  The caller
        finishes the run (``engine.finish()``) when done.
        """
        self._fault_start = start_ms
        self._fault_horizon = horizon_ms
        for event in self.model.events(start_ms, horizon_ms):
            self._book(event.time_ms, "churn", event)
        for time_ms, action in self.faults:
            self._book(time_ms, "fault", action)
        if step_ms is not None:
            for tick_ms in range(start_ms + step_ms, horizon_ms, step_ms):
                self._book(tick_ms, "tick", None)

        agenda = self._agenda
        engine = self.engine
        while agenda and agenda[0][0] <= horizon_ms:
            now_ms = agenda[0][0]
            engine.step(now_ms)
            while agenda and agenda[0][0] == now_ms:
                _, _, kind, payload = heapq.heappop(agenda)
                if kind == "churn":
                    self._apply_churn(payload)
                elif kind == "wake":
                    self._apply_wake(payload)
                elif kind == "fault":
                    self._apply_fault(payload)
                else:  # "tick"
                    if on_step is not None:
                        on_step(self, now_ms)
        engine.step(horizon_ms)
