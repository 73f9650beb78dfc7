"""Mobility models for the MANET simulator, with grid-indexed snapshots.

The paper's vicinity search treats location as a *dynamic* attribute that
updates as users move (Sec. III-D).  :class:`RandomWaypoint` moves nodes
through the unit square with the classic random-waypoint pattern (pick a
destination, walk at a random speed, pause, repeat); :class:`StaticPlacement`
pins them where they spawned.  Both can re-derive the unit-disk radio
topology at any instant.

Topology snapshots are served from a :class:`~repro.network.topology.SpatialGrid`
(cell size = radio range): the first snapshot buckets everyone, and every
later snapshot re-buckets **only the nodes that moved** and recomputes
neighbour lists only inside the 3×3 cell blocks those moves disturbed.
:meth:`~RandomWaypoint.topology_delta` exposes just the changed rows so a
mid-run refresh (``AdHocNetwork.update_topology``) never rescans the world.

Units: coordinates are fractions of the unit square, speeds are unit-square
widths per second, and all ``dt_s``/pause arguments are simulated seconds.
Every model is deterministic for a given ``seed``: identical call sequences
(steps and snapshots, in order) produce identical positions and adjacency,
independent of hash randomisation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.network.topology import SpatialGrid

__all__ = ["RandomWaypoint", "StaticPlacement", "WaypointState"]


@dataclass
class WaypointState:
    """Per-node mobility state (coordinates in the unit square)."""

    x: float
    y: float
    dest_x: float
    dest_y: float
    speed: float  # unit-square widths per second
    pause_remaining: float = 0.0  # simulated seconds left at this waypoint


class _GridTopologyMixin:
    """Shared grid-backed snapshot machinery for mobility models.

    Subclasses provide ``positions()`` and maintain ``self._moved`` — the
    ids whose coordinates changed since the last snapshot.  The mixin owns
    the spatial grid, the cached adjacency (lists sorted in node order, so
    grid output is list-for-list identical to the brute-force reference)
    and the change tracking behind :meth:`topology_delta`.
    """

    _grid: SpatialGrid | None = None
    _grid_radius: float | None = None
    _adjacency: dict[str, list[str]] | None = None
    _order: dict[str, int] | None = None

    def _init_topology_cache(self) -> None:
        self._moved: set[str] = set()
        self._grid = None
        self._grid_radius = None
        self._adjacency = None
        self._order = None

    def _refresh_topology(self, radius: float) -> set[str]:
        """Bring the cached adjacency up to date; return the changed node ids."""
        positions = self.positions()
        if (
            self._grid is None
            or self._grid_radius != radius
            or self._order is None
            or len(self._grid) != len(positions)
        ):
            # Full (re)build: new model, new radius, or first snapshot.
            grid = SpatialGrid(radius)
            order: dict[str, int] = {}
            for i, (node, (x, y)) in enumerate(positions.items()):
                grid.insert(node, x, y)
                order[node] = i
            self._grid = grid
            self._grid_radius = radius
            self._order = order
            self._adjacency = grid.adjacency()
            self._moved.clear()
            return set(self._adjacency)

        if not self._moved:
            return set()

        grid = self._grid
        adjacency = self._adjacency
        assert adjacency is not None
        # Re-bucket only the moved nodes, remembering which cell
        # neighbourhoods the moves disturbed (both ends of each move).
        # Node order is the original insertion order so bucket contents
        # stay deterministic.
        moves = [
            (node, *positions[node])
            for node in sorted(self._moved, key=self._order.__getitem__)
        ]
        disturbed_cells: set[tuple[int, int]] = set()
        for old_cell, new_cell in grid.move_many(moves):
            disturbed_cells.add(old_cell)
            disturbed_cells.add(new_cell)
        # Any node whose neighbour list can have changed lives in a 3×3
        # block around a disturbed cell (it could have gained or lost a
        # moved node as a neighbour); everyone else keeps their row.
        affected: set[str] = set()
        for cell in disturbed_cells:
            affected |= grid.block_occupants(cell)
        affected |= self._moved
        sort_key = self._order.__getitem__
        changed: set[str] = set()
        for node in affected:
            row = grid.neighbors_within(node)
            row.sort(key=sort_key)
            if row != adjacency[node]:
                adjacency[node] = row
                changed.add(node)
        self._moved.clear()
        return changed

    def snapshot_topology(self, radius: float) -> dict[str, list[str]]:
        """Full unit-disk adjacency at the current instant.

        *radius* is the radio range in unit-square widths.  Equal —
        including neighbour-list order — to the all-pairs reference
        ``repro.network.topology.naive_adjacency(self.positions(), radius)``,
        but computed incrementally from the spatial grid.
        """
        self._refresh_topology(radius)
        assert self._adjacency is not None
        return {node: list(row) for node, row in self._adjacency.items()}

    def topology_delta(self, radius: float) -> dict[str, list[str]]:
        """Only the adjacency rows that changed since the previous snapshot.

        The first refresh on a cold cache (no snapshot taken yet, or a new
        *radius*) returns the full adjacency; after a ``snapshot_topology``
        with no intervening motion it is empty, which is exactly right for
        an engine that built its network from that snapshot.  Feeding the
        result to ``AdHocNetwork.update_topology``
        keeps a mid-run refresh O(moved-neighbourhood) instead of O(n²);
        an empty dict means the topology is unchanged.
        """
        changed = self._refresh_topology(radius)
        assert self._adjacency is not None
        return {node: list(self._adjacency[node]) for node in sorted(changed)}


class RandomWaypoint(_GridTopologyMixin):
    """Random-waypoint mobility over the unit square.

    Parameters
    ----------
    node_ids:
        Nodes to move.
    min_speed / max_speed:
        Uniform speed range (unit-square widths per simulated second); min
        must be positive to avoid the well-known speed-decay pathology.
    pause_s:
        Pause duration at each waypoint, in simulated seconds.
    seed:
        Seeds spawn points, waypoints and speeds; runs with equal seeds and
        equal ``step`` sequences are bit-identical.
    """

    def __init__(
        self,
        node_ids: list[str],
        *,
        min_speed: float = 0.01,
        max_speed: float = 0.05,
        pause_s: float = 2.0,
        seed: int | None = None,
    ):
        if not 0 < min_speed <= max_speed:
            raise ValueError("need 0 < min_speed <= max_speed")
        self.min_speed = min_speed
        self.max_speed = max_speed
        self.pause_s = pause_s
        self.rng = random.Random(seed)
        self._states: dict[str, WaypointState] = {}
        self._init_topology_cache()
        for node in node_ids:
            x, y = self.rng.random(), self.rng.random()
            self._states[node] = WaypointState(
                x=x, y=y, dest_x=x, dest_y=y, speed=0.0, pause_remaining=0.0
            )
            self._pick_waypoint(self._states[node])

    def _pick_waypoint(self, state: WaypointState) -> None:
        state.dest_x = self.rng.random()
        state.dest_y = self.rng.random()
        state.speed = self.rng.uniform(self.min_speed, self.max_speed)

    def positions(self) -> dict[str, tuple[float, float]]:
        """Current coordinates of every node (unit-square fractions)."""
        return {node: (s.x, s.y) for node, s in self._states.items()}

    def step(self, dt_s: float) -> None:
        """Advance the model by *dt_s* simulated seconds."""
        if dt_s < 0:
            raise ValueError("time must move forward")
        for node, state in self._states.items():
            before = (state.x, state.y)
            remaining = dt_s
            while remaining > 1e-12:
                if state.pause_remaining > 0:
                    pause = min(state.pause_remaining, remaining)
                    state.pause_remaining -= pause
                    remaining -= pause
                    continue
                dx = state.dest_x - state.x
                dy = state.dest_y - state.y
                distance = math.hypot(dx, dy)
                if distance < 1e-12:
                    state.pause_remaining = self.pause_s
                    self._pick_waypoint(state)
                    continue
                reach_time = distance / state.speed
                travel = min(reach_time, remaining)
                fraction = travel * state.speed / distance
                state.x += dx * fraction
                state.y += dy * fraction
                remaining -= travel
                if travel == reach_time:
                    state.x, state.y = state.dest_x, state.dest_y
            if (state.x, state.y) != before:
                self._moved.add(node)


class StaticPlacement(_GridTopologyMixin):
    """Nodes spawned uniformly in the unit square that never move.

    The degenerate mobility model for experiments isolating protocol and
    load effects from motion.  Exposes the same interface as
    :class:`RandomWaypoint` (``positions`` / ``step`` / ``snapshot_topology``
    / ``topology_delta``); ``step`` only advances time, and every
    ``topology_delta`` after the first is empty.  Deterministic for a
    given *seed*.
    """

    def __init__(self, node_ids: list[str], *, seed: int | None = None):
        rng = random.Random(seed)
        self._positions = {
            node: (rng.random(), rng.random()) for node in node_ids
        }
        self._init_topology_cache()

    def positions(self) -> dict[str, tuple[float, float]]:
        """Fixed coordinates of every node (unit-square fractions)."""
        return dict(self._positions)

    def step(self, dt_s: float) -> None:
        """Advance time; placement is static so nothing moves."""
        if dt_s < 0:
            raise ValueError("time must move forward")
