"""Network topology generators and the uniform-grid spatial index.

All generators return ``(adjacency, positions)`` where *adjacency* maps a
node id to its neighbour ids and *positions* maps it to 2-D coordinates in
the unit square (used by location-aware experiments).  Coordinates are
unitless fractions of the deployment area's side length; radio range is
expressed in the same unit.

:func:`city_topology` is the random unit-disk graph at every scale:
seeded position sampling plus a :class:`SpatialGrid` adjacency build,
O(n · k) for average degree k instead of O(n²), with stray components
stitched to the giant one so floods reach everyone.  (The experiment
runner derives its topologies from the mobility models' grid-backed
snapshots instead, which are *not* stitched: a mid-run refresh would
undo artificial links, so the runner reports fragmentation rather than
hiding it.)

:func:`naive_adjacency` is the brute-force reference implementation that
benchmarks and property tests compare the grid against.
"""

from __future__ import annotations

import math
import random
from collections import deque
from collections.abc import Iterable, Mapping, Sequence

__all__ = [
    "SpatialGrid",
    "naive_adjacency",
    "proximity_adjacency",
    "city_topology",
    "grid_topology",
    "line_topology",
    "complete_topology",
]

Adjacency = dict[str, list[str]]
Positions = dict[str, tuple[float, float]]


# Half of a cell's eight touching neighbours: a cell's pairs with the
# other half are tested when the sweep reaches that neighbour.
_FORWARD = ((1, -1), (1, 0), (1, 1), (0, 1))


def _node_id(i: int) -> str:
    return f"n{i}"


class SpatialGrid:
    """Uniform-grid spatial index with cell size equal to the radio range.

    Nodes live in hash buckets keyed by integer cell ``(x // r, y // r)``.
    Any node within *radius* of a query point is guaranteed to lie in the
    3×3 cell block around the query's cell, so range queries touch a
    constant number of buckets instead of the whole world, and moving a
    node re-buckets only that node (:meth:`move` is O(1) when the cell is
    unchanged, which is the common case for small mobility steps).

    Determinism: buckets are insertion-ordered dicts, so iteration order —
    and therefore every query result — depends only on the sequence of
    ``insert``/``move`` calls, never on hash randomisation.

    A non-positive *radius* degrades gracefully: only exactly co-located
    nodes are "within range", matching the brute-force definition
    ``dist <= radius``.
    """

    __slots__ = ("radius", "_cell_size", "_cells", "_where", "_pos")

    def __init__(self, radius: float):
        self.radius = radius
        # The 3×3 guarantee only needs cell_size >= radius, so tiny and
        # zero radii get a floored bucket size: cell coordinates stay
        # finite and ring searches stay bounded, while the <= radius
        # distance check still does the real filtering.
        self._cell_size = max(radius, 1e-3)
        self._cells: dict[tuple[int, int], dict[str, None]] = {}
        self._where: dict[str, tuple[int, int]] = {}
        self._pos: dict[str, tuple[float, float]] = {}

    def _cell_of(self, x: float, y: float) -> tuple[int, int]:
        return (int(math.floor(x / self._cell_size)), int(math.floor(y / self._cell_size)))

    def __len__(self) -> int:
        return len(self._where)

    def __contains__(self, node: str) -> bool:
        return node in self._where

    def position(self, node: str) -> tuple[float, float]:
        """The stored coordinates of *node*."""
        return self._pos[node]

    def cell_of(self, node: str) -> tuple[int, int]:
        """The grid cell *node* is currently bucketed in."""
        return self._where[node]

    def insert(self, node: str, x: float, y: float) -> None:
        """Add *node* at ``(x, y)``; a node id can be inserted once."""
        if node in self._where:
            raise ValueError(f"node {node!r} already in the grid (use move)")
        cell = self._cell_of(x, y)
        self._cells.setdefault(cell, {})[node] = None
        self._where[node] = cell
        self._pos[node] = (x, y)

    def move(self, node: str, x: float, y: float) -> tuple[tuple[int, int], tuple[int, int]]:
        """Update *node*'s position, re-bucketing only if its cell changed.

        Returns ``(old_cell, new_cell)`` so callers can compute the set of
        neighbourhoods an incremental refresh must re-examine.
        """
        old = self._where[node]
        self._pos[node] = (x, y)
        new = self._cell_of(x, y)
        if new != old:
            bucket = self._cells[old]
            del bucket[node]
            if not bucket:
                del self._cells[old]
            self._cells.setdefault(new, {})[node] = None
            self._where[node] = new
        return old, new

    def move_many(
        self, moves: Sequence[tuple[str, float, float]]
    ) -> list[tuple[tuple[int, int], tuple[int, int]]]:
        """Batch :meth:`move`: one ``(old_cell, new_cell)`` per input move.

        Nodes are re-bucketed **in input order**, so bucket insertion
        order — and therefore every later query — is exactly what the
        equivalent sequence of single :meth:`move` calls produces.
        """
        return [self.move(node, x, y) for node, x, y in moves]

    def _block(self, cell: tuple[int, int]) -> Iterable[str]:
        """All nodes bucketed in the 3×3 block around *cell*."""
        cx, cy = cell
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                bucket = self._cells.get((cx + dx, cy + dy))
                if bucket:
                    yield from bucket

    def block_occupants(self, cell: tuple[int, int]) -> set[str]:
        """The 3×3 block contents as a set (incremental-refresh helper)."""
        return set(self._block(cell))

    def query(self, x: float, y: float) -> list[str]:
        """Every node within *radius* of the point ``(x, y)``."""
        out = []
        r = self.radius
        for other in self._block(self._cell_of(x, y)):
            ox, oy = self._pos[other]
            if math.hypot(ox - x, oy - y) <= r:
                out.append(other)
        return out

    def neighbors_within(self, node: str) -> list[str]:
        """Every *other* node within *radius* of *node*'s stored position."""
        x, y = self._pos[node]
        out = []
        r = self.radius
        for other in self._block(self._where[node]):
            if other == node:
                continue
            ox, oy = self._pos[other]
            if math.hypot(ox - x, oy - y) <= r:
                out.append(other)
        return out

    def nearest(self, x: float, y: float) -> tuple[str, float] | None:
        """The exact nearest node to ``(x, y)`` via expanding ring search.

        Scans cell rings outward from the query cell and keeps going one
        extra margin after the first hit, because a node in a farther ring
        can still be closer than one found early.  Returns
        ``(node, distance)`` or ``None`` for an empty grid.
        """
        if not self._where:
            return None
        cx, cy = self._cell_of(x, y)
        best: tuple[str, float] | None = None
        ring = 0
        # Bound the search by the occupied extent so empty space far from
        # every node cannot loop forever.
        occupied = self._cells.keys()
        max_ring = max(
            max(abs(ox - cx), abs(oy - cy)) for ox, oy in occupied
        )
        while ring <= max_ring:
            for ox, oy in self._ring_cells(cx, cy, ring):
                bucket = self._cells.get((ox, oy))
                if not bucket:
                    continue
                for node in bucket:
                    nx_, ny_ = self._pos[node]
                    d = math.hypot(nx_ - x, ny_ - y)
                    if best is None or d < best[1]:
                        best = (node, d)
            if best is not None and ring * self._cell_size > best[1]:
                break  # nothing in a farther ring can beat the current best
            ring += 1
        return best

    @staticmethod
    def _ring_cells(cx: int, cy: int, ring: int) -> Iterable[tuple[int, int]]:
        if ring == 0:
            yield (cx, cy)
            return
        for dx in range(-ring, ring + 1):
            yield (cx + dx, cy - ring)
            yield (cx + dx, cy + ring)
        for dy in range(-ring + 1, ring):
            yield (cx - ring, cy + dy)
            yield (cx + ring, cy + dy)

    def adjacency(self) -> Adjacency:
        """Unit-disk adjacency of every stored node, rows in insertion order.

        One sweep over the occupied cells tests each cell against itself
        and its four forward neighbours (:data:`_FORWARD`), which between
        them cover every unordered pair of touching cells once.  So each
        pair's distance is tested once and a hit lands in both rows; the
        rows are then sorted by insertion order, which makes the result
        independent of the sweep order.
        """
        pos = self._pos
        r = self.radius
        hypot = math.hypot
        rows: Adjacency = {node: [] for node in self._where}
        packed = {
            cell: [(node, *pos[node], rows[node]) for node in bucket]
            for cell, bucket in self._cells.items()
        }
        for (cx, cy), here in packed.items():
            for i, (a, ax, ay, row_a) in enumerate(here):
                for b, bx, by, row_b in here[i + 1:]:
                    if hypot(ax - bx, ay - by) <= r:
                        row_a.append(b)
                        row_b.append(a)
            for dx, dy in _FORWARD:
                there = packed.get((cx + dx, cy + dy))
                if there:
                    for a, ax, ay, row_a in here:
                        for b, bx, by, row_b in there:
                            if hypot(ax - bx, ay - by) <= r:
                                row_a.append(b)
                                row_b.append(a)
        order = {node: i for i, node in enumerate(rows)}
        for row in rows.values():
            row.sort(key=order.__getitem__)
        return rows


def naive_adjacency(positions: Mapping[str, tuple[float, float]], radius: float) -> Adjacency:
    """Brute-force all-pairs unit-disk adjacency (the O(n²) reference).

    Kept as the ground truth the :class:`SpatialGrid` is benchmarked and
    property-tested against; production paths must not call it for large
    populations.  Neighbour lists come out in node-insertion order.
    """
    nodes = list(positions)
    adjacency: Adjacency = {node: [] for node in nodes}
    for i, a in enumerate(nodes):
        ax, ay = positions[a]
        for b in nodes[i + 1:]:
            bx, by = positions[b]
            if math.hypot(ax - bx, ay - by) <= radius:
                adjacency[a].append(b)
                adjacency[b].append(a)
    return adjacency


def proximity_adjacency(
    positions: Mapping[str, tuple[float, float]], radius: float
) -> Adjacency:
    """Grid-indexed unit-disk adjacency; equals :func:`naive_adjacency`.

    Builds a throwaway :class:`SpatialGrid` over *positions* and reads the
    adjacency back with neighbour lists in node-insertion order, so the
    result is list-for-list identical to the brute-force reference while
    costing O(n · k) instead of O(n²).
    """
    grid = SpatialGrid(radius)
    for node, (x, y) in positions.items():
        grid.insert(node, x, y)
    return grid.adjacency()


def _connect_components(
    adjacency: Adjacency, positions: Mapping[str, tuple[float, float]], radius: float
) -> None:
    """Stitch every smaller component to the giant one, in place.

    Matches the historical behaviour (the closest node pair between each
    component and the growing main component gains an edge) but finds that
    pair with a :class:`SpatialGrid` expanding-ring nearest-node search
    over the main component instead of an all-pairs scan.
    """
    components = _components(adjacency)
    if len(components) <= 1:
        return
    # Stable size sort: equal-sized components keep BFS discovery order,
    # matching the historical all-pairs implementation choice for choice.
    components.sort(key=len, reverse=True)
    main = components[0]
    main_grid = SpatialGrid(radius)
    for node in sorted(main):
        main_grid.insert(node, *positions[node])
    for component in components[1:]:
        best: tuple[float, str, str] | None = None
        for a in sorted(component):
            found = main_grid.nearest(*positions[a])
            assert found is not None
            b, d = found
            if best is None or d < best[0]:
                best = (d, a, b)
        assert best is not None
        _, a, b = best
        adjacency[a].append(b)
        adjacency[b].append(a)
        for node in sorted(component):
            main_grid.insert(node, *positions[node])


def _components(adjacency: Adjacency) -> list[set[str]]:
    """Connected components by BFS (deterministic order)."""
    seen: set[str] = set()
    components: list[set[str]] = []
    for start in adjacency:
        if start in seen:
            continue
        component = {start}
        frontier = deque([start])
        while frontier:
            node = frontier.popleft()
            for other in adjacency[node]:
                if other not in component:
                    component.add(other)
                    frontier.append(other)
        seen |= component
        components.append(component)
    return components


def city_topology(
    n: int,
    radius: float,
    *,
    seed: int | None = None,
    connect: bool = True,
) -> tuple[Adjacency, Positions]:
    """City-scale unit-disk topology built entirely on the spatial grid.

    Samples *n* positions uniformly in the unit square with
    ``random.Random(seed)`` (deterministic for a given seed) and derives
    adjacency through a :class:`SpatialGrid`, so construction is O(n · k)
    for average degree k — practical for 10k+ node populations where the
    all-pairs scan is not.  With ``connect=True``, isolated components are
    stitched to the giant component through their closest node pair, so
    floods can reach everyone (a disconnected MANET would trivially zero
    every metric); the closest pair is found with a grid nearest-node
    search rather than an all-pairs scan.

    Note the expected degree is ``n · π · radius²``: keep *radius* near
    ``sqrt(target_degree / (π n))`` or dense cities become cliques.
    """
    if n < 0:
        raise ValueError("need a non-negative node count")
    if radius < 0:
        raise ValueError("radio radius must be non-negative")
    rng = random.Random(seed)
    positions: Positions = {
        _node_id(i): (rng.random(), rng.random()) for i in range(n)
    }
    adjacency = proximity_adjacency(positions, radius)
    if connect and n > 1:
        _connect_components(adjacency, positions, radius)
    return adjacency, positions


def grid_topology(width: int, height: int) -> tuple[Adjacency, Positions]:
    """4-connected grid of width × height nodes."""
    adjacency: Adjacency = {}
    positions: Positions = {}
    for y in range(height):
        for x in range(width):
            node = _node_id(y * width + x)
            neighbours = []
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                nx_, ny_ = x + dx, y + dy
                if 0 <= nx_ < width and 0 <= ny_ < height:
                    neighbours.append(_node_id(ny_ * width + nx_))
            adjacency[node] = neighbours
            positions[node] = (float(x), float(y))
    return adjacency, positions


def line_topology(n: int) -> tuple[Adjacency, Positions]:
    """A chain -- the worst case for multi-hop relay depth."""
    adjacency = {}
    positions = {}
    for i in range(n):
        neighbours = []
        if i > 0:
            neighbours.append(_node_id(i - 1))
        if i < n - 1:
            neighbours.append(_node_id(i + 1))
        adjacency[_node_id(i)] = neighbours
        positions[_node_id(i)] = (float(i), 0.0)
    return adjacency, positions


def complete_topology(n: int, *, seed: int | None = None) -> tuple[Adjacency, Positions]:
    """Everyone in radio range of everyone (single-hop proximity scenario)."""
    rng = random.Random(seed)
    ids = [_node_id(i) for i in range(n)]
    adjacency = {node: [other for other in ids if other != node] for node in ids}
    positions = {node: (rng.random(), rng.random()) for node in ids}
    return adjacency, positions
