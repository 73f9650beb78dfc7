"""Topology generator and spatial-index tests."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.network.mobility import RandomWaypoint
from repro.network.topology import (
    SpatialGrid,
    city_topology,
    complete_topology,
    grid_topology,
    line_topology,
    naive_adjacency,
    proximity_adjacency,
)


def _is_connected(adjacency):
    start = next(iter(adjacency))
    reached, frontier = {start}, [start]
    while frontier:
        for other in adjacency[frontier.pop()]:
            if other not in reached:
                reached.add(other)
                frontier.append(other)
    return len(reached) == len(adjacency)


class TestGrid:
    def test_shape(self):
        adjacency, _ = grid_topology(4, 3)
        assert len(adjacency) == 12

    def test_corner_has_two_neighbours(self):
        adjacency, _ = grid_topology(4, 3)
        assert len(adjacency["n0"]) == 2

    def test_interior_has_four_neighbours(self):
        adjacency, _ = grid_topology(3, 3)
        assert len(adjacency["n4"]) == 4

    def test_connected(self):
        adjacency, _ = grid_topology(5, 5)
        assert _is_connected(adjacency)


class TestLine:
    def test_endpoints(self):
        adjacency, _ = line_topology(5)
        assert adjacency["n0"] == ["n1"]
        assert adjacency["n4"] == ["n3"]

    def test_middle(self):
        adjacency, _ = line_topology(5)
        assert adjacency["n2"] == ["n1", "n3"]


class TestComplete:
    def test_everyone_connected(self):
        adjacency, _ = complete_topology(6)
        for node, neighbours in adjacency.items():
            assert len(neighbours) == 5
            assert node not in neighbours


class TestSpatialGrid:
    def test_insert_query_within_radius(self):
        grid = SpatialGrid(0.25)
        grid.insert("a", 0.5, 0.5)
        grid.insert("b", 0.6, 0.5)
        grid.insert("c", 0.9, 0.9)
        assert grid.neighbors_within("a") == ["b"]
        assert set(grid.query(0.55, 0.5)) == {"a", "b"}

    def test_duplicate_insert_rejected(self):
        grid = SpatialGrid(0.1)
        grid.insert("a", 0.5, 0.5)
        with pytest.raises(ValueError):
            grid.insert("a", 0.1, 0.1)

    def test_move_rebuckets_and_reports_cells(self):
        grid = SpatialGrid(0.1)
        grid.insert("a", 0.05, 0.05)
        old, new = grid.move("a", 0.95, 0.95)
        assert old != new
        assert grid.position("a") == (0.95, 0.95)
        assert grid.cell_of("a") == new

    def test_move_within_cell_keeps_bucket(self):
        grid = SpatialGrid(0.5)
        grid.insert("a", 0.1, 0.1)
        old, new = grid.move("a", 0.2, 0.2)
        assert old == new

    def test_nearest_is_exact(self):
        # "b" sits in a farther ring than "c" but is closer in distance --
        # the ring search must not stop at the first occupied ring.
        grid = SpatialGrid(0.1)
        grid.insert("far", 0.95, 0.95)
        grid.insert("b", 0.31, 0.005)
        grid.insert("c", 0.15, 0.25)
        node, dist = grid.nearest(0.05, 0.0)
        assert node == "b"
        assert dist == pytest.approx(math.hypot(0.31 - 0.05, 0.005))

    def test_nearest_empty_grid(self):
        assert SpatialGrid(0.1).nearest(0.5, 0.5) is None

    def test_zero_radius_connects_only_colocated(self):
        grid = SpatialGrid(0.0)
        grid.insert("a", 0.5, 0.5)
        grid.insert("b", 0.5, 0.5)
        grid.insert("c", 0.500001, 0.5)
        assert grid.neighbors_within("a") == ["b"]


class TestMoveMany:
    def _grid(self, n: int = 20) -> SpatialGrid:
        grid = SpatialGrid(0.1)
        rng = random.Random(3)
        for i in range(n):
            grid.insert(f"n{i}", rng.random(), rng.random())
        return grid

    def test_matches_single_moves(self):
        """Batch result and bucket state equal the single-move sequence."""
        rng = random.Random(5)
        moves = [(f"n{i}", rng.random(), rng.random()) for i in range(20)]
        single = self._grid()
        expected = [single.move(node, x, y) for node, x, y in moves]
        batched = self._grid()
        assert batched.move_many(moves) == expected
        for i in range(20):
            node = f"n{i}"
            assert batched.cell_of(node) == single.cell_of(node)
            assert batched.position(node) == single.position(node)
            assert batched.neighbors_within(node) == single.neighbors_within(node)

    def test_empty_batch(self):
        grid = self._grid()
        assert grid.move_many([]) == []

    def test_preserves_bucket_insertion_order(self):
        """Two nodes moved into one cell keep input order in the bucket."""
        grid = SpatialGrid(1.0)
        grid.insert("a", 0.1, 0.1)
        grid.insert("b", 2.5, 0.1)
        grid.insert("c", 4.5, 0.1)
        grid.move_many([("c", 6.5, 0.1), ("b", 6.6, 0.1)])
        cell = grid.cell_of("b")
        assert grid.cell_of("c") == cell
        assert list(grid._cells[cell]) == ["c", "b"]


class TestGridVsNaiveEquivalence:
    @given(
        points=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            ),
            min_size=2,
            max_size=40,
        ),
        radius=st.floats(min_value=0.0, max_value=1.5, allow_nan=False),
    )
    # Pairs at exactly distance r, along an axis and on a 3-4-5 diagonal.
    @example(points=[(0.25, 0.5), (0.5, 0.5), (0.5, 0.25), (0.0, 0.0)], radius=0.25)
    @example(points=[(0.0, 0.0), (0.375, 0.5), (0.75, 1.0), (0.375, 0.0)], radius=0.625)
    # Points on cell edges, including the unit square's far corner, and
    # pairs across a cell's (1, -1) and (-1, 1) diagonals.
    @example(points=[(x / 8, y / 8) for x in range(9) for y in range(0, 9, 4)],
             radius=0.125)
    @example(points=[(0.09, 0.11), (0.11, 0.09), (0.19, 0.21), (0.21, 0.19), (1.0, 1.0)],
             radius=0.1)
    # Co-located nodes, at radius 0 and below the floored 1e-3 cell size.
    @example(points=[(0.5, 0.5), (0.5, 0.5), (0.5, 0.5), (0.5001, 0.5), (0.0, 0.0)],
             radius=0.0)
    @example(points=[(0.5, 0.5), (0.5, 0.5), (0.5001, 0.5), (0.50005, 0.5005), (0.5002, 0.5)],
             radius=1e-4)
    @example(points=[(0.0, 0.0), (0.0, 0.0), (0.001, 0.0), (0.0009, 0.0009)], radius=1e-4)
    @settings(max_examples=200, deadline=None)
    def test_grid_equals_naive(self, points, radius):
        """Property: grid adjacency is list-for-list the all-pairs result."""
        positions = {f"n{i}": p for i, p in enumerate(points)}
        assert proximity_adjacency(positions, radius) == naive_adjacency(positions, radius)

    def test_equivalence_at_scale(self):
        _, positions = city_topology(800, 0.05, seed=3, connect=False)
        assert proximity_adjacency(positions, 0.05) == naive_adjacency(positions, 0.05)

    def test_incremental_refresh_equals_naive(self):
        """The move_many rebucket path keeps exact adjacency equality --
        including row order -- with the brute-force reference."""
        model = RandomWaypoint(
            [f"n{i}" for i in range(250)], seed=17,
            min_speed=0.02, max_speed=0.08,
        )
        for _ in range(6):
            model.step(0.4)
            snapshot = model.snapshot_topology(0.09)
            assert snapshot == naive_adjacency(model.positions(), 0.09)


class TestCityTopology:
    def test_connected_by_default(self):
        adjacency, _ = city_topology(300, 0.05, seed=4)
        assert _is_connected(adjacency)

    def test_symmetric_edges(self):
        adjacency, _ = city_topology(150, 0.08, seed=5)
        for node, neighbours in adjacency.items():
            for other in neighbours:
                assert node in adjacency[other]

    def test_positions_in_unit_square(self):
        _, positions = city_topology(50, 0.1, seed=6)
        for x, y in positions.values():
            assert 0.0 <= x <= 1.0
            assert 0.0 <= y <= 1.0

    def test_deterministic_with_seed(self):
        assert city_topology(120, 0.07, seed=9) == city_topology(120, 0.07, seed=9)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            city_topology(-1, 0.1)
        with pytest.raises(ValueError):
            city_topology(10, -0.1)
