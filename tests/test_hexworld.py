"""Hex geometry tests: the axial metric against a BFS oracle, the offset
table, accessibility, world construction, and the per-world geometry table
against its step-by-step definition."""

import random
import tracemalloc
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexswarm.ga import SPEEDS, feasible_moves
from hexswarm.hexworld import (
    DIRECTION_OFFSETS,
    DIRECTIONS,
    TARGET_DISTANCE,
    Direction,
    HexCoord,
    World,
    WorldConfigError,
    accessible_cells,
    accessible_neighbors,
    hex_distance,
    make_world,
    step,
    walk,
)


def bfs_distance(a: HexCoord, b: HexCoord) -> int:
    """Shortest path length over the 6-offset adjacency, independent of the
    closed-form metric."""
    if a == b:
        return 0
    seen = {a}
    frontier = deque([(a, 0)])
    while frontier:
        cell, dist = frontier.popleft()
        for dq, dr in DIRECTION_OFFSETS:
            nxt = HexCoord(cell.q + dq, cell.r + dr)
            if nxt == b:
                return dist + 1
            if nxt not in seen:
                seen.add(nxt)
                frontier.append((nxt, dist + 1))
    raise AssertionError("unreachable on an unbounded grid")


class TestHexDistance:
    def test_identity(self):
        assert hex_distance(HexCoord(0, 0), HexCoord(0, 0)) == 0

    def test_adjacent(self):
        assert hex_distance(HexCoord(0, 0), HexCoord(1, 0)) == 1

    def test_two_step_case_matches_bfs(self):
        a, b = HexCoord(0, 0), HexCoord(2, -1)
        assert bfs_distance(a, b) == 2
        assert hex_distance(a, b) == 2

    def test_matches_bfs_within_radius_four(self):
        cells = [
            HexCoord(q, r)
            for q in range(-4, 5)
            for r in range(max(-4, -q - 4), min(4, -q + 4) + 1)
        ]
        for a in cells:
            for b in cells:
                assert hex_distance(a, b) == bfs_distance(a, b)

    def test_symmetry_and_triangle(self):
        rng = random.Random(11)
        for _ in range(300):
            a = HexCoord(rng.randint(-20, 20), rng.randint(-20, 20))
            b = HexCoord(rng.randint(-20, 20), rng.randint(-20, 20))
            c = HexCoord(rng.randint(-20, 20), rng.randint(-20, 20))
            assert hex_distance(a, b) == hex_distance(b, a)
            assert hex_distance(a, c) <= hex_distance(a, b) + hex_distance(b, c)


class TestStep:
    def test_offset_table_entries(self):
        assert step(HexCoord(0, 0), Direction(0)) == HexCoord(1, 0)
        assert step(HexCoord(0, 0), Direction(3)) == HexCoord(-1, 0)

    def test_componentwise_add(self):
        assert step(HexCoord(2, -1), Direction(5)) == HexCoord(2, 0)
        assert bfs_distance(HexCoord(2, -1), HexCoord(2, 0)) == 1

    def test_six_distinct_neighbors_at_distance_one(self):
        rng = random.Random(3)
        for _ in range(50):
            c = HexCoord(rng.randint(-30, 30), rng.randint(-30, 30))
            neighbors = [step(c, d) for d in DIRECTIONS]
            assert len(set(neighbors)) == 6
            for n in neighbors:
                assert hex_distance(c, n) == 1


class TestAccessibleNeighbors:
    def test_interior_cell_has_six(self):
        w = make_world(10, 1, HexCoord(5, 0), HexCoord(-5, 0))
        assert len(accessible_neighbors(w, HexCoord(0, 0))) == 6

    def test_boundary_cell_has_fewer(self):
        w = make_world(10, 1, HexCoord(5, 0), HexCoord(-5, 0))
        edge = HexCoord(w.radius - w.margin, 0)
        entries = accessible_neighbors(w, edge)
        assert 0 < len(entries) < 6
        # oracle: filter the six offsets by the accessibility predicate
        expected = [
            (d, step(edge, d)) for d in DIRECTIONS if w.accessible(step(edge, d))
        ]
        assert entries == expected

    def test_degenerate_single_cell_world(self):
        # margin == radius is rejected by make_world, but the accessibility
        # predicate itself supports it: only the origin remains.
        w = World(radius=1, margin=1, target=HexCoord(0, 0), entry=HexCoord(0, 0))
        assert accessible_neighbors(w, HexCoord(0, 0)) == []

    def test_sorted_by_direction_and_duplicate_free(self):
        w = make_world(6, 1, HexCoord(3, 0), HexCoord(-3, 0))
        rng = random.Random(7)
        for _ in range(100):
            c = HexCoord(rng.randint(-5, 5), rng.randint(-5, 5))
            if not w.accessible(c):
                continue
            entries = accessible_neighbors(w, c)
            dirs = [d for d, _ in entries]
            assert dirs == sorted(dirs)
            assert len(set(n for _, n in entries)) == len(entries)


class TestMakeWorld:
    def test_radius_15_margin_1_has_631_accessible_cells(self):
        w = make_world(15, 1, HexCoord(10, 0), HexCoord(-10, 0))
        assert w.accessible_cell_count() == 631
        assert sum(1 for _ in accessible_cells(w)) == 631

    def test_radius_1_margin_0_is_seven_cells(self):
        w = make_world(1, 0, HexCoord(1, 0), HexCoord(0, 1))
        assert w.accessible_cell_count() == 7
        assert sum(1 for _ in accessible_cells(w)) == 7

    def test_margin_equal_radius_rejected(self):
        with pytest.raises(WorldConfigError, match="margin"):
            make_world(5, 5, HexCoord(0, 0), HexCoord(1, 0))

    def test_inaccessible_target_rejected(self):
        with pytest.raises(WorldConfigError, match="target"):
            make_world(5, 1, HexCoord(5, 0), HexCoord(0, 0))

    def test_entry_must_differ_from_target(self):
        with pytest.raises(WorldConfigError, match="entry"):
            make_world(5, 1, HexCoord(1, 0), HexCoord(1, 0))

    def test_new_world_is_empty(self):
        w = make_world(5, 1, HexCoord(2, 0), HexCoord(-2, 0))
        assert w.occupancy == {}


# The geometry table against its definition: each lookup re-derived from
# step, World.accessible and hex_distance.


def row_by_step(w, c):
    neighbours = tuple(step(c, d) if w.accessible(step(c, d)) else None for d in DIRECTIONS)
    return neighbours + (hex_distance(c, w.target),)


def walk_by_step(w, start, direction, speed):
    cell = start
    for taken in range(speed):
        nxt = step(cell, direction)
        if not w.accessible(nxt):
            return cell, taken
        cell = nxt
    return cell, speed


def neighbors_by_step(w, c):
    return [(d, step(c, d)) for d in DIRECTIONS if w.accessible(step(c, d))]


def feasible_by_walk(w, c):
    return [(d, s) for d in DIRECTIONS for s in SPEEDS if s == 0 or walk_by_step(w, c, d, s)[1] == s]


class HoledWorld(World):
    """A world that overrides accessible: the board minus a set of holes."""

    def __init__(self, radius, margin, target, holes):
        super().__init__(radius=radius, margin=margin, target=target, entry=target)
        self.holes = holes

    def accessible(self, c):
        return super().accessible(c) and c not in self.holes


def disc(radius):
    return [
        HexCoord(q, r)
        for q in range(-radius, radius + 1)
        for r in range(max(-radius, -q - radius), min(radius, -q + radius) + 1)
    ]


@st.composite
def worlds(draw):
    radius = draw(st.integers(1, 7))
    margin = draw(st.integers(0, radius - 1))
    target = draw(st.sampled_from(disc(radius - margin)))
    if not draw(st.booleans()):
        return World(radius=radius, margin=margin, target=target, entry=target)
    holes = draw(st.sets(st.sampled_from(disc(radius)), max_size=3 * radius * (radius + 1)))
    return HoledWorld(radius, margin, target, holes)


@st.composite
def worlds_and_cells(draw):
    """A world and every cell within two of its rim, on the board and off
    it, in a drawn order: the table fills in whatever order it is read."""
    w = draw(worlds())
    return w, draw(st.permutations(disc(w.radius + 2)))


class TestGeometryTable:
    @settings(max_examples=100, deadline=None, database=None)
    @given(worlds_and_cells())
    def test_every_row_matches_step_and_accessible(self, case):
        w, cells = case
        for c in cells:
            assert w.geometry[c] == row_by_step(w, c), c
            assert w.geometry[c][TARGET_DISTANCE] == hex_distance(c, w.target)

    @settings(max_examples=100, deadline=None, database=None)
    @given(worlds_and_cells())
    def test_rows_share_one_cell_object_per_cell(self, case):
        w, cells = case
        for c in cells:
            for n in w.geometry[c][:TARGET_DISTANCE]:
                assert n is None or w.geometry.cells[n] is n

    @settings(max_examples=100, deadline=None, database=None)
    @given(worlds_and_cells())
    def test_walk_neighbors_and_feasible_moves_match_their_references(self, case):
        w, cells = case
        for c in cells:
            assert accessible_neighbors(w, c) == neighbors_by_step(w, c), c
            assert feasible_moves(w, c) == feasible_by_walk(w, c), c
            for d in DIRECTIONS:
                for speed in range(4):
                    assert walk(w, c, d, speed) == walk_by_step(w, c, d, speed), (c, d, speed)

    def test_a_new_world_has_an_empty_table(self):
        w = make_world(30, 1, HexCoord(20, 0), HexCoord(-20, 0))
        assert len(w.geometry) == 0 and len(w.geometry.cells) == 0

    def test_full_dense_table_stays_under_400_bytes_a_cell(self):
        # The dense benchmark board. One shared HexCoord per cell and rows of
        # plain references measure about 240-260 B a cell; a new HexCoord
        # per row entry measures about 650-750 B.
        w = make_world(30, 1, HexCoord(20, 0), HexCoord(-20, 0))
        coords = [tuple(c) for c in accessible_cells(w)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for q, r in coords:  # fresh cells, so keys count towards the table
                w.geometry[HexCoord(q, r)]
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(w.geometry) == len(coords) == w.accessible_cell_count()
        assert held / len(coords) < 400
