"""Hexagonal grid geometry: axial coordinates, the six move directions,
bounded worlds with an inaccessible marginal ring, and occupancy.

Cells are addressed with axial (q, r) integer pairs. The board is a hexagon
of a given radius centered on the origin; cells whose distance from the
origin exceeds ``radius - margin`` are inaccessible, which keeps robots away
from the rim.

A world's geometry is fixed, so every step, neighbour list and distance to
the target is read from one per-world table, ``World.geometry``.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterator, NamedTuple, Optional


class HexCoord(NamedTuple):
    """Axial cell address. Equality and hashing are componentwise."""

    q: int
    r: int


class Direction(IntEnum):
    """The six axial neighbor offsets, in fixed index order 0..5."""

    E = 0
    NE = 1
    NW = 2
    W = 3
    SW = 4
    SE = 5


# Offset table indexed by Direction: (+1,0), (+1,-1), (0,-1), (-1,0), (-1,+1), (0,+1)
DIRECTION_OFFSETS: tuple[tuple[int, int], ...] = (
    (1, 0),
    (1, -1),
    (0, -1),
    (-1, 0),
    (-1, 1),
    (0, 1),
)

DIRECTIONS: tuple[Direction, ...] = tuple(Direction)


class WorldConfigError(ValueError):
    """Raised when world parameters are inconsistent; names the offending field."""

    def __init__(self, field_name: str, message: str):
        self.field = field_name
        super().__init__(f"{field_name}: {message}")


@dataclass
class Move:
    """A movement choice: direction plus speed in whole cells per tick."""

    direction: Direction
    speed: int


@dataclass
class Observation:
    """What a robot knows when it decides: its cell, best known target
    distance (own sensing or relayed), and, for the GA only, how many of the
    heard robots that moved went each way, indexed by Direction."""

    situation: HexCoord
    best_known_target_distance: Optional[int] = None
    heading_counts: tuple[int, ...] = (0,) * 6


def hex_distance(a: HexCoord, b: HexCoord) -> int:
    """Axial hex metric: (|dq| + |dr| + |dq+dr|) / 2."""
    dq = a.q - b.q
    dr = a.r - b.r
    return (abs(dq) + abs(dr) + abs(dq + dr)) // 2


def step(c: HexCoord, d: Direction) -> HexCoord:
    """The neighbor of c in direction d."""
    dq, dr = DIRECTION_OFFSETS[d]
    return HexCoord(c.q + dq, c.r + dr)


# Index of the target distance in a geometry row, after the six neighbours.
TARGET_DISTANCE = 6


class Geometry(dict):
    """A world's cell -> row table, filled on first lookup of each cell.

    The row is a 7-tuple: the six neighbours in Direction order, each None
    when ``world.accessible`` rejects it, then the cell's distance to the
    target. Rows are filled through ``world.accessible``, so a world that
    overrides it gets its own geometry. Every cell is kept as one shared
    HexCoord, so a row holds six references, not six new cells.
    """

    def __init__(self, world: "World"):
        super().__init__()
        # A proxy, not a reference: with no cycle, a dropped world and its
        # table are freed at once, not at the next cyclic collection.
        self.world = weakref.proxy(world)
        self.cells: dict[HexCoord, HexCoord] = {}

    def __missing__(self, c: HexCoord) -> tuple:
        accessible = self.world.accessible
        cells = self.cells
        q, r = c
        row = []
        for dq, dr in DIRECTION_OFFSETS:  # step(c, d) for each d, inlined
            n = HexCoord(q + dq, r + dr)
            row.append(cells.setdefault(n, n) if accessible(n) else None)
        row.append(hex_distance(c, self.world.target))
        row = self[cells.setdefault(c, c)] = tuple(row)
        return row


@dataclass
class World:
    """Hexagonal board of the given radius with an inaccessible marginal ring.

    Cells exist at hex distance <= radius from the origin; cells beyond
    radius - margin are inaccessible. Occupancy maps cell -> robot id and
    holds at most one robot per cell. Geometry is the cell -> row table,
    empty until the run looks a cell up; the target is fixed once it fills.
    """

    radius: int
    margin: int
    target: HexCoord
    entry: HexCoord
    occupancy: dict[HexCoord, int] = field(default_factory=dict)
    geometry: Geometry = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.geometry = Geometry(self)

    def accessible(self, c: HexCoord) -> bool:
        q, r = c  # max(|q|, |r|, |q + r|) is the hex distance from the origin
        return max(abs(q), abs(r), abs(q + r)) <= self.radius - self.margin

    def accessible_cell_count(self) -> int:
        k = self.radius - self.margin
        return 3 * k * (k + 1) + 1


def walk(w: World, start: HexCoord, direction: Direction, speed: int) -> tuple[HexCoord, int]:
    """Take unit steps until speed is spent or the next cell is inaccessible;
    returns the landing cell and the number of steps taken."""
    geometry = w.geometry
    cell = start
    for taken in range(speed):
        nxt = geometry[cell][direction]
        if nxt is None:
            return cell, taken
        cell = nxt
    return cell, speed


def accessible_cells(w: World) -> Iterator[HexCoord]:
    """All accessible cells, row-major in (q, r)."""
    k = w.radius - w.margin
    for q in range(-k, k + 1):
        for r in range(max(-k, -q - k), min(k, -q + k) + 1):
            yield HexCoord(q, r)


def accessible_neighbors(w: World, c: HexCoord) -> list[tuple[Direction, HexCoord]]:
    """The accessible subset of c's six neighbors, in ascending direction order."""
    # zip stops after the six neighbours, before the row's target distance
    return [(d, n) for d, n in zip(DIRECTIONS, w.geometry[c]) if n is not None]


def make_world(radius: int, margin: int, target: HexCoord, entry: HexCoord) -> World:
    """Build an empty world, validating bounds and the two special cells."""
    if radius < 1:
        raise WorldConfigError("radius", f"must be >= 1, got {radius}")
    if margin < 0:
        raise WorldConfigError("margin", f"must be >= 0, got {margin}")
    if margin >= radius:
        raise WorldConfigError("margin", f"must be < radius ({radius}), got {margin}")
    w = World(radius=radius, margin=margin, target=target, entry=entry)
    if not w.accessible(target):
        raise WorldConfigError("target", f"{tuple(target)} is not an accessible cell")
    if not w.accessible(entry):
        raise WorldConfigError("entry", f"{tuple(entry)} is not an accessible cell")
    if target == entry:
        raise WorldConfigError("entry", "entry must differ from target")
    return w
