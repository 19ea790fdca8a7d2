"""Ant-colony movement: a nonnegative per-cell pheromone field built from
closeness-scaled deposits with multiplicative evaporation, and a
probabilistic direction rule over accessible neighbors.

Pheromone stands in for transmitted data: a robot whose sensed target
distance is d deposits Q / (1 + d) at its reported cell, so robots closer
to the target write stronger trails. The engine deposits only sensed
distances: robots that do not sense the target leave no trail.

The rule has one way in, a run's ``TransitionTable``: ``table[cell,
known]`` gives the cell's row, and ``table.probs`` the probabilities over
its accessible directions given a replica's levels. In still air, with no
trail on any neighbouring cell, a move is one draw and one bisect over the
cell's cached cumulative probabilities.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

from .hexworld import DIRECTIONS, TARGET_DISTANCE, Direction, HexCoord, Move, Observation, World

PRUNE_LEVEL = 1e-9


@dataclass
class AcoParams:
    evaporation: float = 0.1  # rho, per-tick decay fraction
    deposit_scale: float = 1.0  # Q
    alpha: float = 1.0  # pheromone exponent
    beta: float = 2.0  # heuristic exponent
    floor: float = 0.01  # tau0, keeps every direction explorable


@dataclass
class PheromoneField:
    """Sparse nonnegative trail intensities; absent cells hold 0."""

    params: AcoParams = field(default_factory=AcoParams)
    levels: dict[HexCoord, float] = field(default_factory=dict)

    def level(self, cell: HexCoord) -> float:
        return self.levels.get(cell, 0.0)

    def total(self) -> float:
        return sum(self.levels.values())

    def deposit(self, w: World, cell: HexCoord, known_target_distance: int) -> "PheromoneField":
        """Add Q / (1 + d) at cell."""
        if not w.accessible(cell):
            raise ValueError(f"deposit on inaccessible cell {tuple(cell)}")
        amount = self.params.deposit_scale / (1 + known_target_distance)
        self.levels[cell] = self.levels.get(cell, 0.0) + amount
        return self

    def evaporate(self) -> "PheromoneField":
        """Multiply every level by (1 - rho), rho the params' evaporation;
        near-zero entries are dropped."""
        if not self.levels:
            return self
        keep = 1.0 - self.params.evaporation
        self.levels = {
            c: lv * keep for c, lv in self.levels.items() if lv * keep >= PRUNE_LEVEL
        }
        return self


class TransitionTable(dict):
    """A run's (cell, knows a target distance) -> (the cell's geometry row,
    accessible directions, each neighbour's eta^beta, cumulative
    probabilities in still air) table of the transition rule, filled on
    first lookup like ``hexworld.Geometry``. Equal rules are kept once."""

    def __init__(self, world: World, params: AcoParams):
        super().__init__()
        self.geometry, self.target, self.params = world.geometry, world.target, params
        self.rules: dict[tuple, tuple] = {}

    def __missing__(self, key: tuple[HexCoord, bool]) -> tuple:
        (c, known), geometry = key, self.geometry
        row = geometry[c]
        # Each part is built as a list: tuple(list), unlike tuple(generator), is
        # sized exactly, so CPython reuses the tuples of a rule dropped as a copy.
        dirs = tuple([d for d in DIRECTIONS if row[d] is not None])
        etas = [1.0 / (1 + geometry[row[d]][TARGET_DISTANCE]) if known else 1.0 for d in dirs]
        eta_betas = tuple([eta**self.params.beta for eta in etas])
        rule = (dirs, eta_betas, tuple([*accumulate(self.probs({}, row, dirs, eta_betas))]))
        return self.setdefault(key, (row, *self.rules.setdefault(rule, rule)))

    def probs(self, levels: dict, row: tuple, dirs: tuple, eta_betas: tuple) -> list[float]:
        """The rule's probabilities over dirs given a replica's levels: weights
        (tau + tau0)^alpha * eta^beta normalized, or uniform if all underflow."""
        floor, alpha = self.params.floor, self.params.alpha
        taus = [levels.get(row[d], 0.0) + floor for d in dirs]
        weights = [tau**alpha * eta_beta for tau, eta_beta in zip(taus, eta_betas)]
        total = sum(weights)
        if total <= 0.0:
            return [1.0 / len(weights) for _ in weights]
        return [wt / total for wt in weights]


def decide_move_aco(
    obs: Observation, pher: PheromoneField, table: TransitionTable, rng: random.Random
) -> Move:
    """Sample a direction from the run's transition rule at speed 1, by one
    draw and one bisect; stay when on the target or boxed in."""
    row, dirs, eta_betas, cum = table[obs.situation, obs.best_known_target_distance is not None]
    if obs.situation == table.target or not dirs:
        return Move(Direction.E, 0)
    levels = pher.levels
    if levels and any(row[d] in levels for d in dirs):
        cum = list(accumulate(table.probs(levels, row, dirs, eta_betas)))
    # a draw past the sum (fp round-off at u ~ 1) takes the last direction adding to it
    i = bisect_right(cum, rng.random())
    return Move(dirs[i if i < len(cum) else bisect_left(cum, cum[-1])], 1)
