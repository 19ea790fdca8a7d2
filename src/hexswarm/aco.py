"""Ant-colony movement: a nonnegative per-cell pheromone field built from
closeness-scaled deposits with multiplicative evaporation, and a
probabilistic direction rule over accessible neighbors.

Pheromone stands in for transmitted data: a robot whose sensed target
distance is d deposits Q / (1 + d) at its reported cell, so robots closer
to the target write stronger trails. The engine deposits only sensed
distances: robots that do not sense the target leave no trail.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .hexworld import (
    TARGET_DISTANCE,
    Direction,
    HexCoord,
    Move,
    Observation,
    World,
    accessible_neighbors,
)

PRUNE_LEVEL = 1e-9


class DeadEndError(Exception):
    """No accessible neighbor to move to; the engine turns this into a stay."""


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
        keep = 1.0 - self.params.evaporation
        self.levels = {
            c: lv * keep for c, lv in self.levels.items() if lv * keep >= PRUNE_LEVEL
        }
        return self


def transition_probs(
    c: HexCoord,
    pher: PheromoneField,
    obs: Observation,
    w: World,
    params: AcoParams,
) -> list[tuple[Direction, float]]:
    """Normalized move probabilities over accessible neighbors of c.

    weight(d) = (tau(n_d) + tau0)^alpha * eta(n_d)^beta, with eta the inverse
    landing distance to the target when the robot knows a target distance and
    1 otherwise. Falls back to uniform if every weight underflows to 0.
    """
    neighbors = accessible_neighbors(w, c)
    if not neighbors:
        raise DeadEndError(f"no accessible neighbor at {tuple(c)}")
    known = obs.best_known_target_distance is not None
    geometry = w.geometry
    weights = []
    for d, n in neighbors:
        tau = pher.level(n) + params.floor
        eta = 1.0 / (1 + geometry[n][TARGET_DISTANCE]) if known else 1.0
        weights.append((d, tau**params.alpha * eta**params.beta))
    total = sum(wt for _, wt in weights)
    if total <= 0.0:
        uniform = 1.0 / len(weights)
        return [(d, uniform) for d, _ in weights]
    return [(d, wt / total) for d, wt in weights]


def decide_move_aco(
    obs: Observation,
    pher: PheromoneField,
    w: World,
    params: AcoParams,
    rng: random.Random,
) -> Move:
    """Sample a direction from the transition rule at speed 1; stay when on
    the target or boxed in."""
    if obs.situation == w.target:
        return Move(Direction.E, 0)
    try:
        probs = transition_probs(obs.situation, pher, obs, w, params)
    except DeadEndError:
        return Move(Direction.E, 0)
    u = rng.random()
    cum = 0.0
    for d, p in probs:
        cum += p
        if u < cum:
            return Move(d, 1)
    return Move(probs[-1][0], 1)  # guard against fp round-off at u ~ 1
