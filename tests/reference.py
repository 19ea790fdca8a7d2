"""Oracles no run calls, so they live with the tests.

The GA as separate operators, the reference ``hexswarm.ga.decide_move_ga``
is tested against. A run executes one inlined loop over genes
``direction * 3 + speed``. These operators draw from the rng in the order
that loop must match.

The ACO transition rule computed afresh on every call, the reference the
run's ``hexswarm.aco.TransitionTable`` and ``decide_move_aco`` are tested
against bit for bit.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from hexswarm.aco import AcoParams, PheromoneField
from hexswarm.ga import GaParams, fitness_table
from hexswarm.hexworld import (
    TARGET_DISTANCE,
    Direction,
    HexCoord,
    Move,
    Observation,
    World,
    accessible_neighbors,
)


class DeadEndError(Exception):
    """No accessible neighbor to move to; ``decide_move_aco`` stays instead."""


class Chromosome(NamedTuple):
    direction: Direction
    speed: int  # cells per tick, in {0, 1, 2}


def fitness(ch: Chromosome, obs: Observation, w: World, params: GaParams | None = None) -> float:
    """Fitness of one chromosome: its entry in fitness_table."""
    return fitness_table(obs, w, params or GaParams())[ch.direction * 3 + ch.speed]


def tournament_select(
    pop: list[Chromosome],
    fitnesses: list[float],
    rng: random.Random,
    k: int = 2,
) -> Chromosome:
    """k uniform draws with replacement; highest fitness wins, ties to the
    lower population index."""
    n = len(pop)
    if n == 0:
        raise ValueError("tournament_select: empty population")
    best = int(rng.random() * n)
    for _ in range(k - 1):
        i = int(rng.random() * n)
        if fitnesses[i] > fitnesses[best] or (fitnesses[i] == fitnesses[best] and i < best):
            best = i
    return pop[best]


def crossover(
    a: Chromosome, b: Chromosome, rng: random.Random, crossover_prob: float = 0.9
) -> tuple[Chromosome, Chromosome]:
    """Uniform per-gene crossover with complementary children."""
    if rng.random() >= crossover_prob:
        return a, b
    if rng.random() < 0.5:
        d1, d2 = a.direction, b.direction
    else:
        d1, d2 = b.direction, a.direction
    if rng.random() < 0.5:
        s1, s2 = a.speed, b.speed
    else:
        s1, s2 = b.speed, a.speed
    return Chromosome(d1, s1), Chromosome(d2, s2)


def mutate(ch: Chromosome, rng: random.Random, mutation_prob: float = 0.1) -> Chromosome:
    """Each gene independently resampled uniformly from its domain."""
    direction = ch.direction
    speed = ch.speed
    if rng.random() < mutation_prob:
        direction = Direction(int(rng.random() * 6))
    if rng.random() < mutation_prob:
        speed = int(rng.random() * 3)
    return Chromosome(direction, speed)


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
        if cum + p > cum:
            last = d  # d adds to the sum, so its probability is above 0
        cum += p
        if u < cum:
            return Move(d, 1)
    return Move(last, 1)  # guard against fp round-off at u ~ 1: the last d to add
