"""The GA as separate operators, the reference ``hexswarm.ga.decide_move_ga``
is tested against.

A run executes one inlined loop over genes ``direction * 3 + speed``. These
operators draw from the rng in the order that loop must match; no run calls
them, so they live with the tests.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from hexswarm.ga import GaParams, fitness_table
from hexswarm.hexworld import Direction, Observation, World


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
