"""Per-robot genetic algorithm over (direction, speed) chromosomes.

Each tick a robot evolves a small population for a handful of generations
and executes the fittest move. Fitness rewards reduction of the robot's
best known distance to the target plus a bonus for aligning with the
movement headings its neighbors reported.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .hexworld import (
    DIRECTIONS,
    Direction,
    HexCoord,
    Move,
    Observation,
    World,
    hex_distance,
    walk,
)

SPEEDS = (0, 1, 2)


class Chromosome(NamedTuple):
    direction: Direction
    speed: int  # cells per tick, in {0, 1, 2}


@dataclass
class GaParams:
    population: int = 12
    generations: int = 8
    tournament_k: int = 2
    crossover_prob: float = 0.9
    mutation_prob: float = 0.1
    alignment_weight: float = 0.25


def fitness_table(obs: Observation, w: World, params: GaParams) -> list[float]:
    """Fitness of all 18 (direction, speed) pairs, flat-indexed by
    direction * 3 + speed: the landing cell's improvement on the best known
    target distance (0 when unknown) plus the weighted fraction of neighbor
    headings equal to the direction."""
    weight = params.alignment_weight
    known = obs.best_known_target_distance
    heads = obs.neighbor_headings
    counts = [0] * 6
    for d, _ in heads:
        counts[d] += 1
    table = []
    for d in DIRECTIONS:
        bonus = weight * counts[d] / len(heads) if heads else 0.0
        for s in SPEEDS:
            if known is None:
                table.append(bonus)
            else:
                land, _ = walk(w, obs.situation, d, s)
                table.append(known - hex_distance(land, w.target) + bonus)
    return table


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


def feasible_moves(w: World, start: HexCoord) -> list[tuple[Direction, int]]:
    """(direction, speed) pairs whose full path stays accessible; speed-0
    pairs are always included."""
    out = []
    for d in DIRECTIONS:
        for s in SPEEDS:
            if s == 0 or walk(w, start, d, s)[1] == s:
                out.append((d, s))
    return out


def decide_move_ga(
    obs: Observation,
    w: World,
    params: GaParams,
    rng: random.Random,
    generation_log: Optional[list[float]] = None,
) -> Move:
    """Evolve a move for this tick.

    With no target knowledge and no neighbor headings there is nothing for
    fitness to grade, so the move is a uniform random feasible pair (the
    randomized bootstrap). Otherwise runs generations of tournament
    selection, uniform crossover, and per-gene mutation with elitism of one,
    and returns the fittest chromosome, speed truncated to its feasible
    prefix.
    """
    if obs.best_known_target_distance is None and not obs.neighbor_headings:
        pairs = feasible_moves(w, obs.situation)
        d, s = pairs[rng.randrange(len(pairs))]
        return Move(d, s)

    # Fitness depends on the chromosome only through (direction, speed).
    table = fitness_table(obs, w, params)

    # The loop below is the select -> crossover -> mutate cycle of the
    # public operators, inlined over flat (direction, speed) pairs; rng
    # draw order matches calling them directly, which the tests pin.
    r = rng.random
    size = params.population
    k = params.tournament_k
    cx_prob = params.crossover_prob
    mut_prob = params.mutation_prob
    pop = [(int(r() * 6), int(r() * 3)) for _ in range(size)]
    fits = [table[d * 3 + s] for d, s in pop]
    if generation_log is not None:
        generation_log.append(max(fits))

    for _ in range(params.generations):
        elite = 0
        for i in range(1, size):
            if fits[i] > fits[elite]:
                elite = i
        new_pop = [pop[elite]]
        while len(new_pop) < size:
            best = int(r() * size)
            for _ in range(k - 1):
                i = int(r() * size)
                if fits[i] > fits[best] or (fits[i] == fits[best] and i < best):
                    best = i
            pa = pop[best]
            best = int(r() * size)
            for _ in range(k - 1):
                i = int(r() * size)
                if fits[i] > fits[best] or (fits[i] == fits[best] and i < best):
                    best = i
            pb = pop[best]
            if r() < cx_prob:
                if r() < 0.5:
                    d1, d2 = pa[0], pb[0]
                else:
                    d1, d2 = pb[0], pa[0]
                if r() < 0.5:
                    s1, s2 = pa[1], pb[1]
                else:
                    s1, s2 = pb[1], pa[1]
            else:
                (d1, s1), (d2, s2) = pa, pb
            if r() < mut_prob:
                d1 = int(r() * 6)
            if r() < mut_prob:
                s1 = int(r() * 3)
            new_pop.append((d1, s1))
            if len(new_pop) < size:
                if r() < mut_prob:
                    d2 = int(r() * 6)
                if r() < mut_prob:
                    s2 = int(r() * 3)
                new_pop.append((d2, s2))
        pop = new_pop
        fits = [table[d * 3 + s] for d, s in pop]
        if generation_log is not None:
            generation_log.append(max(fits))

    best = 0
    for i in range(1, size):
        if fits[i] > fits[best]:
            best = i
    d, s = pop[best]
    direction = Direction(d)
    return Move(direction, walk(w, obs.situation, direction, s)[1])
