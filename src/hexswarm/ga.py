"""Per-robot genetic algorithm over (direction, speed) chromosomes.

Each tick a robot evolves a small population for a handful of generations
and executes the fittest move. Fitness rewards reduction of the robot's
best known distance to the target plus a bonus for aligning with the
movement headings its neighbors reported. A run executes the GA as one
inlined loop; its operators one by one (tournament selection, crossover,
mutation) are the reference for its draw order, in ``tests/reference.py``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import floor
from typing import Optional

from .hexworld import (
    DIRECTIONS,
    TARGET_DISTANCE,
    Direction,
    HexCoord,
    Move,
    Observation,
    World,
    walk,
)

SPEEDS = (0, 1, 2)


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
    counts = obs.heading_counts
    heard = sum(counts)
    geometry = w.geometry
    here = geometry[obs.situation]
    table = []
    for d in DIRECTIONS:
        bonus = weight * counts[d] / heard if heard else 0.0
        if known is None:
            table += (bonus, bonus, bonus)
            continue
        row = here  # the landing cell's row, walked out one speed at a time
        table.append(known - row[TARGET_DISTANCE] + bonus)
        for _ in SPEEDS[1:]:
            nxt = row[d]
            if nxt is not None:
                row = geometry[nxt]
            table.append(known - row[TARGET_DISTANCE] + bonus)
    return table


def feasible_moves(w: World, start: HexCoord) -> list[tuple[Direction, int]]:
    """(direction, speed) pairs whose full path stays accessible; speed-0
    pairs are always included. Each direction is walked out one cell at a
    time and stops at its first inaccessible cell."""
    geometry = w.geometry
    out = []
    for d, n in zip(DIRECTIONS, geometry[start]):  # the six neighbours
        out.append((d, 0))
        if n is not None:
            out.append((d, 1))
            if geometry[n][d] is not None:
                out.append((d, 2))
    return out


# The direction part (direction * 3) and the speed part of each gene
# g = direction * 3 + speed.
_DIRECTION_PART = [g - g % 3 for g in range(18)]
_SPEED_PART = [g % 3 for g in range(18)]


def _gene_move(g: int, obs: Observation, w: World) -> Move:
    """Gene g as a move, speed truncated to its feasible prefix."""
    d, s = divmod(g, 3)
    direction = Direction(d)
    return Move(direction, walk(w, obs.situation, direction, s)[1])


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
    selection, uniform crossover, and per-gene mutation with elitism of one
    over genes g = direction * 3 + speed, the indices of fitness_table, and
    returns the fittest gene as a move, speed truncated to its feasible
    prefix. It draws as the operators of ``tests/reference.py`` would.

    That gene is the first one drawn, in draw order, whose fitness is the
    table's maximum: elitism keeps it at index 0 from then on and nothing
    can score higher. So the loop stops at that gene, in the initial
    population or after the generation that drew it, and draws nothing
    more; generation_log gets the maximum for each generation not run.
    """
    if obs.best_known_target_distance is None and not any(obs.heading_counts):
        pairs = feasible_moves(w, obs.situation)
        d, s = pairs[rng.randrange(len(pairs))]
        return Move(d, s)

    # Fitness depends on the chromosome only through (direction, speed).
    table = fitness_table(obs, w, params)

    # The loop below is the select -> crossover -> mutate cycle of the
    # reference operators, inlined over genes g = direction * 3 + speed, so
    # a gene's fitness is table[g]. Crossover and mutation swap or redraw
    # the direction part and the speed part of a gene. The rng draw order
    # matches calling the operators directly, which the tests pin. floor
    # equals the operators' int on these non-negative draws and is the
    # cheaper call in CPython.
    r = rng.random
    size = params.population
    last = size - 1
    extra_draws = range(params.tournament_k - 1)
    cx_prob = params.crossover_prob
    mut_prob = params.mutation_prob
    dpart = _DIRECTION_PART
    spart = _SPEED_PART
    peak = max(table)
    pop = []
    for _ in range(size):
        g = floor(r() * 6) * 3 + floor(r() * 3)
        if table[g] == peak:
            if generation_log is not None:
                generation_log.extend([peak] * (params.generations + 1))
            return _gene_move(g, obs, w)
        pop.append(g)
    fits = list(map(table.__getitem__, pop))
    top = max(fits)
    if generation_log is not None:
        generation_log.append(top)

    for left in reversed(range(params.generations)):  # generations after this one
        new_pop = [pop[fits.index(top)]]
        append = new_pop.append
        for j in range(1, size, 2):
            best = floor(r() * size)
            fb = fits[best]
            for _ in extra_draws:
                i = floor(r() * size)
                fi = fits[i]
                if fi > fb or (fi == fb and i < best):
                    best, fb = i, fi
            a = pop[best]
            best = floor(r() * size)
            fb = fits[best]
            for _ in extra_draws:
                i = floor(r() * size)
                fi = fits[i]
                if fi > fb or (fi == fb and i < best):
                    best, fb = i, fi
            b = pop[best]
            if r() < cx_prob:
                if r() < 0.5:  # the first child takes a's direction ...
                    if r() >= 0.5:  # ... and b's speed
                        a, b = dpart[a] + spart[b], dpart[b] + spart[a]
                elif r() < 0.5:  # b's direction and a's speed
                    a, b = dpart[b] + spart[a], dpart[a] + spart[b]
                else:  # b's direction and b's speed
                    a, b = b, a
            if r() < mut_prob:
                a = floor(r() * 6) * 3 + spart[a]
            if r() < mut_prob:
                a = dpart[a] + floor(r() * 3)
            append(a)
            if j < last:
                if r() < mut_prob:
                    b = floor(r() * 6) * 3 + spart[b]
                if r() < mut_prob:
                    b = dpart[b] + floor(r() * 3)
                append(b)
        pop = new_pop
        fits = list(map(table.__getitem__, pop))
        top = max(fits)
        if generation_log is not None:
            generation_log.append(top)
        if top == peak:
            if generation_log is not None:
                generation_log.extend([peak] * left)
            break

    return _gene_move(pop[fits.index(top)], obs, w)
