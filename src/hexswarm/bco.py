"""Bee-colony movement: a single dancer/leader robot advertises a direction
and a recruitment strength; every other robot follows the dance, scouts on
its own, or keeps its previous heading. Leadership fails over to the best
remaining robot when the leader dies or goes unheard too long.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .hexworld import (
    TARGET_DISTANCE,
    Direction,
    Move,
    Observation,
    World,
    accessible_neighbors,
)


class Task(Enum):
    FOLLOW = "follow"
    SCOUT = "scout"
    CONTINUE = "continue"


class SwarmExtinct(Exception):
    """No live robot remains to lead or follow."""


@dataclass
class DanceBoard:
    leader: int
    advertised_direction: Direction
    strength: float
    last_heard_tick: int

    def __post_init__(self):
        if not 0.0 <= self.strength <= 1.0:
            raise ValueError(f"dance strength must be in [0,1], got {self.strength}")


@dataclass
class BcoParams:
    follow_gain: float = 2.0
    scout_prob: float = 0.1
    leader_timeout: int = 10


def dance_strength(leader_target_distance: Optional[int]) -> float:
    """Recruitment strength 1 / (1 + d); zero when the distance is unknown."""
    if leader_target_distance is None:
        return 0.0
    return 1.0 / (1 + leader_target_distance)


def choose_task(
    board: Optional[DanceBoard], params: BcoParams, rng: random.Random
) -> Task:
    """Two-stage task draw: Follow with min(1, gain * strength), otherwise
    Scout with scout_prob, otherwise Continue. No dance heard means Scout."""
    if board is None:
        return Task.SCOUT
    p_follow = min(1.0, params.follow_gain * board.strength)
    if rng.random() < p_follow:
        return Task.FOLLOW
    if rng.random() < params.scout_prob:
        return Task.SCOUT
    return Task.CONTINUE


def _scout_move(w: World, obs: Observation, rng: random.Random) -> Move:
    dirs = [d for d, _ in accessible_neighbors(w, obs.situation)]
    if not dirs:
        return Move(Direction.E, 0)
    return Move(dirs[rng.randrange(len(dirs))], 1)


def decide_move_bco(
    robot_id: int,
    prev_heading: Direction,
    obs: Observation,
    board: Optional[DanceBoard],
    params: BcoParams,
    w: World,
    rng: random.Random,
) -> Move:
    """Leader: greedy step toward the target (random feasible when it knows
    nothing). Others: act out the drawn task at speed 1, falling back to a
    scout step when the wanted direction is inaccessible."""
    if obs.situation == w.target:
        return Move(prev_heading, 0)
    if board is not None and board.leader == robot_id:
        if obs.best_known_target_distance is None:
            return _scout_move(w, obs, rng)
        neighbors = accessible_neighbors(w, obs.situation)
        if not neighbors:
            return Move(prev_heading, 0)
        geometry = w.geometry
        d, _ = min(neighbors, key=lambda dn: (geometry[dn[1]][TARGET_DISTANCE], dn[0]))
        return Move(d, 1)
    task = choose_task(board, params, rng)
    row = w.geometry[obs.situation]
    if task is Task.FOLLOW:
        assert board is not None
        if row[board.advertised_direction] is not None:
            return Move(board.advertised_direction, 1)
        return _scout_move(w, obs, rng)
    if task is Task.CONTINUE:
        if row[prev_heading] is not None:
            return Move(prev_heading, 1)
        return _scout_move(w, obs, rng)
    return _scout_move(w, obs, rng)


def elect_leader(
    live_headings: dict[int, Direction],
    observations: dict[int, Observation],
    current_tick: int,
    board: Optional[DanceBoard],
    params: BcoParams,
) -> DanceBoard:
    """Keep a live, recently heard leader; otherwise crown the live robot
    with the smallest known target distance (unknown counts as infinite),
    ties to the lowest id."""
    if not live_headings:
        raise SwarmExtinct("no live robots")
    if (
        board is not None
        and board.leader in live_headings
        and current_tick - board.last_heard_tick <= params.leader_timeout
    ):
        return board

    def rank(rid: int) -> tuple[float, int]:
        d = observations[rid].best_known_target_distance
        return (float("inf") if d is None else d, rid)

    leader = min(live_headings, key=rank)
    return DanceBoard(
        leader=leader,
        advertised_direction=live_headings[leader],
        strength=dance_strength(observations[leader].best_known_target_distance),
        last_heard_tick=current_tick,
    )
