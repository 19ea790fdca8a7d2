"""BCO tests: dance strength, the two-stage task draw, movement for leader
and followers, and leader election with failover."""

import random

import pytest

from hexswarm.bco import (
    BcoParams,
    DanceBoard,
    SwarmExtinct,
    Task,
    choose_task,
    dance_strength,
    decide_move_bco,
    elect_leader,
)
from hexswarm.hexworld import Observation
from hexswarm.hexworld import Direction, HexCoord, make_world, step


def small_world(target=HexCoord(3, 0)):
    return make_world(6, 1, target, HexCoord(-3, 0))


class TestDanceStrength:
    def test_on_target(self):
        assert dance_strength(0) == pytest.approx(1.0)

    def test_distance_four(self):
        assert dance_strength(4) == pytest.approx(0.2)

    def test_unknown(self):
        assert dance_strength(None) == 0.0


class TestChooseTask:
    def test_no_board_means_scout(self):
        for seed in range(20):
            assert choose_task(None, BcoParams(), random.Random(seed)) is Task.SCOUT

    def test_saturated_strength_always_follows(self):
        board = DanceBoard(0, Direction(0), 1.0, 0)
        for seed in range(50):
            assert choose_task(board, BcoParams(), random.Random(seed)) is Task.FOLLOW

    def test_worked_two_stage_distribution(self):
        # strength 0.2, gain 2.0, scout 0.1:
        # P(Follow) = 0.4, P(Scout) = 0.6 * 0.1 = 0.06, P(Continue) = 0.54
        board = DanceBoard(0, Direction(0), 0.2, 0)
        params = BcoParams(follow_gain=2.0, scout_prob=0.1)
        rng = random.Random(77)
        trials = 100_000
        counts = {Task.FOLLOW: 0, Task.SCOUT: 0, Task.CONTINUE: 0}
        for _ in range(trials):
            counts[choose_task(board, params, rng)] += 1
        assert abs(counts[Task.FOLLOW] / trials - 0.4) < 0.01
        assert abs(counts[Task.SCOUT] / trials - 0.06) < 0.01
        assert abs(counts[Task.CONTINUE] / trials - 0.54) < 0.01


class TestDecideMoveBco:
    def test_leader_adjacent_to_known_target_points_at_it(self):
        w = small_world(HexCoord(3, 0))
        board = DanceBoard(leader=1, advertised_direction=Direction(2), strength=0.5, last_heard_tick=0)
        obs = Observation(situation=HexCoord(2, 0), best_known_target_distance=1)
        mv = decide_move_bco(1, Direction(4), obs, board, BcoParams(), w, random.Random(0))
        assert step(obs.situation, mv.direction) == w.target
        assert mv.speed == 1

    def test_follower_follows_the_advertised_direction(self):
        w = small_world()
        board = DanceBoard(leader=0, advertised_direction=Direction(5), strength=1.0, last_heard_tick=0)
        obs = Observation(situation=HexCoord(0, 0))
        for seed in range(30):
            mv = decide_move_bco(7, Direction(1), obs, board, BcoParams(), w, random.Random(seed))
            assert mv.direction == Direction(5)
            assert mv.speed == 1

    def test_continue_with_blocked_heading_falls_back_to_feasible_scout(self):
        w = small_world()
        rim = HexCoord(5, 0)  # accessible edge; direction 0 leads outside
        board = DanceBoard(leader=0, advertised_direction=Direction(0), strength=0.0, last_heard_tick=0)
        params = BcoParams(scout_prob=0.0)  # strength 0 -> never Follow, never Scout
        obs = Observation(situation=rim)
        for seed in range(50):
            mv = decide_move_bco(3, Direction(0), obs, board, params, w, random.Random(seed))
            assert mv.speed == 1
            assert w.accessible(step(rim, mv.direction))
            assert mv.direction != Direction(0)

    def test_on_target_stays(self):
        w = small_world(HexCoord(2, 0))
        obs = Observation(situation=HexCoord(2, 0), best_known_target_distance=0)
        mv = decide_move_bco(5, Direction(1), obs, None, BcoParams(), w, random.Random(0))
        assert mv.speed == 0

    def test_uninformed_leader_scouts_feasibly(self):
        w = small_world()
        board = DanceBoard(leader=2, advertised_direction=Direction(0), strength=0.0, last_heard_tick=0)
        obs = Observation(situation=HexCoord(5, 0))
        for seed in range(50):
            mv = decide_move_bco(2, Direction(0), obs, board, BcoParams(), w, random.Random(seed))
            assert mv.speed == 1
            assert w.accessible(step(obs.situation, mv.direction))


class TestElectLeader:
    def obs(self, dist):
        return Observation(situation=HexCoord(0, 0), best_known_target_distance=dist)

    def test_live_recent_leader_is_kept(self):
        board = DanceBoard(leader=2, advertised_direction=Direction(1), strength=0.5, last_heard_tick=95)
        headings = {2: Direction(1), 3: Direction(0)}
        observations = {2: self.obs(9), 3: self.obs(1)}
        out = elect_leader(headings, observations, 100, board, BcoParams())
        assert out is board

    def test_min_distance_wins_then_lowest_id(self):
        headings = {2: Direction(0), 3: Direction(0), 4: Direction(0)}
        observations = {2: self.obs(7), 3: self.obs(4), 4: self.obs(4)}
        out = elect_leader(headings, observations, 50, None, BcoParams())
        assert out.leader == 3
        assert out.strength == pytest.approx(dance_strength(4))
        assert out.last_heard_tick == 50

    def test_all_unknown_elects_lowest_id(self):
        headings = {5: Direction(0), 9: Direction(2), 7: Direction(1)}
        observations = {rid: self.obs(None) for rid in headings}
        out = elect_leader(headings, observations, 10, None, BcoParams())
        assert out.leader == 5

    def test_stale_leader_is_replaced(self):
        board = DanceBoard(leader=2, advertised_direction=Direction(1), strength=0.5, last_heard_tick=10)
        headings = {2: Direction(1), 3: Direction(0)}
        observations = {2: self.obs(9), 3: self.obs(1)}
        out = elect_leader(headings, observations, 21, board, BcoParams(leader_timeout=10))
        assert out.leader == 3

    def test_scaling_distances_preserves_the_winner(self):
        headings = {1: Direction(0), 2: Direction(0), 3: Direction(0)}
        for scale in (1, 2, 5):
            observations = {1: self.obs(6 * scale), 2: self.obs(2 * scale), 3: self.obs(4 * scale)}
            out = elect_leader(headings, observations, 0, None, BcoParams())
            assert out.leader == 2

    def test_deterministic_given_observations(self):
        headings = {1: Direction(0), 2: Direction(3)}
        observations = {1: self.obs(5), 2: self.obs(5)}
        a = elect_leader(headings, observations, 7, None, BcoParams())
        b = elect_leader(headings, observations, 7, None, BcoParams())
        assert a == b

    def test_no_live_robots_signals_extinction(self):
        with pytest.raises(SwarmExtinct):
            elect_leader({}, {}, 0, None, BcoParams())
