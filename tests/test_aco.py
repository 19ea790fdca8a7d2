"""ACO tests: deposit and evaporation arithmetic, transition probability
laws against hand-computed values, the sampled move decision, and the
run's transition table against the per-call oracle in ``reference``."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from hexswarm.aco import AcoParams, PheromoneField, TransitionTable, decide_move_aco
from hexswarm.hexworld import Observation
from hexswarm.hexworld import (
    DIRECTIONS,
    Direction,
    HexCoord,
    Move,
    World,
    hex_distance,
    make_world,
    step,
)


def small_world(target=HexCoord(3, 0)):
    return make_world(6, 1, target, HexCoord(-3, 0))


def rule(c, pher, obs, w, params):
    """The run's (direction, probability) pairs at c, read from a TransitionTable."""
    table = TransitionTable(w, params)
    row, dirs, eta_betas, _ = table[c, obs.best_known_target_distance is not None]
    return list(zip(dirs, table.probs(pher.levels, row, dirs, eta_betas)))


class TestDeposit:
    def test_distance_zero_deposits_full_scale(self):
        w = small_world()
        f = PheromoneField()
        f.deposit(w, HexCoord(0, 0), 0)
        assert f.level(HexCoord(0, 0)) == pytest.approx(1.0)

    def test_distance_four_deposits_one_fifth(self):
        w = small_world()
        f = PheromoneField()
        f.deposit(w, HexCoord(0, 0), 4)
        assert f.level(HexCoord(0, 0)) == pytest.approx(0.2)

    def test_inaccessible_cell_is_a_usage_error(self):
        w = small_world()
        f = PheromoneField()
        with pytest.raises(ValueError, match="inaccessible"):
            f.deposit(w, HexCoord(6, 0), 1)

    def test_deposits_accumulate(self):
        w = small_world()
        f = PheromoneField()
        f.deposit(w, HexCoord(1, 1), 1).deposit(w, HexCoord(1, 1), 3)
        assert f.level(HexCoord(1, 1)) == pytest.approx(0.5 + 0.25)


class TestEvaporate:
    def test_single_step(self):
        f = PheromoneField(AcoParams(evaporation=0.1), levels={HexCoord(0, 0): 1.0})
        f.evaporate()
        assert f.level(HexCoord(0, 0)) == pytest.approx(0.9)

    def test_iterated_matches_closed_form(self):
        rho = 0.1
        levels = {HexCoord(0, 0): 1.0, HexCoord(1, 0): 0.37}
        f = PheromoneField(AcoParams(evaporation=rho), levels=levels)
        for _ in range(50):
            f.evaporate()
        for cell, initial in ((HexCoord(0, 0), 1.0), (HexCoord(1, 0), 0.37)):
            expected = initial * (1 - rho) ** 50
            assert abs(f.level(cell) - expected) / expected < 1e-12

    def test_empty_field_stays_empty(self):
        f = PheromoneField(AcoParams(evaporation=0.5))
        levels = f.levels
        f.evaporate()
        assert f.levels is levels and levels == {}  # returned at once, nothing rebuilt

    def test_tiny_levels_are_pruned(self):
        f = PheromoneField(AcoParams(evaporation=0.5), levels={HexCoord(0, 0): 1e-9})
        f.evaporate()
        assert f.levels == {}

    def test_linearity_fieldwise(self):
        rng = random.Random(9)
        for _ in range(50):
            cells = [HexCoord(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(6)]
            a = PheromoneField(levels={c: rng.uniform(0.1, 5.0) for c in cells[:4]})
            b = PheromoneField(levels={c: rng.uniform(0.1, 5.0) for c in cells[2:]})
            merged = PheromoneField(
                levels={
                    c: a.level(c) + b.level(c)
                    for c in set(a.levels) | set(b.levels)
                }
            )
            rho = rng.uniform(0.05, 0.5)
            for f in (a, b, merged):
                f.params.evaporation = rho
                f.evaporate()
            for c in set(a.levels) | set(b.levels) | set(merged.levels):
                assert merged.level(c) == pytest.approx(a.level(c) + b.level(c), abs=1e-12)

    def test_nonnegative_under_random_interleavings(self):
        w = small_world()
        rng = random.Random(10)
        f = PheromoneField()
        cells = [c for c in (HexCoord(q, r) for q in range(-2, 3) for r in range(-2, 3)) if w.accessible(c)]
        for _ in range(2000):
            if rng.random() < 0.6:
                f.deposit(w, rng.choice(cells), rng.choice((99, 0, 1, 4, 9)))
            else:
                f.params.evaporation = rng.uniform(0.01, 0.9)
                f.evaporate()
            assert all(v >= 0 for v in f.levels.values())


class TestTransitionProbs:
    def test_uniform_when_nothing_is_known(self):
        w = small_world()
        obs = Observation(situation=HexCoord(0, 0))
        probs = rule(HexCoord(0, 0), PheromoneField(), obs, w, AcoParams())
        assert len(probs) == 6
        for _, p in probs:
            assert p == pytest.approx(1 / 6)

    def test_all_mass_on_one_neighbor_takes_probability_one(self):
        w = small_world()
        params = AcoParams(beta=0.0, floor=0.0)
        c = HexCoord(0, 0)
        f = PheromoneField(params, {step(c, Direction(2)): 5.0})
        obs = Observation(situation=c)
        probs = dict(rule(c, f, obs, w, params))
        assert probs[Direction(2)] == pytest.approx(1.0)
        assert sum(probs.values()) == pytest.approx(1.0)

    def test_adjacent_target_distances_give_exact_closed_form(self):
        # target adjacent in direction 0; eta^2 over the six neighbors is
        # (1, 1/4, 1/9, 1/9, 1/9, 1/4) and uniform pheromone cancels out.
        w = make_world(6, 1, HexCoord(1, 0), HexCoord(-3, 0))
        c = HexCoord(0, 0)
        f = PheromoneField(levels={step(c, d): 1.0 for d in DIRECTIONS})
        obs = Observation(situation=c, best_known_target_distance=1)
        probs = dict(rule(c, f, obs, w, AcoParams(alpha=1.0, beta=2.0)))
        expected = {
            Direction(0): Fraction(6, 11),
            Direction(1): Fraction(3, 22),
            Direction(2): Fraction(2, 33),
            Direction(3): Fraction(2, 33),
            Direction(4): Fraction(2, 33),
            Direction(5): Fraction(3, 22),
        }
        for d, frac in expected.items():
            assert abs(probs[d] - float(frac)) < 1e-12

    def test_normalization_over_randomized_fields(self):
        rng = random.Random(11)
        w = small_world()
        for _ in range(500):
            f = PheromoneField()
            for _ in range(rng.randrange(12)):
                cell = HexCoord(rng.randint(-4, 4), rng.randint(-4, 4))
                if w.accessible(cell):
                    f.deposit(w, cell, rng.choice((99, 0, 2, 7)))
            cell = HexCoord(rng.randint(-4, 4), rng.randint(-4, 4))
            if not w.accessible(cell):
                continue
            known = rng.choice((None, rng.randint(0, 10)))
            obs = Observation(situation=cell, best_known_target_distance=known)
            probs = rule(cell, f, obs, w, AcoParams())
            assert abs(sum(p for _, p in probs) - 1.0) < 1e-12
            assert all(p >= 0 for _, p in probs)
            for d, _ in probs:
                assert w.accessible(step(cell, d))

    def test_dead_end_row_holds_no_direction(self):
        w = World(radius=1, margin=1, target=HexCoord(0, 0), entry=HexCoord(0, 0))
        obs = Observation(situation=HexCoord(0, 0))
        assert rule(HexCoord(0, 0), PheromoneField(), obs, w, AcoParams()) == []


class TestDecideMoveAco:
    def test_on_target_stays(self):
        w = small_world(HexCoord(2, 0))
        obs = Observation(situation=HexCoord(2, 0), best_known_target_distance=0)
        table = TransitionTable(w, AcoParams())
        mv = decide_move_aco(obs, PheromoneField(), table, random.Random(0))
        assert mv.speed == 0

    def test_probability_one_mass_is_followed(self):
        w = small_world()
        params = AcoParams(beta=0.0, floor=0.0)
        c = HexCoord(0, 0)
        f = PheromoneField(params, {step(c, Direction(2)): 5.0})
        obs = Observation(situation=c)
        for seed in range(30):
            mv = decide_move_aco(obs, f, TransitionTable(w, params), random.Random(seed))
            assert mv.direction == Direction(2)
            assert mv.speed == 1

    def test_dead_end_becomes_stay(self):
        w = World(radius=1, margin=1, target=HexCoord(1, 0), entry=HexCoord(0, 0))
        obs = Observation(situation=HexCoord(0, 0))
        table = TransitionTable(w, AcoParams())
        mv = decide_move_aco(obs, PheromoneField(), table, random.Random(0))
        assert mv.speed == 0

    def test_seeded_uniform_draw_is_stable(self):
        # frozen from the first oracle run: inverse-CDF of Random(123).random()
        # over six equal slots
        w = small_world()
        obs = Observation(situation=HexCoord(0, 0))
        u = random.Random(123).random()
        expected_index = min(int(u * 6), 5)
        table = TransitionTable(w, AcoParams())
        mv = decide_move_aco(obs, PheromoneField(), table, random.Random(123))
        assert mv.direction == Direction(expected_index)

    def test_trail_reinforcement_along_a_fixed_path(self):
        w = small_world(HexCoord(3, 0))
        f = PheromoneField()
        path = [HexCoord(-2 + i, 0) for i in range(4)]
        for _ in range(20):
            for i, cell in enumerate(path):
                f.deposit(w, cell, hex_distance(cell, w.target))
            f.evaporate()
        for cell in path:
            assert f.level(cell) > 0.0
        never_visited = HexCoord(0, 2)
        assert f.level(never_visited) == 0.0


class LastDraw:
    """An rng whose one draw is the largest float below 1, where round-off
    can leave the cumulative probabilities short of it."""

    def random(self):
        return 1 - 2**-53


@st.composite
def aco_cases(draw):
    """(world, cell, replica, observation, params): an interior, rim or
    dead-end cell (k = 0 leaves one accessible cell), a replica that is
    empty, has levels only away from the cell's neighbours, or has levels
    on them, and a known or unknown target distance."""
    k = draw(st.integers(0, 4))
    cells = [HexCoord(q, r) for q in range(-k, k + 1) for r in range(-k, k + 1) if abs(q + r) <= k]
    w = World(radius=k + 1, margin=1, target=draw(st.sampled_from(cells)), entry=cells[0])
    cell = draw(st.sampled_from(cells))
    neighbors = {step(cell, d) for d in DIRECTIONS}
    levels = draw(st.dictionaries(st.sampled_from(cells), st.floats(1e-9, 20.0)))
    replica = draw(st.sampled_from(["empty", "away", "any"]))
    if replica == "empty":
        levels = {}
    elif replica == "away":
        levels = {c: lv for c, lv in levels.items() if c not in neighbors}
    params = AcoParams(
        alpha=draw(st.floats(0.0, 6.0)),
        beta=draw(st.floats(0.0, 6.0)),
        floor=draw(st.sampled_from([0.0, 0.01]) | st.floats(0.0, 3.0)),
    )
    known = draw(st.none() | st.integers(0, 2 * k))
    obs = Observation(situation=cell, best_known_target_distance=known)
    return w, cell, PheromoneField(params, levels), obs, params


class TestTransitionTable:
    """The table-driven rule must repeat the oracle's floats bit for bit, so
    that every run's bytes stay the same."""

    @settings(max_examples=400, deadline=None, database=None)
    @given(aco_cases(), st.integers(0, 2**32 - 1) | st.none())
    def test_table_matches_the_oracle(self, case, seed):
        w, cell, pher, obs, params = case
        rng = (lambda: LastDraw()) if seed is None else (lambda: random.Random(seed))
        args = (cell, pher, obs, w, params)
        try:
            expected = reference.transition_probs(*args)
        except reference.DeadEndError:
            expected = []  # a dead end's row holds no direction
        assert rule(*args) == expected
        table = TransitionTable(w, params)
        for _ in range(2):  # filling the row, then reading it
            move = decide_move_aco(obs, pher, table, rng())
            assert move == reference.decide_move_aco(obs, pher, w, params, rng())
            assert move.speed == 0 or dict(expected)[move.direction] > 0

    def test_a_draw_past_the_running_sum_takes_the_last_direction(self):
        # these probabilities sum to 1 - 2^-52, so the largest draw below 1
        # passes them all; the round-off guard moves toward direction 4, the
        # last that adds to the sum, not toward direction 5, whose weight is 0
        w = small_world()
        c = HexCoord(0, 0)
        params = AcoParams(beta=0.0, floor=0.0)
        levels = dict(zip((step(c, d) for d in DIRECTIONS), (0.2, 0.9, 0.1, 0.3, 0.1)))
        f = PheromoneField(params, levels)
        obs = Observation(situation=c)
        probs = rule(c, f, obs, w, params)
        assert probs == reference.transition_probs(c, f, obs, w, params)
        assert sum(p for _, p in probs) == 1 - 2**-52 and probs[-1] == (Direction(5), 0.0)
        expected = reference.decide_move_aco(obs, f, w, params, LastDraw())
        move = decide_move_aco(obs, f, TransitionTable(w, params), LastDraw())
        assert move == expected == Move(Direction(4), 1)

    def test_rows_are_filled_only_for_looked_up_keys(self):
        w = small_world()
        table = TransitionTable(w, AcoParams())
        obs = Observation(situation=HexCoord(0, 0))
        decide_move_aco(obs, PheromoneField(), table, random.Random(1))
        assert list(table) == [(HexCoord(0, 0), False)]
