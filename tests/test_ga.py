"""GA controller tests: fitness arithmetic, operator distributions, and the
per-tick decision including its randomized bootstrap and elitism."""

import random

import pytest

from hexswarm.ga import SPEEDS, GaParams, decide_move_ga, feasible_moves, fitness_table
from hexswarm.hexworld import (
    DIRECTIONS,
    Direction,
    HexCoord,
    Move,
    Observation,
    World,
    accessible_cells,
    hex_distance,
    make_world,
    step,
    walk,
)
from reference import Chromosome, crossover, fitness, mutate, tournament_select


def heading_counts(directions) -> tuple[int, ...]:
    """How many of directions go each way, indexed by Direction."""
    directions = list(directions)
    return tuple(directions.count(d) for d in range(6))


def world_with_target(target=HexCoord(0, 0), radius=10, margin=0):
    entry = HexCoord(-radius + margin + 1, 0)
    if entry == target:
        entry = HexCoord(radius - margin - 1, 0)
    return make_world(radius, margin, target, entry)


class PocketWorld(World):
    """Test double: accessibility restricted to an explicit cell set."""

    def __init__(self, cells, target):
        super().__init__(radius=10, margin=0, target=target, entry=target)
        self.cells = set(cells)

    def accessible(self, c):
        return c in self.cells


class TestFitness:
    def test_speed_zero_is_alignment_only(self):
        w = world_with_target()
        obs = Observation(
            situation=HexCoord(3, 0),
            best_known_target_distance=3,
            heading_counts=(0, 1, 1, 0, 0, 0),
        )
        got = fitness(Chromosome(Direction(1), 0), obs, w)
        assert got == pytest.approx(0.25 * 0.5)

    def test_two_steps_toward_known_target_improves_by_two(self):
        w = world_with_target(HexCoord(0, 0))
        obs = Observation(situation=HexCoord(-5, 0), best_known_target_distance=5)
        got = fitness(Chromosome(Direction(0), 2), obs, w)
        assert got == pytest.approx(2.0)

    def test_full_alignment_without_target_knowledge(self):
        w = world_with_target()
        obs = Observation(
            situation=HexCoord(2, 2),
            heading_counts=(0, 0, 4, 0, 0, 0),
        )
        assert fitness(Chromosome(Direction(2), 1), obs, w) == pytest.approx(0.25)

    def test_landing_truncates_at_inaccessible_cells(self):
        w = world_with_target(HexCoord(0, 0), radius=3, margin=0)
        edge = HexCoord(3, 0)
        assert walk(w, edge, Direction(0), 2) == (edge, 0)
        assert walk(w, edge, Direction(3), 2) == (HexCoord(1, 0), 2)


class TestTournamentSelect:
    def test_population_of_one(self):
        ch = Chromosome(Direction(0), 1)
        rng = random.Random(1)
        assert tournament_select([ch], [0.5], rng) is ch

    def test_higher_fitness_always_beats_lower_when_both_drawn(self):
        pop = [Chromosome(Direction(0), 0), Chromosome(Direction(1), 1)]
        rng = random.Random(2)
        for _ in range(200):
            winner = tournament_select(pop, [3.0, 1.0], rng)
            assert winner in pop  # never an error
        # over many draws the 1.0 individual wins only when drawn twice: p=1/4
        wins = sum(
            tournament_select(pop, [3.0, 1.0], random.Random(i)) is pop[1]
            for i in range(4000)
        )
        assert 0.20 < wins / 4000 < 0.30

    def test_best_of_four_wins_at_closed_form_rate(self):
        # P(index 3 drawn at least once in 2 draws) = 1 - (3/4)^2 = 7/16
        pop = [Chromosome(Direction(d), 0) for d in range(4)]
        fits = [1.0, 2.0, 3.0, 4.0]
        rng = random.Random(42)
        trials = 100_000
        wins = sum(tournament_select(pop, fits, rng) is pop[3] for _ in range(trials))
        assert abs(wins / trials - 7 / 16) < 0.01

    def test_selection_distribution_matches_closed_form_within_3_sigma(self):
        # k=2 with replacement over distinct fitnesses: P(select rank i of 4)
        # = ((i+1)^2 - i^2) / 16 = (2i+1)/16
        pop = [Chromosome(Direction(d), 0) for d in range(4)]
        fits = [1.0, 2.0, 3.0, 4.0]
        rng = random.Random(2718)
        trials = 100_000
        counts = [0, 0, 0, 0]
        for _ in range(trials):
            counts[tournament_select(pop, fits, rng).direction] += 1
        for i in range(4):
            p = (2 * i + 1) / 16
            sigma = (p * (1 - p) / trials) ** 0.5
            assert abs(counts[i] / trials - p) < 3 * sigma

    def test_empty_population_is_a_usage_error(self):
        with pytest.raises(ValueError):
            tournament_select([], [], random.Random(0))


class TestCrossover:
    def test_identical_parents_yield_identical_children(self):
        a = Chromosome(Direction(2), 1)
        rng = random.Random(3)
        for _ in range(50):
            c1, c2 = crossover(a, a, rng)
            assert c1 == a and c2 == a

    def test_probability_zero_copies_parents(self):
        a, b = Chromosome(Direction(0), 2), Chromosome(Direction(3), 0)
        rng = random.Random(4)
        for _ in range(50):
            assert crossover(a, b, rng, crossover_prob=0.0) == (a, b)

    def test_children_genes_come_from_parents_and_are_complementary(self):
        a, b = Chromosome(Direction(0), 2), Chromosome(Direction(3), 0)
        rng = random.Random(5)
        for _ in range(500):
            c1, c2 = crossover(a, b, rng)
            assert c1.direction in (a.direction, b.direction)
            assert c1.speed in (a.speed, b.speed)
            assert {c1.direction, c2.direction} == {a.direction, b.direction}
            assert {c1.speed, c2.speed} == {a.speed, b.speed}


class TestMutate:
    def test_probability_zero_is_identity(self):
        ch = Chromosome(Direction(4), 2)
        rng = random.Random(6)
        for _ in range(50):
            assert mutate(ch, rng, mutation_prob=0.0) == ch

    def test_probability_one_resamples_uniformly(self):
        ch = Chromosome(Direction(0), 0)
        rng = random.Random(7)
        trials = 100_000
        counts = [0] * 6
        for _ in range(trials):
            counts[mutate(ch, rng, mutation_prob=1.0).direction] += 1
        for c in counts:
            assert abs(c / trials - 1 / 6) < 0.01

    def test_domains_are_preserved(self):
        rng = random.Random(8)
        ch = Chromosome(Direction(5), 1)
        for _ in range(500):
            ch = mutate(ch, rng, mutation_prob=0.7)
            assert 0 <= ch.direction < 6
            assert ch.speed in (0, 1, 2)


def feasible_by_walk(w, c):
    return [(d, s) for d in DIRECTIONS for s in SPEEDS if s == 0 or walk(w, c, d, s)[1] == s]


class TestFeasibleMoves:
    @pytest.mark.parametrize(
        "radius,margin", [(r, m) for r in range(1, 7) for m in range(3) if m < r]
    )
    def test_matches_walk_on_every_cell_of_a_board(self, radius, margin):
        w = World(radius=radius, margin=margin, target=HexCoord(0, 0), entry=HexCoord(0, 0))
        for c in accessible_cells(w):
            assert feasible_moves(w, c) == feasible_by_walk(w, c), c

    def test_matches_walk_in_a_world_with_holes(self):
        # Random 60% subsets of a radius-6 board: not convex, and many
        # cells two steps out are accessible while the cell between is not.
        rng = random.Random(5)
        full = list(accessible_cells(world_with_target(radius=6)))
        for _ in range(50):
            cells = {c for c in full if rng.random() < 0.6}
            cells.discard(HexCoord(0, 0))
            w = PocketWorld(cells, target=HexCoord(0, 0))
            for c in cells:
                assert feasible_moves(w, c) == feasible_by_walk(w, c), c


class TestDecideMoveGa:
    def test_bootstrap_is_uniform_over_feasible_pairs(self):
        w = world_with_target(HexCoord(0, 0))
        obs = Observation(situation=HexCoord(2, 2))
        pairs = feasible_moves(w, obs.situation)
        counts = {}
        for i in range(6000):
            mv = decide_move_ga(obs, w, GaParams(), random.Random(i))
            counts[(mv.direction, mv.speed)] = counts.get((mv.direction, mv.speed), 0) + 1
        assert set(counts) == set(pairs)
        for n in counts.values():
            assert abs(n / 6000 - 1 / len(pairs)) < 0.03

    def test_adjacent_known_target_never_loses_ground(self):
        # When generation 0 holds any non-negative-improvement chromosome,
        # elitism pins the final best there; with no alignment bonus the
        # integer improvement cannot go negative.
        w = world_with_target(HexCoord(0, 0))
        obs = Observation(situation=HexCoord(1, 0), best_known_target_distance=1)
        for seed in range(200):
            mv = decide_move_ga(obs, w, GaParams(), random.Random(seed))
            land, _ = walk(w, obs.situation, mv.direction, mv.speed)
            assert 1 - hex_distance(land, w.target) >= 0

    def test_single_open_direction_yields_that_direction_or_stay(self):
        centre = HexCoord(0, 0)
        open_dir = Direction(4)
        w = PocketWorld({centre, step(centre, open_dir)}, target=step(centre, open_dir))
        obs = Observation(situation=centre, best_known_target_distance=1)
        for seed in range(100):
            mv = decide_move_ga(obs, w, GaParams(), random.Random(seed))
            assert mv.direction == open_dir or mv.speed == 0

    def test_same_inputs_same_intent(self):
        w = world_with_target(HexCoord(3, -2))
        obs = Observation(
            situation=HexCoord(-1, 4),
            best_known_target_distance=7,
            heading_counts=(2, 0, 1, 0, 0, 0),
        )
        a = decide_move_ga(obs, w, GaParams(), random.Random(99))
        b = decide_move_ga(obs, w, GaParams(), random.Random(99))
        assert (a.direction, a.speed) == (b.direction, b.speed)

    def test_elitism_keeps_max_fitness_nondecreasing(self):
        w = world_with_target(HexCoord(0, 0))
        rng = random.Random(1234)
        for trial in range(300):
            obs = Observation(
                situation=HexCoord(rng.randint(-5, 5), rng.randint(-3, 3)),
                best_known_target_distance=rng.randint(0, 12),
                heading_counts=heading_counts(rng.randrange(6) for _ in range(rng.randrange(4))),
            )
            log = []
            decide_move_ga(obs, w, GaParams(), random.Random(trial), generation_log=log)
            assert log == sorted(log) or all(
                log[i] <= log[i + 1] for i in range(len(log) - 1)
            )

    def test_returned_intent_path_is_fully_accessible(self):
        w = world_with_target(HexCoord(0, 0), radius=4, margin=1)
        for seed in range(100):
            cell = HexCoord(3, 0)  # on the accessible rim
            obs = Observation(situation=cell, best_known_target_distance=3)
            mv = decide_move_ga(obs, w, GaParams(), random.Random(seed))
            pos = cell
            for _ in range(mv.speed):
                pos = step(pos, mv.direction)
                assert w.accessible(pos)


def evolve_with_operators(obs, w, params, rng, generation_log):
    """decide_move_ga's evolution rebuilt from the reference operators: a
    population drawn as (int(r() * 6), int(r() * 3)), then per generation
    elitism of one, two tournaments, crossover, and mutation of each child
    that fits."""
    r = rng.random
    cache = {}

    def fits_of(pop):
        return [cache.setdefault(ch, fitness(ch, obs, w, params)) for ch in pop]

    pop = [Chromosome(Direction(int(r() * 6)), int(r() * 3)) for _ in range(params.population)]
    fits = fits_of(pop)
    generation_log.append(max(fits))
    for _ in range(params.generations):
        new_pop = [pop[fits.index(max(fits))]]
        while len(new_pop) < params.population:
            a = tournament_select(pop, fits, rng, params.tournament_k)
            b = tournament_select(pop, fits, rng, params.tournament_k)
            c1, c2 = crossover(a, b, rng, params.crossover_prob)
            new_pop.append(mutate(c1, rng, params.mutation_prob))
            if len(new_pop) < params.population:
                new_pop.append(mutate(c2, rng, params.mutation_prob))
        pop = new_pop
        fits = fits_of(pop)
        generation_log.append(max(fits))
    best = pop[fits.index(max(fits))]
    return Move(best.direction, walk(w, obs.situation, best.direction, best.speed)[1])


def test_inlined_loop_draws_like_the_public_operators():
    w = world_with_target(HexCoord(2, -1), radius=6, margin=1)
    cells = list(accessible_cells(w))
    rng = random.Random(2011)
    # decide_move_ga stops at the table's maximum: in the initial population,
    # after a later generation, or never. The inputs must reach all three.
    exits = {"initial": 0, "later": 0, "never": 0}
    for trial in range(1000):
        headings = [
            (Direction(rng.randrange(6)), rng.randrange(1, 3)) for _ in range(rng.randrange(5))
        ]
        known = rng.choice((None, rng.randint(0, 12)))
        if known is None and not headings:
            known = rng.randint(0, 12)  # the bootstrap draws no evolution
        obs = Observation(rng.choice(cells), known, heading_counts(d for d, _ in headings))
        params = GaParams(
            population=rng.randint(2, 16),  # odd sizes keep both children of the last pair
            generations=rng.randint(1, 6),
            tournament_k=rng.randint(1, 4),
            crossover_prob=rng.choice((0.0, 1.0, rng.random())),
            mutation_prob=rng.choice((0.0, 1.0, rng.random())),
            alignment_weight=rng.choice((0.0, 0.25, rng.uniform(0.0, 3.0))),
        )
        seed = rng.getrandbits(32)
        got_log, want_log = [], []
        got = decide_move_ga(obs, w, params, random.Random(seed), generation_log=got_log)
        want = evolve_with_operators(obs, w, params, random.Random(seed), want_log)
        assert (got, got_log) == (want, want_log), trial
        peak = max(fitness_table(obs, w, params))
        exits["initial" if want_log[0] == peak else "later" if peak in want_log else "never"] += 1
    assert min(exits.values()) > 0, exits


class CountingRandom(random.Random):
    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0

    def random(self):
        self.draws += 1
        return super().random()


def test_first_gene_at_the_maximum_ends_the_decision():
    """With every gene tied, the first gene drawn is the answer: two draws,
    and the same move and log as the full loop."""
    w = world_with_target(HexCoord(2, -1), radius=6, margin=1)
    obs = Observation(HexCoord(0, 0), None, heading_counts([Direction.E, Direction.W]))
    params = GaParams(alignment_weight=0.0)
    rng = CountingRandom(5)
    got_log, want_log = [], []
    got = decide_move_ga(obs, w, params, rng, generation_log=got_log)
    want = evolve_with_operators(obs, w, params, random.Random(5), want_log)
    assert rng.draws == 2
    assert (got, got_log) == (want, want_log)
