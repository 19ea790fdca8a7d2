"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; the whole suite takes around a minute.
"""

import random
import time
from collections import deque

import pytest

from hexswarm.aco import AcoParams, PheromoneField, TransitionTable
from hexswarm.bco import BcoParams, DanceBoard, Task, choose_task, elect_leader
from hexswarm.cli import trace_csv
from hexswarm.comms import TrackerLog, comm_neighbors, flood_until_quiet, ids_of, neighbor_masks
from hexswarm import engine
from hexswarm.config import parse_config
from hexswarm.engine import (
    check_invariants,
    init_state,
    resolve_conflicts,
    run,
    tick,
)
from hexswarm.ga import GaParams, decide_move_ga
from hexswarm.hexworld import (
    DIRECTION_OFFSETS,
    Direction,
    HexCoord,
    Move,
    Observation,
    accessible_cells,
    hex_distance,
    make_world,
    step,
)

SEEDS = range(1, 21)


def heading_counts(directions) -> tuple[int, ...]:
    """How many of directions go each way, indexed by Direction."""
    directions = list(directions)
    return tuple(directions.count(d) for d in range(6))


def series_at(series, idx):
    """Value at tick idx; a run that ended early holds its final value."""
    return series[idx] if idx < len(series) else series[-1]


def controller_cfg(controller, seed, extra=""):
    return parse_config(f"controller = {controller}\nseed = {seed}\n{extra}")


def visited_cells(state):
    """Every cell a robot stood on: the entry, and each trace row's walk of
    speed steps along its heading, traced back from where it ended."""
    cells = {state.world.entry}
    for row in state.trace:
        pos, back = HexCoord(row[2], row[3]), Direction((row[4] + 3) % 6)
        for _ in range(row[5]):
            cells.add(pos)
            pos = step(pos, back)
    return cells


def capture_last_tick(monkeypatch):
    """{id(state): (observations, moves by robot id)} of each state's last
    tick, recorded by wrapping the engine phases that receive them."""
    last = {}
    assemble, resolve = engine._assemble_observations, engine.resolve_conflicts

    def assemble_and_keep(state, *args):
        observations = assemble(state, *args)
        last[id(state)] = (observations, {})
        return observations

    def keep_and_resolve(moves, state, rng):
        last[id(state)][1].update(moves)
        return resolve(moves, state, rng)

    monkeypatch.setattr(engine, "_assemble_observations", assemble_and_keep)
    monkeypatch.setattr(engine, "resolve_conflicts", keep_and_resolve)
    return last


@pytest.fixture(scope="module")
def ga_batch():
    return {seed: run(controller_cfg("ga", seed)) for seed in SEEDS}


def test_criterion_01_determinism_and_runtime():
    for controller in ("ga", "aco", "bco"):
        outputs = []
        for _ in range(2):
            t0 = time.monotonic()
            result = run(controller_cfg(controller, 7))
            elapsed = time.monotonic() - t0
            assert elapsed < 5.0, f"{controller} run took {elapsed:.2f}s"
            outputs.append(trace_csv(result).encode())
        assert outputs[0] == outputs[1], f"{controller} traces differ between runs"
    print("ACCEPTANCE  1 determinism + runtime: PASS")


def test_criterion_02_hex_metric_matches_bfs():
    t0 = time.monotonic()
    cells = [
        HexCoord(q, r)
        for q in range(-6, 7)
        for r in range(max(-6, -q - 6), min(6, -q + 6) + 1)
    ]
    cell_set = set(cells)
    assert len(cells) == 127  # 3*6*7 + 1, so ~16k ordered pairs
    for src in cells:
        dist = {src: 0}
        frontier = deque([src])
        while frontier:
            cur = frontier.popleft()
            for dq, dr in DIRECTION_OFFSETS:
                nxt = HexCoord(cur.q + dq, cur.r + dr)
                if nxt in cell_set and nxt not in dist:
                    dist[nxt] = dist[cur] + 1
                    frontier.append(nxt)
        for dst in cells:
            assert hex_distance(src, dst) == dist[dst]
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"oracle sweep took {elapsed:.2f}s"
    print(f"ACCEPTANCE  2 hex metric == BFS over {len(cells)**2} pairs: PASS")


def test_criterion_03_ga_convergence(ga_batch):
    passed = 0
    for seed in SEEDS:
        summary = ga_batch[seed].summary
        median = summary["median_distance"]
        converged = series_at(median, 300) < 0.30 * median[0]
        arrived = summary["fraction_arrived"] >= 0.50
        passed += converged and arrived
    assert passed >= 16, f"GA convergence in only {passed}/20 seeds"
    print(f"ACCEPTANCE  3 GA convergence in {passed}/20 seeds: PASS")


def test_criterion_04_ga_elitism_never_regresses():
    w = make_world(10, 1, HexCoord(5, 0), HexCoord(-5, 0))
    rng = random.Random(2024)
    violations = 0
    for trial in range(10_000):
        q = rng.randint(-6, 6)
        r = rng.randint(max(-6, -q - 6), min(6, -q + 6))
        obs = Observation(
            situation=HexCoord(q, r),
            best_known_target_distance=rng.randint(0, 15),
            heading_counts=heading_counts(rng.randrange(6) for _ in range(rng.randrange(4))),
        )
        log = []
        decide_move_ga(obs, w, GaParams(), random.Random(trial), generation_log=log)
        violations += any(log[i] > log[i + 1] for i in range(len(log) - 1))
    assert violations == 0
    print("ACCEPTANCE  4 GA elitism nondecreasing in 10^4 runs: PASS")


def test_criterion_05_aco_probability_and_evaporation_laws():
    w = make_world(8, 1, HexCoord(4, 0), HexCoord(-4, 0))
    rng = random.Random(555)
    table = TransitionTable(w, AcoParams())
    cases = 0
    while cases < 10_000:
        q = rng.randint(-7, 7)
        r = rng.randint(-7, 7)
        cell = HexCoord(q, r)
        if not w.accessible(cell):
            continue
        field = PheromoneField()
        for _ in range(rng.randrange(10)):
            c = HexCoord(rng.randint(-6, 6), rng.randint(-6, 6))
            if w.accessible(c):
                field.deposit(w, c, rng.choice((99, 0, 1, 3, 8)))
        obs = Observation(
            situation=cell,
            best_known_target_distance=rng.choice((None, rng.randint(0, 12))),
        )
        row, dirs, eta_betas, _ = table[cell, obs.best_known_target_distance is not None]
        probs = list(zip(dirs, table.probs(field.levels, row, dirs, eta_betas)))
        assert abs(sum(p for _, p in probs) - 1.0) < 1e-12
        for d, p in probs:
            assert p >= 0.0
            assert w.accessible(step(cell, d))
        cases += 1

    rho = 0.1
    field = PheromoneField(
        AcoParams(evaporation=rho), levels={HexCoord(0, 0): 1.234, HexCoord(1, -1): 0.077}
    )
    for _ in range(100):
        field.evaporate()
    for cell, initial in ((HexCoord(0, 0), 1.234), (HexCoord(1, -1), 0.077)):
        expected = initial * (1 - rho) ** 100
        assert abs(field.level(cell) - expected) / expected < 1e-12
    print("ACCEPTANCE  5 ACO probability + evaporation laws: PASS")


def test_criterion_06_aco_trail_formation():
    passed = 0
    for seed in SEEDS:
        cfg = controller_cfg("aco", seed)
        state = init_state(cfg)
        while state.tick < cfg.max_ticks and state.first_arrival_tick is None:
            tick(state)
        if state.first_arrival_tick is None:
            continue
        visited = {c for c in visited_cells(state) if state.world.accessible(c)}
        unvisited = [c for c in accessible_cells(state.world) if c not in visited]
        mean_visited = sum(state.global_pher.level(c) for c in visited) / len(visited)
        mean_unvisited = (
            sum(state.global_pher.level(c) for c in unvisited) / len(unvisited)
            if unvisited
            else 0.0
        )
        if mean_visited > 0 and (
            mean_unvisited == 0 or mean_visited / mean_unvisited >= 5.0
        ):
            passed += 1
    assert passed >= 16, f"trail formation in only {passed}/20 seeds"
    print(f"ACCEPTANCE  6 ACO trail formation in {passed}/20 seeds: PASS")


def test_criterion_07_bco_task_distribution():
    settings = [
        (0.2, 2.0, 0.1),  # the worked example: 0.4 / 0.06 / 0.54
        (1.0, 2.0, 0.1),
        (0.5, 1.0, 0.3),
        (0.0, 2.0, 0.1),
        (0.3, 1.5, 0.25),
    ]
    rng = random.Random(31337)
    trials = 100_000
    for strength, gain, scout_prob in settings:
        board = DanceBoard(0, Direction(0), strength, 0)
        params = BcoParams(follow_gain=gain, scout_prob=scout_prob)
        p_follow = min(1.0, gain * strength)
        expect = {
            Task.FOLLOW: p_follow,
            Task.SCOUT: (1 - p_follow) * scout_prob,
            Task.CONTINUE: (1 - p_follow) * (1 - scout_prob),
        }
        counts = {task: 0 for task in Task}
        for _ in range(trials):
            counts[choose_task(board, params, rng)] += 1
        for task in Task:
            assert abs(counts[task] / trials - expect[task]) < 0.01, (
                strength,
                gain,
                scout_prob,
                task,
            )
    print("ACCEPTANCE  7 BCO task distribution (5 settings): PASS")


def test_criterion_08_bco_leader_failover(monkeypatch):
    last = capture_last_tick(monkeypatch)
    timeout = BcoParams().leader_timeout
    arrivals = 0
    for seed in SEEDS:
        probe = init_state(controller_cfg("bco", seed))
        for _ in range(100):
            tick(probe)
        doomed = probe.board.leader

        cfg = controller_cfg("bco", seed, extra=f"removals = 100:{doomed}\n")
        state = init_state(cfg)
        elected = None
        while state.tick < cfg.max_ticks:
            tick(state)
            t = state.tick - 1
            observations = last[id(state)][0]
            if t == 100:
                # the engine replaced the dead leader this very tick, using
                # the argmin-distance / lowest-id rule on live observations
                assert state.board is not None
                elected = state.board.leader
                assert state.robots[elected].live
                assert elected != doomed or not state.robots[doomed].live

                def rank(rid):
                    d = observations[rid].best_known_target_distance
                    return (float("inf") if d is None else d, rid)

                assert elected == min(state.live_ids(), key=rank)
            if t == 100 + timeout:
                assert state.board is not None
                assert state.robots[state.board.leader].live
                live = {rid: state.robots[rid].heading for rid in state.live_ids()}
                fixed_point = elect_leader(live, observations, t, state.board, cfg.bco)
                assert fixed_point == state.board
            if not state.live_ids() and not state.pending_spawn:
                break
        assert elected is not None, f"seed {seed}: run ended before tick 100"
        frac = sum(1 for r in state.robots.values() if r.arrived) / cfg.robots
        arrivals += frac >= 0.50
    assert arrivals >= 16, f"post-failover arrival in only {arrivals}/20 seeds"
    print(f"ACCEPTANCE  8 BCO failover + arrival in {arrivals}/20 seeds: PASS")


def test_criterion_09_flooding_matches_bfs_hop_oracle():
    rng = random.Random(909)
    for _ in range(1000):
        cells = set()
        while len(cells) < 15:
            cells.add(HexCoord(rng.randint(-7, 7), rng.randint(-7, 7)))
        positions = dict(enumerate(sorted(cells)))
        origin = rng.randrange(15)
        hops = {origin: 0}
        frontier = deque([origin])
        while frontier:
            rid = frontier.popleft()
            for nb in comm_neighbors(positions, rid, 2):
                if nb not in hops:
                    hops[nb] = hops[rid] + 1
                    frontier.append(nb)
        masks = neighbor_masks(positions, 2)
        for ttl in (1, 3, 5):
            reach = {}
            made = flood_until_quiet(masks, {origin: [0]}, ttl, reach)
            tracker = TrackerLog()
            tracker.flood(masks, {origin: [0]}, ttl, 0)  # its rows, from flood_rows
            reached = {o: ids_of(mask) for o, mask in reach.items()}
            assert reached == {origin: sorted(r for r, h in hops.items() if 0 < h <= ttl)}
            assert made == len(reached[origin])
            for rid in positions:
                delivered = {(e.origin, e.seq): e.hops for e in tracker.entries if e.relay == rid}
                if rid != origin and rid in hops and hops[rid] <= ttl:
                    assert delivered == {(origin, 0): hops[rid]}
                else:
                    assert delivered == {}
    print("ACCEPTANCE  9 flooding == BFS hop oracle (10^3 x ttl 1/3/5): PASS")


def test_criterion_10_conflict_resolution_safety():
    base = parse_config("robots = 12\nradius = 4\nmargin = 1\ntarget = 2,0\nentry = -2,0\n")
    rng = random.Random(4242)
    for _ in range(10_000):
        n = rng.randint(1, 12)
        cells = set()
        while len(cells) < n:
            c = HexCoord(rng.randint(-3, 3), rng.randint(-3, 3))
            if hex_distance(c, HexCoord(0, 0)) <= 3:
                cells.add(c)
        state = init_state(base)
        state.pending_spawn = list(range(n, 12))
        for rid, pos in enumerate(sorted(cells)):
            robot = state.robots[rid]
            robot.live = True
            robot.pos = pos
            state.world.occupancy[pos] = rid
        moves = {rid: Move(Direction(rng.randrange(6)), rng.randrange(3)) for rid in range(n)}
        resolve_conflicts(moves, state, rng)
        check_invariants(state)
    print("ACCEPTANCE 10 conflict safety over 10^4 fuzzed intent sets: PASS")


def _locality_state(controller, robot_count):
    cfg = parse_config(
        f"controller = {controller}\nrobots = {robot_count}\n"
        "radius = 150\nmargin = 1\ntarget = 100,0\nentry = -100,0\nmax_ticks = 100\n"
    )
    state = init_state(cfg)
    state.pending_spawn.clear()
    cluster = [HexCoord(70, 0), HexCoord(71, 0), HexCoord(70, 1), HexCoord(69, 1)]
    placements = dict(enumerate(cluster))
    if robot_count == 5:
        placements[4] = HexCoord(-140, 0)  # outside everyone's component
    for rid, pos in placements.items():
        robot = state.robots[rid]
        robot.live = True
        robot.pos = pos
        robot.heading = Direction(0)
        state.world.occupancy[pos] = rid
    return state


def test_criterion_11_sensing_locality(monkeypatch):
    last = capture_last_tick(monkeypatch)
    for controller in ("ga", "aco", "bco"):
        with_extra = _locality_state(controller, 5)
        without = _locality_state(controller, 4)
        for _ in range(100):
            tick(with_extra)
            tick(without)
            for rid in range(4):
                a = last[id(with_extra)][1].get(rid)
                b = last[id(without)][1].get(rid)
                assert (a is None) == (b is None)
                if a is not None:
                    assert (a.direction, a.speed) == (b.direction, b.speed), (
                        controller,
                        with_extra.tick,
                        rid,
                    )
            rows_a = [r for r in with_extra.trace if r[1] < 4]
            rows_b = list(without.trace)
            assert rows_a == rows_b, controller
    print("ACCEPTANCE 11 sensing locality (ablation, 3 controllers): PASS")
