"""Engine tests: spawning through the entry cell, conflict resolution,
the tick phase contract, run termination, determinism, and invariants."""

import copy
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexswarm import engine
from hexswarm.bco import DanceBoard, dance_strength
from hexswarm.comms import (
    TrackerLog,
    comm_neighbors,
    connectivity_components,
    flood_until_quiet,
    ids_of,
    neighbor_masks,
)
from hexswarm.config import parse_config
from hexswarm.engine import (
    STATUS_EXTINCT,
    STATUS_SUCCESS,
    STATUS_TIMEOUT,
    check_invariants,
    derive_rng,
    init_state,
    resolve_conflicts,
    run,
    spawn_step,
    tick,
)
from hexswarm.hexworld import (
    TARGET_DISTANCE,
    Direction,
    HexCoord,
    Move,
    Observation,
    hex_distance,
    step,
)

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"


def cfg_text(**kv):
    lines = []
    for key, value in kv.items():
        lines.append(f"{key} = {value}")
    return "\n".join(lines)


def reference_derive_rng(root_seed, *labels):
    """derive_rng as first defined, through random.Random's constructor."""
    key = repr((root_seed, labels)).encode("utf-8")
    seed = int.from_bytes(hashlib.sha256(key).digest()[:8], "big")
    return random.Random(seed)


# The label shapes the engine uses: decide (tick, robot), conflict (tick),
# spawn (robot).
stream_labels = st.one_of(
    st.tuples(st.just("decide"), st.integers(0, 10**6), st.integers(0, 10**4)),
    st.tuples(st.just("conflict"), st.integers(0, 10**6)),
    st.tuples(st.just("spawn"), st.integers(0, 10**4)),
)


class TestDeriveRng:
    @settings(max_examples=300, deadline=None, database=None)
    @given(st.integers(0, 2**64 - 1), stream_labels)
    def test_matches_the_constructor_definition(self, root, labels):
        got = derive_rng(root, *labels)
        want = reference_derive_rng(root, *labels)
        assert type(got) is random.Random
        assert got.getstate() == want.getstate()  # gauss_next included
        assert [got.random() for _ in range(50)] == [want.random() for _ in range(50)]

    def test_same_labels_same_stream(self):
        a = derive_rng(7, "decide", 3, 1)
        b = derive_rng(7, "decide", 3, 1)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_labels_separate_streams(self):
        assert derive_rng(7, "decide", 3, 1).random() != derive_rng(7, "decide", 3, 2).random()
        assert derive_rng(7, "spawn", 0).random() != derive_rng(8, "spawn", 0).random()


class TestSpawn:
    def test_one_spawn_per_call_at_free_entry(self):
        state = init_state(parse_config(cfg_text(robots=3)))
        assert spawn_step(state) == 0
        assert state.world.occupancy[state.world.entry] == 0
        # entry now occupied: nothing spawns
        assert spawn_step(state) is None
        del state.world.occupancy[state.world.entry]
        state.robots[0].pos = HexCoord(0, 0)
        state.world.occupancy[HexCoord(0, 0)] = 0
        assert spawn_step(state) == 1

    def test_empty_pending_is_a_no_op(self):
        state = init_state(parse_config(cfg_text(robots=1)))
        spawn_step(state)
        del state.world.occupancy[state.world.entry]
        state.robots[0].pos = HexCoord(0, 0)
        state.world.occupancy[HexCoord(0, 0)] = 0
        before = dict(state.world.occupancy)
        assert spawn_step(state) is None
        assert state.world.occupancy == before

    def test_all_twenty_spawn_when_entry_keeps_clearing(self):
        state = init_state(parse_config(""))
        for t in range(20):
            spawn_step(state)
            rid = state.world.occupancy.get(state.world.entry)
            if rid is not None:  # push the newcomer out of the door
                del state.world.occupancy[state.world.entry]
                park = HexCoord(-12, t - 10)
                state.robots[rid].pos = park
                state.world.occupancy[park] = rid
        assert state.pending_spawn == []
        assert all(r.live for r in state.robots.values())

    def test_spawn_heading_is_seed_stable(self):
        a = init_state(parse_config(cfg_text(seed=9)))
        b = init_state(parse_config(cfg_text(seed=9)))
        spawn_step(a)
        spawn_step(b)
        assert a.robots[0].heading == b.robots[0].heading


class TestResolveConflicts:
    def small_state(self, placements, robots=None):
        robots = len(placements) if robots is None else robots
        state = init_state(parse_config(cfg_text(robots=robots, radius=6, margin=1, target="3,0", entry="-3,0")))
        state.pending_spawn.clear()
        for rid, pos in placements.items():
            robot = state.robots[rid]
            robot.live = True
            robot.pos = pos
            state.world.occupancy[pos] = rid
        return state

    def test_two_robots_contending_for_one_cell(self):
        contested = HexCoord(0, 0)
        winners = set()
        for seed in range(40):
            state = self.small_state({0: HexCoord(-1, 0), 1: HexCoord(1, 0)})
            moves = {0: Move(Direction(0), 1), 1: Move(Direction(3), 1)}
            resolve_conflicts(moves, state, random.Random(seed))
            occupants = [rid for rid, r in state.robots.items() if r.pos == contested]
            assert len(occupants) == 1
            loser = 1 - occupants[0]
            assert state.robots[loser].last_speed == 0
            winners.add(occupants[0])
            check_invariants(state)
        assert winners == {0, 1}  # both orders occur across seeds

    def test_clear_path_speed_two_lands_two_away(self):
        state = self.small_state({0: HexCoord(0, 0)})
        resolve_conflicts({0: Move(Direction(0), 2)}, state, random.Random(1))
        assert state.robots[0].pos == HexCoord(2, 0)
        assert state.robots[0].last_speed == 2

    def test_speed_zero_stays_put(self):
        state = self.small_state({0: HexCoord(1, 1)})
        resolve_conflicts({0: Move(Direction(2), 0)}, state, random.Random(1))
        assert state.robots[0].pos == HexCoord(1, 1)

    def test_vacated_cells_free_up_within_a_tick(self):
        # A column moving in lockstep: whoever goes first, every robot must
        # advance one cell because predecessors vacate.
        for seed in range(20):
            state = self.small_state({i: HexCoord(i - 2, 0) for i in range(4)}, robots=4)
            moves = {i: Move(Direction(0), 1) for i in range(4)}
            resolve_conflicts(moves, state, random.Random(seed))
            got = sorted(state.robots[i].pos for i in range(4))
            moved = sum(state.robots[i].last_speed for i in range(4))
            assert moved >= 1
            assert len(set(got)) == 4
            check_invariants(state)

    def test_fuzzed_intents_preserve_invariants(self):
        rng = random.Random(99)
        for _ in range(300):
            n = rng.randint(1, 10)
            cells = set()
            while len(cells) < n:
                c = HexCoord(rng.randint(-3, 3), rng.randint(-3, 3))
                if hex_distance(c, HexCoord(0, 0)) <= 3:
                    cells.add(c)
            state = self.small_state(dict(enumerate(sorted(cells))), robots=n)
            moves = {i: Move(Direction(rng.randrange(6)), rng.randrange(3)) for i in range(n)}
            resolve_conflicts(moves, state, rng)
            check_invariants(state)


    @settings(max_examples=200, deadline=None, database=None)
    @given(
        st.lists(st.integers(0, 5), min_size=2, max_size=6, unique=True),
        st.lists(st.integers(1, 2), min_size=6, max_size=6),
        st.integers(0, 2**32 - 1),
    )
    def test_robots_converging_on_one_cell(self, sides, speeds, seed):
        """Robot i stands on side sides[i] of an empty cell and moves into it.
        The first robot to step in wins the cell; with the same seed,
        dropping the highest id's move leaves the same winner, unless the
        dropped robot was it."""
        center = HexCoord(0, 0)
        placements = {rid: step(center, Direction(side)) for rid, side in enumerate(sides)}

        def winner(movers):
            state = self.small_state(placements)
            state.world.occupancy = EntryLog(state.world.occupancy)
            moves = {
                rid: Move(Direction((sides[rid] + 3) % 6), speeds[rid]) for rid in range(movers)
            }
            resolve_conflicts(moves, state, random.Random(seed))
            check_invariants(state)
            for rid, move in moves.items():
                assert state.robots[rid].last_speed <= move.speed
            return next(rid for cell, rid in state.world.occupancy.entries if cell == center)

        first = winner(len(sides))
        if first != len(sides) - 1:
            assert winner(len(sides) - 1) == first


class EntryLog(dict):
    """An occupancy table that also lists each (cell, robot) write in order."""

    def __init__(self, cells):
        super().__init__(cells)
        self.entries = []

    def __setitem__(self, cell, rid):
        self.entries.append((cell, rid))
        super().__setitem__(cell, rid)


class TestTick:
    def test_empty_state_only_increments_the_clock(self):
        state = init_state(parse_config(cfg_text(robots=1)))
        state.pending_spawn.clear()
        state.robots[1 - 1].scripted_removed = True  # keep conservation honest
        tick(state)
        assert state.tick == 1
        assert state.world.occupancy == {}

    def test_adjacent_ga_robot_reaches_the_target_in_one_tick(self):
        cfg = parse_config(cfg_text(robots=1, radius=6, margin=1, target="1,0", entry="0,0", seed=3))
        state = init_state(cfg)
        tick(state)
        row = state.trace[-1]
        assert (row[2], row[3]) == (1, 0)
        assert state.robots[0].arrived

    def test_same_seed_runs_are_identical(self):
        text = cfg_text(robots=8, max_ticks=60, seed=21)
        a = run(parse_config(text))
        b = run(parse_config(text))
        assert a.trace == b.trace
        assert a.summary == b.summary

    def test_invariants_hold_every_tick_with_removals(self):
        cfg = parse_config(cfg_text(robots=10, max_ticks=80, seed=5, removals="12:3, 30:0, 5:9"))
        state = init_state(cfg)
        for _ in range(80):
            tick(state)
            check_invariants(state)
        assert state.robots[3].scripted_removed
        assert state.robots[9].scripted_removed

    def test_removal_of_unspawned_robot_cancels_its_spawn(self):
        cfg = parse_config(cfg_text(robots=20, removals="0:19", max_ticks=40))
        state = init_state(cfg)
        for _ in range(40):
            tick(state)
            check_invariants(state)
        assert state.robots[19].pos is None  # never spawned
        assert 19 not in state.pending_spawn
        assert state.robots[19].scripted_removed

    def test_bco_has_exactly_one_leader_after_first_spawn(self):
        cfg = parse_config(cfg_text(controller="bco", robots=10, seed=2, max_ticks=120))
        state = init_state(cfg)
        leaders = []
        for _ in range(120):
            tick(state)
            if not state.live_ids():
                break
            assert state.board is not None
            leaders.append(state.board.leader)
        assert leaders  # the board existed from the first tick onward

    def test_bco_live_recent_leader_is_never_replaced(self):
        cfg = parse_config(cfg_text(controller="bco", robots=10, seed=4, max_ticks=150))
        state = init_state(cfg)
        prev = None
        for _ in range(150):
            was_live = prev is not None and state.robots[prev].live
            was_fresh = (
                prev is not None
                and state.board is not None
                and state.tick - state.board.last_heard_tick <= cfg.bco.leader_timeout
            )
            tick(state)
            if state.board is None:
                continue
            if prev is not None and was_live and was_fresh:
                assert state.board.leader == prev
            prev = state.board.leader


class TestRun:
    def test_zero_max_ticks_times_out_with_empty_trace(self):
        res = run(parse_config(cfg_text(max_ticks=0)))
        assert res.status == STATUS_TIMEOUT
        assert res.trace == []
        assert res.summary["ticks"] == 0

    def test_single_robot_spawned_next_to_target_succeeds_quickly(self):
        for controller in ("ga", "aco", "bco"):
            res = run(
                parse_config(
                    cfg_text(controller=controller, robots=1, radius=6, margin=1, target="1,0", entry="0,0")
                )
            )
            assert res.status == STATUS_SUCCESS
            assert res.summary["ticks"] <= 2
            assert res.exit_code == 0

    def test_summary_series_length_matches_ticks(self):
        res = run(parse_config(cfg_text(max_ticks=40, seed=13)))
        n = res.summary["ticks"]
        assert len(res.summary["median_distance"]) == n
        assert len(res.summary["mean_distance"]) == n
        assert len(res.summary["largest_component"]) == n
        assert all(isinstance(v, float) for v in res.summary["median_distance"])

    @pytest.mark.parametrize("scenario", sorted(p.name for p in (REPO / "scenarios").glob("*.cfg")))
    def test_distance_series_are_the_statistics_of_the_trace(self, scenario):
        """Each tick's distances, rebuilt from its trace rows with robots
        that arrived on earlier ticks as 0, give the median and mean series
        of statistics.median and statistics.fmean, to the byte summary.json
        writes."""
        res = run(parse_config((REPO / "scenarios" / scenario).read_text()))
        dist_by_tick = {}
        for row in res.trace:
            dist_by_tick.setdefault(row[0], []).append(row[6])
        arrived, medians, means, parities = 0, [], [], set()
        for t in range(res.summary["ticks"]):
            tick_distances = dist_by_tick.get(t, [])
            distances = [0] * arrived + [0 if d <= engine.ARRIVAL_DISTANCE else d for d in tick_distances]
            arrived += sum(d <= engine.ARRIVAL_DISTANCE for d in tick_distances)
            parities.add(len(distances) % 2)
            medians.append(float(statistics.median(distances)) if distances else None)
            means.append(statistics.fmean(distances) if distances else None)
        assert parities == {0, 1}  # odd and even counts both occur
        assert json.dumps(res.summary["median_distance"]) == json.dumps(medians)
        assert json.dumps(res.summary["mean_distance"]) == json.dumps(means)

    def test_all_robots_removed_is_extinction(self):
        removals = ", ".join(f"{5 + i}:{i}" for i in range(3))
        res = run(parse_config(cfg_text(robots=3, removals=removals, max_ticks=100)))
        assert res.status == STATUS_EXTINCT
        assert res.exit_code == 3

    def test_success_needs_one_arrival_not_every_robot(self):
        """Success is no robot left live or pending with at least one
        arrived: a robot removed by script does not arrive."""
        res = run(parse_config(cfg_text(robots=3, removals="1:2", seed=2)))
        assert res.status == STATUS_SUCCESS
        assert res.exit_code == 0
        assert res.summary["fraction_arrived"] == 2 / 3

    def test_fraction_arrived_counts_retired_robots(self):
        res = run(parse_config(cfg_text(robots=5, radius=6, margin=1, target="2,0", entry="-2,0", max_ticks=200, seed=1)))
        arrived = sum(1 for r in res.state.robots.values() if r.arrived)
        assert res.summary["fraction_arrived"] == arrived / 5
        if res.status == STATUS_SUCCESS:
            assert arrived == 5


class TestTtlZero:
    @pytest.mark.parametrize("controller", ["ga", "aco", "bco"])
    def test_no_message_leaves_its_sender(self, controller):
        """With ttl 0 nothing is delivered, so each robot knows no target
        distance but those it sensed itself."""
        cfg = parse_config(cfg_text(
            controller=controller, robots=8, radius=6, margin=1, target="3,0", entry="-3,0",
            sensing_radius=3, ttl=0, seed=5, max_ticks=80,
        ))
        emit, traced_tick = engine._emit_reports, engine.tick
        own = {}  # robot -> least target distance it sensed
        apart = 0  # ticks on which one robot knew a distance and another none

        def sense_and_emit(state, live):
            for rid in live:
                d = state.world.geometry[state.robots[rid].pos][TARGET_DISTANCE]
                if d <= cfg.sensing_radius:
                    own[rid] = min(d, own.get(rid, d))
            return emit(state, live)

        def tick_and_check(state):
            nonlocal apart
            traced_tick(state)
            check_invariants(state)
            for rid, robot in state.robots.items():
                assert robot.known_target_distance == own.get(rid)
            known = {state.robots[rid].known_target_distance is None for rid in state.live_ids()}
            apart += known == {True, False}

        with mock.patch.object(engine, "_emit_reports", sense_and_emit), mock.patch.object(
            engine, "tick", tick_and_check
        ):
            res = run(cfg)
        assert res.summary["messages_delivered"] == 0
        assert apart  # so a shared distance would have shown


@st.composite
def removal_scenarios(draw):
    """A small board, 2-12 robots and a removal script, timed while robots
    still spawn (at most one a tick) and early runs end, so some robots go
    before they spawn and some after. A script names each robot once."""
    radius = draw(st.integers(4, 6))
    robots = draw(st.integers(2, 12))
    when = st.integers(0, robots + 10)
    removals = draw(
        st.lists(
            st.tuples(when, st.integers(0, robots - 1)), max_size=8, unique_by=lambda r: r[1]
        )
    )
    return cfg_text(
        controller=draw(st.sampled_from(("ga", "aco", "bco"))),
        robots=robots,
        radius=radius,
        margin=1,
        target=f"{radius - 2},0",
        entry=f"{2 - radius},0",
        seed=draw(st.integers(0, 2**64 - 1)),
        max_ticks=draw(st.integers(30, 60)),
        removals=", ".join(f"{t}:{rid}" for t, rid in removals),
    )


class TestRemovalsProperty:
    @settings(max_examples=40, deadline=None, database=None)
    @given(removal_scenarios())
    def test_invariants_hold_every_tick_and_runs_replay(self, text):
        cfg = parse_config(text)
        state = init_state(cfg)
        state.tracker = TrackerLog()
        while state.tick < cfg.max_ticks:
            tick(state)
            check_invariants(state)
            if not state.live_ids() and not state.pending_spawn:
                break
        for t, rid in cfg.removals:
            if t < state.tick and not state.robots[rid].arrived:
                assert state.robots[rid].scripted_removed
        again = run(parse_config(text), tracker=TrackerLog())
        assert again.trace == state.trace
        assert again.state.tracker.entries == state.tracker.entries


def reference_components(positions, comm_range):
    """Components by breadth-first search over comm_neighbors, each sorted,
    ordered by least id."""
    left, components = sorted(positions), []
    while left:
        component = [left[0]]
        for rid in component:  # grows while it is walked
            component += sorted(comm_neighbors(positions, rid, comm_range) - set(component))
        components.append(sorted(component))
        left = [rid for rid in left if rid not in component]
    return components


def run_checking_the_comm_graph(text):
    """Run the scenario; at every tick the masks the flood gets, carried from
    the last tick, equal a fresh build over the live positions, and each
    component equals the all-pairs reference. Returns the blocked spawns,
    arrivals and scripted removals of live robots seen."""
    cfg = parse_config(text)
    state = init_state(cfg)

    def live_positions():
        return {rid: state.robots[rid].pos for rid in state.live_ids()}

    def flood(masks, *args):
        positions = live_positions()
        assert masks == neighbor_masks(positions, cfg.comm_range)
        for rid, mask in masks.items():
            assert ids_of(mask) == sorted(comm_neighbors(positions, rid, cfg.comm_range))
        return flood_until_quiet(masks, *args)

    def components(masks):
        got = connectivity_components(masks)
        assert got == reference_components(live_positions(), cfg.comm_range)
        return got

    blocked = arrived = removed = 0
    with mock.patch.object(engine, "flood_until_quiet", flood), mock.patch.object(
        engine, "connectivity_components", components
    ):
        while state.tick < cfg.max_ticks:
            was_live = state.live_ids()
            waiting = state.pending_spawn[:1]
            tick(state)
            blocked += bool(waiting) and waiting[0] in state.pending_spawn
            arrived += sum(state.robots[rid].arrived for rid in was_live)
            removed += sum(state.robots[rid].scripted_removed for rid in was_live)
            if not state.live_ids() and not state.pending_spawn:
                break
    return blocked, arrived, removed


class TestCarriedCommGraph:
    @settings(max_examples=40, deadline=None, database=None)
    @given(removal_scenarios())
    def test_carried_masks_equal_a_fresh_build_every_tick(self, text):
        run_checking_the_comm_graph(text)

    def test_blocked_spawns_arrivals_and_removals_keep_the_graph_fresh(self):
        text = cfg_text(
            robots=12, radius=5, margin=1, target="3,0", entry="-3,0", seed=4,
            max_ticks=60, removals="1:0, 2:1, 5:3, 8:4, 12:11",
        )
        blocked, arrived, removed = run_checking_the_comm_graph(text)
        assert blocked and arrived and removed


def reference_observations(state, twin, reach):
    """Observation assembly rebuilt per listener from the heard robots
    themselves: each live robot walks every origin it heard, ascending, and
    reads that robot's position, heading, last speed, whether it senses the
    target and whether it leads. Heading counts are made whatever the
    controller. Listeners' knowledge and replicas are updated in twin, so
    the origins in state stay as they were when they sent. Returns the
    observations, the dance boards heard, and how many heard origins sensed
    the target, per listener."""
    cfg = state.config
    geometry = state.world.geometry
    leader = state.board.leader if state.board is not None else None
    observations, heard, senders = {}, {}, {}
    for rid in state.live_ids():
        robot = twin.robots[rid]
        counts = [0] * 6
        senders[rid] = 0
        for origin in ids_of(reach[rid]):
            sender = state.robots[origin]
            if sender.last_speed >= 1:
                counts[sender.heading] += 1
            d = geometry[sender.pos][TARGET_DISTANCE]
            if d <= cfg.sensing_radius:
                senders[rid] += 1
                if robot.known_target_distance is None or d < robot.known_target_distance:
                    robot.known_target_distance = d
                if robot.pher is not None:
                    robot.pher.deposit(state.world, sender.pos, d)
            if origin == leader:
                strength = dance_strength(sender.known_target_distance)
                heard[rid] = DanceBoard(origin, sender.heading, strength, state.tick)
        observations[rid] = Observation(robot.pos, robot.known_target_distance, tuple(counts))
    return observations, heard, senders


def run_against_the_reference_decode(scenario):
    """Run a shipped scenario; at every tick the engine's observations and
    its replicas' pheromone levels equal those of the per-listener reference
    run on copies of the robots, and each bco robot decides with the dance
    board the reference says it heard. Returns how often a replica took
    deposits from two or more origins in one tick, and how many adverts and
    neighbor headings were heard."""
    cfg = parse_config((REPO / "scenarios" / scenario).read_text())
    state = init_state(cfg)
    assemble = engine._assemble_observations
    decide_bco = engine.decide_move_bco
    made = {"two_origin_deposits": 0, "adverts": 0, "headings": 0}
    want_heard = {}

    def observe(state, reach, *tables):
        twin = copy.copy(state)
        twin.robots = copy.deepcopy(state.robots)
        want, heard, senders = reference_observations(state, twin, reach)
        want_heard.clear()
        want_heard.update(heard)
        got = assemble(state, reach, *tables)
        assert list(got) == list(want)
        for rid, obs in got.items():
            robot, ref = state.robots[rid], twin.robots[rid]
            assert obs.situation == want[rid].situation
            assert obs.best_known_target_distance == want[rid].best_known_target_distance
            assert robot.known_target_distance == ref.known_target_distance
            if cfg.controller == "aco":  # float sums: equal only in the same order
                assert list(robot.pher.levels.items()) == list(ref.pher.levels.items())
                made["two_origin_deposits"] += senders[rid] >= 2
            if cfg.controller == "ga":
                assert obs.heading_counts == want[rid].heading_counts
                made["headings"] += sum(obs.heading_counts)
            else:
                assert obs.heading_counts == (0,) * 6
        return got

    def decide(rid, heading, obs, board, *args):
        if state.board.leader == rid:
            assert board is state.board
        else:
            assert board == want_heard.get(rid)
            made["adverts"] += board is not None
        return decide_bco(rid, heading, obs, board, *args)

    with mock.patch.object(engine, "_assemble_observations", observe), mock.patch.object(
        engine, "decide_move_bco", decide
    ):
        while state.tick < cfg.max_ticks:
            tick(state)
            if not state.live_ids() and not state.pending_spawn:
                break
    return made


class TestObservationAssembly:
    def test_ga_matches_the_per_listener_decode(self):
        assert run_against_the_reference_decode("ga_default.cfg")["headings"]

    def test_aco_trails_matches_the_per_listener_decode(self):
        assert run_against_the_reference_decode("aco_trails.cfg")["two_origin_deposits"]

    def test_bco_failover_matches_the_per_listener_decode(self):
        assert run_against_the_reference_decode("bco_failover.cfg")["adverts"]


def place(state, rid, cell):
    """Spawn-like placement of pending robot rid on cell."""
    state.pending_spawn.remove(rid)
    robot = state.robots[rid]
    robot.live = True
    robot.pos = cell
    state.world.occupancy[cell] = rid


def inaccessible_cell(state):
    place(state, 0, HexCoord(100, 0))


def two_cells(state):
    place(state, 0, state.world.entry)
    state.world.occupancy[step(state.world.entry, Direction.E)] = 0


def non_live_occupant(state):
    state.world.occupancy[state.world.entry] = 0  # robot 0 is still pending


def unplaced_live_robot(state):
    state.pending_spawn.remove(1)
    state.robots[1].live = True


def popped_from_pending(state):
    state.pending_spawn.pop()


# Each broken state is caught first by its own check, named by the message.
BROKEN_STATES = [
    (inaccessible_cell, r"robot 0 occupies inaccessible cell"),
    (two_cells, r"robot 0 occupies two cells"),
    (non_live_occupant, r"holds robot 0, which is not live there"),
    (unplaced_live_robot, r"live robot 1 is not on its cell"),
    (popped_from_pending, r"robot count not conserved: 0 live, 0 removed"),
]


class TestCheckInvariants:
    @pytest.mark.parametrize(
        "breaks,message", BROKEN_STATES, ids=[fn.__name__ for fn, _ in BROKEN_STATES]
    )
    def test_each_check_raises_its_own_message(self, breaks, message):
        state = init_state(parse_config("robots = 3"))
        check_invariants(state)
        breaks(state)
        with pytest.raises(AssertionError, match=message):
            check_invariants(state)

    def test_broken_state_fails_under_optimized_python(self):
        """The checks are explicit raises: ``python -O`` strips assert
        statements but must not strip these."""
        script = (
            "from hexswarm.config import parse_config\n"
            "from hexswarm.engine import check_invariants, init_state\n"
            "state = init_state(parse_config('robots = 3'))\n"
            "state.robots[1].live = True  # live, but never placed\n"
            "check_invariants(state)\n"
        )
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=120,
        )
        assert proc.returncode != 0
        assert "AssertionError: live robot 1 " in proc.stderr
