"""Deterministic tick loop that owns all mutable state and all rng streams.

Each tick runs fixed phases: scripted removals, spawn, report emission (plus
observer deposits) into the tables listeners read, the reach walk,
observation assembly from each robot's reach over those tables (plus
pheromone replica merge), the decide phase, conflict resolution, then one
pass of trace recording, arrival retirement and distances. Every phase after
spawn reads the one live list taken there. The decide phase is one branch
per controller, doing all of that controller's work: bco elects its leader
first, and aco evaporates the fields after its decisions. Each branch hands
conflict resolution a ``Move`` per live robot, keyed by robot id.

A run hands each tick's trace rows to ``state.trace`` (``extend``), by
default a list, and each flood's inputs to ``state.tracker``, by default
None: the run then formats no tracker.csv rows. A tracker is anything with
``flood(masks, outbox, ttl, tick)``; it formats the rows or has them
formatted (see ``comms``: a ``TrackerLog`` keeps them, the CLI's writer
process writes them). Whatever the tracker, the run's reach and
``state.messages_delivered`` come from its one walk a tick,
``flood_until_quiet``, which no tracker sees. A caller that passes
file-backed sinks to ``run`` keeps memory flat in the run's length.

Every random draw comes from a stream derived from the root seed by a
stable label (per-robot-per-tick decide labels, a per-tick conflict label,
per-robot spawn labels), so identical configs replay bit-identically and
adding observers never perturbs behavior.
"""

from __future__ import annotations

import _random
import hashlib
import random
from dataclasses import dataclass, field
from math import fsum
from typing import Any, Optional

from .aco import PheromoneField, TransitionTable, decide_move_aco
from .bco import DanceBoard, dance_strength, decide_move_bco, elect_leader
from .comms import (
    comm_neighbors,
    connectivity_components,
    flood_until_quiet,
    ids_of,
    neighbor_masks,
    new_mailboxes,  # not called here; tracing hooks patch it under this name
    send,  # not called here; tracing hooks patch it under this name
)
from .config import ScenarioConfig
from .ga import decide_move_ga
from .hexworld import TARGET_DISTANCE, Direction, HexCoord, Move, Observation, World, make_world

STATUS_SUCCESS = "success"
STATUS_TIMEOUT = "timeout"
STATUS_EXTINCT = "extinct"

EXIT_CODES = {STATUS_SUCCESS: 0, STATUS_TIMEOUT: 2, STATUS_EXTINCT: 3}

TRACE_HEADER = (
    "tick",
    "robot_id",
    "q",
    "r",
    "heading",
    "speed",
    "dist_to_target",
    "controller",
    "leader_id",
    "component_size",
)

ARRIVAL_DISTANCE = 1  # on or adjacent to the target counts as arrived


def derive_rng(root_seed: int, *labels) -> random.Random:
    """Independent deterministic stream for (root_seed, labels): the same
    object as random.Random(seed), built without random.py's Python-level
    wrappers (Random.__new__ does not seed; gauss_next is all they set)."""
    key = repr((root_seed, labels)).encode("utf-8")
    seed = int.from_bytes(hashlib.sha256(key).digest()[:8], "big")
    rng = random.Random.__new__(random.Random)
    _random.Random.seed(rng, seed)
    rng.gauss_next = None
    return rng


@dataclass
class Robot:
    pos: Optional[HexCoord] = None
    heading: Direction = Direction.E
    last_speed: int = 0
    live: bool = False
    arrived: bool = False
    scripted_removed: bool = False
    known_target_distance: Optional[int] = None
    next_seq: int = 0
    pher: Optional[PheromoneField] = None  # ACO replica


@dataclass
class SimState:
    config: ScenarioConfig
    world: World
    robots: dict[int, Robot]
    pending_spawn: list[int]
    tick: int = 0
    board: Optional[DanceBoard] = None  # bco only
    tracker: Any = None  # gets each flood's inputs, to format its rows; or None
    messages_delivered: int = 0
    global_pher: Optional[PheromoneField] = None  # observer field, never read by robots
    table: Optional[TransitionTable] = None  # aco only: the run's transition rule
    trace: list[tuple] = field(default_factory=list)  # row sink: anything with extend
    median_series: list[float] = field(default_factory=list)
    mean_series: list[float] = field(default_factory=list)
    component_series: list[int] = field(default_factory=list)
    first_arrival_tick: Optional[int] = None
    # Last tick's post-move comm graph; no robot moves before the next flood.
    comm_masks: dict[int, int] = field(default_factory=dict)

    def live_ids(self) -> list[int]:
        return sorted(rid for rid, r in self.robots.items() if r.live)

    def arrived_count(self) -> int:
        return sum(1 for r in self.robots.values() if r.arrived)


def init_state(cfg: ScenarioConfig) -> SimState:
    world = make_world(cfg.radius, cfg.margin, cfg.target, cfg.entry)
    aco = cfg.controller == "aco"
    robots = {
        rid: Robot(pher=PheromoneField(cfg.aco) if aco else None) for rid in range(cfg.robots)
    }
    return SimState(
        config=cfg,
        world=world,
        robots=robots,
        pending_spawn=list(range(cfg.robots)),
        global_pher=PheromoneField(cfg.aco) if aco else None,
        table=TransitionTable(world, cfg.aco) if aco else None,
    )


def spawn_step(state: SimState) -> Optional[int]:
    """Materialize at most one pending robot at the entry cell if it is free."""
    if not state.pending_spawn:
        return None
    entry = state.world.entry
    if entry in state.world.occupancy:
        return None
    rid = state.pending_spawn.pop(0)
    robot = state.robots[rid]
    robot.live = True
    robot.pos = entry
    robot.heading = Direction(derive_rng(state.config.seed, "spawn", rid).randrange(6))
    state.world.occupancy[entry] = rid
    return rid


def resolve_conflicts(moves: dict[int, Move], state: SimState, rng: random.Random) -> None:
    """Execute each robot's move in a uniformly random order; it walks unit
    steps until its speed is spent or the next cell is inaccessible or
    occupied. Returns None: the steps a robot took are its last_speed.

    Priority keys are drawn per move in ascending robot-id order, so the
    permutation is uniform yet dropping the highest id leaves the relative
    order of the rest untouched.
    """
    keyed = sorted([(rng.random(), rid) for rid in sorted(moves)])
    occ = state.world.occupancy
    geometry = state.world.geometry
    for _, rid in keyed:
        move = moves[rid]
        robot = state.robots[rid]
        pos = robot.pos
        steps = 0
        for _ in range(move.speed):
            nxt = geometry[pos][move.direction]
            if nxt is None or nxt in occ:
                break
            del occ[pos]
            occ[nxt] = rid
            pos = nxt
            steps += 1
        robot.pos = pos
        robot.last_speed = steps
        if move.speed >= 1:
            robot.heading = move.direction


Sensed = dict[int, tuple[HexCoord, int]]  # sensing robot -> (cell, target distance)


def _emit_reports(state: SimState, live: list[int]) -> tuple[
    dict[int, range], Sensed, Optional[list[int]], Optional[DanceBoard]
]:
    """Per live robot: sense the target, update own knowledge, deposit a
    sensed distance in the observer field, and number this tick's messages
    (position report, target report when sensing, dance advert for the BCO
    leader), seqs in that order. What they report is written once, as the
    tables listeners read. Returns the outbox, each robot's range of new
    seqs; each sensing robot's (cell, distance); for the GA only, per
    Direction, the mask of the robots that moved that way; and the leader's
    advert as the board its hearers get, its strength a snapshot taken
    here."""
    cfg = state.config
    geometry = state.world.geometry
    leader = state.board.leader if state.board is not None else None
    moved = [0] * 6 if cfg.controller == "ga" else None
    outbox, sensed, advert = {}, {}, None
    for rid in live:
        robot = state.robots[rid]
        sent = 1  # position report
        if moved is not None and robot.last_speed >= 1:
            moved[robot.heading] |= 1 << rid
        own_d = geometry[robot.pos][TARGET_DISTANCE]
        if own_d <= cfg.sensing_radius:
            if robot.known_target_distance is None or own_d < robot.known_target_distance:
                robot.known_target_distance = own_d
            sent += 1  # target report
            sensed[rid] = (robot.pos, own_d)
            if state.global_pher is not None:
                state.global_pher.deposit(state.world, robot.pos, own_d)
        if rid == leader:
            sent += 1  # dance advert
            strength = dance_strength(robot.known_target_distance)
            advert = DanceBoard(rid, robot.heading, strength, state.tick)
        outbox[rid] = range(robot.next_seq, robot.next_seq + sent)
        robot.next_seq += sent
    return outbox, sensed, moved, advert


def _assemble_observations(
    state: SimState, reach: dict[int, int], sensed: Sensed, moved: Optional[list[int]]
) -> dict[int, Observation]:
    """Build per-robot observations from the reports each robot heard, and
    merge heard target reports into ACO replicas.

    Every live robot's messages flood to the one ttl cfg.ttl over a
    symmetric comm graph, so robot r hears exactly the origins in the mask
    reach[r]. A listener walks the heard origins that sensed the target,
    ascending, so a replica gets its deposits in origin order. Heading
    counts, for the GA only, are the heard bits of each of moved's masks: a
    stationary robot has no motion to align with.
    """
    sensed_mask = sum(1 << origin for origin in sensed)
    observations = {}
    for rid, hears in reach.items():
        robot = state.robots[rid]
        heard = hears & sensed_mask
        for origin in ids_of(heard) if heard else ():
            cell, d = sensed[origin]
            if robot.known_target_distance is None or d < robot.known_target_distance:
                robot.known_target_distance = d
            if robot.pher is not None:  # trails carry target data
                robot.pher.deposit(state.world, cell, d)
        observations[rid] = Observation(
            robot.pos,
            robot.known_target_distance,
            tuple([(hears & mask).bit_count() for mask in moved]) if moved else (0,) * 6,
        )
    return observations


def tick(state: SimState) -> None:
    """Advance the simulation one tick through the fixed phase order."""
    cfg = state.config
    t = state.tick

    # scripted removals for this tick
    for remove_tick, rid in cfg.removals:
        if remove_tick != t:
            continue
        robot = state.robots[rid]
        if robot.live:
            robot.live = False
            robot.scripted_removed = True
            del state.world.occupancy[robot.pos]
        elif rid in state.pending_spawn:
            state.pending_spawn.remove(rid)
            robot.scripted_removed = True

    spawned = spawn_step(state)

    live = state.live_ids()  # unchanged until arrival retirement
    outbox, sensed, moved, advert = _emit_reports(state, live)
    # The comm graph carried from the last tick, less the robots that left
    # since; the robot spawned, the one it does not hold, is scanned in.
    live_mask = sum(1 << rid for rid in live)
    masks = {rid: state.comm_masks.get(rid, 0) & live_mask for rid in live}
    if spawned is not None:
        positions = {rid: state.robots[rid].pos for rid in live}
        for nb in comm_neighbors(positions, spawned, cfg.comm_range):
            masks[spawned] |= 1 << nb
            masks[nb] |= 1 << spawned
    if state.tracker is not None:
        state.tracker.flood(masks, outbox, cfg.ttl, t)
    reach: dict[int, int] = {}
    state.messages_delivered += flood_until_quiet(masks, outbox, cfg.ttl, reach)

    observations = _assemble_observations(state, reach, sensed, moved)

    # Each decision draws from its own stream, dropped once the controller
    # returns, so a controller may leave draws unmade (the GA stops at its
    # answer).
    moves: dict[int, Move] = {}
    if cfg.controller == "ga":
        for rid in live:
            rng = derive_rng(cfg.seed, "decide", t, rid)
            moves[rid] = decide_move_ga(observations[rid], state.world, cfg.ga, rng)
    elif cfg.controller == "aco":
        # A robot never smells its own trail: its replica got its deposits
        # from heard reports, and nothing reads it again this tick once it has
        # decided. Replicas of robots that left are never read again, and
        # those of pending robots are empty.
        for rid in live:
            pher = state.robots[rid].pher
            rng = derive_rng(cfg.seed, "decide", t, rid)
            moves[rid] = decide_move_aco(observations[rid], pher, state.table, rng)
            pher.evaporate()
        state.global_pher.evaporate()
    else:
        # Only the current leader sends an advert. Over the symmetric comm
        # graph, the robots that heard it are those its own messages reach.
        heard = reach[advert.leader] if advert is not None else 0
        if heard:
            state.board.last_heard_tick = t
        if live:
            headings = {rid: state.robots[rid].heading for rid in live}
            state.board = elect_leader(headings, observations, t, state.board, cfg.bco)
        for rid in live:
            robot = state.robots[rid]
            if state.board.leader == rid:
                view = state.board
            else:
                view = advert if heard >> rid & 1 else None
            rng = derive_rng(cfg.seed, "decide", t, rid)
            obs = observations[rid]
            moves[rid] = decide_move_bco(rid, robot.heading, obs, view, cfg.bco, state.world, rng)

    resolve_conflicts(moves, state, derive_rng(cfg.seed, "conflict", t))

    # Trace rows, arrival retirement and distances in one pass. Arrived robots
    # count as distance 0; robots removed by script drop out.
    state.comm_masks = neighbor_masks({rid: state.robots[rid].pos for rid in live}, cfg.comm_range)
    components = connectivity_components(state.comm_masks)
    comp_size = {rid: len(comp) for comp in components for rid in comp}
    leader_id = state.board.leader if state.board else ""
    geometry = state.world.geometry
    distances = [0] * state.arrived_count()  # arrived on earlier ticks
    rows = []
    for rid in live:
        robot = state.robots[rid]
        d = geometry[robot.pos][TARGET_DISTANCE]
        rows.append(
            (
                t,
                rid,
                robot.pos.q,
                robot.pos.r,
                int(robot.heading),
                robot.last_speed,
                d,
                cfg.controller,
                leader_id,
                comp_size[rid],
            )
        )
        if d <= ARRIVAL_DISTANCE:
            robot.live = False
            robot.arrived = True
            del state.world.occupancy[robot.pos]
            if state.first_arrival_tick is None:
                state.first_arrival_tick = t
            d = 0
        distances.append(d)
    state.trace.extend(rows)
    # The floats statistics.median and fmean give, without importing statistics.
    distances.sort()
    n = len(distances)
    state.median_series.append((distances[(n - 1) // 2] + distances[n // 2]) / 2 if n else None)
    state.mean_series.append(fsum(distances) / n if n else None)
    state.component_series.append(max((len(c) for c in components), default=0))

    state.tick = t + 1


@dataclass
class RunResult:
    status: str
    trace: list[tuple]
    summary: dict
    state: SimState

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.status]


def build_summary(state: SimState, status: str) -> dict:
    cfg = state.config
    summary = {
        "controller": cfg.controller,
        "seed": cfg.seed,
        "robots": cfg.robots,
        "status": status,
        "ticks": state.tick,
        "first_arrival_tick": state.first_arrival_tick,
        "fraction_arrived": state.arrived_count() / cfg.robots,
        "messages_delivered": state.messages_delivered,
        "median_distance": state.median_series,
        "mean_distance": state.mean_series,
        "largest_component": state.component_series,
    }
    if cfg.controller == "aco":
        summary["pheromone_total"] = state.global_pher.total()
        summary["pheromone_cells"] = len(state.global_pher.levels)
    return summary


def run(cfg: ScenarioConfig, trace=None, tracker=None) -> RunResult:
    """Run a scenario to success, extinction, or the tick limit, handing
    trace rows to trace (by default a list) and each flood's inputs to
    tracker (by default none: no tracker.csv row is formatted;
    ``TrackerLog()`` keeps them). Success: no robot is left live or
    pending, and at least one arrived."""
    state = init_state(cfg)
    if trace is not None:
        state.trace = trace
    state.tracker = tracker
    status = STATUS_TIMEOUT
    while state.tick < cfg.max_ticks:
        tick(state)
        if not any(r.live for r in state.robots.values()) and not state.pending_spawn:
            status = STATUS_SUCCESS if state.arrived_count() > 0 else STATUS_EXTINCT
            break
    return RunResult(status, state.trace, build_summary(state, status), state)


def check_invariants(state: SimState) -> None:
    """Occupancy exclusivity, accessibility, and robot-count conservation;
    explicit raises, not asserts, so ``python -O`` keeps the checks."""
    seen_ids = set()
    for cell, rid in state.world.occupancy.items():
        if not state.world.accessible(cell):
            raise AssertionError(f"robot {rid} occupies inaccessible cell {cell}")
        if rid in seen_ids:
            raise AssertionError(f"robot {rid} occupies two cells")
        seen_ids.add(rid)
        robot = state.robots[rid]
        if not (robot.live and robot.pos == cell):
            raise AssertionError(f"cell {cell} holds robot {rid}, which is not live there")
    for rid in state.live_ids():
        if state.world.occupancy.get(state.robots[rid].pos) != rid:
            raise AssertionError(f"live robot {rid} is not on its cell {state.robots[rid].pos}")
    live = sum(1 for r in state.robots.values() if r.live)
    removed = sum(1 for r in state.robots.values() if r.arrived or r.scripted_removed)
    if live + len(state.pending_spawn) + removed != len(state.robots):
        raise AssertionError(f"robot count not conserved: {live} live, {removed} removed")
