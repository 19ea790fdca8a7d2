"""Deterministic tick loop that owns all mutable state and all rng streams.

Each tick runs fixed phases: scripted removals, spawn, report emission,
flooding to quiescence, observation assembly (plus pheromone replica merge),
leader election, controller decisions, conflict resolution, pheromone
deposit/evaporation, then arrival retirement and trace recording.

Every random draw comes from a stream derived from the root seed by a
stable label (per-robot-per-tick decide labels, a per-tick conflict label,
per-robot spawn labels), so identical configs replay bit-identically and
adding observers never perturbs behavior.
"""

from __future__ import annotations

import hashlib
import random
import statistics
from dataclasses import dataclass, field
from typing import Optional

from .aco import PheromoneField, decide_move_aco
from .bco import DanceBoard, dance_strength, decide_move_bco, elect_leader
from .comms import (
    DANCE_ADVERT,
    POSITION_REPORT,
    TARGET_REPORT,
    DanceAdvert,
    Message,
    PositionReport,
    TargetReport,
    TrackerLog,
    comm_neighbors,  # not called here; tracing hooks patch it under this name
    connectivity_components,
    flood_until_quiet,
    neighbor_index,
    new_mailboxes,  # not called here; tracing hooks patch it under this name
    send,  # not called here; tracing hooks patch it under this name
)
from .config import ScenarioConfig
from .ga import decide_move_ga
from .hexworld import Direction, HexCoord, Observation, World, hex_distance, make_world, step

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
    """Independent deterministic stream for (root_seed, labels)."""
    key = repr((root_seed, labels)).encode("utf-8")
    seed = int.from_bytes(hashlib.sha256(key).digest()[:8], "big")
    return random.Random(seed)


@dataclass
class Robot:
    id: int
    pos: Optional[HexCoord] = None
    heading: Direction = Direction.E
    last_speed: int = 0
    spawned: bool = False
    live: bool = False
    arrived: bool = False
    scripted_removed: bool = False
    known_target_distance: Optional[int] = None
    next_seq: int = 0
    pher: Optional[PheromoneField] = None  # ACO replica

    def take_seq(self) -> int:
        n = self.next_seq
        self.next_seq += 1
        return n


@dataclass
class MoveIntent:
    robot_id: int
    direction: Direction
    speed: int


@dataclass
class SimState:
    config: ScenarioConfig
    world: World
    robots: dict[int, Robot]
    pending_spawn: list[int]
    rng_root: int
    tick: int = 0
    board: Optional[DanceBoard] = None  # bco only
    tracker: TrackerLog = field(default_factory=TrackerLog)
    global_pher: Optional[PheromoneField] = None  # observer field, never read by robots
    visited: set[HexCoord] = field(default_factory=set)
    trace: list[tuple] = field(default_factory=list)
    median_series: list[float] = field(default_factory=list)
    mean_series: list[float] = field(default_factory=list)
    component_series: list[int] = field(default_factory=list)
    first_arrival_tick: Optional[int] = None
    last_observations: dict[int, Observation] = field(default_factory=dict)
    last_intents: dict[int, MoveIntent] = field(default_factory=dict)

    def live_ids(self) -> list[int]:
        return sorted(rid for rid, r in self.robots.items() if r.live)

    def positions(self) -> dict[int, HexCoord]:
        return {rid: self.robots[rid].pos for rid in self.live_ids()}

    def arrived_count(self) -> int:
        return sum(1 for r in self.robots.values() if r.arrived)


def init_state(cfg: ScenarioConfig) -> SimState:
    world = make_world(cfg.radius, cfg.margin, cfg.target, cfg.entry)
    robots = {
        rid: Robot(id=rid, pher=PheromoneField(cfg.aco) if cfg.controller == "aco" else None)
        for rid in range(cfg.robots)
    }
    return SimState(
        config=cfg,
        world=world,
        robots=robots,
        pending_spawn=list(range(cfg.robots)),
        rng_root=cfg.seed,
        global_pher=PheromoneField(cfg.aco) if cfg.controller == "aco" else None,
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
    robot.spawned = True
    robot.live = True
    robot.pos = entry
    robot.heading = Direction(derive_rng(state.rng_root, "spawn", rid).randrange(6))
    robot.last_speed = 0
    state.world.occupancy[entry] = rid
    state.visited.add(entry)
    return rid


def resolve_conflicts(
    intents: list[MoveIntent], state: SimState, rng: random.Random
) -> list[tuple[int, int]]:
    """Execute intents in a uniformly random order; each robot walks unit
    steps until its speed is spent or the next cell is inaccessible or
    occupied. Returns (robot_id, steps actually taken) pairs in execution
    order.

    Priority keys are drawn per intent in ascending robot-id order, so the
    permutation is uniform yet dropping the highest id leaves the relative
    order of the rest untouched.
    """
    ordered = sorted(intents, key=lambda it: it.robot_id)
    keyed = [(rng.random(), it.robot_id, it) for it in ordered]
    keyed.sort(key=lambda k: (k[0], k[1]))
    occ = state.world.occupancy
    executed = []
    for _, _, intent in keyed:
        robot = state.robots[intent.robot_id]
        pos = robot.pos
        steps = 0
        for _ in range(intent.speed):
            nxt = step(pos, intent.direction)
            if not state.world.accessible(nxt) or nxt in occ:
                break
            del occ[pos]
            occ[nxt] = intent.robot_id
            pos = nxt
            steps += 1
            state.visited.add(nxt)
        robot.pos = pos
        robot.last_speed = steps
        if intent.speed >= 1:
            robot.heading = intent.direction
        executed.append((intent.robot_id, steps))
    return executed


def _emit_reports(state: SimState) -> dict[int, tuple[HexCoord, Optional[int], list[Message]]]:
    """Per live robot: sense the target, update own knowledge, and build this
    tick's messages (position report, target report when sensing, dance
    advert for the BCO leader)."""
    cfg = state.config
    out = {}
    for rid in state.live_ids():
        robot = state.robots[rid]
        own_d = hex_distance(robot.pos, state.world.target)
        sensed = own_d if own_d <= cfg.sensing_radius else None
        if sensed is not None:
            if robot.known_target_distance is None or sensed < robot.known_target_distance:
                robot.known_target_distance = sensed
        msgs = [
            Message(
                rid,
                robot.take_seq(),
                POSITION_REPORT,
                PositionReport(robot.pos, robot.heading, robot.last_speed),
                cfg.ttl,
            )
        ]
        if sensed is not None:
            msgs.append(
                Message(rid, robot.take_seq(), TARGET_REPORT, TargetReport(sensed, state.tick), cfg.ttl)
            )
        if state.board is not None and state.board.leader == rid:
            msgs.append(
                Message(
                    rid,
                    robot.take_seq(),
                    DANCE_ADVERT,
                    DanceAdvert(rid, robot.heading, dance_strength(robot.known_target_distance)),
                    cfg.ttl,
                )
            )
        out[rid] = (robot.pos, sensed, msgs)
    return out


def _assemble_observations(
    state: SimState,
    inbox: dict[int, list[Message]],
    adjacency: dict[int, list[int]],
) -> tuple[dict[int, Observation], dict[int, DanceBoard]]:
    """Build per-robot observations from this tick's inboxes, merge
    received deposits into ACO replicas, and collect heard dance adverts.

    Only reports of robots that actually moved contribute a neighbor
    heading: a stationary robot has no motion to align with.
    """
    observations = {}
    heard: dict[int, DanceBoard] = {}
    for rid in state.live_ids():
        robot = state.robots[rid]
        headings: list[tuple[Direction, int]] = []
        reported_cell: dict[int, HexCoord] = {}
        reported_dist: dict[int, int] = {}
        for msg in inbox[rid]:
            if msg.kind == POSITION_REPORT:
                if msg.payload.speed >= 1:
                    headings.append((msg.payload.heading, msg.payload.speed))
                reported_cell[msg.origin] = msg.payload.cell
            elif msg.kind == TARGET_REPORT:
                d = msg.payload.distance
                reported_dist[msg.origin] = d
                if robot.known_target_distance is None or d < robot.known_target_distance:
                    robot.known_target_distance = d
            elif msg.kind == DANCE_ADVERT:
                adv = msg.payload
                heard[rid] = DanceBoard(adv.leader, adv.direction, adv.strength, state.tick)
        if robot.pher is not None:
            # Trails carry target data: only origins that sensed the target
            # this tick deposit, at closeness-scaled strength.
            for origin in sorted(reported_dist):
                if origin in reported_cell:
                    robot.pher.deposit(
                        state.world, reported_cell[origin], reported_dist[origin]
                    )
        observations[rid] = Observation(
            situation=robot.pos,
            degree=len(adjacency[rid]),
            best_known_target_distance=robot.known_target_distance,
            neighbor_headings=headings,
        )
    return observations, heard


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
        elif not robot.spawned and rid in state.pending_spawn:
            state.pending_spawn.remove(rid)
            robot.scripted_removed = True

    spawn_step(state)

    emissions = _emit_reports(state)
    positions = state.positions()
    adjacency = neighbor_index(positions, cfg.comm_range)
    outbox = {rid: msgs for rid, (_, _, msgs) in emissions.items()}
    inbox: dict[int, list[Message]] = {rid: [] for rid in positions}
    flood_until_quiet(adjacency, outbox, inbox, state.tracker, t)

    observations, heard = _assemble_observations(state, inbox, adjacency)
    state.last_observations = observations

    if cfg.controller == "bco":
        # Only the current leader emits a dance advert, so any robot that
        # heard one heard the leader.
        if heard:
            state.board.last_heard_tick = t
        live = state.live_ids()
        if live:
            state.board = elect_leader(
                {rid: state.robots[rid].heading for rid in live},
                observations,
                t,
                state.board,
                cfg.bco,
            )

    intents = []
    for rid in state.live_ids():
        robot = state.robots[rid]
        obs = observations[rid]
        rng = derive_rng(state.rng_root, "decide", t, rid)
        if cfg.controller == "ga":
            move = decide_move_ga(obs, state.world, cfg.ga, rng)
        elif cfg.controller == "aco":
            move = decide_move_aco(obs, robot.pher, state.world, cfg.aco, rng)
        else:
            if state.board is not None and state.board.leader == rid:
                view = state.board
            else:
                view = heard.get(rid)
            move = decide_move_bco(rid, robot.heading, obs, view, cfg.bco, state.world, rng)
        intents.append(MoveIntent(rid, move.direction, move.speed))
    state.last_intents = {it.robot_id: it for it in intents}

    resolve_conflicts(intents, state, derive_rng(state.rng_root, "conflict", t))

    if cfg.controller == "aco":
        # Replica deposits happened during observation assembly, from each
        # robot's delivered reports; a robot never smells its own trail.
        # The observer field collects every sensing robot's deposit.
        for rid in sorted(emissions):
            cell, sensed, _ = emissions[rid]
            if sensed is not None:
                state.global_pher.deposit(state.world, cell, sensed)
        for rid, robot in sorted(state.robots.items()):
            if robot.pher is not None:
                robot.pher.evaporate()
        state.global_pher.evaporate()

    # trace rows for every robot that acted this tick, then arrival retirement
    actors = state.live_ids()
    components = connectivity_components(state.positions(), cfg.comm_range)
    comp_size = {rid: len(comp) for comp in components for rid in comp}
    leader_id = state.board.leader if state.board else ""
    for rid in actors:
        robot = state.robots[rid]
        state.trace.append(
            (
                t,
                rid,
                robot.pos.q,
                robot.pos.r,
                int(robot.heading),
                robot.last_speed,
                hex_distance(robot.pos, state.world.target),
                cfg.controller,
                leader_id,
                comp_size[rid],
            )
        )

    for rid in actors:
        robot = state.robots[rid]
        if hex_distance(robot.pos, state.world.target) <= ARRIVAL_DISTANCE:
            robot.live = False
            robot.arrived = True
            del state.world.occupancy[robot.pos]
            if state.first_arrival_tick is None:
                state.first_arrival_tick = t

    # Arrived robots count as distance 0; robots removed by script drop out.
    distances = [0] * state.arrived_count()
    distances += [
        hex_distance(state.robots[rid].pos, state.world.target) for rid in state.live_ids()
    ]
    if distances:
        state.median_series.append(float(statistics.median(distances)))
        state.mean_series.append(statistics.fmean(distances))
    else:
        state.median_series.append(None)
        state.mean_series.append(None)
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
        "messages_delivered": len(state.tracker),
        "median_distance": state.median_series,
        "mean_distance": state.mean_series,
        "largest_component": state.component_series,
    }
    if cfg.controller == "aco":
        summary["pheromone_total"] = state.global_pher.total()
        summary["pheromone_cells"] = len(state.global_pher.levels)
    return summary


def run(cfg: ScenarioConfig) -> RunResult:
    """Run a scenario to success, extinction, or the tick limit."""
    state = init_state(cfg)
    status = STATUS_TIMEOUT
    while True:
        if state.tick >= cfg.max_ticks:
            status = STATUS_TIMEOUT
            break
        tick(state)
        if not state.live_ids() and not state.pending_spawn:
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
