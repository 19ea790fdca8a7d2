"""hexswarm: deterministic target-seeking robot swarms on a hexagonal grid.

Three controllers (genetic, ant-colony, bee-colony) steer robots that share
knowledge over a range-limited multi-hop ad hoc network. Everything is
seedable and replays bit-identically.
"""

from .aco import AcoParams, PheromoneField, TransitionTable, decide_move_aco
from .bco import (
    BcoParams,
    DanceBoard,
    SwarmExtinct,
    Task,
    choose_task,
    dance_strength,
    decide_move_bco,
    elect_leader,
)
from .comms import (
    TrackerLog,
    comm_neighbors,
    connectivity_components,
    flood_until_quiet,
    neighbor_masks,
)
from .config import ConfigError, ScenarioConfig, parse_config
from .engine import (
    Robot,
    RunResult,
    SimState,
    derive_rng,
    init_state,
    resolve_conflicts,
    run,
    spawn_step,
    tick,
)
from .ga import GaParams, decide_move_ga
from .hexworld import (
    Direction,
    HexCoord,
    Move,
    Observation,
    World,
    accessible_neighbors,
    hex_distance,
    make_world,
    step,
)

__version__ = "0.1.0"
