"""One measured CLI run of a benchmark workload, in a fresh process.

    python3 perfbench/child.py --workload NAME --seed N --run I --out DIR [--trace]

Runs CLI run ``I`` of the workload through ``hexswarm.cli.main`` once and times
it in one flow. ``setup_s`` runs from the start of this module, before any
import that ``hexswarm.cli`` also needs, until the first ``init_state`` call
returns: importing ``hexswarm``, parsing the arguments and the scenario, and
building the first simulation's state. ``wall_s`` runs from there until
every output file is written. With ``--trace`` the calls into each module
are timed by ``spans.py`` and ``engine.check_invariants`` runs after every
tick. Prints one JSON object with the timings, the process's peak RSS, the
exit code, the sha256 of every output file and the simulated statistics.
"""

import time

T0 = time.perf_counter()

# Every module imported here is imported by hexswarm too, so set-up pays for
# it either way.
import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
SCENARIO_DIR = BENCH_DIR / "scenarios"


@dataclass(frozen=True)
class CliRun:
    """One ``hexswarm`` command: a scenario file, an optional controller
    override, and one seed or (with ``batch``) consecutive seeds."""

    scenario: str
    controller: str | None
    seeds: tuple[int, ...]
    batch: bool

    @property
    def key(self) -> str:
        """Names the run in ``digests.json``."""
        controller = self.controller or "cfg"
        seeds = "-".join(map(str, self.seeds))
        return f"{self.scenario}:{controller}:{'batch' if self.batch else 'single'}:{seeds}"

    def argv(self, out: Path) -> list[str]:
        argv = ["--scenario", str(SCENARIO_DIR / f"{self.scenario}.cfg")]
        if self.controller is not None:
            argv += ["--controller", self.controller]
        argv += ["--seed", str(self.seeds[0]), "--out", str(out)]
        if self.batch:
            argv += ["--batch", str(len(self.seeds))]
        return argv


@dataclass(frozen=True)
class Workload:
    """Each (scenario file, controller override) runs once per scenario
    seed, or once with ``--batch`` over all of them."""

    scenarios: tuple[tuple[str, str | None], ...]
    seeds_per_round: int
    batch: bool = False

    def scenario_seeds(self, seed: int) -> list[int]:
        # Disjoint per workload seed, so no two workload seeds share a run.
        k = self.seeds_per_round
        return [seed * k + i for i in range(k)]

    def cli_runs(self, seed: int) -> list[CliRun]:
        seeds = tuple(self.scenario_seeds(seed))
        if self.batch:
            return [CliRun(name, ctl, seeds, True) for name, ctl in self.scenarios]
        return [CliRun(name, ctl, (s,), False) for name, ctl in self.scenarios for s in seeds]


WORKLOADS = {
    "dense_flood": Workload(scenarios=(("dense", "aco"),), seeds_per_round=4),
    "dense_ga_batch": Workload(scenarios=(("dense", "ga"),), seeds_per_round=4, batch=True),
    "default_sweep": Workload(
        scenarios=(("ga_default", None), ("aco_trails", None), ("bco_failover", None)),
        seeds_per_round=8,
    ),
}


def output_digests(out: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())
    }


def run_statistics(out: Path) -> tuple[int, list[dict]]:
    """Trace rows (simulated robot-ticks) and per-simulation statistics."""
    rows = sum(p.read_bytes().count(b"\n") - 1 for p in out.glob("trace*.csv"))
    stats = []
    for line in (out / "summary.json").read_text().splitlines():
        s = json.loads(line)
        stats.append(
            {
                "controller": s["controller"],
                "seed": s["seed"],
                "status": s["status"],
                "ticks": s["ticks"],
                "first_arrival_tick": s["first_arrival_tick"],
                "fraction_arrived": s["fraction_arrived"],
                "messages_delivered": s["messages_delivered"],
                "peak_largest_component": max(s["largest_component"], default=0),
            }
        )
    return rows, stats


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--run", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    run = WORKLOADS[args.workload].cli_runs(args.seed)[args.run]
    out = Path(args.out)
    sys.path.insert(0, str(SRC_DIR))

    import hexswarm.cli
    import hexswarm.engine as engine

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    # Set-up ends when the CLI's first init_state returns (engine.run looks
    # it up in the engine's namespace). A batch builds its later states
    # inside wall_s, one cheap call per simulation.
    init_state = engine.init_state
    setup_end: list[float] = []

    def stamped_init_state(cfg):
        state = init_state(cfg)
        if not setup_end:
            setup_end.append(time.perf_counter())
        return state

    engine.init_state = stamped_init_state
    exit_code = hexswarm.cli.main(run.argv(out))
    t_end = time.perf_counter()

    import resource  # hexswarm does not import it, so it stays out of set-up

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    trace_rows, stats = run_statistics(out)
    result = {
        "setup_s": setup_end[0] - T0,
        "wall_s": t_end - setup_end[0],
        "peak_rss_mb": peak_rss_mb,
        "trace_rows": trace_rows,
        "exit_code": exit_code,
        "digests": output_digests(out),
        "stats": stats,
    }
    if tracer is not None:
        result.update(
            layers=tracer.layer_metrics(),
            invariant_s=tracer.invariant_s,
            invariant_checks=tracer.invariant_checks,
        )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
