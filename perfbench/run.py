"""hexswarm benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. A round runs each CLI run of the workload
once, each in a fresh child process (``child.py``), one at a time. Every
child's outputs are checked against the sha256 digests in ``digests.json``;
for a seed with no recorded digests, every round must produce the same
outputs. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
line before it holds every sample and the simulated statistics.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from child import BENCH_DIR, SRC_DIR, WORKLOADS
from spans import LAYER_METRICS

DIGESTS = BENCH_DIR / "digests.json"
WORK_DIR = BENCH_DIR.parent / ".perfbench_out"
MIN_ROUNDS = 2
DEADLINE_S = 165  # a run must exit within 180 s; no round starts after half of it
SIM_EXIT_CODES = {0, 2, 3}  # success, tick limit, extinction

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "robot_ticks_per_s": "1/s", "peak_rss_mb": "MB"}


class Run:
    """The children of one benchmark run and the checks made on them."""

    def __init__(self, workload: str, seed: int, recorded: dict[str, dict]) -> None:
        self.workload = workload
        self.seed = seed
        self.cli_runs = WORKLOADS[workload].cli_runs(seed)
        self.expected = [recorded.get(run.key) for run in self.cli_runs]
        self.first: dict[int, dict] = {}  # first outputs of each CLI run, for held-out seeds
        self.attempted = 0
        self.failed = 0
        self.start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def keep_going(self, rounds: int, minimum: int, seconds: float) -> bool:
        if self.elapsed() > DEADLINE_S / 2:
            return False
        # Another round only if, at the mean round time so far, it ends in time.
        return rounds < minimum or self.elapsed() * (rounds + 1) / rounds <= seconds

    def child(self, index: int, *flags: str) -> dict | None:
        """Run one child; returns its result, or None when it crashed. Wrong
        outputs count as failed but keep their timings."""
        self.attempted += 1
        WORK_DIR.mkdir(exist_ok=True)
        out = Path(tempfile.mkdtemp(prefix=f"{self.workload}-", dir=WORK_DIR))
        cmd = [
            sys.executable, str(BENCH_DIR / "child.py"), "--workload", self.workload,
            "--seed", str(self.seed), "--run", str(index), "--out", str(out), *flags,
        ]  # fmt: skip
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=max(1.0, DEADLINE_S - self.elapsed())
            )
        except subprocess.TimeoutExpired:
            return self.fail(index, "timed out")
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if proc.returncode != 0:
            return self.fail(index, f"exit {proc.returncode}\n{proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.splitlines()[-1])
        problem = self._check_outputs(index, result)
        if problem:
            self.fail(index, problem)
        return result

    def round(self, *flags: str) -> list[dict] | None:
        """Every CLI run of the workload once; None when any of them crashed."""
        results = [self.child(i, *flags) for i in range(len(self.cli_runs))]
        return None if None in results else results

    def _check_outputs(self, index: int, result: dict) -> str | None:
        outputs = {"exit_code": result["exit_code"], "digests": result["digests"]}
        if self.expected[index] is not None:
            if outputs != self.expected[index]:
                return "exit code or output digests differ from digests.json"
            return None
        if result["exit_code"] not in SIM_EXIT_CODES:
            return f"unexpected exit code {result['exit_code']}"
        if outputs != self.first.setdefault(index, outputs):
            return "outputs differ between rounds of the same seed"
        return None

    def fail(self, index: int | None, why: str) -> None:
        self.failed += 1
        where = "" if index is None else f" run {index}"
        print(f"perfbench: {self.workload} seed {self.seed}{where}: {why}", file=sys.stderr)
        return None


def round_total(results: list[dict], key: str) -> float:
    return sum(r[key] for r in results)


def fastest_round(rounds: list[list[dict]], key: str) -> float:
    """Sum over the CLI runs of each run's minimum over the rounds. The
    machine's speed wanders by tens of percent for seconds at a time, which
    only ever slows a child; the minimum of each run drops that where a
    median of round totals would keep part of it."""
    return sum(min(rs[i][key] for rs in rounds) for i in range(len(rounds[0])))


def end_to_end(run: Run, rounds: list[list[dict]]) -> dict:
    wall_s = fastest_round(rounds, "wall_s")
    return {
        # A median: a run has many set-up samples, and their minimum proved
        # less steady from seed to seed than their median.
        "setup_s": statistics.median(r["setup_s"] for rs in rounds for r in rs),
        "wall_s": wall_s,
        "robot_ticks_per_s": round_total(rounds[0], "trace_rows") / wall_s,
        # The peak of one CLI run (for dense_ga_batch, of the whole batch).
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for rs in rounds for r in rs),
    }


def per_layer(run: Run, untraced: list[list[dict]], traced: list[list[dict]]) -> dict:
    totals = [
        {key: sum(r["layers"][key] for r in rs) for key in rs[0]["layers"]} for rs in traced
    ]
    for t in totals:
        scanned = t["comms.neighbors_scanned"]
        t["comms.neighbors_yield"] = t["comms.neighbors_found"] / scanned if scanned else 0.0
    metrics = {}
    for name, unit in LAYER_METRICS.items():
        values = [t[name] for t in totals]
        if unit == "s":
            metrics[name] = statistics.median(values)
            continue
        if len(set(values)) != 1:
            run.fail(None, f"{name} differs between traced rounds: {values}")
        metrics[name] = values[0]
    traced_wall = fastest_round(traced, "wall_s") - fastest_round(traced, "invariant_s")
    metrics["bench.trace_overhead_s"] = traced_wall - fastest_round(untraced, "wall_s")
    return metrics


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in SRC_DIR.rglob("*.py"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 2**32:
        parser.error("--seed must be in [0, 2**32)")
    if not (SRC_DIR / "hexswarm" / "__init__.py").is_file():
        print(f"perfbench: no hexswarm package under {SRC_DIR}", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, json.loads(DIGESTS.read_text()))

    if args.trace:
        # Alternate untraced and traced rounds; one of each is enough here.
        untraced, traced = [], []
        while run.keep_going(min(len(untraced), len(traced)), 1, args.seconds):
            for flags, kept in (((), untraced), (("--trace",), traced)):
                results = run.round(*flags)
                if results is not None:
                    kept.append(results)
        if not (untraced and traced):
            return 1
        metrics = per_layer(run, untraced, traced)
        units = {**LAYER_METRICS, "bench.trace_overhead_s": "s"}
        rounds = traced
        samples = {
            "untraced_wall_s": [round_total(rs, "wall_s") for rs in untraced],
            "traced_wall_s": [round_total(rs, "wall_s") for rs in traced],
            "invariant_checks": [round_total(rs, "invariant_checks") for rs in traced],
        }
    else:
        rounds = []
        while run.keep_going(len(rounds), MIN_ROUNDS, args.seconds):
            results = run.round()
            if results is not None:
                rounds.append(results)
        if not rounds:
            return 1
        metrics = end_to_end(run, rounds)
        units = END_TO_END_UNITS
        samples = {
            "setup_s": [[r["setup_s"] for r in rs] for rs in rounds],
            "wall_s": [[r["wall_s"] for r in rs] for rs in rounds],
            "peak_rss_mb": [[r["peak_rss_mb"] for r in rs] for rs in rounds],
        }

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "scenario_seeds": WORKLOADS[args.workload].scenario_seeds(args.seed),
        "recorded_digests": sum(e is not None for e in run.expected),
        "cli_runs": len(run.cli_runs),
        "src_lines": src_lines(),
        **samples,
        "simulations": [s for r in rounds[0] for s in r["stats"]],
    }
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
