"""Scenario runner: load a config file, apply flag overrides, execute a
single run or a batch of consecutive seeds, and write trace/summary/field
files atomically into the output directory.

Exit statuses: 0 success, 2 timeout, 3 extinction, 1 usage/config error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Optional

from .comms import TRACKER_CSV_HEADER
from .config import ConfigError, ScenarioConfig, config_overrides, parse_config
from .engine import TRACE_HEADER, RunResult, run

EXIT_USAGE = 1


def write_atomic(path: Path, data: str) -> None:
    """Write via a temp file in the same directory plus rename, so a killed
    run never leaves a partial file under the final name. The file gets the
    mode open() would give it, 0o666 less the umask, not mkstemp's 0o600."""
    fd, tmp = tempfile.mkstemp(prefix=path.name + ".", dir=path.parent)
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(data)
        umask = os.umask(0)  # the only way to read it is to set it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def trace_csv(result: RunResult) -> str:
    return _csv_text(TRACE_HEADER, result.trace)


def tracker_csv(result: RunResult) -> str:
    return "".join([",".join(TRACKER_CSV_HEADER) + "\n", *result.state.tracker.parts])


def field_csv(result: RunResult) -> str:
    state = result.state
    rows = [
        (state.tick, c.q, c.r, repr(level))
        for c, level in sorted(state.global_pher.levels.items())
    ]
    return _csv_text(("tick", "q", "r", "level"), rows)


def write_run_files(result: RunResult, out_dir: Path, suffix: str = "") -> None:
    write_atomic(out_dir / f"trace{suffix}.csv", trace_csv(result))
    if result.state.config.controller == "aco":
        write_atomic(out_dir / f"field{suffix}.csv", field_csv(result))
    if not suffix:
        write_atomic(out_dir / "tracker.csv", tracker_csv(result))


def _load_scenario(path: Optional[str]) -> ScenarioConfig:
    if path is None:
        return parse_config("")
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"scenario: file not found: {path}")
    return parse_config(p.read_text())


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors map to exit 1, not argparse's 2
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hexswarm", description=__doc__)
    parser.add_argument("--scenario", help="scenario config file (defaults apply if omitted)")
    parser.add_argument("--seed", type=int, help="root seed, overrides the config")
    parser.add_argument("--controller", choices=("ga", "aco", "bco"), help="controller override")
    parser.add_argument("--ticks", type=int, help="max tick count override")
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    parser.add_argument(
        "--batch",
        type=int,
        metavar="N",
        help="run N consecutive seeds; one summary row per seed",
    )
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _load_scenario(args.scenario)
        cfg = config_overrides(
            cfg, seed=args.seed, controller=args.controller, max_ticks=args.ticks
        )
        if args.batch is not None:
            if args.batch < 1:
                raise ConfigError("batch: must be >= 1")
            last_seed = cfg.seed + args.batch - 1
            if last_seed >= 2**64:
                raise ConfigError(
                    f"batch: last seed {last_seed} does not fit in an unsigned 64-bit integer"
                )
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)  # before any run, not after it
        except OSError as exc:
            raise ConfigError(f"out: {exc}") from exc
    except ConfigError as exc:
        print(f"hexswarm: error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.batch is None:
        result = run(cfg)
        write_run_files(result, out_dir)
        write_atomic(out_dir / "summary.json", json.dumps(result.summary) + "\n")
        return result.exit_code

    rows = []
    for seed in range(cfg.seed, cfg.seed + args.batch):
        result = run(config_overrides(cfg, seed=seed))
        write_run_files(result, out_dir, suffix=f"_{seed}")
        rows.append(json.dumps(result.summary))
    write_atomic(out_dir / "summary.json", "\n".join(rows) + "\n")
    return 0


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
