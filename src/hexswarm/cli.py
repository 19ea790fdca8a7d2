"""Scenario runner: load a config file, apply flag overrides, execute a
single run or a batch of consecutive seeds, and write trace/summary/field
files atomically into the output directory.

trace.csv and tracker.csv are streamed: rows go into temp files tick by tick
and take their final names only when the run returns, so memory stays flat
in max_ticks and a failed run leaves neither. A batch writes no tracker.csv
and so keeps only the count of its deliveries.

Exit statuses: 0 success, 2 timeout, 3 extinction, 1 usage/config error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import tempfile
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Iterator, Optional, TextIO

from .comms import TRACKER_CSV_HEADER, DeliveryCount, TrackerLog
from .config import ConfigError, ScenarioConfig, ascii_int, config_overrides, parse_config
from .engine import TRACE_HEADER, RunResult, run

EXIT_USAGE = 1


@contextmanager
def atomic_file(path: Path) -> Iterator[TextIO]:
    """A text file written via a temp file in the same directory and renamed
    to path when the block ends without error, so a failed or killed run
    never leaves a partial file under the final name; on error the temp file
    is removed. The file gets the mode open() would give it, 0o666 less the
    umask, not mkstemp's 0o600."""
    fd, tmp = tempfile.mkstemp(prefix=path.name + ".", dir=path.parent)
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            yield fh
        umask = os.umask(0)  # the only way to read it is to set it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_atomic(path: Path, data: str) -> None:
    with atomic_file(path) as fh:
        fh.write(data)


class _Stream:
    """One output csv written as the run goes: ``write`` takes text,
    ``extend`` rows. Its atomic file is opened on first use and entered in
    files, which renames it into place when it closes cleanly; so no file is
    open before the run has built its state."""

    def __init__(self, files: ExitStack, path: Path, header: tuple[str, ...]) -> None:
        self._open = lambda: files.enter_context(atomic_file(path))
        self._header = header
        self._fh: Optional[TextIO] = None

    def open(self) -> TextIO:
        """The temp file, opened and given its header on the first call."""
        if self._fh is None:
            self._fh = self._open()
            self._rows = csv.writer(self._fh, lineterminator="\n")
            self._rows.writerow(self._header)
        return self._fh

    def write(self, text: str) -> None:
        self.open().write(text)

    def extend(self, rows) -> None:
        self.open()
        self._rows.writerows(rows)


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


def stream_run(cfg: ScenarioConfig, out_dir: Path, suffix: str = "") -> RunResult:
    """Run cfg, streaming trace{suffix}.csv and, without a suffix,
    tracker.csv; then write field{suffix}.csv for aco."""
    with ExitStack() as files:
        trace = _Stream(files, out_dir / f"trace{suffix}.csv", TRACE_HEADER)
        if suffix:
            tracker, streams = DeliveryCount(), (trace,)
        else:
            tracker_file = _Stream(files, out_dir / "tracker.csv", TRACKER_CSV_HEADER)
            tracker, streams = TrackerLog(tracker_file.write), (trace, tracker_file)
        result = run(cfg, trace, tracker)
        for stream in streams:
            stream.open()  # a run without rows still gets its header
    if cfg.controller == "aco":
        write_atomic(out_dir / f"field{suffix}.csv", field_csv(result))
    return result


def _load_scenario(path: Optional[str]) -> ScenarioConfig:
    if path is None:
        return parse_config("")
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:  # unreadable, or not UTF-8 text
        raise ConfigError(f"scenario: {path}: {getattr(exc, 'strerror', None) or exc}") from exc
    return parse_config(text)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors map to exit 1, not argparse's 2
        raise ConfigError(message)


class _Once(argparse.Action):
    """Store a flag's value; a flag given twice is a usage error, as a
    repeated key is in a scenario."""

    def __call__(self, parser, namespace, values, option_string=None):
        given = vars(namespace).setdefault("_given", set())
        if self.dest in given:
            parser.error(f"argument {'/'.join(self.option_strings)}: given more than once")
        given.add(self.dest)
        setattr(namespace, self.dest, values)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hexswarm", description=__doc__)
    flag = functools.partial(parser.add_argument, action=_Once)
    flag("--scenario", help="scenario config file (defaults apply if omitted)")
    flag("--seed", type=ascii_int, help="root seed, overrides the config")
    flag("--controller", choices=("ga", "aco", "bco"), help="controller override")
    flag("--ticks", type=ascii_int, help="max tick count override")
    flag("--out", default="out", help="output directory (default: out)")
    flag("--batch", type=ascii_int, metavar="N", help="run N consecutive seeds, a row each")
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
        result = stream_run(cfg, out_dir)
        write_atomic(out_dir / "summary.json", json.dumps(result.summary) + "\n")
        return result.exit_code

    rows = []
    for seed in range(cfg.seed, cfg.seed + args.batch):
        result = stream_run(config_overrides(cfg, seed=seed), out_dir, suffix=f"_{seed}")
        rows.append(json.dumps(result.summary))
    write_atomic(out_dir / "summary.json", "\n".join(rows) + "\n")
    return 0


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
