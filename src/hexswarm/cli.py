"""Scenario runner: load a config file, apply flag overrides, execute a
single run or a batch of consecutive seeds, and write trace/summary/field
files atomically into the output directory.

trace.csv and tracker.csv are streamed: rows go into temp files tick by tick
and take their final names only when the run returns, so memory stays flat
in max_ticks and a failed run leaves neither. A batch writes no tracker.csv
and so keeps only the count of its deliveries.

A batch shares its seeds over one process per CPU this process may use (no
more than one per seed): this one runs seeds 0, P, 2P, ... of the batch and
each of the others, forked, runs every P-th seed from its own and sends its
summary rows back over a pipe. A run is a pure function of (config, seed),
so the files are byte-identical to one process running every seed in turn.
P processes hold up to P simulations at once, each in its own memory;
``taskset -c 0 hexswarm --batch N ...`` runs the batch in this process
alone, with no fork. A batch that fails raises the exception of its lowest
failing seed, writes no summary.json, and leaves only the files of the
seeds before that one.

Exit statuses: 0 success, 2 timeout, 3 extinction, 1 usage/config error. A
batch exits 0 once every seed has run; each summary row's status tells how
that seed ended.
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
from typing import Iterable, Iterator, Optional, TextIO

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


def usable_cpus() -> int:
    """The CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_share(
    cfg: ScenarioConfig, out_dir: Path, seeds: Iterable[int]
) -> tuple[list[str], Optional[BaseException]]:
    """Run seeds in ascending order up to the first that raises: the summary
    rows of the seeds that ran, and that seed's exception, if one raised."""
    rows = []
    for seed in seeds:
        try:
            result = stream_run(config_overrides(cfg, seed=seed), out_dir, suffix=f"_{seed}")
        except BaseException as exc:  # run_batch re-raises it once every process has ended
            return rows, exc
        rows.append(json.dumps(result.summary))
    return rows, None


class _ChildTraceback(Exception):
    """The traceback, as text, of a seed that failed in a forked process."""


class _Child:
    """A forked process running a share of a batch; its report comes back
    on the pipe read end ``fd``."""

    def __init__(self, seeds: range, pid: int, fd: int) -> None:
        self.seeds, self.pid, self.fd = seeds, pid, fd
        self.report, self.status = b"", 0

    def reap(self) -> None:
        """Read the report to its end and wait for the process, even when
        reading fails."""
        try:
            with os.fdopen(self.fd, "rb") as pipe:
                self.report = pipe.read()
        finally:
            self.status = os.waitpid(self.pid, 0)[1]

    def outcome(self) -> tuple[list[str], Optional[BaseException]]:
        """What ``_run_share`` returned in the child."""
        code = os.waitstatus_to_exitcode(self.status)
        if code != 0:
            seeds = ", ".join(map(str, self.seeds))
            return [], RuntimeError(
                f"batch: the process running seeds {seeds} exited with code {code} "
                "before it reported"
            )
        text, failed, failure = self.report.partition(b"\0")
        rows = text.decode().splitlines()
        if not failed:
            return rows, None
        import pickle  # only a failed seed is pickled, so a batch that runs does not load it

        exc, traceback_text = pickle.loads(failure)
        exc.__cause__ = _ChildTraceback(traceback_text)
        return rows, exc


def _fork_share(
    cfg: ScenarioConfig, out_dir: Path, seeds: range, children: list[_Child]
) -> _Child:
    """Fork a process that runs seeds and reports back over a pipe: a
    summary row a line for the seeds that ran, then, if one raised, a NUL
    byte and the pickled exception and its traceback. The process ends with
    ``os._exit`` whatever happens, so it never returns into the caller.
    Raises OSError when no pipe or process can be made."""
    fd, report_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(fd)
        os.close(report_fd)
        raise
    if pid:
        os.close(report_fd)
        return _Child(seeds, pid, fd)
    status = 1
    try:
        for held in (fd, *(child.fd for child in children)):
            os.close(held)
        rows, exc = _run_share(cfg, out_dir, seeds)
        report = "".join(row + "\n" for row in rows).encode()
        if exc is not None:
            import pickle
            import traceback

            text = "".join(traceback.format_exception(exc))
            report += b"\0" + pickle.dumps((exc, text))
        with os.fdopen(report_fd, "wb") as pipe:
            pipe.write(report)
        status = 0
    finally:
        os._exit(status)


def run_batch(cfg: ScenarioConfig, out_dir: Path, n: int) -> None:
    """Run seeds cfg.seed .. cfg.seed + n - 1, each writing trace_<seed>.csv
    (and, for aco, field_<seed>.csv), then write summary.json, a row per
    seed in seed order.

    The seeds are shared over P = min(n, usable_cpus()) processes: this one
    runs seeds 0, P, 2P, ... of the batch, and a forked child each share
    from 1 to P-1; where a fork fails, this process runs that share too.
    Every child is waited for before this returns or raises. If a seed
    raises, the exception of the lowest such seed is raised, no summary.json
    is written, and the files of that seed and of every later one are
    removed, so only the earlier seeds' files are left."""
    seeds = range(cfg.seed, cfg.seed + n)
    procs = min(n, usable_cpus())
    children: list[_Child] = []
    with ExitStack() as reaping:
        for first in range(1, procs):
            try:
                child = _fork_share(cfg, out_dir, seeds[first::procs], children)
            except OSError:  # no process to spare: this one runs the rest
                break
            children.append(child)
            reaping.callback(child.reap)
        forked = {seed for child in children for seed in child.seeds}
        own = [seed for seed in seeds if seed not in forked]
        outcomes = [(own, *_run_share(cfg, out_dir, own))]
    outcomes += [(child.seeds, *child.outcome()) for child in children]

    rows: dict[int, str] = {}
    failures: dict[int, BaseException] = {}
    for share, done, exc in outcomes:
        rows.update(zip(share, done))
        if exc is not None:
            failures[share[len(done)]] = exc
    if failures:
        lowest = min(failures)
        for seed in range(lowest, seeds.stop):
            for name in (f"trace_{seed}.csv", f"field_{seed}.csv"):
                (out_dir / name).unlink(missing_ok=True)
        raise failures[lowest]
    write_atomic(out_dir / "summary.json", "".join(rows[seed] + "\n" for seed in seeds))


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

    run_batch(cfg, out_dir, args.batch)
    return 0


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
