"""Scenario runner: load a config file, apply flag overrides, execute a
single run or a batch of consecutive seeds, and write trace/summary/field
files atomically into the output directory.

trace.csv and tracker.csv are streamed, one ``_Stream`` each (tracker.csv's is
the run's tracker, a ``_TrackerWriter``): rows go into temp files tick by
tick and take their final names when the run returns, so memory stays flat in
max_ticks and a failed run leaves neither. A batch has no tracker.csv.

A single run where this process may use 2 CPUs or more forks one writer
process at its first flood, which formats tracker.csv's rows while the run
goes on; ``_TrackerWriter`` says how. The bytes are the same as one
process's: ``taskset -c 0`` runs one, which formats the rows itself, and
walks each flood twice, once for the run and once for the rows.
Memory is per process: on a dense aco run (perfbench's dense.cfg) the
writer peaks at about 14 MB, the run's own process at about 20 MB. A killed
run's writer ends at the pipe's end and renames nothing, so the temp files
stay, and no file takes its final name.

A batch shares its seeds over one forked process per CPU this process may
use; ``run_batch`` says how, and what a batch that fails or is killed
leaves.

Exit statuses: 0 success (no robot is left live or pending, and at least
one arrived), 2 timeout, 3 extinction, 1 usage/config error. A batch exits
0 once every seed has run; each summary row's status tells how that seed
ended.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import marshal
import os
import sys
import tempfile
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Optional, TextIO

from .comms import TRACKER_CSV_HEADER, flood_rows
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
    """One output csv written as the run goes: ``extend`` takes rows. Its
    atomic file is opened on first use and entered in files, which renames
    it into place when it closes cleanly; so no file is open before the run
    has built its state."""

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


def _fork_piped(
    child: Callable[[int], None], to_child: bool, held: Iterable[int] = ()
) -> tuple[int, int]:
    """Fork a process that runs child(fd), fd its end of a new pipe, which
    it reads when to_child and writes otherwise. The process closes held,
    other pipes' ends it must not keep open, and ends with ``os._exit``
    whatever happens, 0 when child returns, so it never returns into the
    caller. Returns (pid, this process's end); raises OSError when no pipe or
    process can be made."""
    read_end, write_end = os.pipe()
    mine, theirs = (write_end, read_end) if to_child else (read_end, write_end)
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid:
        os.close(theirs)
        return pid, mine
    status = 1
    try:
        for fd in (mine, *held):
            os.close(fd)
        child(theirs)
        status = 0
    except BaseException:
        import traceback  # the parent sees only the exit status

        traceback.print_exc()
    finally:
        os._exit(status)


class _TrackerWriter(_Stream):
    """The tracker.csv stream, and the run's tracker: its rows are formatted
    in a forked writer process while the run goes on.

    The first ``flood`` forks the writer, once the temp file is open and its
    header written, where this process may use 2 CPUs or more; it then sends
    each flood's inputs over a pipe, marshalled, with each outbox range as
    (start, stop). The writer writes the ``flood_rows`` of each to the temp
    file, and ends when it reads the pipe's end. With no writer (1 CPU, or
    no pipe or process to spare) ``flood`` writes the rows itself, in this
    process. ``close`` closes the pipe and waits for the writer, raising a
    RuntimeError if it failed; the caller calls it before any file takes its
    final name."""

    _pid: Optional[int] = None  # the writer's, once flood has run; 0 without one
    _pipe: Optional[BinaryIO] = None

    def flood(self, masks: dict[int, int], outbox: dict[int, range], ttl: int, tick: int) -> None:
        if self._pid is None:
            self._pid = self._fork() if usable_cpus() >= 2 else 0
        if not self._pid:
            self.open().write(flood_rows(masks, outbox, ttl, tick))
            return
        frame = marshal.dumps(
            (masks, {origin: (s.start, s.stop) for origin, s in outbox.items()}, ttl, tick)
        )
        self._pipe.write(len(frame).to_bytes(4, "little") + frame)

    def _fork(self) -> int:
        """The writer's pid, or 0 where no pipe or process can be made."""
        fh = self.open()
        fh.flush()  # else the writer's copy of the buffer writes the header again

        def write_rows(frames_fd: int) -> None:
            with os.fdopen(frames_fd, "rb") as frames:
                while size := frames.read(4):
                    frame = frames.read(int.from_bytes(size, "little"))
                    masks, outbox, ttl, tick = marshal.loads(frame)
                    seqs = {origin: range(*span) for origin, span in outbox.items()}
                    fh.write(flood_rows(masks, seqs, ttl, tick))
            fh.flush()

        try:
            pid, frames_fd = _fork_piped(write_rows, to_child=True)
        except OSError:
            return 0
        self._pipe = os.fdopen(frames_fd, "wb")
        return pid

    def close(self) -> None:
        """Close the pipe and wait for the writer, which reads to its end
        first; raises a RuntimeError if the writer failed."""
        pid, self._pid = self._pid, 0
        if not pid:
            return
        try:
            self._pipe.close()
        except BrokenPipeError:
            pass  # the writer has ended: its exit code says why
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if code != 0:
            raise RuntimeError(f"tracker.csv: the writer process exited with code {code}")


def stream_run(cfg: ScenarioConfig, out_dir: Path, suffix: str = "") -> RunResult:
    """Run cfg, streaming trace{suffix}.csv and, without a suffix,
    tracker.csv, a ``_TrackerWriter``; then write field{suffix}.csv for aco."""
    with ExitStack() as files:
        streams = [_Stream(files, out_dir / f"trace{suffix}.csv", TRACE_HEADER)]
        if not suffix:  # a batch seed has no tracker, so it formats no tracker row
            streams.append(_TrackerWriter(files, out_dir / "tracker.csv", TRACKER_CSV_HEADER))
        try:
            result = run(cfg, *streams)  # the trace, and the tracker if there is one
        finally:
            for tracker in streams[1:]:
                tracker.close()  # before any file takes its final name
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


def _fork_share(
    cfg: ScenarioConfig, out_dir: Path, seeds: range, held: list[int]
) -> tuple[int, int]:
    """Fork a process that runs seeds and reports back over a pipe: a
    summary row a line for the seeds that ran, then, if one raised, a NUL
    byte and the pickled exception and its traceback. The process closes
    held, the earlier shares' read ends. Returns (pid, read end); raises
    OSError when no pipe or process can be made."""
    parent = os.getpid()

    def share(report_fd: int) -> None:
        # A process whose parent has gone (killed, say) is adopted by another
        # and runs no further seed: no one is left to read its rows.
        rows, exc = _run_share(cfg, out_dir, (seed for seed in seeds if os.getppid() == parent))
        report = "".join(row + "\n" for row in rows).encode()
        if exc is not None:
            import pickle
            import traceback

            text = "".join(traceback.format_exception(exc))
            report += b"\0" + pickle.dumps((exc, text))
        with os.fdopen(report_fd, "wb") as pipe:
            pipe.write(report)

    return _fork_piped(share, to_child=False, held=held)


def _reap(seeds: range, pid: int, fd: int) -> tuple[list[str], Optional[BaseException]]:
    """What ``_run_share`` returned in process pid, from its pipe's read end
    fd: read to its end first, as a report larger than the pipe holds blocks
    the process until read, then waited for even when the read fails."""
    try:
        with os.fdopen(fd, "rb") as pipe:
            report = pipe.read()
    finally:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code != 0:
        return [], RuntimeError(
            f"batch: the process running seeds {', '.join(map(str, seeds))} exited with "
            f"code {code} before it reported"
        )
    text, failed, failure = report.partition(b"\0")
    rows = text.decode().splitlines()
    if not failed:
        return rows, None
    import pickle  # only a failed seed is pickled, so a batch that runs does not load it

    exc, traceback_text = pickle.loads(failure)
    exc.__cause__ = _ChildTraceback(traceback_text)
    return rows, exc


def run_batch(cfg: ScenarioConfig, out_dir: Path, n: int) -> None:
    """Run seeds cfg.seed .. cfg.seed + n - 1, each writing trace_<seed>.csv
    (and, for aco, field_<seed>.csv), then write summary.json, a row per
    seed in seed order.

    The seeds are shared over P = min(n, usable_cpus()) processes: this one
    runs seeds 0, P, 2P, ... of the batch, and a forked child each share
    from 1 to P-1, sending its summary rows back over a pipe; where a fork
    fails, this process runs that share too. A run is a pure function of
    (config, seed), so the files are byte-identical to one process running
    every seed in turn. Memory is per process, and ``taskset -c 0`` gives
    P = 1, with no fork. Every child is waited for before this returns or
    raises; one whose parent has gone (killed, say) stops before its next
    seed, so at most the seed it is running still writes its files.

    If a seed raises, the exception of the lowest such seed is raised, a
    child's with its traceback as the ``__cause__``; no summary.json is
    written, and the files of that seed and every later one are removed. A
    child that ends before it reports fails its first seed with a
    RuntimeError naming its seeds and exit code."""
    seeds = range(cfg.seed, cfg.seed + n)
    procs = min(n, usable_cpus())
    read_ends: list[int] = []
    outcomes = []
    with ExitStack() as reaping:
        for share in (seeds[first::procs] for first in range(1, procs)):
            try:
                pid, fd = _fork_share(cfg, out_dir, share, read_ends)
            except OSError:  # no process to spare: this one runs the rest
                break
            read_ends.append(fd)
            reaping.callback(lambda *fork: outcomes.append((fork[0], *_reap(*fork))), share, pid, fd)
        own = [seed for seed in seeds if not 0 < (seed - seeds.start) % procs <= len(read_ends)]
        outcomes.append((own, *_run_share(cfg, out_dir, own)))

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
