"""CLI tests: flag layering, output files, batch mode, and exit statuses."""

import errno
import json
import os
import re
import select
import stat
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from hexswarm import cli, engine
from hexswarm.cli import field_csv, main, trace_csv, tracker_csv
from hexswarm.comms import TRACKER_CSV_HEADER, TrackerLog
from hexswarm.config import config_overrides, parse_config
from hexswarm.engine import TRACE_HEADER, run
from test_golden import cli_configs, in_memory_files

REPO = Path(__file__).resolve().parents[1]


def write_scenario(tmp_path: Path, text: str) -> str:
    p = tmp_path / "scenario.cfg"
    p.write_text(text)
    return str(p)


SMALL = "robots = 4\nradius = 8\nmargin = 1\ntarget = 4,0\nentry = -4,0\nmax_ticks = 60\n"


class TestSingleRun:
    def test_writes_trace_summary_and_tracker(self, tmp_path):
        scenario = write_scenario(tmp_path, SMALL)
        out = tmp_path / "run1"
        code = main(["--scenario", scenario, "--seed", "7", "--out", str(out)])
        assert code in (0, 2)
        assert (out / "trace.csv").is_file()
        assert (out / "summary.json").is_file()
        assert (out / "tracker.csv").is_file()
        header = (out / "trace.csv").read_text().splitlines()[0]
        assert header == ",".join(TRACE_HEADER)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["seed"] == 7
        assert summary["robots"] == 4

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        scenario = write_scenario(tmp_path, SMALL)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(["--scenario", scenario, "--seed", "7", "--out", str(out)])
            outs.append((out / "trace.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_aco_run_writes_field_csv(self, tmp_path):
        scenario = write_scenario(tmp_path, SMALL + "controller = aco\n")
        out = tmp_path / "aco"
        main(["--scenario", scenario, "--out", str(out)])
        field = (out / "field.csv").read_text().splitlines()
        assert field[0] == "tick,q,r,level"

    def test_no_temp_files_left_behind(self, tmp_path):
        scenario = write_scenario(tmp_path, SMALL)
        out = tmp_path / "clean"
        main(["--scenario", scenario, "--out", str(out)])
        names = {p.name for p in out.iterdir()}
        assert names == {"trace.csv", "summary.json", "tracker.csv"}

    def test_no_file_is_opened_before_the_state_is_built(self, tmp_path, monkeypatch):
        """Set-up ends when the first init_state returns; the streamed files
        open after it, at their first rows."""
        out = tmp_path / "late"
        seen = []
        init_state = engine.init_state

        def init_state_and_look(cfg):
            state = init_state(cfg)
            seen.append(sorted(p.name for p in out.iterdir()))
            return state

        monkeypatch.setattr(engine, "init_state", init_state_and_look)
        main(["--scenario", write_scenario(tmp_path, SMALL), "--out", str(out)])
        assert seen == [[]]

    def test_output_files_take_the_umask_mode(self, tmp_path):
        scenario = write_scenario(tmp_path, SMALL + "controller = aco\n")
        out = tmp_path / "modes"
        old = os.umask(0o022)
        try:
            main(["--scenario", scenario, "--out", str(out)])
        finally:
            os.umask(old)
        modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()}
        assert modes == dict.fromkeys(
            ("trace.csv", "summary.json", "tracker.csv", "field.csv"), 0o644
        )

    def test_tracker_holds_about_the_bytes_of_tracker_csv(self):
        """A dense run's tracker is its largest object; it must cost about one
        byte per byte of tracker.csv, not a Python object per delivery."""
        text = (REPO / "perfbench/scenarios/dense.cfg").read_text()
        cfg = config_overrides(parse_config(text), controller="aco", seed=1, max_ticks=100)
        tracemalloc.start()
        try:
            result = run(cfg, tracker=TrackerLog())
            size = len(tracker_csv(result))
            held = tracemalloc.get_traced_memory()[0]
            result.state.tracker = None
            freed = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert 0.9 * size < freed <= 1.5 * size  # the lower bound: the tracker was dropped

    def test_peak_memory_is_flat_in_max_ticks(self, tmp_path):
        """The CLI streams trace.csv and tracker.csv, so a run four times as
        long peaks about as high. Measured on aco_trails seed 3 (Python
        3.11): streamed 357 KiB at 50 ticks and 422 KiB at 200; kept in
        memory until the run ended, 508 KiB and 1,233 KiB."""
        scenario = str(REPO / "scenarios/aco_trails.cfg")

        def peak(ticks):
            tracemalloc.start()
            try:
                main(["--scenario", scenario, "--seed", "3", "--ticks", str(ticks),
                      "--out", str(tmp_path / str(ticks))])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # first-use allocations (imports, caches) are not the run's
        assert peak(200) - peak(50) < 200 * 1024


class TestCrashSafety:
    """A run that fails part way leaves no file under its final names and no
    temp file; the files of earlier batch seeds are whole."""

    @staticmethod
    def crash(monkeypatch, seed, at_tick):
        real_tick = engine.tick

        def tick(state):
            if state.config.seed == seed and state.tick == at_tick:
                raise RuntimeError("crash")
            real_tick(state)

        monkeypatch.setattr(engine, "tick", tick)

    @pytest.mark.parametrize("at_tick", [0, 1, 30])
    def test_single_run_leaves_nothing(self, tmp_path, monkeypatch, at_tick):
        scenario = write_scenario(tmp_path, SMALL + "controller = aco\n")
        out = tmp_path / "crashed"
        self.crash(monkeypatch, 7, at_tick)
        with pytest.raises(RuntimeError, match="crash"):
            main(["--scenario", scenario, "--seed", "7", "--out", str(out)])
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("at_tick", [0, 30])
    def test_batch_keeps_earlier_seeds_whole(self, tmp_path, monkeypatch, at_tick):
        scenario = write_scenario(tmp_path, SMALL + "controller = aco\n")
        out = tmp_path / "crashed"
        self.crash(monkeypatch, 7, at_tick)
        with pytest.raises(RuntimeError, match="crash"):
            main(["--scenario", scenario, "--seed", "5", "--batch", "4", "--out", str(out)])
        expected = {}
        for seed in (5, 6):
            result = run(config_overrides(parse_config(SMALL + "controller = aco\n"), seed=seed))
            expected[f"trace_{seed}.csv"] = trace_csv(result).encode()
            expected[f"field_{seed}.csv"] = field_csv(result).encode()
        assert {p.name: p.read_bytes() for p in out.iterdir()} == expected


class TestOverrideLayers:
    def test_flag_beats_config_beats_default(self, tmp_path):
        # default max_ticks is 500; config says 60; the flag says 2
        scenario = write_scenario(tmp_path, SMALL)
        out = tmp_path / "layers"
        main(["--scenario", scenario, "--ticks", "2", "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["ticks"] == 2
        out2 = tmp_path / "layers2"
        main(["--scenario", scenario, "--out", str(out2)])
        summary2 = json.loads((out2 / "summary.json").read_text())
        assert summary2["ticks"] <= 60
        out3 = tmp_path / "layers3"
        main(["--seed", "1", "--ticks", "1", "--out", str(out3)])
        summary3 = json.loads((out3 / "summary.json").read_text())
        assert summary3["robots"] == 20  # defaults apply without a scenario file

    def test_controller_override(self, tmp_path):
        scenario = write_scenario(tmp_path, SMALL)
        out = tmp_path / "ctrl"
        main(["--scenario", scenario, "--controller", "bco", "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["controller"] == "bco"


class TestBatch:
    def test_batch_writes_one_row_per_seed(self, tmp_path):
        scenario = write_scenario(tmp_path, SMALL)
        out = tmp_path / "batch"
        code = main(["--scenario", scenario, "--seed", "5", "--batch", "6", "--out", str(out)])
        assert code == 0
        rows = [json.loads(line) for line in (out / "summary.json").read_text().splitlines()]
        assert [row["seed"] for row in rows] == [5, 6, 7, 8, 9, 10]
        for seed in range(5, 11):
            assert (out / f"trace_{seed}.csv").is_file()

    def test_seed_range_past_64_bits_fails_before_any_run(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, SMALL)
        out = tmp_path / "overflow"
        out.mkdir()
        argv = ["--scenario", scenario, "--seed", str(2**64 - 1), "--batch", "2"]
        code = main([*argv, "--ticks", "1", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("hexswarm: error: batch: ")
        assert list(out.iterdir()) == []


ACO = SMALL + "controller = aco\n"


def use_cpus(monkeypatch, n):
    monkeypatch.setattr(cli, "usable_cpus", lambda: n)


def count_forks(monkeypatch) -> list[int]:
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def files_of(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in out.iterdir()}


def each_seed_alone(tmp_path, first, n, summary=True) -> dict[str, bytes]:
    """The files of an aco batch of n seeds from first, each seed run alone
    by ``run`` into the in-memory sinks."""
    scenario = Path(write_scenario(tmp_path, ACO))
    flags = f"--seed {first} --batch {n}"
    files = in_memory_files(scenario, flags)
    if summary:
        rows = [json.dumps(run(cfg).summary) + "\n" for _, cfg in cli_configs(scenario, flags)]
        files["summary.json"] = "".join(rows).encode()
    return files


class TestSharedBatch:
    """A batch shared over forked processes writes the bytes each seed gives
    alone, and no process outlives main."""

    @pytest.mark.parametrize("cpus", [3, 7])  # shares of 2, 2 and 1 seeds; more CPUs than seeds
    def test_shares_write_what_each_seed_gives_alone(self, tmp_path, monkeypatch, cpus):
        use_cpus(monkeypatch, cpus)
        forks = count_forks(monkeypatch)
        out = tmp_path / "batch"
        code = main(["--scenario", write_scenario(tmp_path, ACO), "--seed", "5", "--batch", "5",
                     "--out", str(out)])  # fmt: skip
        assert_no_child_left()
        assert (code, len(forks)) == (0, min(cpus, 5) - 1)
        assert files_of(out) == each_seed_alone(tmp_path, 5, 5)


class TestSharedBatchFailure:
    """Seeds 5-8 on 2 CPUs: this process runs 5 and 7, a child 6 and 8. A
    failed batch raises its lowest failing seed's exception and leaves the
    files of the seeds before it, whole, and nothing else."""

    def batch(self, tmp_path, monkeypatch):
        use_cpus(monkeypatch, 2)
        out = tmp_path / "crashed"
        try:
            main(["--scenario", write_scenario(tmp_path, ACO), "--seed", "5", "--batch", "4",
                  "--out", str(out)])  # fmt: skip
        finally:
            assert_no_child_left()
        return out

    @pytest.mark.parametrize("at_tick", [0, 30])
    def test_failure_in_a_childs_seed(self, tmp_path, monkeypatch, at_tick):
        TestCrashSafety.crash(monkeypatch, 6, at_tick)
        with pytest.raises(RuntimeError, match="^crash$") as failed:
            self.batch(tmp_path, monkeypatch)
        assert isinstance(failed.value.__cause__, cli._ChildTraceback)
        assert "RuntimeError: crash" in str(failed.value.__cause__)
        assert files_of(tmp_path / "crashed") == each_seed_alone(tmp_path, 5, 1, summary=False)

    def test_failure_here_removes_a_later_seed_a_child_finished(self, tmp_path, monkeypatch):
        TestCrashSafety.crash(monkeypatch, 7, 30)
        removed = []
        real_unlink = Path.unlink

        def unlink(path, missing_ok=False):
            if path.exists():
                removed.append(path.name)
            real_unlink(path, missing_ok=missing_ok)

        monkeypatch.setattr(Path, "unlink", unlink)
        with pytest.raises(RuntimeError, match="^crash$"):
            self.batch(tmp_path, monkeypatch)
        assert removed == ["trace_8.csv", "field_8.csv"]
        assert files_of(tmp_path / "crashed") == each_seed_alone(tmp_path, 5, 2, summary=False)

    @pytest.mark.parametrize("failing", [(6, 7), (5, 6), (7, 8)])
    def test_lowest_failing_seed_is_raised(self, tmp_path, monkeypatch, failing):
        real_tick = engine.tick

        def tick(state):
            if state.config.seed in failing and state.tick == 10:
                raise RuntimeError(f"crash {state.config.seed}")
            real_tick(state)

        monkeypatch.setattr(engine, "tick", tick)
        with pytest.raises(RuntimeError, match=f"^crash {failing[0]}$"):
            self.batch(tmp_path, monkeypatch)
        earlier = failing[0] - 5
        expected = each_seed_alone(tmp_path, 5, earlier, summary=False) if earlier else {}
        assert files_of(tmp_path / "crashed") == expected

    def test_child_that_ends_without_reporting(self, tmp_path, monkeypatch):
        parent, real_tick = os.getpid(), engine.tick

        def tick(state):
            if state.config.seed == 6 and os.getpid() != parent:
                os._exit(9)
            real_tick(state)

        monkeypatch.setattr(engine, "tick", tick)
        with pytest.raises(RuntimeError, match="seeds 6, 8 exited with code 9 before it reported"):
            self.batch(tmp_path, monkeypatch)
        assert files_of(tmp_path / "crashed") == each_seed_alone(tmp_path, 5, 1, summary=False)


# A batch of the default scenario shared over 2 processes, run in a fresh
# interpreter: argv is (src, out, batch size); exits 0 with no output.
DEFAULT_BATCH = """
import sys
sys.path.insert(0, sys.argv[1])
import hexswarm.cli
hexswarm.cli.usable_cpus = lambda: 2
hexswarm.cli.main(["--seed", "1", "--batch", sys.argv[3], "--out", sys.argv[2]])
"""


def default_batch(out: Path, n: int, **popen) -> subprocess.Popen:
    argv = [sys.executable, "-I", "-c", DEFAULT_BATCH, str(REPO / "src"), str(out), str(n)]
    return subprocess.Popen(argv, **popen)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="a batch forks only where os.fork exists")
class TestBatchProcesses:
    """A forked share, seen from outside the command's process."""

    def test_report_larger_than_a_pipe_holds(self, tmp_path):
        """README's 20-seed sweep: the child's rows outgrow the pipe, so it
        blocks until they are read; a wait before the read would hang."""
        proc = default_batch(tmp_path, 20)
        try:
            assert proc.wait(timeout=120) == 0
        finally:
            proc.kill()
            proc.wait()
        rows = (tmp_path / "summary.json").read_bytes().splitlines(keepends=True)
        assert [json.loads(row)["seed"] for row in rows] == list(range(1, 21))
        import fcntl  # Unix only, as os.fork is

        held = 65536  # Linux's default, where a pipe cannot say what it holds
        if hasattr(fcntl, "F_GETPIPE_SZ"):
            read_end, write_end = os.pipe()
            held = fcntl.fcntl(write_end, fcntl.F_GETPIPE_SZ)
            os.close(read_end)
            os.close(write_end)
        assert sum(map(len, rows[1::2])) > held  # the child's seeds, 2, 4, ..., 20

    def test_killed_command_leaves_a_child_one_seed_at_most(self, tmp_path):
        """The child stops before its next seed once the command's process is
        killed. Every process holding the pipe's write end keeps its read end
        from reading EOF, so EOF says the child has ended."""
        read_end, write_end = os.pipe()
        proc = default_batch(tmp_path, 16, pass_fds=(write_end,))
        os.close(write_end)
        try:
            deadline = time.monotonic() + 60
            while not (tmp_path / "trace_2.csv").exists():  # the child's first seed
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.005)
            before = set(os.listdir(tmp_path))
            proc.kill()
            proc.wait()
            assert select.select([read_end], [], [], 60)[0] == [read_end]
            assert os.read(read_end, 1) == b""
        finally:
            proc.kill()
            proc.wait()
            os.close(read_end)
        written = [name for name in os.listdir(tmp_path) if name not in before]
        assert len([name for name in written if re.fullmatch(r"trace_\d+\.csv", name)]) <= 1


class TestBatchWithoutFork:
    """One CPU, a usage error and a fork that fails: no process is forked."""

    @pytest.fixture(autouse=True)
    def no_fork(self, monkeypatch):
        def fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", fork)

    def test_one_cpu_runs_every_seed_here(self, tmp_path, monkeypatch):
        use_cpus(monkeypatch, 1)
        out = tmp_path / "batch"
        main(["--scenario", write_scenario(tmp_path, ACO), "--seed", "5", "--batch", "5",
              "--out", str(out)])  # fmt: skip
        assert files_of(out) == each_seed_alone(tmp_path, 5, 5)

    def test_usage_error_forks_nothing(self, tmp_path, monkeypatch, capsys):
        use_cpus(monkeypatch, 2)
        TestBatch().test_seed_range_past_64_bits_fails_before_any_run(tmp_path, capsys)

    def test_failed_fork_runs_the_share_here(self, tmp_path, monkeypatch):
        def fork():
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "fork", fork)
        use_cpus(monkeypatch, 3)
        out = tmp_path / "batch"
        main(["--scenario", write_scenario(tmp_path, ACO), "--seed", "5", "--batch", "5",
              "--out", str(out)])  # fmt: skip
        assert files_of(out) == each_seed_alone(tmp_path, 5, 5)


def csv_files(out: Path) -> dict[str, bytes]:
    return {name: data for name, data in files_of(out).items() if name.endswith(".csv")}


def single_alone(tmp_path) -> dict[str, bytes]:
    """The csv files of an aco run of seed 7, made by ``run`` into the
    in-memory sinks."""
    return in_memory_files(Path(write_scenario(tmp_path, ACO)), "--seed 7")


# A single aco run of dense.cfg on 2 CPUs, run in a fresh interpreter: argv
# is (src, scenario, out).
DENSE_SINGLE = """
import sys
sys.path.insert(0, sys.argv[1])
import hexswarm.cli
hexswarm.cli.usable_cpus = lambda: 2
hexswarm.cli.main(["--scenario", sys.argv[2], "--controller", "aco", "--out", sys.argv[3]])
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the writer forks only where os.fork exists")
class TestTrackerWriter:
    """A single run on 2 CPUs or more formats tracker.csv's rows in one
    forked writer process, and only counts its own floods: the same bytes,
    no process outlives main, and no file takes its final name unless the
    writer ended well."""

    def single(self, tmp_path, *flags):
        out = tmp_path / "single"
        try:
            return main(["--scenario", write_scenario(tmp_path, ACO), "--seed", "7",
                         *flags, "--out", str(out)])  # fmt: skip
        finally:
            assert_no_child_left()

    @pytest.mark.parametrize("at_tick", [0, 1, 30])
    def test_crash_leaves_nothing(self, tmp_path, monkeypatch, at_tick):
        use_cpus(monkeypatch, 2)
        forks = count_forks(monkeypatch)
        TestCrashSafety.crash(monkeypatch, 7, at_tick)
        with pytest.raises(RuntimeError, match="^crash$"):
            self.single(tmp_path)
        assert len(forks) == min(at_tick, 1)  # the writer forks at the first flood
        assert list((tmp_path / "single").iterdir()) == []

    @pytest.mark.parametrize("at_tick", [0, 30])
    @pytest.mark.parametrize("how,code", [("exits", 9), ("raises", 1)])
    def test_writer_that_fails(self, tmp_path, monkeypatch, at_tick, how, code):
        parent, real_flood = os.getpid(), cli.flood_until_quiet

        def flood(masks, outbox, ttl, reach, tracker, tick):
            if tick == at_tick and os.getpid() != parent:
                if how == "exits":
                    os._exit(code)
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return real_flood(masks, outbox, ttl, reach, tracker, tick)

        monkeypatch.setattr(cli, "flood_until_quiet", flood)  # the writer's name for it
        use_cpus(monkeypatch, 2)
        match = f"^tracker.csv: the writer process exited with code {code}$"
        with pytest.raises(RuntimeError, match=match):
            self.single(tmp_path)
        assert list((tmp_path / "single").iterdir()) == []

    def test_engine_floods_once_a_tick_and_counts_every_delivery(self, tmp_path, monkeypatch):
        """perfbench's traced run counts comms.deliveries from what the
        engine's flood_until_quiet returns, looked up in its namespace."""
        use_cpus(monkeypatch, 2)
        forks = count_forks(monkeypatch)
        floods, real_flood = [], engine.flood_until_quiet

        def flood(masks, outbox, ttl, reach, tracker, tick):
            floods.append((tick, tracker, real_flood(masks, outbox, ttl, reach, tracker, tick)))
            return floods[-1][2]

        monkeypatch.setattr(engine, "flood_until_quiet", flood)
        self.single(tmp_path)
        summary = json.loads((tmp_path / "single/summary.json").read_text())
        assert [(tick, tracker) for tick, tracker, _ in floods] == [
            (tick, None) for tick in range(summary["ticks"])
        ]
        assert sum(delivered for *_, delivered in floods) == summary["messages_delivered"] > 0
        assert len(forks) == 1
        assert csv_files(tmp_path / "single") == single_alone(tmp_path)

    def test_killed_command_leaves_no_tracker_csv(self, tmp_path):
        """The writer ends at the pipe's end once the command's process is
        killed, and renames nothing: the temp files stay, no file takes its
        final name. Every process holding the extra pipe's write end keeps
        its read end from reading EOF, so EOF says the writer has ended."""
        read_end, write_end = os.pipe()
        scenario = REPO / "perfbench/scenarios/dense.cfg"
        argv = [sys.executable, "-I", "-c", DENSE_SINGLE, str(REPO / "src"), str(scenario)]
        proc = subprocess.Popen([*argv, str(tmp_path)], pass_fds=(write_end,))
        os.close(write_end)
        try:
            deadline = time.monotonic() + 60
            # trace.csv's temp file opens at the end of tick 0, after the writer forked
            while not any(name.startswith("trace.csv.") for name in os.listdir(tmp_path)):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.005)
            proc.kill()
            proc.wait()
            assert select.select([read_end], [], [], 60)[0] == [read_end]
            assert os.read(read_end, 1) == b""
        finally:
            proc.kill()
            proc.wait()
            os.close(read_end)
        temp_files = sorted(name.partition(".csv.")[0] for name in os.listdir(tmp_path))
        assert temp_files == ["trace", "tracker"]

    def test_failed_fork_formats_the_rows_here(self, tmp_path, monkeypatch):
        def fork():
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "fork", fork)
        use_cpus(monkeypatch, 2)
        self.single(tmp_path)
        assert csv_files(tmp_path / "single") == single_alone(tmp_path)

    def test_no_tick_forks_nothing(self, tmp_path, monkeypatch):
        use_cpus(monkeypatch, 2)
        forks = count_forks(monkeypatch)
        assert self.single(tmp_path, "--ticks", "0") == 2
        assert (tmp_path / "single/tracker.csv").read_text() == ",".join(TRACKER_CSV_HEADER) + "\n"
        assert forks == []


class TestExitStatuses:
    def test_out_naming_a_file_fails_before_any_run(self, tmp_path, capsys, monkeypatch):
        def no_run(cfg):
            raise AssertionError("ran a simulation with nowhere to write it")

        monkeypatch.setattr(cli, "run", no_run)
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        scenario = write_scenario(tmp_path, SMALL)
        code = main(["--scenario", scenario, "--out", str(taken)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("hexswarm: error: out: ")
        assert str(taken) in err
        assert taken.read_text() == "not a directory\n"

    def test_missing_scenario_file_is_usage_error(self, tmp_path, capsys):
        assert main(["--scenario", str(tmp_path / "nope.cfg")]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["not_utf8", "directory"])
    def test_unreadable_scenario_fails_in_one_line(self, tmp_path, kind):
        scenario, out = tmp_path / "scenario.cfg", tmp_path / "out"
        if kind == "directory":
            scenario.mkdir()
        else:
            scenario.write_bytes(b"robots = 4\n# \xff\n")
        path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "hexswarm.cli", "--scenario", str(scenario), "--out", str(out)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"hexswarm: error: scenario: {scenario}: ")
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_bad_flag_is_usage_error(self, capsys):
        assert main(["--frobnicate"]) == 1

    def test_bad_config_value_is_usage_error(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, "robots = 0\n")
        assert main(["--scenario", scenario]) == 1

    @pytest.mark.parametrize("removals", ["5:3, 5:3", "5:3, 9:3"])
    def test_removal_repeating_a_robot_is_usage_error(self, tmp_path, capsys, removals):
        text = SMALL.replace("robots = 4", "robots = 10") + f"removals = {removals}\n"
        scenario = write_scenario(tmp_path, text)
        assert main(["--scenario", scenario, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("hexswarm: error: removals: robot 3 ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text,line,key",
        [
            ("seed = \u0663", 1, "seed"),  # an Arabic-Indic three
            ("seed = 1_000", 1, "seed"),
            ("robots = 020", 1, "robots"),
            ("ttl = +5", 1, "ttl"),
            ("comm_range = \uff12", 1, "comm_range"),  # a fullwidth two
            ("target = \u0663,0", 1, "target"),
            ("[ga]\ncrossover_prob = 1e-400", 2, "crossover_prob"),
            ("[aco]\nalpha = 1_0.5", 2, "alpha"),
        ],
    )
    def test_number_outside_the_ascii_grammar_names_line_and_key(
        self, tmp_path, capsys, text, line, key
    ):
        scenario = write_scenario(tmp_path, text + "\n")
        assert main(["--scenario", scenario, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"hexswarm: error: line {line}: bad value for '{key}': ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag,value", [("--ticks", "\uff12"), ("--batch", "0_2")])
    def test_flag_outside_the_ascii_grammar_names_the_flag(self, tmp_path, capsys, flag, value):
        assert main([flag, value, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"hexswarm: error: argument {flag}: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["--seed", "1", "--seed", "2"], "--seed"),
            (["--seed=1", "--seed", "2"], "--seed"),
            (["--out", "{out}", "--out", "{out}2"], "--out"),  # a flag with a default
        ],
    )
    def test_flag_given_twice_is_usage_error(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "out"
        argv = [arg.format(out=out) for arg in argv]
        if "--out" not in argv:
            argv += ["--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"hexswarm: error: argument {flag}: given more than once\n"
        assert list(tmp_path.iterdir()) == []

    def test_success_exit_zero(self, tmp_path):
        scenario = write_scenario(
            tmp_path, "robots = 1\nradius = 6\nmargin = 1\ntarget = 1,0\nentry = 0,0\n"
        )
        assert main(["--scenario", scenario, "--out", str(tmp_path / "s")]) == 0

    def test_timeout_exit_two(self, tmp_path):
        scenario = write_scenario(tmp_path, SMALL.replace("max_ticks = 60", "max_ticks = 3"))
        assert main(["--scenario", scenario, "--out", str(tmp_path / "t")]) == 2

    def test_extinction_exit_three(self, tmp_path):
        # both robots die before anything can get near the target
        scenario = write_scenario(
            tmp_path, SMALL.replace("robots = 4", "robots = 2") + "removals = 1:0, 2:1\n"
        )
        assert main(["--scenario", scenario, "--out", str(tmp_path / "x")]) == 3
