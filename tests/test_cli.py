"""CLI tests: flag layering, output files, batch mode, and exit statuses."""

import json
import os
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from hexswarm import cli, engine
from hexswarm.cli import field_csv, main, trace_csv, tracker_csv
from hexswarm.config import config_overrides, parse_config
from hexswarm.engine import TRACE_HEADER, run

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
            result = run(cfg)
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
