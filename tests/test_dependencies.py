"""The package declares ``dependencies = []``: importing it and its CLI
must load nothing from outside the standard library."""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs in a fresh interpreter, so no module a test imported is counted.
IMPORT_AND_LIST = """
import json, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import hexswarm, hexswarm.cli
print(json.dumps(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""


def test_package_and_cli_import_only_the_standard_library():
    proc = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_AND_LIST, str(SRC)],  # -I: no PYTHONPATH, no user site
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    outside = [name for name in loaded if name not in sys.stdlib_module_names]
    assert outside == ["hexswarm"]
    # The engine takes each tick's median and mean itself: statistics would
    # load fractions and decimal with it.
    assert [name for name in ("statistics", "fractions", "decimal") if name in loaded] == []


# A batch shares its seeds over processes made with os.fork and reads their
# rows from pipes: a process pool's import and start-up would land in the
# CLI's set-up time, before its first simulation.
IMPORT_AND_BATCH = """
import json, sys
sys.path.insert(0, sys.argv[1])
import hexswarm, hexswarm.cli
imported = sorted(sys.modules)
hexswarm.cli.usable_cpus = lambda: 2
code = hexswarm.cli.main(["--ticks", "3", "--batch", "2", "--out", sys.argv[2]])
print(json.dumps({"import": imported, "batch": sorted(sys.modules), "code": code}))
"""


def test_cli_loads_no_process_pool_and_pickles_only_on_failure(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_AND_BATCH, str(SRC), str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert loaded["code"] == 0
    assert len((tmp_path / "summary.json").read_text().splitlines()) == 2
    for phase in ("import", "batch"):
        names = {name.partition(".")[0] for name in loaded[phase]}
        unwanted = ("multiprocessing", "concurrent", "pickle")
        assert [name for name in unwanted if name in names] == []


# A single run on 2 CPUs formats tracker.csv in a forked writer process, and
# sends it each flood's inputs marshalled: marshal is built in, so the run
# loads no pickle, and no process pool.
IMPORT_AND_SINGLE_RUN = """
import json, os, sys
sys.path.insert(0, sys.argv[1])
import hexswarm, hexswarm.cli
hexswarm.cli.usable_cpus = lambda: 2
forks, fork = [], os.fork
os.fork = lambda: forks.append(1) or fork()
code = hexswarm.cli.main(["--ticks", "3", "--out", sys.argv[2]])
print(json.dumps({"modules": sorted(sys.modules), "code": code, "forks": len(forks)}))
"""


def test_single_run_with_a_writer_process_loads_no_pickle_or_pool(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_AND_SINGLE_RUN, str(SRC), str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert (loaded["code"], loaded["forks"]) == (2, 1)
    assert len((tmp_path / "tracker.csv").read_text().splitlines()) > 1
    names = {name.partition(".")[0] for name in loaded["modules"]}
    assert [name for name in ("multiprocessing", "concurrent", "pickle") if name in names] == []
