"""The traced benchmark run patches named functions of the package from
outside (``perfbench/spans.py``) and wraps ``hexswarm.engine.init_state`` to
time set-up (``perfbench/child.py``). A refactor that renames or drops one of
those names breaks the benchmark only when it runs; this test fails first."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hexswarm import cli

ROOT = Path(__file__).resolve().parents[1]
SPANS_PY = ROOT / "perfbench" / "spans.py"


def load_spans():
    """Import spans.py as a stand-alone module; importing it patches nothing."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(owner_spec, attr):
    module, _, cls = owner_spec.partition(":")
    owner = importlib.import_module(module)
    if cls:
        owner = getattr(owner, cls)
    return getattr(owner, attr)


HOOKS = [(owner, attr) for owner, attr, _ in load_spans().SPANS] + [
    ("hexswarm.engine", "init_state"),
    ("hexswarm.engine", "check_invariants"),
]


@pytest.mark.parametrize("owner,attr", HOOKS, ids=[f"{o}.{a}" for o, a in HOOKS])
def test_patched_name_resolves_to_a_callable(owner, attr):
    assert callable(resolve(owner, attr))


# Installs the tracer in a fresh process (it patches for the life of the
# process), runs the CLI and prints the tracer's counters and span calls.
TRACED_RUN = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
tracer = spans.Tracer()
tracer.install()
from hexswarm import cli
cli.main(sys.argv[2:])
print(json.dumps({"counts": tracer.counts, "calls": tracer.calls}))
"""


def assert_tracing_is_an_observer(tmp_path, scenario):
    """Runs scenario traced, then untraced, at seed 1 for 40 ticks. Every
    trace row is one decision of the run's controller, and a bco run elects
    a first leader, so a dispatch change cannot leave a controller's spans
    unreached."""
    traced, plain = tmp_path / "traced", tmp_path / "plain"
    argv = ["--scenario", str(ROOT / "scenarios" / scenario), "--seed", "1"]
    argv += ["--ticks", "40"]
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(SPANS_PY), *argv, "--out", str(traced)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(proc.stdout)
    counts, calls = spans["counts"], spans["calls"]
    summary = json.loads((traced / "summary.json").read_text())
    assert summary["messages_delivered"] > 0
    assert counts["comms.deliveries"] == summary["messages_delivered"]
    rows = (traced / "trace.csv").read_text().count("\n") - 1  # less the header
    assert rows > 0
    assert calls[f"{summary['controller']}.decide"] == rows
    if summary["controller"] == "bco":
        assert calls["bco.elect"] > 0
        assert counts["bco.leader_changes"] >= 1

    cli.main([*argv, "--out", str(plain)])
    names = sorted(p.name for p in traced.iterdir())
    assert names == sorted(p.name for p in plain.iterdir())
    for name in names:
        assert (traced / name).read_bytes() == (plain / name).read_bytes(), name
    return names


def test_traced_deliveries_match_the_summary(tmp_path):
    """comms.deliveries adds up what flood_until_quiet returns; it must equal
    the deliveries the run itself counts. Tracing is an observer: the same
    run untraced writes byte-identical files."""
    assert_tracing_is_an_observer(tmp_path, "bco_failover.cfg")


@pytest.mark.parametrize("scenario", ["ga_default.cfg", "aco_trails.cfg"])
def test_traced_deliveries_match_the_summary_for_every_controller(tmp_path, scenario):
    """As above, for the other two controllers; aco also writes field.csv."""
    names = assert_tracing_is_an_observer(tmp_path, scenario)
    assert ("field.csv" in names) == (scenario == "aco_trails.cfg")
