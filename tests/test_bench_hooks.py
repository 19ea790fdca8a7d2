"""The traced benchmark run patches named functions of the package from
outside (``perfbench/spans.py``) and wraps ``hexswarm.engine.init_state`` to
time set-up (``perfbench/child.py``). A refactor that renames or drops one of
those names breaks the benchmark only when it runs; this test fails first."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
