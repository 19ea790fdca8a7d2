"""The repo's pytest settings turn warnings into errors; a failing property
test must still fail on its own and leave the rest of the session to run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY_THEN_PASSING = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
"""


def test_a_failing_property_test_does_not_end_the_session(tmp_path):
    """hypothesis reports a failing example through libcst, which warns as it
    is imported; turned into an error, that warning is an INTERNALERROR that
    ends the session before the next test runs."""
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY_THEN_PASSING)
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
            "-p", "no:cacheprovider", "-q", "test_property.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "1 failed, 1 passed" in proc.stdout
    assert "INTERNALERROR" not in output
