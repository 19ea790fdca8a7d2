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
