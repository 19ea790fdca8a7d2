"""Record the expected outputs of every workload into ``digests.json``.

    python3 perfbench/record_digests.py [--seeds N]

Run from the root of a checkout whose outputs are known to be right. For
workload seeds 0..N-1 it runs one untraced round of each workload and
stores, per CLI run, the exit code and the sha256 of every output file; each
later benchmark run of the same CLI run must reproduce them exactly.
"""

from __future__ import annotations

import argparse
import json
import sys

from child import WORKLOADS
from run import DIGESTS, Run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=20)
    args = parser.parse_args()
    digests = {}
    for workload in WORKLOADS:
        for seed in range(args.seeds):
            run = Run(workload, seed, recorded={})
            results = run.round()
            if results is None:
                return 1
            for cli_run, r in zip(run.cli_runs, results):
                digests[cli_run.key] = {"exit_code": r["exit_code"], "digests": r["digests"]}
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
