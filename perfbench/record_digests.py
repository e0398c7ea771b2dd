"""Record the expected output digest of every operation any seed can pick.

Run from the repository root on a commit whose outputs are trusted:

    PYTHONPATH=src python3 perfbench/record_digests.py

It rewrites perfbench/digests.json.  Every operation must pass its exit-code
and content check before its digest is recorded.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from worker import run_op  # noqa: E402


def main() -> int:
    out = {}
    for size, z in sorted(workloads.SIZES.items()):
        ops = {}
        for workload in workloads.WORKLOADS:
            for rep_seed in range(workloads.REPCHECK_SEEDS):
                for cell in workloads.cells(z["verify_max_r"]):
                    for op in workloads.build_ops(workload, rep_seed, cell, size):
                        ops[op.key] = op
        digests = {}
        for key, op in sorted(ops.items()):
            code, text = run_op(op)
            why = workloads.check(op, code, text, None)
            if why:
                print(f"{size} {key}: {why}", file=sys.stderr)
                return 1
            digests[key] = workloads.digest(text)
            print(f"{size} {key} {digests[key][:12]}", flush=True)
        out[size] = digests
    with open(HERE / "digests.json", "w", encoding="utf-8") as fh:
        json.dump(out, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
