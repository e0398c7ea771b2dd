"""Before/after perfbench medians for two checkouts, written as one JSON file.

Usage, from anywhere:

    python3 tools/bench_pair.py --base ../parent --head . --out BENCH_<n>.json \
        --workload evidence:10 --workload verify:10 --workload crosscheck:10

Each ``--workload name:n`` runs ``perfbench/run.py --workload name --seed s
--seconds S --trace 0`` for seeds 1..n in both checkouts, one pair per seed,
where S is the ``run_seconds`` that the parent's BENCHMARK.json fixes,
alternating which side goes first so that a drift of the host's speed during
the pair does not favour one side.  Each checkout runs its own copy of
perfbench on its own ``src``.  The file records every run's end-to-end
metrics, the per-side medians, and per metric the number of pairs in which
the head side was better.  A run that exits nonzero, whose last line is not a
JSON object, that perfbench reports as not correct, or that lacks a metric,
stops the script at once: it exits 1 with a message that names the workload,
the seed and the side (and for the first two the exit code and the last lines
of the run's output), and writes no file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

def git_commit(root: Path) -> str | None:
    """HEAD of the checkout at root, or None when it is not a git work tree."""
    if not (root / ".git").exists():  # git would search the directories above
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


class BadRun(Exception):
    """A perfbench run whose metrics cannot enter the medians."""


def run_once(root: Path, side: str, workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    where = f"workload {workload} seed {seed} on the {side} side ({root})"
    result = None
    if proc.returncode == 0:
        try:
            result = json.loads(proc.stdout.strip().rpartition("\n")[2])
        except ValueError:
            pass
    if not isinstance(result, dict):
        why = " but its last line is not a JSON object" if proc.returncode == 0 else ""
        tail = (proc.stdout + proc.stderr).strip().splitlines()[-5:]
        raise BadRun(f"{where}: perfbench exited {proc.returncode}{why}; its output ends:\n"
                     + "\n".join(f"  {line}" for line in tail))
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    if not result["correct"]:
        raise BadRun(f"{where}: the run is not correct")
    absent = sorted(name for name, value in metrics.items() if value is None)
    if absent:
        raise BadRun(f"{where}: metric {', '.join(absent)} is absent")
    return {"seed": seed, "correct": result["correct"], "metrics": metrics}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> dict:
    out = {}
    for name in sorted(pairs[0][0]["metrics"]):
        base = [b["metrics"][name] for b, _ in pairs]
        head = [h["metrics"][name] for _, h in pairs]
        if better[name] == "lower":
            wins = sum(h < b for b, h in zip(base, head))
        else:
            wins = sum(h > b for b, h in zip(base, head))
        out[name] = {
            "base": quartiles(base),
            "head": quartiles(head),
            "head_better_pairs": wins,
            "pairs": len(pairs),
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--head", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", action="append", required=True, metavar="NAME:SEEDS")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    spec = json.loads((args.base / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    workloads = []
    for workload in args.workload:
        name, _, n = workload.partition(":")
        if not n.isdigit() or int(n) < 1:
            ap.error(f"--workload {workload!r} is not NAME:SEEDS with SEEDS >= 1")
        workloads.append((name, int(n)))

    record = {
        "command": f"perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0",
        "machine": {"nproc": len(os.sched_getaffinity(0)),
                    "python": platform.python_version(),
                    "kernel_release": platform.release()},
        "base_commit": git_commit(args.base),
        "head_commit": git_commit(args.head),
        "workloads": {},
    }
    for name, n in workloads:
        pairs = []
        for seed in range(1, n + 1):
            sides = [("base", args.base), ("head", args.head)]
            try:
                runs = {side: run_once(root, side, name, seed, seconds)
                        for side, root in (sides if seed % 2 else sides[::-1])}
            except BadRun as exc:
                print(f"bench_pair: error: {exc}", file=sys.stderr)
                return 1
            pairs.append((runs["base"], runs["head"]))
            print(f"{name} seed {seed}: wall_ref "
                  f"{runs['base']['metrics']['wall_ref']:.2f} -> "
                  f"{runs['head']['metrics']['wall_ref']:.2f}", flush=True)
        record["workloads"][name] = {
            "medians": summarize(pairs, better),
            "runs": [{"base": b, "head": h} for b, h in pairs],
        }
    args.out.write_text(json.dumps(record, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
