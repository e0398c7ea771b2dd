"""Benchmark of the qonsager CLI: one workload, one run, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

A run is a closed loop with one caller: each pass of the workload runs in a
fresh interpreter (``perfbench/worker.py``, importing the checkout's ``src``)
and the next pass starts only after the previous one has exited.  Passes
repeat until ``--seconds`` have elapsed, at least once.  ``QONSAGER_WORKERS``
and ``QONSAGER_KERNEL`` are left as found, so the default kernel selection and
one worker are what is measured unless the caller's environment says
otherwise; both are recorded.

``--trace 0`` reports the end-to-end metrics; set-up time is the median of
fresh interpreters that import ``qonsager.cli`` and build its parser, five
before the first pass and two after each pass.
A pass's wall and CPU time are reported in units of a fixed reference job
that the worker times before each operation and at the end, so that the
host's speed of the moment, which on a shared machine swings by more than the
bounds, divides out; the raw seconds are printed and recorded too.
``--trace 1`` alternates untraced and traced passes and reports the layer
metrics of the traced ones (medians), plus the tracing overhead.  The spans of
the last traced pass are written to ``perfbench/out/``.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it name
the machine and every metric with its unit.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_ref": "ref",
    "cpu_ref": "ref",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}
LAYER_UNITS = {name: unit for name, (unit, _) in tracer.LAYER_METRICS.items()}
LAYER_UNITS["trace.overhead_s"] = "s"

SETUP_CODE = "import qonsager.cli as c; c.build_parser()"
SETUP_SAMPLES = 5  # before the first pass
SETUP_PER_ROUND = 2  # after each untraced pass, so the samples span the run
RUN_LIMIT_S = 170.0  # every run must end within 180 s


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    if not (ROOT / ".git").exists():  # git would search the directories above
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine_facts(backend: str | None) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "kernel_release": platform.release(),
        "kernel_backend": backend,
        "QONSAGER_KERNEL": os.environ.get("QONSAGER_KERNEL"),
        "QONSAGER_WORKERS": os.environ.get("QONSAGER_WORKERS"),
        "git_commit": git_commit(),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def run_child(argv: list[str], timeout: float) -> tuple[int | None, str, float, float]:
    """Run one child to completion: (exit code or None on timeout, output, wall, cpu)."""
    cpu0 = children_cpu_s()
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True, timeout=max(timeout, 1.0),
        )
        code, out = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired as exc:
        code, out = None, exc.stdout or ""
        if isinstance(out, bytes):
            out = out.decode("utf-8", "replace")
    return code, out, time.perf_counter() - t0, children_cpu_s() - cpu0


def measure_setup(samples: int, timeout: float) -> list[float]:
    """Wall time of fresh interpreters that import the CLI and build its parser."""
    argv = [sys.executable, "-c", SETUP_CODE]
    times = []
    for _ in range(samples):
        code, out, wall, _ = run_child(argv, timeout)
        if code != 0:
            raise SystemExit(f"perfbench: set-up interpreter failed:\n{out}")
        times.append(wall)
    return times


def in_ref_units(total: float, ops: list[float], refs: list[float]) -> float:
    """Time of a pass, less its reference runs, in units of the reference job.

    ``refs[i]`` was taken just before operation i and ``refs[-1]`` after the
    last, so each operation is divided by the mean of the two around it and
    the rest of the pass (interpreter start, import, checks, child
    processes) by the mean of all: the host's speed of the moment divides out.
    """
    own = sum(t / ((refs[i] + refs[i + 1]) / 2) for i, t in enumerate(ops))
    return own + (total - sum(ops)) / statistics.mean(refs)


class Run:
    def __init__(self, args):
        self.args = args
        self.n_ops = len(workloads.ops_for(args.workload, args.seed, args.size))
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.backend = None
        self.passes = {"plain": [], "traced": []}  # worker results per pass
        self.setup: list[float] = []  # set-up samples, untraced runs only

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def one_pass(self, traced: bool) -> bool:
        """Run a pass; False when its worker failed or timed out, which ends the run."""
        a = self.args
        argv = [sys.executable, str(HERE / "worker.py"), "--workload", a.workload,
                "--seed", str(a.seed), "--size", a.size, "--trace", str(int(traced))]
        if traced:
            OUT.mkdir(exist_ok=True)
            argv += ["--trace-out", str(OUT / f"trace-{a.workload}-{a.size}-seed{a.seed}.jsonl")]
        if a.fault:
            argv.append("--fault")
        code, out, wall, cpu = run_child(argv, self.remaining())
        self.attempted += self.n_ops
        try:
            result = json.loads(out.strip().splitlines()[-1])
        except (ValueError, IndexError):
            result = None
        if code != 0 or result is None:
            self.failed += self.n_ops
            why = "timed out" if code is None else f"worker exited {code}"
            self.reasons.append(f"{why}: {out.strip()[-2000:]}")
            return False
        src = (ROOT / "src").resolve()
        if src not in Path(result["qonsager_file"]).resolve().parents:
            raise SystemExit(f"perfbench: imported {result['qonsager_file']}, not the checkout's")
        self.backend = result["backend"]
        for op in result["ops"]:
            if op["failed"]:
                self.failed += 1
                self.reasons.append(f"{op['key']}: {op['failed']}")
        result["wall_s"], result["cpu_s"] = wall, cpu
        ref, ops = result["ref"], result["ops"]
        result["wall_ref"] = in_ref_units(
            wall - sum(ref["wall_s"]), [op["wall_s"] for op in ops], ref["wall_s"])
        result["cpu_ref"] = in_ref_units(
            cpu - sum(ref["cpu_s"]), [op["cpu_s"] for op in ops], ref["wall_s"])
        self.passes["traced" if traced else "plain"].append(result)
        return True

    def loop(self) -> None:
        """Closed loop: passes back to back until --seconds have elapsed.

        A further round is skipped when, at the length of the last one, it
        would end after twice --seconds, so a slow host cannot stretch a run
        far past its nominal length.
        """
        order = (False, True) if self.args.trace else (False,)
        start = time.perf_counter()
        deadline, cap = start + self.args.seconds, start + 2 * self.args.seconds
        while True:
            round_start = time.perf_counter()
            for traced in order:
                if not self.one_pass(traced):
                    return
            if not self.args.trace:
                self.setup += measure_setup(SETUP_PER_ROUND, self.remaining())
            now = time.perf_counter()
            if now >= deadline or now + (now - round_start) > cap:
                return


def median_or_none(values, unit="s"):
    """Median, or None when any value is absent; counts stay whole numbers."""
    if not values or any(v is None for v in values):
        return None
    return statistics.median_low(values) if unit == "count" else statistics.median(values)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=sorted(workloads.SIZES),
                    help="'smoke' runs tiny ranks (the benchmark's own tests)")
    ap.add_argument("--fault", action="store_true",
                    help="perturb the recursive table inside the worker (gate self-test)")
    args = ap.parse_args(argv)

    # On SIGTERM, unwind through subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "qonsager" / "cli.py").is_file():
        print(f"perfbench: no qonsager sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # Write the bytecode caches, as an install would, so that no child pays
    # for compiling.
    compileall.compile_dir(ROOT / "src", quiet=1)
    run = Run(args)
    if not args.trace:
        run.setup = measure_setup(SETUP_SAMPLES, run.remaining())
        run.loop()
        plain = run.passes["plain"]
        metrics = {
            "setup_s": statistics.median(run.setup),
            "wall_ref": median_or_none([p["wall_ref"] for p in plain]),
            "cpu_ref": median_or_none([p["cpu_ref"] for p in plain]),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in plain) if plain else None,
            "pass_ratio": (run.attempted - run.failed) / run.attempted,
        }
        units = END_TO_END_UNITS
    else:
        run.loop()
        traced = run.passes["traced"]
        metrics = {
            name: median_or_none([p["layers"][name] for p in traced], LAYER_UNITS[name])
            for name in tracer.LAYER_METRICS
        }
        plain_wall = median_or_none([p["wall_s"] for p in run.passes["plain"]])
        traced_wall = median_or_none([p["wall_s"] for p in traced])
        metrics["trace.overhead_s"] = (
            None if plain_wall is None or traced_wall is None else traced_wall - plain_wall
        )
        missing = traced[-1]["missing"] if traced else []
        if missing:
            print(f"absent (wrapped name not found): {', '.join(missing)}")
        units = LAYER_UNITS

    facts = machine_facts(run.backend)
    n_plain, n_traced = len(run.passes["plain"]), len(run.passes["traced"])
    print("machine " + json.dumps(facts, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} size {args.size}: closed loop, 1 caller, "
          f"{run.n_ops} ops per pass, {n_plain} untraced + {n_traced} traced passes")
    plain = run.passes["plain"]
    if plain:
        print("untraced passes, raw medians: "
              f"wall {statistics.median(p['wall_s'] for p in plain)} s, "
              f"cpu {statistics.median(p['cpu_s'] for p in plain)} s, reference job "
              f"{statistics.median(statistics.mean(p['ref']['wall_s']) for p in plain)} s")
    for reason in run.reasons:
        print(f"FAILED {reason}")
    for name, value in metrics.items():
        print(f"{name} {'absent' if value is None else value} {units[name]}")

    result = {
        "correct": run.failed == 0 and n_plain > 0 and (n_traced > 0 or not args.trace),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, machine=facts, workload=args.workload, seed=args.seed,
                  trace=args.trace, size=args.size, passes=run.passes, setup=run.setup,
                  failures=run.reasons)
    name = f"result-{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w", encoding="utf-8") as fh:
        json.dump(record, fh, sort_keys=True, indent=1)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
