"""One pass of a workload in a fresh interpreter; prints one JSON line.

Started by run.py with PYTHONPATH pointing at the checkout's ``src``.  With
``--trace 1`` it installs the wrappers of tracer.py before the first
operation, writes the spans as JSONL to ``--trace-out`` at the end and adds
the layer metrics to its result.  Without it no wrapper is installed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def run_op(op: workloads.Op) -> tuple[int, str]:
    """Run one operation the way a user would; return (exit code, output)."""
    if op.argv[0] == "verify8":
        from qonsager import verify

        cert = verify.verify_relation(op.argv[1])
        text = json.dumps(cert.to_json_obj(), sort_keys=True, indent=2) + "\n"
        return (0 if cert.zero else 1), text
    from qonsager import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(op.argv))
    return code, buf.getvalue()


def peak_rss_mb() -> float:
    """High-water resident set of this interpreter since its exec (VmHWM)."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def reference_job() -> None:
    """A fixed pure-Python job: dict updates, Fraction and list-of-int arithmetic.

    These are the kinds of work the workloads do.  Timed before each
    operation and after the last, it says how fast the host runs this
    interpreter at that moment, and run.py states pass times as multiples of
    it.
    """
    d = {}
    for i in range(80000):
        k = (i * 7919) & 4095
        d[k] = d.get(k, 0) + i * i
    acc = Fraction(0)
    for i in range(1, 2000):
        acc = acc * Fraction(i, i + 3) + Fraction(1, i)
        if acc.denominator > 10**40:
            acc = Fraction(acc.numerator % 1000, 7)
    a = [1]
    for i in range(1500):
        b = [0] * (len(a) + 3)
        for j, x in enumerate(a):
            b[j] += x
            b[j + 3] -= x * (i + 1)
        a = b[:60]


def time_reference(ref: dict) -> None:
    """Run the reference job once; append its wall and CPU time to ``ref``.

    The collector is off meanwhile, so the heap the program has built up
    cannot slow the job down.
    """
    gc.disable()
    wall, cpu = time.perf_counter(), time.process_time()
    reference_job()
    ref["wall_s"].append(time.perf_counter() - wall)
    ref["cpu_s"].append(time.process_time() - cpu)
    gc.enable()


def inject_fault() -> None:
    """Make the recursive pipeline return a perturbed table (gate self-test)."""
    from qonsager import coeffs, verify

    original = coeffs.PIPELINES["recursive"]
    coeffs.PIPELINES["recursive"] = lambda r: verify.perturbed_table(original(r), 0, 1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=sorted(workloads.SIZES))
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--fault", action="store_true")
    args = ap.parse_args(argv)

    import qonsager.cli  # noqa: F401  (loads every module the wrappers patch)
    from qonsager.reducer import kernel_backend

    with open(HERE / "digests.json", encoding="utf-8") as fh:
        digests = json.load(fh)[args.size]

    tracer = None
    if args.trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()
    if args.fault:
        inject_fault()

    results = []
    ref = {"wall_s": [], "cpu_s": []}
    for index, op in enumerate(workloads.ops_for(args.workload, args.seed, args.size)):
        time_reference(ref)
        if tracer is not None:
            tracer.op = index
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            code, text = run_op(op)
        except Exception as exc:  # an operation that crashes counts as failed
            code, text = -1, f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        why = workloads.check(op, code, text, digests)
        results.append({"key": op.key, "code": code, "wall_s": wall, "cpu_s": cpu,
                        "failed": why})
    time_reference(ref)

    out = {
        "ops": results,
        "ref": ref,
        "backend": kernel_backend(),
        "qonsager_file": sys.modules["qonsager"].__file__,
    }
    if tracer is not None:
        out["layers"] = tracer_mod.layer_metrics(tracer)
        out["missing"] = tracer.missing
        if args.trace_out:
            tracer.write_jsonl(args.trace_out)
    out["peak_rss_mb"] = peak_rss_mb()
    sys.stdout.write(json.dumps(out, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
