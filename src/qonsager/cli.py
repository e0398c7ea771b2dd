"""Batch front end: emit tables, run verifications, serialize certificates.

Each command validates its arguments, computes one library report and hands
it to _render, which writes the report's own text, JSON or CSV and turns its
verdict (report.ok) into the exit code.

Exit codes: 0 all requested checks passed, 1 a check ran and was falsified,
2 usage error, 3 resource or time budget exhausted.  The distinction matters
in CI: "the conjectured relation broke" and "a flag was mistyped" must not
look the same.

Outputs are byte-identical for identical configuration and seed: every
serialization path sorts its keys and the sample points are derived from
(seed, index) only.  QONSAGER_WORKERS > 1 fans independent sub-checks out to
a process pool, of at most one process per sub-check and per CPU, without
changing any output; a pool worker that dies is exit 3 (WorkerLost).

No command caps its ranks: time bounds the cost instead.  Every command
takes --time-budget, one SIGALRM timer around the computation
(_time_budget), so it also holds inside a rank; no library layer takes a
deadline.  There is no default budget, so a long run is never cut unasked,
and a budget that runs out, like running out of memory, is exit 3.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import signal
import sys

from .coeffs import (
    CoefficientSystemError,
    CrossCheckReport,
    PIPELINES,
    ShapeError,
    cells,
    pipelines_agree,
)
from .repcheck import (
    CalibrationError,
    MatrixReport,
    RepConstructionError,
    matrix_point,
    spectral_polynomial_check,
)
from .verify import VerifyReport, perturbed_table, verify_relation

EXIT_PASS = 0
EXIT_FALSIFIED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

class TimeBudgetExceeded(Exception):
    """Raised by the --time-budget timer wherever the computation is when it expires."""


class WorkerLost(Exception):
    """A process-pool worker died before returning its result; exit 3."""


class UsageError(Exception):
    """A setting that cannot be used, found after argument parsing; exit 2."""


@contextlib.contextmanager
def _time_budget(seconds: float | None):
    """Raise TimeBudgetExceeded inside the block once `seconds` have passed.

    A one-shot ITIMER_REAL whose SIGALRM handler raises, so the budget holds
    inside one long computation.  None installs nothing; a budget <= 0 is
    exhausted on entry; one past the timer's range never runs out.  Needs
    POSIX setitimer and the main thread.
    """
    if seconds is None:
        yield
        return
    if math.isnan(seconds):
        raise UsageError("--time-budget must be a number of seconds, got nan")
    if not hasattr(signal, "setitimer"):
        raise UsageError("--time-budget needs POSIX setitimer, which this platform lacks")
    if seconds <= 0:
        raise TimeBudgetExceeded

    def expire(signum, frame):
        raise TimeBudgetExceeded

    previous = signal.signal(signal.SIGALRM, expire)
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, seconds)
        except OverflowError:
            pass  # past time_t: the budget never runs out
        yield
    finally:
        # Nested, so a SIGALRM that lands while disarming still restores.
        try:
            signal.setitimer(signal.ITIMER_REAL, 0)
        finally:
            signal.signal(signal.SIGALRM, previous)


def _workers() -> int:
    raw = os.environ.get("QONSAGER_WORKERS", "1")
    try:
        n = int(raw)
    except ValueError as exc:
        raise UsageError(f"QONSAGER_WORKERS must be an integer, got {raw!r}") from exc
    return max(1, n)


def _pmap(fn, arg_tuples):
    """fn(*args) for each tuple in order, using a process pool when workers > 1.

    The pool has no more processes than calls or CPUs.  Any exception,
    TimeBudgetExceeded included, terminates the workers instead of waiting
    for them; a worker that dies (say, SIGKILLed by the OOM killer) raises
    WorkerLost.
    """
    n = min(_workers(), len(arg_tuples), os.cpu_count() or 1)
    if n <= 1:
        return [fn(*args) for args in arg_tuples]
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(n)
    try:
        return list(pool.map(fn, *zip(*arg_tuples)))
    except BrokenProcessPool as exc:
        raise WorkerLost(f"lost a worker process: {exc}") from exc
    except BaseException:
        # shutdown() waits for running calls, and the executor has no public
        # way to stop them before Python 3.14's terminate_workers().
        for process in list(pool._processes.values()):
            process.terminate()
        raise
    finally:
        pool.shutdown(cancel_futures=True)


def _emit(args, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write --output {args.output}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _json_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _usage(message: str) -> int:
    print(f"qonsager: error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _render(args, report) -> int:
    """Write the report in the requested --format; its verdict is the exit code."""
    if args.format == "json":
        _emit(args, _json_dump(report.to_json_obj()))
    elif args.format == "csv":
        _emit(args, "\n".join(report.to_csv_rows()))
    else:
        _emit(args, report.to_text())
    return EXIT_PASS if report.ok else EXIT_FALSIFIED


def _budgeted(args, compute) -> int:
    """Render compute()'s report, or exit 3 if --time-budget runs out first."""
    try:
        with _time_budget(args.time_budget):
            report = compute()
    except TimeBudgetExceeded:
        _emit(args, _json_dump({"error": "time budget exceeded"}))
        return EXIT_RESOURCE
    return _render(args, report)


# ---------------------------------------------------------------------------
# coeffs
# ---------------------------------------------------------------------------


def _cmd_coeffs(args) -> int:
    if args.r < 1:
        return _usage("coeffs --r must be positive")
    return _budgeted(args, lambda: PIPELINES[args.pipeline](args.r))


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cmd_verify(args) -> int:
    if args.r is not None and args.max_r is not None:
        return _usage("verify takes --r or --max-r, not both")
    if args.r is None and args.max_r is None:
        return _usage("verify needs --r or --max-r")
    ranks = range(1, args.max_r + 1) if args.r is None else range(args.r, args.r + 1)
    if not ranks or ranks[0] < 1:
        return _usage("verify ranks must be positive")
    mutate = None
    if args.mutate:
        try:
            p, k = (int(x) for x in args.mutate.split(","))
            mutate = (p, k)
        except ValueError:
            return _usage("--mutate expects 'p,k' with integers")
        if args.rho_zero and p > 0:
            return _usage(f"--mutate cell {mutate} has p > 0, which --rho-zero never reads")
        # the tables grow with the rank, so the lowest rank's table decides
        if mutate not in cells(ranks[0]):
            return _usage(f"--mutate cell {mutate} is not in the rank-{ranks[0]} table")
    certificates = []
    try:
        with _time_budget(args.time_budget):
            for r in ranks:
                table = PIPELINES[args.pipeline](r)
                if mutate is not None:
                    table = perturbed_table(table, *mutate)
                certificates.append(verify_relation(r, table=table, rho_zero=args.rho_zero))
    except TimeBudgetExceeded:
        completed = [c.to_json_obj() for c in certificates]
        _emit(args, _json_dump({"error": "time budget exceeded", "completed": completed}))
        return EXIT_RESOURCE
    return _render(args, VerifyReport(certificates))


# ---------------------------------------------------------------------------
# cross-check
# ---------------------------------------------------------------------------


def _cmd_cross_check(args) -> int:
    if args.max_r < 1:
        return _usage("cross-check --max-r must be positive")
    if args.solve_max_r < 0:
        return _usage("--solve-max-r must not be negative")

    def check():
        ranks = range(1, args.max_r + 1)
        agree = _pmap(pipelines_agree, [(r, r <= args.solve_max_r) for r in ranks])
        return CrossCheckReport(args.max_r, args.solve_max_r, dict(zip(ranks, agree)))

    return _budgeted(args, check)


# ---------------------------------------------------------------------------
# repcheck
# ---------------------------------------------------------------------------


def _cmd_repcheck(args) -> int:
    if args.r < 1:
        return _usage("repcheck --r must be positive")
    if args.samples < 1:
        return _usage("--samples must be positive")

    def check():
        table = PIPELINES[args.pipeline](args.r)
        tasks = [(args.r, table, args.seed, i) for i in range(args.samples)]
        return MatrixReport(args.r, args.seed, (0, 1), _pmap(matrix_point, tasks))

    return _budgeted(args, check)


# ---------------------------------------------------------------------------
# spectral
# ---------------------------------------------------------------------------


def _cmd_spectral(args) -> int:
    if args.r < 1:
        return _usage("spectral --r must be positive")
    return _budgeted(args, lambda: spectral_polynomial_check(args.r))


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qonsager",
        description="Exact computation and verification of higher-order "
        "q-Onsager relations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt_choices=("text", "json")):
        p.add_argument("--format", choices=fmt_choices, default="text")
        p.add_argument("--output", default=None, help="write output to this path")
        p.add_argument("--time-budget", type=float, default=None, dest="time_budget",
                       metavar="SECONDS", help="exit 3 once this much wall time has passed")

    p = sub.add_parser("coeffs", help="emit one rank's coefficient table")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--pipeline", choices=sorted(PIPELINES), default="recursive")
    common(p, ("text", "json", "csv"))
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("verify", help="reduce the rank-r relation to normal form")
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--max-r", type=int, default=None, dest="max_r")
    p.add_argument("--pipeline", choices=sorted(PIPELINES), default="recursive")
    p.add_argument("--rho-zero", action="store_true", dest="rho_zero",
                   help="verify the q-Serre degeneration with the truncated rule")
    p.add_argument("--extended", action="store_true",
                   help="accepted and ignored: no rank is capped any more")
    p.add_argument("--mutate", default=None, metavar="p,k",
                   help="perturb one table entry by q (falsification drill)")
    common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("cross-check", help="compare the coefficient pipelines")
    p.add_argument("--max-r", type=int, required=True, dest="max_r")
    p.add_argument("--solve-max-r", type=int, default=0, dest="solve_max_r")
    common(p)
    p.set_defaults(func=_cmd_cross_check)

    p = sub.add_parser("repcheck", help="matrix evidence in the evaluation representation")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--pipeline", choices=sorted(PIPELINES), default="recursive")
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=_cmd_repcheck)

    p = sub.add_parser("spectral", help="eigenvalue band structure of the generating polynomial")
    p.add_argument("--r", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_spectral)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        return _usage(str(exc))
    except (CoefficientSystemError, ShapeError, CalibrationError, RepConstructionError) as exc:
        report = {"falsified": True, "kind": type(exc).__name__, "detail": str(exc)}
        print(_json_dump(report), file=sys.stderr)
        return EXIT_FALSIFIED
    except MemoryError:
        print(_json_dump({"error": "out of memory"}), file=sys.stderr)
        return EXIT_RESOURCE
    except WorkerLost as exc:
        print(_json_dump({"error": str(exc)}), file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
