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

--time-budget is one SIGALRM timer around the computation (_time_budget), so
it also holds inside a rank; no library layer takes a deadline.
"""

from __future__ import annotations

import argparse
import contextlib
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

_BOUNDS = {
    "coeffs": 32,
    "coeffs_solve": 10,
    "verify": 6,
    "verify_extended": 8,
    "cross_check": 16,
    "cross_check_solve": 10,
    "repcheck_default": 5,
    "spectral": 10,
}


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


# ---------------------------------------------------------------------------
# coeffs
# ---------------------------------------------------------------------------


def _cmd_coeffs(args) -> int:
    limit = _BOUNDS["coeffs_solve"] if args.pipeline == "solve" else _BOUNDS["coeffs"]
    if not 1 <= args.r <= limit:
        return _usage(f"coeffs --r must be in 1..{limit} for pipeline {args.pipeline}")
    return _render(args, PIPELINES[args.pipeline](args.r))


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cmd_verify(args) -> int:
    bound = _BOUNDS["verify_extended"] if args.extended else _BOUNDS["verify"]
    if args.r is not None and args.max_r is not None:
        return _usage("verify takes --r or --max-r, not both")
    if args.r is None and args.max_r is None:
        return _usage("verify needs --r or --max-r")
    ranks = [args.r] if args.r is not None else list(range(1, args.max_r + 1))
    if not ranks or any(not 1 <= r <= bound for r in ranks):
        hint = "" if args.extended else f" (use --extended for {_BOUNDS['verify_extended']})"
        return _usage(f"verify ranks must be in 1..{bound}{hint}")
    mutate = None
    if args.mutate:
        try:
            p, k = (int(x) for x in args.mutate.split(","))
            mutate = (p, k)
        except ValueError:
            return _usage("--mutate expects 'p,k' with integers")
        if args.rho_zero and p > 0:
            return _usage(f"--mutate cell {mutate} has p > 0, which --rho-zero never reads")
        for r in ranks:
            if mutate not in cells(r):
                return _usage(f"--mutate cell {mutate} is not in the rank-{r} table")
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
    if not 1 <= args.max_r <= _BOUNDS["cross_check"]:
        return _usage(f"cross-check --max-r must be in 1..{_BOUNDS['cross_check']}")
    if not 0 <= args.solve_max_r <= _BOUNDS["cross_check_solve"]:
        return _usage(f"--solve-max-r must be in 0..{_BOUNDS['cross_check_solve']}")
    ranks = range(1, args.max_r + 1)
    try:
        with _time_budget(args.time_budget):
            agree = _pmap(pipelines_agree, [(r, r <= args.solve_max_r) for r in ranks])
    except TimeBudgetExceeded:
        _emit(args, _json_dump({"error": "time budget exceeded"}))
        return EXIT_RESOURCE
    return _render(args, CrossCheckReport(args.max_r, args.solve_max_r, dict(zip(ranks, agree))))


# ---------------------------------------------------------------------------
# repcheck
# ---------------------------------------------------------------------------


def _cmd_repcheck(args) -> int:
    if args.bound < 1:
        return _usage("--bound must be positive")
    if not 1 <= args.r <= args.bound:
        return _usage(f"repcheck --r must be in 1..{args.bound} (see --bound)")
    if args.pipeline == "solve" and args.r > _BOUNDS["coeffs_solve"]:
        return _usage(f"repcheck --r must be in 1..{_BOUNDS['coeffs_solve']} for pipeline solve")
    if args.samples < 1:
        return _usage("--samples must be positive")
    table = PIPELINES[args.pipeline](args.r)
    tasks = [(args.r, table, args.seed, i) for i in range(args.samples)]
    return _render(args, MatrixReport(args.r, args.seed, (0, 1), _pmap(matrix_point, tasks)))


# ---------------------------------------------------------------------------
# spectral
# ---------------------------------------------------------------------------


def _cmd_spectral(args) -> int:
    if not 1 <= args.r <= _BOUNDS["spectral"]:
        return _usage(f"spectral --r must be in 1..{_BOUNDS['spectral']}")
    return _render(args, spectral_polynomial_check(args.r))


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


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
                   help=f"lift the rank bound from {_BOUNDS['verify']} to {_BOUNDS['verify_extended']}")
    p.add_argument("--mutate", default=None, metavar="p,k",
                   help="perturb one table entry by q (falsification drill)")
    p.add_argument("--time-budget", type=float, default=None, dest="time_budget")
    common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("cross-check", help="compare the coefficient pipelines")
    p.add_argument("--max-r", type=int, required=True, dest="max_r")
    p.add_argument("--solve-max-r", type=int, default=0, dest="solve_max_r")
    p.add_argument("--time-budget", type=float, default=None, dest="time_budget")
    common(p)
    p.set_defaults(func=_cmd_cross_check)

    p = sub.add_parser("repcheck", help="matrix evidence in the evaluation representation")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--pipeline", choices=sorted(PIPELINES), default="recursive")
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bound", type=int, default=_BOUNDS["repcheck_default"])
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
