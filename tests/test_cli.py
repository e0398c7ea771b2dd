"""CLI tests: exit-code taxonomy, schemas, reproducibility."""

import concurrent.futures
import contextlib
import io
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qonsager import cli, repcheck
from qonsager.cli import EXIT_FALSIFIED, EXIT_PASS, EXIT_RESOURCE, EXIT_USAGE, main
from qonsager.coeffs import PIPELINES

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_coeffs_json_schema(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--r", "5", "--pipeline", "closed", "--format", "json")
    assert code == EXIT_PASS
    obj = json.loads(out)
    assert obj["r"] == 5 and obj["pipeline"] == "closed"
    by_cell = {(e["p"], e["k"]): e["value"] for e in obj["entries"]}
    # the top rho-power entry is the expanded square-product palindrome
    assert by_cell[(3, 0)] == (
        "q^12 + 4q^10 + 10q^8 + 18q^6 + 27q^4 + 34q^2 + 37"
        " + 34q^-2 + 27q^-4 + 18q^-6 + 10q^-8 + 4q^-10 + q^-12"
    )


def test_coeffs_csv(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--r", "1", "--format", "csv")
    assert code == EXIT_PASS
    lines = out.strip().split("\n")
    assert lines[0] == "r,p,k,value"
    assert "1,0,1,q + q^-1" in lines


def test_coeffs_rejects_out_of_range(capsys):
    for r in ("0", "-4"):
        code, out, err = run_cli(capsys, "coeffs", "--r", r)
        assert code == EXIT_USAGE and out == ""
        assert err == "qonsager: error: coeffs --r must be positive\n"


def test_a_rank_past_the_recursion_limit_runs_out_of_time_not_stack(capsys):
    # No cap refuses rank 1100 (the old one was 32), and the recursive chain
    # and the eta rows are built in a loop, so only its budget stops it:
    # exit 3, never 1 for an uncaught RecursionError.
    start = time.monotonic()
    code, out, err = run_cli(capsys, "coeffs", "--r", "1100", "--time-budget", "0.5")
    assert time.monotonic() - start < 1.0
    assert code == EXIT_RESOURCE and err == ""
    assert json.loads(out) == {"error": "time budget exceeded"}


def test_verify_single_rank(capsys):
    code, out, _ = run_cli(capsys, "verify", "--r", "1", "--format", "json")
    assert code == EXIT_PASS
    obj = json.loads(out)
    assert set(obj) == {"r", "pipeline", "zero", "residual_terms", "peak_terms", "ms"}
    assert obj["zero"] is True


def test_verify_requires_rank(capsys):
    code, _, err = run_cli(capsys, "verify")
    assert code == EXIT_USAGE
    assert "--r or --max-r" in err


def test_verify_bound_and_extended_flag(capsys):
    # No rank cap: rank 7, past the old cap of 6 without --extended, runs.
    code, out, _ = run_cli(capsys, "verify", "--r", "7")
    assert code == EXIT_PASS and out.endswith("verified: 1/1\n")
    # --extended is accepted and changes nothing (timings zeroed).
    code, out, err = run_cli(capsys, "verify", "--max-r", "3")
    extended = run_cli(capsys, "verify", "--max-r", "3", "--extended")
    assert code == EXIT_PASS
    assert (extended[0], _zero_ms(extended[1]), extended[2]) == (code, _zero_ms(out), err)


def test_verify_mutation_falsifies(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--r", "2", "--mutate", "1,0", "--format", "json"
    )
    assert code == EXIT_FALSIFIED
    obj = json.loads(out)
    assert obj["zero"] is False and obj["residual_terms"] > 0


@pytest.mark.parametrize(
    "argv, rank",
    [(["--r", "3", "--mutate", "9,9"], 3), (["--max-r", "3", "--mutate", "2,0"], 1)],
    ids=["single-rank", "first-of-range"],
)
def test_verify_mutate_outside_table_is_usage_error(capsys, argv, rank):
    # a cell missing from any requested rank's table is a usage error, caught
    # before any work, not a falsification
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("qonsager: error: --mutate cell")
    assert f"rank-{rank} table" in err


def test_verify_rho_zero_mutate_unread_cell_is_usage_error(capsys):
    # the rho-zero relation reads only the p = 0 cells, so perturbing a p > 0
    # cell would "verify" an unchanged relation
    code, out, err = run_cli(capsys, "verify", "--r", "3", "--rho-zero", "--mutate", "1,0")
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("qonsager: error: --mutate cell (1, 0) has p > 0")
    code, out, _ = run_cli(capsys, "verify", "--r", "3", "--rho-zero", "--mutate", "0,1")
    assert code == EXIT_FALSIFIED and "verified: 0/1" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_max_r_below_one_is_usage_error(capsys, fmt):
    code, out, err = run_cli(capsys, "verify", "--max-r", "0", "--format", fmt)
    assert code == EXIT_USAGE and out == ""
    assert err == "qonsager: error: verify ranks must be positive\n"


def test_verify_rho_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-r", "3", "--rho-zero")
    assert code == EXIT_PASS
    assert "verified: 3/3" in out


def test_verify_time_budget_exhaustion(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--max-r", "5", "--time-budget", "0", "--format", "json"
    )
    assert code == EXIT_RESOURCE
    assert "time budget exceeded" in out


@pytest.mark.parametrize(
    "argv",
    [["verify", "--max-r", "2"], ["cross-check", "--max-r", "2"], ["coeffs", "--r", "2"],
     ["repcheck", "--r", "2"], ["spectral", "--r", "2"]],
    ids=["verify", "cross-check", "coeffs", "repcheck", "spectral"],
)
def test_nan_time_budget_is_usage_error(argv, capsys):
    # time.monotonic() > nan is never true, so a NaN budget would never run out.
    code, out, err = run_cli(capsys, *argv, "--time-budget", "nan")
    assert code == EXIT_USAGE and out == ""
    assert err == "qonsager: error: --time-budget must be a number of seconds, got nan\n"


def _spin(*args, **kwargs):
    """Stands in for one long computation: five seconds of pure Python."""
    end = time.monotonic() + 5.0
    while time.monotonic() < end:
        pass
    return True


def test_cross_check_time_budget_runs_out_inside_a_rank(capsys, monkeypatch):
    # Rank 1 alone would take five seconds; the timer stops it mid-rank.
    ranks = []

    def spin_rank(r, with_solve):
        ranks.append(r)
        return _spin()

    monkeypatch.setenv("QONSAGER_WORKERS", "1")
    monkeypatch.setattr(cli, "pipelines_agree", spin_rank)
    start = time.monotonic()
    code, out, _ = run_cli(capsys, "cross-check", "--max-r", "5", "--time-budget", "0.2")
    assert time.monotonic() - start < 2.5
    assert code == EXIT_RESOURCE
    assert json.loads(out) == {"error": "time budget exceeded"}
    assert ranks == [1]


def test_verify_time_budget_runs_out_inside_a_rank(capsys, monkeypatch):
    monkeypatch.setattr(cli, "verify_relation", _spin)
    start = time.monotonic()
    code, out, _ = run_cli(
        capsys, "verify", "--max-r", "2", "--time-budget", "0.2", "--format", "json"
    )
    assert time.monotonic() - start < 2.5
    assert code == EXIT_RESOURCE
    assert json.loads(out) == {"error": "time budget exceeded", "completed": []}


@pytest.mark.parametrize("command", ["coeffs", "repcheck", "spectral"])
def test_time_budget_runs_out_inside_the_computation(command, capsys, monkeypatch):
    # Each command's one long call would take five seconds; the timer stops
    # it within half a second of the budget.
    if command == "coeffs":
        monkeypatch.setitem(PIPELINES, "recursive", _spin)
    elif command == "repcheck":
        monkeypatch.setattr(cli, "matrix_point", _spin)
    else:
        monkeypatch.setattr(cli, "spectral_polynomial_check", _spin)
    start = time.monotonic()
    code, out, err = run_cli(capsys, command, "--r", "2", "--time-budget", "0.2")
    assert time.monotonic() - start < 0.7
    assert code == EXIT_RESOURCE and err == ""
    assert json.loads(out) == {"error": "time budget exceeded"}


def test_cross_check_time_budget_runs_out_in_the_pool(capsys, monkeypatch):
    # Both workers are inside a five-second call when the budget runs out;
    # leaving the pool terminates them instead of waiting.
    monkeypatch.setenv("QONSAGER_WORKERS", "2")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a pool even on one CPU
    monkeypatch.setattr(cli, "pipelines_agree", _spin)
    start = time.monotonic()
    code, out, _ = run_cli(capsys, "cross-check", "--max-r", "4", "--time-budget", "0.3")
    assert time.monotonic() - start < 3.0
    assert code == EXIT_RESOURCE
    assert json.loads(out) == {"error": "time budget exceeded"}
    assert multiprocessing.active_children() == []


def test_repcheck_time_budget_runs_out_in_the_pool(capsys, monkeypatch):
    # As for cross-check: both workers are inside a five-second sample point
    # when the budget runs out, and none is left running.
    monkeypatch.setenv("QONSAGER_WORKERS", "2")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a pool even on one CPU
    monkeypatch.setattr(cli, "matrix_point", _spin)
    start = time.monotonic()
    code, out, _ = run_cli(capsys, "repcheck", "--r", "2", "--samples", "4", "--time-budget", "0.3")
    assert time.monotonic() - start < 3.0
    assert code == EXIT_RESOURCE
    assert json.loads(out) == {"error": "time budget exceeded"}
    assert multiprocessing.active_children() == []


def _die_at_rank_one(r, with_solve):
    """Stands in for pipelines_agree: the rank-1 worker SIGKILLs itself."""
    if r == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return True


@pytest.mark.parametrize("budget", [[], ["--time-budget", "3"]], ids=["no-budget", "budget"])
def test_a_lost_pool_worker_exits_3_and_names_it(budget, capsys, monkeypatch):
    # A worker killed outright (as the OOM killer does) must not leave the
    # run waiting for its result, nor be reported as a spent time budget.
    monkeypatch.setenv("QONSAGER_WORKERS", "2")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a pool even on one CPU
    monkeypatch.setattr(cli, "pipelines_agree", _die_at_rank_one)
    start = time.monotonic()
    code, out, err = run_cli(capsys, "cross-check", "--max-r", "3", *budget)
    assert time.monotonic() - start < 5.0
    assert code == EXIT_RESOURCE and out == ""
    assert json.loads(err)["error"].startswith("lost a worker process")
    assert multiprocessing.active_children() == []


def test_time_budget_leaves_no_timer_or_handler_behind(capsys, monkeypatch):
    # One run that completes, one that runs out: each must disarm the timer
    # and put the previous SIGALRM handler back.
    before = signal.getsignal(signal.SIGALRM)
    code, _, _ = run_cli(capsys, "cross-check", "--max-r", "2", "--time-budget", "1000")
    assert code == EXIT_PASS
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    monkeypatch.setattr(cli, "verify_relation", _spin)
    code, _, _ = run_cli(capsys, "verify", "--r", "1", "--time-budget", "0.05")
    assert code == EXIT_RESOURCE
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # inf is past the timer's range, so it never runs out; -1 has run out
    # before the first rank.
    code, out, _ = run_cli(capsys, "cross-check", "--max-r", "2", "--time-budget", "inf")
    assert code == EXIT_PASS and out.endswith("pipelines agree for all r <= 2: True\n")
    code, out, _ = run_cli(capsys, "cross-check", "--max-r", "2", "--time-budget", "-1")
    assert code == EXIT_RESOURCE and json.loads(out) == {"error": "time budget exceeded"}


def test_cross_check(capsys):
    code, out, _ = run_cli(
        capsys, "cross-check", "--max-r", "4", "--solve-max-r", "2", "--format", "json"
    )
    assert code == EXIT_PASS
    obj = json.loads(out)
    assert obj["ok"] is True
    assert [e["r"] for e in obj["per_r"]] == [1, 2, 3, 4]


def test_repcheck_json(capsys):
    code, out, _ = run_cli(
        capsys, "repcheck", "--r", "2", "--samples", "3", "--seed", "1", "--format", "json"
    )
    assert code == EXIT_PASS
    obj = json.loads(out)
    assert obj["all_zero"] is True and obj["samples"] == 3
    assert all(p["calibration"]["matches_product"] for p in obj["points"])


def test_repcheck_bound(capsys):
    # No rank cap: rank 6, past the old default cap of 5, runs; --bound,
    # which used to lift that cap, is gone and is an argparse usage error.
    code, out, _ = run_cli(capsys, "repcheck", "--r", "6", "--samples", "1")
    assert code == EXIT_PASS and "zero=True" in out
    with pytest.raises(SystemExit) as exc:
        main(["repcheck", "--r", "1", "--bound", "6"])
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize("value", ["0", "-3"])
def test_repcheck_rank_and_samples_must_be_positive(value, capsys):
    code, out, err = run_cli(capsys, "repcheck", "--r", value)
    assert code == EXIT_USAGE and out == ""
    assert err == "qonsager: error: repcheck --r must be positive\n"
    code, out, err = run_cli(capsys, "repcheck", "--r", "1", "--samples", value)
    assert code == EXIT_USAGE and out == ""
    assert err == "qonsager: error: --samples must be positive\n"


def test_repcheck_solve_pipeline_has_no_rank_cap(capsys, monkeypatch):
    # Rank 11, past the old solve cap of 10, reaches the solve pipeline in
    # repcheck and in coeffs (here a stand-in with the recursive table).
    ranks = []

    def solve(r):
        ranks.append(r)
        return PIPELINES["recursive"](r)

    monkeypatch.setitem(PIPELINES, "solve", solve)
    code, _, _ = run_cli(capsys, "repcheck", "--r", "11", "--samples", "1", "--pipeline", "solve")
    assert code == EXIT_PASS
    code, _, _ = run_cli(capsys, "coeffs", "--r", "11", "--pipeline", "solve")
    assert code == EXIT_PASS
    assert ranks == [11, 11]


def test_spectral(capsys):
    code, out, _ = run_cli(capsys, "spectral", "--r", "3", "--format", "json")
    assert code == EXIT_PASS
    obj = json.loads(out)
    assert obj["ok"] is True
    assert obj["oracle"]["rho_over_c2"] == "-q^2 + 2 - q^-2"


def test_spectral_oracle_without_a_laurent_rho_is_falsified(monkeypatch, capsys):
    monkeypatch.setattr(repcheck, "_factor_at", lambda desc, d, rho_over_c2: {(2, 0, 0): {0: 1}})
    # The oracle is cached per bound: run it on the patched factor, and let
    # no later test see that run.
    repcheck.rho_calibration_oracle.cache_clear()
    try:
        code, out, err = run_cli(capsys, "spectral", "--r", "2")
    finally:
        repcheck.rho_calibration_oracle.cache_clear()
    assert code == EXIT_FALSIFIED
    assert out.startswith("oracle ok: False (rho/C^2 = None)")
    assert "Traceback" not in out + err


def test_byte_identical_outputs(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for path in (out1, out2):
        code = main(
            ["repcheck", "--r", "2", "--samples", "4", "--seed", "9",
             "--format", "json", "--output", str(path)]
        )
        assert code == EXIT_PASS
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_output_file_written(tmp_path, capsys):
    path = tmp_path / "table.csv"
    code = main(["coeffs", "--r", "2", "--format", "csv", "--output", str(path)])
    capsys.readouterr()
    assert code == EXIT_PASS
    assert path.read_text(encoding="utf-8").startswith("r,p,k,value")


@pytest.mark.parametrize(
    "argv",
    [["coeffs", "--r", "2"], ["verify", "--r", "3"]],
    ids=["coeffs", "verify"],
)
def test_unwritable_output_is_usage_error(argv, tmp_path, capsys):
    target = tmp_path / "missing_dir" / "x.json"
    code, out, err = run_cli(capsys, *argv, "--output", str(target))
    assert code == EXIT_USAGE and out == ""
    assert err == f"qonsager: error: cannot write --output {target}: No such file or directory\n"


def test_non_integer_workers_env_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("QONSAGER_WORKERS", "abc")
    code, out, err = run_cli(capsys, "cross-check", "--max-r", "2")
    assert code == EXIT_USAGE and out == ""
    assert err == "qonsager: error: QONSAGER_WORKERS must be an integer, got 'abc'\n"


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--nonsense"])
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ["repcheck", "--r", "1", "--samples", "4", "--format", "json"],
        ["repcheck", "--r", "1", "--samples", "4"],
        ["cross-check", "--max-r", "6", "--solve-max-r", "3", "--format", "json"],
        ["cross-check", "--max-r", "6", "--solve-max-r", "3"],
    ],
    ids=["repcheck-json", "repcheck-text", "cross-check-json", "cross-check-text"],
)
def test_workers_env_parallel_matches_serial(argv, tmp_path, capsys, monkeypatch):
    serial = tmp_path / "serial.out"
    parallel = tmp_path / "parallel.out"
    monkeypatch.setenv("QONSAGER_WORKERS", "1")
    assert main(argv + ["--output", str(serial)]) == EXIT_PASS
    monkeypatch.setenv("QONSAGER_WORKERS", "2")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a pool even on one CPU
    assert main(argv + ["--output", str(parallel)]) == EXIT_PASS
    capsys.readouterr()
    assert serial.read_bytes() == parallel.read_bytes()


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, runs calls inline."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def map(self, fn, *iterables):
        return map(fn, *iterables)

    def shutdown(self, wait=True, cancel_futures=False):
        pass


@pytest.mark.parametrize("cpus, expected", [(64, 3), (2, 2), (None, None)])
def test_pool_is_capped_by_tasks_and_cpus(cpus, expected, capsys, monkeypatch):
    # A huge QONSAGER_WORKERS must not fork a process per worker: the pool
    # gets at most one process per rank and per CPU, and one CPU (or an
    # unknown count) means no pool at all.
    monkeypatch.setenv("QONSAGER_WORKERS", "1000000")
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    code, out, _ = run_cli(capsys, "cross-check", "--max-r", "3")
    assert code == EXIT_PASS
    assert out.endswith("pipelines agree for all r <= 3: True\n")
    assert _RecordingPool.sizes == ([] if expected is None else [expected])


def test_cross_check_falsified_exit(capsys, monkeypatch):
    from qonsager import coeffs
    from qonsager.verify import perturbed_table

    honest = coeffs.c_recursive
    monkeypatch.setattr(coeffs, "c_recursive", lambda r: perturbed_table(honest(r), 0, 1))
    code, out, _ = run_cli(capsys, "cross-check", "--max-r", "2")
    assert code == EXIT_FALSIFIED
    assert out == "r=1 agree=False\nr=2 agree=False\npipelines agree for all r <= 2: False\n"


def _zero_normal_forms(monkeypatch, coeffs):
    # every normal form N(a, r) is zero, so the solve has no row at all
    monkeypatch.setattr(coeffs, "_normal_forms", lambda r: {a: {} for a in range(r + 2)})


def _stray_monomial(monkeypatch, coeffs):
    honest = coeffs.expand_generating_polynomial
    monkeypatch.setattr(coeffs, "expand_generating_polynomial",
                        lambda r: {**honest(r), (5, 5, 0): {0: 1}})


@pytest.mark.parametrize("stub, pipeline, kind, detail", [
    (_zero_normal_forms, "solve", "CoefficientSystemError",
     "under-determined: no row fixes the unknowns "
     "[(0, 1), (0, 2), (0, 3), (0, 4), (1, 0), (1, 1), (1, 2), (2, 0)]"),
    (_stray_monomial, "polynomial", "ShapeError",
     "rank 3: monomial rho^0 x^5 y^5 outside the expansion shape"),
], ids=["solve-stall", "polynomial-shape"])
def test_a_falsified_pipeline_exits_1_with_a_json_report(stub, pipeline, kind, detail,
                                                         capsys, monkeypatch):
    from qonsager import coeffs

    stub(monkeypatch, coeffs)
    code, out, err = run_cli(capsys, "coeffs", "--r", "3", "--pipeline", pipeline)
    assert code == EXIT_FALSIFIED
    assert out == ""
    assert json.loads(err) == {"detail": detail, "falsified": True, "kind": kind}


def test_running_out_of_memory_exits_3_with_a_json_error(capsys, monkeypatch):
    def exhausted(r):
        raise MemoryError

    monkeypatch.setattr(cli, "spectral_polynomial_check", exhausted)
    code, out, err = run_cli(capsys, "spectral", "--r", "1")
    assert code == EXIT_RESOURCE
    assert out == ""
    assert json.loads(err) == {"error": "out of memory"}


def _zero_ms(text):
    return re.sub(r"\bms=\d+", "ms=0", re.sub(r'"ms": \d+', '"ms": 0', text))


# Every output format of every command at small ranks, recorded in
# cli_golden.json: the exit code, stdout with its timings zeroed, and stderr.
# Re-record after a deliberate output change with
#     PYTHONPATH=src python tests/test_cli.py
GOLDEN_PATH = Path(__file__).with_name("cli_golden.json")
GOLDEN_ARGV = {
    **{
        f"coeffs-{pipeline}-{fmt}": ["coeffs", "--r", "4", "--pipeline", pipeline, "--format", fmt]
        for pipeline in ("recursive", "solve")
        for fmt in ("text", "json", "csv")
    },
    **{
        f"verify-{name}-{fmt}": ["verify", *argv, "--format", fmt]
        for name, argv in [
            ("r", ["--r", "3"]),
            ("max-r", ["--max-r", "3"]),
            ("rho-zero", ["--max-r", "3", "--rho-zero"]),
            ("mutate", ["--r", "3", "--mutate", "0,1"]),
        ]
        for fmt in ("text", "json")
    },
    **{
        f"{argv[0]}-{fmt}": [*argv, "--format", fmt]
        for argv in [
            ["cross-check", "--max-r", "4", "--solve-max-r", "3"],
            ["repcheck", "--r", "2", "--samples", "3", "--seed", "1"],
            ["spectral", "--r", "3"],
        ]
        for fmt in ("text", "json")
    },
    "verify-time-budget-0": ["verify", "--max-r", "3", "--time-budget", "0"],
    "cross-check-time-budget-0": ["cross-check", "--max-r", "3", "--time-budget", "0"],
    "coeffs-time-budget-0": ["coeffs", "--r", "4", "--time-budget", "0"],
    "repcheck-time-budget-0": ["repcheck", "--r", "2", "--time-budget", "0"],
    "spectral-time-budget-0": ["spectral", "--r", "3", "--time-budget", "0"],
}


def _golden_run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "code": code, "out": _zero_ms(out.getvalue()), "err": err.getvalue()}


@pytest.mark.parametrize("name", sorted(GOLDEN_ARGV))
def test_every_output_matches_its_recording(name, monkeypatch):
    monkeypatch.setenv("QONSAGER_WORKERS", "1")
    recorded = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))[name]
    assert _golden_run(GOLDEN_ARGV[name]) == recorded


def test_module_entry_point_subprocess(capsys):
    # python -m qonsager runs __main__.py: the same output as main in
    # process, and main's exit code.
    def run_module(*argv):
        return subprocess.run(
            [sys.executable, "-m", "qonsager", *argv],
            capture_output=True,
            text=True,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": SRC},
        )

    argv = ("verify", "--r", "3", "--format", "json")
    proc = run_module(*argv)
    assert proc.returncode == EXIT_PASS, proc.stderr
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_PASS
    assert _zero_ms(proc.stdout) == _zero_ms(out)
    assert run_module("verify", "--r", "0").returncode == EXIT_USAGE


def test_the_parser_is_built_once_per_process():
    # main parses every call with the one parser, so repeated in-process
    # calls do not rebuild it.
    assert cli.build_parser() is cli.build_parser()


def test_cli_import_loads_no_process_pool():
    # The serial CLI starts without the pool machinery; _pmap imports it
    # only when it builds a pool.
    code = (
        "import sys, qonsager.cli; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps({name: _golden_run(argv) for name, argv in sorted(GOLDEN_ARGV.items())},
                   indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
