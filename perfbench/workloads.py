"""Workload definitions: the operations of one pass and how each is checked.

An operation is a CLI call ``qonsager.cli.main(argv)`` with its output
captured, or (``verify8``) the library call ``verify.verify_relation(r)`` for
the frontier rank the CLI still refuses.  The workload seed picks only the
repcheck ``--seed`` and the table cell the mutation control perturbs; both are
drawn from small fixed sets so the expected output digests can be recorded
once (``digests.json``, regenerated by ``record_digests.py``).

Each operation is checked three ways: its exit code (0, or 1 for the mutation
control), its content (``zero``, ``agree``, ``all_zero``, band structure),
and a SHA-256 of its output with the volatile ``ms`` field zeroed.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass

WORKLOADS = ("verify", "crosscheck", "evidence")

# Seed-dependent choices are drawn from these sets.
REPCHECK_SEEDS = 16

# Full sizes (the CLI bounds) and the tiny-rank smoke sizes used by the tests.
SIZES = {
    "full": {
        "verify_max_r": 7, "verify_lib_r": 8,
        "cross_max_r": 14, "cross_solve_max_r": 6,
        "rep_max_r": 5, "rep_samples": 20, "spectral_max_r": 10,
    },
    "smoke": {
        "verify_max_r": 3, "verify_lib_r": 4,
        "cross_max_r": 5, "cross_solve_max_r": 3,
        "rep_max_r": 2, "rep_samples": 3, "spectral_max_r": 3,
    },
}


@dataclass(frozen=True)
class Op:
    key: str  # names the digest: stable across seeds that make the same output
    argv: tuple  # CLI argv, or ("verify8", r) for the library call
    expect_code: int


def cells(r: int) -> list[tuple[int, int]]:
    """Admissible (p, k) cells of the rank-r table (same rule as coeffs.cells)."""
    return [(p, k) for p in range((r + 1) // 2 + 1) for k in range(r - 2 * p + 2)]


def seed_choices(seed: int, size: str) -> tuple[int, tuple[int, int]]:
    rng = random.Random(f"perfbench:{seed}")
    rep_seed = rng.randrange(REPCHECK_SEEDS)
    cell = rng.choice(cells(SIZES[size]["verify_max_r"]))
    return rep_seed, cell


def ops_for(workload: str, seed: int, size: str = "full") -> list[Op]:
    return build_ops(workload, *seed_choices(seed, size), size)


def build_ops(workload: str, rep_seed: int, cell: tuple[int, int], size: str) -> list[Op]:
    z = SIZES[size]
    p, k = cell
    if workload == "verify":
        top = str(z["verify_max_r"])
        return [
            Op(f"verify-max{top}", ("verify", "--max-r", top, "--extended", "--format", "json"), 0),
            Op(f"verify-max{top}-rho0",
               ("verify", "--max-r", top, "--extended", "--rho-zero", "--format", "json"), 0),
            Op(f"verify-r{top}-mutate{p},{k}",
               ("verify", "--r", top, "--extended", "--mutate", f"{p},{k}", "--format", "json"), 1),
            Op(f"verify-lib-r{z['verify_lib_r']}", ("verify8", z["verify_lib_r"]), 0),
        ]
    if workload == "crosscheck":
        top, solve = str(z["cross_max_r"]), str(z["cross_solve_max_r"])
        return [Op(f"cross-check-max{top}-solve{solve}",
                   ("cross-check", "--max-r", top, "--solve-max-r", solve, "--format", "json"), 0)]
    if workload == "evidence":
        samples = str(z["rep_samples"])
        ops = [
            Op(f"repcheck-r{r}-n{samples}-seed{rep_seed}",
               ("repcheck", "--r", str(r), "--samples", samples, "--seed", str(rep_seed),
                "--format", "json"), 0)
            for r in range(1, z["rep_max_r"] + 1)
        ]
        ops += [
            Op(f"spectral-r{r}", ("spectral", "--r", str(r), "--format", "json"), 0)
            for r in range(1, z["spectral_max_r"] + 1)
        ]
        return ops
    raise ValueError(f"unknown workload {workload!r}")


_MS = re.compile(r'"ms": \d+')


def digest(text: str) -> str:
    return hashlib.sha256(_MS.sub('"ms": 0', text).encode("utf-8")).hexdigest()


def _content_ok(op: Op, obj) -> str | None:
    """None when the parsed output says what the op must show, else why not."""
    cmd = op.argv[0]
    if cmd in ("verify", "verify8"):
        items = obj if isinstance(obj, list) else [obj]
        if op.expect_code == 1:
            if any(i["zero"] or i["residual_terms"] <= 0 for i in items):
                return "mutated relation reduced to zero"
        elif not all(i["zero"] and i["residual_terms"] == 0 for i in items):
            return "relation did not reduce to zero"
        if "--max-r" in op.argv:
            top = int(op.argv[op.argv.index("--max-r") + 1])
            if [i["r"] for i in items] != list(range(1, top + 1)):
                return "missing ranks"
        return None
    if cmd == "cross-check":
        top = int(op.argv[op.argv.index("--max-r") + 1])
        if not obj["ok"] or [e["r"] for e in obj["per_r"]] != list(range(1, top + 1)):
            return "pipelines disagree or ranks missing"
        if not all(e["agree"] for e in obj["per_r"]):
            return "pipelines disagree"
        return None
    if cmd == "repcheck":
        samples = int(op.argv[op.argv.index("--samples") + 1])
        if not obj["all_zero"] or obj["samples"] != samples or len(obj["points"]) != samples:
            return "matrix relation nonzero or samples missing"
        if not all(pt["zero"] for pt in obj["points"]):
            return "matrix relation nonzero at a point"
        return None
    if cmd == "spectral":
        r = int(op.argv[op.argv.index("--r") + 1])
        offsets = [(e["offset"], e["zero"]) for e in obj["offsets"]]
        expected = [(d, abs(d) <= r and abs(d) % 2 == r % 2) for d in range(-(r + 2), r + 3)]
        oracle = obj["oracle"]
        oracle_ok = oracle["v_independent"] and oracle["k_independent"] and oracle["rho_over_c2"]
        if not obj["ok"] or not oracle_ok or offsets != expected:
            return "band structure inconsistent"
        return None
    return f"no content check for {cmd}"


def check(op: Op, code: int, text: str, digests: dict | None) -> str | None:
    """None when the op passed, else the reason it failed."""
    if code != op.expect_code:
        return f"exit code {code}, expected {op.expect_code}"
    try:
        obj = json.loads(text)
    except ValueError:
        return "output is not JSON"
    try:
        why = _content_ok(op, obj)
    except (KeyError, TypeError, ValueError) as exc:
        why = f"output lacks {exc!r}"
    if why:
        return why
    if digests is not None:
        want = digests.get(op.key)
        if want is None:
            return "no recorded digest"
        if digest(text) != want:
            return "output differs from the recorded digest"
    return None
