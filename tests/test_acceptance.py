"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything here is exact arithmetic; "tolerance" always means identical
canonical forms (or the exact zero matrix / polynomial).  Run with

    pytest tests/test_acceptance.py -v -s

to see the per-criterion lines and timings.  Tables are cached across
criteria; each criterion times the work it performs.
"""

import random
import time

from coefficients import rho
from free_ring import add, scale, term, word
from known_tables import bar_invariant_ok, eta_moves, fixture_table, kernel_moves, palindromic_ok
from slow_reducer import reduce_randomized

from qonsager.coeffs import (
    c_closed,
    c_from_polynomial,
    c_recursive,
    c_solve,
    eta_table,
)
from qonsager.freealg import word_from_exponents
from qonsager.qcoeff import LaurentScalar, q_binomial, q_int
from qonsager.reducer import kernel_backend, reduce, reduce_with_stats
from qonsager.repcheck import (
    MatrixReport,
    matrix_point,
    rho_calibration_oracle,
    spectral_polynomial_check,
    spectral_rho_constant,
)
from qonsager.verify import build_delta, perturbed_table, verify_relation

MAX_R = 12
SOLVE_MAX_R = 8
PEAK_BASELINE = {1: 4, 2: 9, 3: 26, 4: 79, 5: 225, 6: 609}

_tables: dict[tuple[str, int], object] = {}
_PIPES = {
    "recursive": c_recursive,
    "closed": c_closed,
    "polynomial": c_from_polynomial,
    "solve": c_solve,
}


def table(pipeline: str, r: int):
    key = (pipeline, r)
    if key not in _tables:
        _tables[key] = _PIPES[pipeline](r)
    return _tables[key]


def _report(num: int, label: str, elapsed: float, budget: float) -> None:
    print(f"[criterion {num:02d}] PASS {label} ({elapsed:.2f}s, budget {budget:.0f}s)")


def test_criterion_01_low_rank_fixture_block():
    budget = 5.0
    start = time.perf_counter()
    for r in range(1, 6):
        expected = fixture_table(r)
        for name in ("recursive", "closed", "polynomial", "solve"):
            assert table(name, r) == expected, (name, r)
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    _report(1, "explicit tables r<=5 match all four pipelines exactly", elapsed, budget)


def test_criterion_02_four_way_agreement():
    budget = 120.0
    start = time.perf_counter()
    for r in range(1, MAX_R + 1):
        reference = table("recursive", r)
        assert table("closed", r) == reference, r
        assert table("polynomial", r) == reference, r
        if r <= SOLVE_MAX_R:
            assert table("solve", r) == reference, r
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    _report(
        2,
        f"recursive=closed=polynomial for r<={MAX_R}, =solve for r<={SOLVE_MAX_R}",
        elapsed,
        budget,
    )


def test_criterion_03_binomial_row():
    budget = 5.0
    start = time.perf_counter()
    for r in range(1, MAX_R + 1):
        t = table("recursive", r)
        for k in range(0, r + 2):
            assert t.entry(0, k) == q_binomial(r + 1, k), (r, k)
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    _report(3, f"c[r,0,k] equals the q-binomial (r+1 choose k) for r<={MAX_R}", elapsed, budget)


def test_criterion_04_palindromy_and_bar_invariance():
    budget = 10.0
    start = time.perf_counter()
    for r in range(1, MAX_R + 1):
        t = table("recursive", r)
        assert palindromic_ok(t), r
        assert bar_invariant_ok(t), r
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    _report(4, f"palindromic symmetry and q<->q^-1 invariance for r<={MAX_R}", elapsed, budget)


def test_criterion_05_symbolic_verification_with_formal_rho():
    budget = 600.0
    start = time.perf_counter()
    for r in range(1, 7):
        cert = verify_relation(r, table=table("recursive", r))
        assert cert.zero, r
        assert cert.term_count_peak <= 2 * PEAK_BASELINE[r], r
    mutated = verify_relation(4, table=perturbed_table(table("recursive", 4), 2, 0))
    assert not mutated.zero and mutated.residual_terms > 0
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    _report(
        5,
        f"reduce(delta_r)=0 for r<=6 with formal rho; mutation control nonzero "
        f"(kernel: {kernel_backend()})",
        elapsed,
        budget,
    )


def test_criterion_06_rho_zero_degeneration():
    budget = 600.0
    start = time.perf_counter()
    for r in range(1, 7):
        cert = verify_relation(r, rho_zero=True)
        assert cert.zero, r
    for r in range(1, MAX_R + 1):
        t = table("recursive", r)
        delta = build_delta(r, t, rho_zero=True)
        # coefficient of I^(r+1-k) J^r I^k must be (-1)^k (r+1 choose k)_q
        for k in range(0, r + 2):
            w = word_from_exponents(r + 1 - k, r, k)
            expected = q_binomial(r + 1, k)
            got = delta[w][0]
            assert got == (expected if k % 2 == 0 else -expected).num, (r, k)
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    _report(
        6,
        f"rho=0 relation reduces to zero for r<=6; binomial row matches for r<={MAX_R}",
        elapsed,
        budget,
    )


def test_criterion_07_eta_expansion_oracle():
    budget = 60.0
    start = time.perf_counter()
    eta = eta_table(12)
    for m in range(2, 13):
        assert eta_moves(eta, m) == kernel_moves(m), m
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    _report(7, "eta row m equals the moves of reduce(I^m J) for m<=12", elapsed, budget)


def test_criterion_08_matrix_evidence():
    budget = 30.0
    start = time.perf_counter()
    matches = True
    for r in range(1, 6):
        points = [matrix_point(r, table("closed", r), 2024, i) for i in range(20)]
        report = MatrixReport(r, 2024, (0, 1), points)
        assert report.ok, r
        assert len(report.points) == 20
        matches = matches and all(p.calibration.matches_product for p in report.points)
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    _report(
        8,
        "delta_r on the coideal matrices is the exact zero 3x3 matrix, r<=5, "
        f"20 points each; calibrated rho == c*cbar at every point: {matches}",
        elapsed,
        budget,
    )


def test_criterion_09_spectral_band_structure():
    budget = 30.0
    start = time.perf_counter()
    oracle = rho_calibration_oracle(8)
    assert oracle.ok
    assert oracle.rho_over_c2 == spectral_rho_constant()
    for r in range(1, 9):
        report = spectral_polynomial_check(r)
        assert report.ok, r
        for d, zero in report.offsets:
            assert zero == (abs(d) <= r and abs(d) % 2 == r % 2), (r, d)
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    _report(
        9,
        "band structure of p_r at eigenvalue pairs exact for r<=8, "
        "rho calibration oracle-validated",
        elapsed,
        budget,
    )


def test_criterion_10_reducer_properties():
    budget = 120.0
    start = time.perf_counter()
    rng = random.Random(20240815)
    corpus = [
        word("".join(rng.choice("IJ") for _ in range(rng.randint(0, 14))))
        for _ in range(1000)
    ]

    def assert_step_decreases(redex, produced):
        for w in produced:
            assert w < redex

    normal_forms = []
    for i, w in enumerate(corpus):
        poly = term(w)
        nf, _ = reduce_with_stats(poly)
        normal_forms.append(nf)
        # idempotence
        assert reduce(nf) == nf
        # per-step termination measure decrease and strategy independence
        strategy = random.Random(i)
        randomized = reduce_randomized(poly, strategy, on_step=assert_step_decreases)
        assert randomized == nf
    # linearity over random pairs from the same corpus
    two = q_int(2)
    for i in range(0, 500, 2):
        a = rho(two, LaurentScalar({1: 1}))
        b = rho(LaurentScalar({-1: 3}))
        x = term(corpus[i])
        y = term(corpus[i + 1])
        left = reduce(add(scale(x, a), scale(y, b)))
        assert left == add(scale(normal_forms[i], a), scale(normal_forms[i + 1], b))
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    _report(
        10,
        "termination measure, idempotence, linearity, redex-order independence "
        "on 1000 random inputs of length <= 14",
        elapsed,
        budget,
    )
