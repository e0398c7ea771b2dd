"""Tests for the evaluation-representation and spectral evidence checks."""

import dataclasses
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qonsager import repcheck
from qonsager.coeffs import (
    CoeffTable,
    _factor_poly,
    c_closed,
    c_recursive,
    cells,
    delta_indices,
    generating_factors,
)
from qonsager.qcoeff import ZERO, LaurentScalar, _madd, _mmul, _msub, q_int
from qonsager.repcheck import (
    CalibrationError,
    MatrixReport,
    RepConstructionError,
    RepParams,
    build_evaluation_rep,
    calibrate_rho,
    matrix_point,
    rho_calibration_oracle,
    sample_params,
    spectral_polynomial_check,
    spectral_rho_constant,
)
from qonsager.verify import perturbed_table


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(a, s):
    s = Fraction(s)
    return tuple(tuple(x * s for x in row) for row in a)


def mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def generic_params(**overrides):
    base = dict(
        s=Fraction(2),
        z=Fraction(3, 2),
        c=(Fraction(1), Fraction(2), Fraction(-1)),
        cbar=(Fraction(1, 2), Fraction(3), Fraction(2)),
    )
    base.update(overrides)
    return RepParams(**base)


def w_branch_params():
    """A fixed point on the w != 0 branch, where every node needs
    w_j^2 = -c_j cbar_j / (q + q^-1 - 2), and q + q^-1 - 2 = (s - 1/s)^2.

    Picking c_j cbar_j = -t_j^2 makes w_j = t_j / (s - 1/s) rational.
    """
    s = Fraction(1, 2)
    t = (Fraction(-1, 3), Fraction(1), Fraction(-5))
    c = (Fraction(-2, 3), Fraction(4, 3), Fraction(-3, 4))
    return RepParams(
        s=s,
        z=Fraction(2),
        c=c,
        cbar=tuple(-(tj ** 2) / cj for tj, cj in zip(t, c)),
        w=tuple(tj / (s - 1 / s) for tj in t),
    )


# ---------------------------------------------------------------------------
# construction and parameter validation
# ---------------------------------------------------------------------------


def _integer_scaled(a):
    """(L, B) with a = B / L, where L is the lcm of the entry denominators."""
    lcm = math.lcm(*(x.denominator for row in a for x in row))
    return lcm, tuple(tuple(x.numerator * (lcm // x.denominator) for x in row) for row in a)


def _evaluate(m, s, z):
    """A matrix over Z[q^±1, z^±1] at q = s^2 and the given z."""
    return tuple(
        tuple(
            sum(
                (c * s ** (2 * qe) * z ** ze
                 for (_, ze, _), poly in entry.items() for qe, c in poly.items()),
                Fraction(0),
            )
            for entry in row
        )
        for row in m
    )


def fraction_rep(params):
    """The three generator matrices A_i in Fraction, the checked module
    evaluated entry by entry: the slow oracle of build_evaluation_rep."""
    e, f, h = repcheck._checked_module()
    s, z = params.s, params.z
    out = []
    for i in range(3):
        e_i, f_i = _evaluate(e[i], s, z), _evaluate(f[i], s, z)
        rows = [[Fraction(0)] * 3 for _ in range(3)]
        for a in range(3):
            rows[a][a] += params.w[i] * s ** (2 * h[i][a])
            for b in range(3):
                rows[a][b] += (params.c[i] * e_i[a][b] + params.cbar[i] * f_i[a][b]) * s ** h[i][b]
        out.append(tuple(tuple(row) for row in rows))
    return tuple(out)


def test_build_passes_self_validation():
    mats = build_evaluation_rep(generic_params())
    assert len(mats) == 3
    assert all(len(b) == 3 and all(len(row) == 3 for row in b) for _, b in mats)


@pytest.mark.parametrize(
    "params",
    [
        generic_params(),
        generic_params(z=Fraction(-2, 7), s=Fraction(-3, 5)),
        generic_params(c=(Fraction(0), Fraction(0), Fraction(0))),
        sample_params(random.Random(3)),
        w_branch_params(),
    ],
    ids=["generic", "negative", "c-zero", "sampled", "w-branch"],
)
def test_evaluation_rep_is_integer(params):
    reps = build_evaluation_rep(params)
    for lcm, b in reps:
        assert type(lcm) is int and lcm > 0
        assert all(type(x) is int for row in b for x in row)
    assert reps == tuple(_integer_scaled(a) for a in fraction_rep(params))


_coordinates = st.fractions(min_value=-7, max_value=7, max_denominator=7)


@settings(max_examples=150, deadline=None)
@given(
    _coordinates.filter(lambda x: x not in (0, 1, -1)),
    _coordinates.filter(lambda x: x != 0),
    st.tuples(_coordinates, _coordinates, _coordinates),
    st.tuples(_coordinates, _coordinates, _coordinates),
)
def test_integer_module_matches_the_fraction_oracle(s, z, c, cbar):
    params = RepParams(s=s, z=z, c=c, cbar=cbar)
    assert build_evaluation_rep(params) == tuple(_integer_scaled(a) for a in fraction_rep(params))


def _diag(values):
    return tuple(
        tuple(Fraction(v) if a == b else Fraction(0) for b in range(3))
        for a, v in enumerate(values)
    )


@pytest.mark.parametrize(
    "params",
    [
        generic_params(),
        generic_params(z=Fraction(-2, 7), s=Fraction(-3, 5)),
        sample_params(random.Random(3)),
        w_branch_params(),
    ],
    ids=["generic", "negative", "sampled", "w-branch"],
)
def test_numeric_matrices_are_the_symbolic_module_evaluated(params):
    e, f, h = repcheck._checked_module()
    s, z = params.s, params.z
    for i, (a_i, scaled) in enumerate(zip(fraction_rep(params), build_evaluation_rep(params))):
        half = _diag([s ** hv for hv in h[i]])
        full = _diag([s ** (2 * hv) for hv in h[i]])
        expected = mat_add(
            mat_add(
                mat_scale(mat_mul(_evaluate(e[i], s, z), half), params.c[i]),
                mat_scale(mat_mul(_evaluate(f[i], s, z), half), params.cbar[i]),
            ),
            mat_scale(full, params.w[i]),
        )
        assert a_i == expected, i
        assert scaled == _integer_scaled(expected), i


def _scaled(m, scalar):
    return repcheck._qz_combine((scalar, m))


def _break_e0(e, f, h):
    # e_0 scaled by z^2: invisible at z = 1, wrong as an identity in z
    return {**e, 0: _scaled(e[0], {(0, 2, 0): {0: 1}})}, f, h


def _break_f1(e, f, h):
    return e, {**f, 1: _scaled(f[1], {(0, 0, 0): {1: 1}})}, h


def _break_h1(e, f, h):
    return e, f, {**h, 1: (2, -1, -1)}


def _break_trace(e, f, h):
    return e, f, {**h, 2: (0, 1, 0)}


@pytest.mark.parametrize(
    "breakage, message",
    [
        (_break_e0, r"e-f relation failed for \(0,0\)"),
        (_break_f1, r"e-f relation failed for \(1,1\)"),
        (_break_h1, r"weight relation failed on e for \(1,0\)"),
        (_break_trace, "h_2 trace is not zero"),
    ],
    ids=["e0-times-z2", "f1-times-q", "h1-shifted", "h2-trace"],
)
def test_broken_construction_raises(monkeypatch, breakage, message):
    good = repcheck._chevalley
    monkeypatch.setattr(repcheck, "_chevalley", lambda: breakage(*good()))
    repcheck._checked_module.cache_clear()
    try:
        with pytest.raises(RepConstructionError, match=message):
            build_evaluation_rep(generic_params(z=Fraction(1)))
    finally:
        repcheck._checked_module.cache_clear()
    monkeypatch.undo()
    assert len(build_evaluation_rep(generic_params(z=Fraction(1)))) == 3


def test_rep_params_validation():
    with pytest.raises(ValueError):
        generic_params(s=Fraction(1))
    with pytest.raises(ValueError):
        generic_params(s=Fraction(0))
    with pytest.raises(ValueError):
        generic_params(z=Fraction(0))
    # nonzero w without the compensating constraint is rejected
    with pytest.raises(ValueError, match="w constraint"):
        generic_params(w=(Fraction(1), Fraction(0), Fraction(0)))
    # w_0 != 0 needs w_1^2 = -c_1 cbar_1 / (q + q^-1 - 2), which w_1 = 0 breaks,
    # while every pair with w_i = 0 or partner 0 or 2 holds
    w = w_branch_params()
    with pytest.raises(ValueError, match=r"w constraint violated for the linked pair \(0,1\)"):
        RepParams(s=w.s, z=w.z, c=w.c, cbar=w.cbar, w=(w.w[0], Fraction(0), w.w[2]))


def test_c_zero_gives_triangular_matrix_and_zero_rho():
    params = generic_params(c=(Fraction(0), Fraction(0), Fraction(0)))
    mats = build_evaluation_rep(params)
    cal = calibrate_rho(mats, params, (0, 1))
    assert cal.rho == 0
    assert cal.product == 0
    assert cal.ratio is None
    # strictly triangular plus diagonal: only the lowering and w parts remain
    _, a0 = mats[0]
    assert a0[2][0] == 0  # raising entry of node 0 (e_0 lives at row 2, col 0)


def test_calibration_reads_the_rank_one_table():
    # calibrate_rho holds the defining relation itself, built once
    assert repcheck._DEFINING_RELATION == c_recursive(1)
    assert repcheck._DEFINING_RELATION.entries == c_closed(1).entries


def test_calibration_generic_point_matches_product():
    params = generic_params()
    mats = build_evaluation_rep(params)
    for pair in ((0, 1), (1, 0), (1, 2), (0, 2)):
        cal = calibrate_rho(mats, params, pair)
        assert cal.matches_product, pair
        assert cal.ratio == 1


def test_calibration_depends_on_product_only():
    lam = Fraction(5, 3)
    p1 = generic_params()
    scaled_c = (p1.c[0] * lam, p1.c[1], p1.c[2])
    scaled_cbar = (p1.cbar[0] / lam, p1.cbar[1], p1.cbar[2])
    p2 = generic_params(c=scaled_c, cbar=scaled_cbar)
    cal1 = calibrate_rho(build_evaluation_rep(p1), p1, (0, 1))
    cal2 = calibrate_rho(build_evaluation_rep(p2), p2, (0, 1))
    assert cal1.rho == cal2.rho


def test_calibration_w_branch():
    params = w_branch_params()
    mats = build_evaluation_rep(params)
    cal = calibrate_rho(mats, params, (0, 1))
    assert cal.matches_product


def test_calibration_error_on_zero_matrix():
    params = generic_params(
        c=(Fraction(1), Fraction(0), Fraction(1)),
        cbar=(Fraction(1), Fraction(0), Fraction(1)),
        w=(Fraction(0), Fraction(0), Fraction(0)),
    )
    mats = build_evaluation_rep(params)
    with pytest.raises(CalibrationError, match="zero matrix"):
        calibrate_rho(mats, params, (0, 1))


def _calibration_oracle(matrices, params, pair):
    """rho from (A_i^2 A_j - [2]_q A_i A_j A_i + A_j A_i^2) / A_j in Fraction."""
    ai, aj = matrices[pair[0]], matrices[pair[1]]
    q = params.q
    lhs = mat_add(
        mat_sub(
            mat_mul(mat_mul(ai, ai), aj),
            mat_scale(mat_mul(mat_mul(ai, aj), ai), q + 1 / q),
        ),
        mat_mul(aj, mat_mul(ai, ai)),
    )
    rho = next(lhs[a][b] / aj[a][b] for a in range(3) for b in range(3) if aj[a][b])
    assert lhs == mat_scale(aj, rho)
    return rho


@pytest.mark.parametrize(
    "params",
    [sample_params(random.Random(f"calibration:{n}")) for n in range(6)]
    + [w_branch_params(),
       generic_params(c=(Fraction(0), Fraction(0), Fraction(0)))],
    ids=[f"sampled-{n}" for n in range(6)] + ["w-branch", "c-zero"],
)
def test_calibration_matches_the_fraction_oracle(params):
    mats = build_evaluation_rep(params)
    fractions = fraction_rep(params)
    for pair in ((0, 1), (1, 0), (1, 2), (0, 2)):
        assert calibrate_rho(mats, params, pair).rho == _calibration_oracle(fractions, params, pair)


def _fraction_matrix(rows):
    return _integer_scaled(tuple(tuple(Fraction(x) for x in row) for row in rows))


def test_calibration_error_when_no_scalar_rho_fits():
    # A_i = diag(a_0, a_1, a_2) scales entry (a, b) of A_j by
    # a_a^2 - [2]_q a_a a_b + a_b^2: -7/2 at (0, 1) and (1, 0) for q = 4,
    # -81/4 at (2, 2), so the rank-1 relation is not a multiple of A_j.
    params = generic_params()
    ai = _fraction_matrix([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    aj = _fraction_matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    with pytest.raises(
        CalibrationError, match=r"no scalar rho satisfies the rank-1 relation for the pair \(0,1\)"
    ):
        calibrate_rho((ai, aj, aj), params, (0, 1))
    # Without the (2, 2) entry the same A_i calibrates to -7/2.
    aj = _fraction_matrix([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    assert calibrate_rho((ai, aj, aj), params, (0, 1)).rho == Fraction(-7, 2)


# ---------------------------------------------------------------------------
# matrix evidence
# ---------------------------------------------------------------------------


def matrix_report(r, table, samples, seed):
    """The CLI's repcheck report: one matrix_point per sample index."""
    return MatrixReport(r, seed, (0, 1), [matrix_point(r, table, seed, i) for i in range(samples)])


def test_matrix_check_rank_one_any_point():
    report = matrix_report(1, c_recursive(1), samples=3, seed=11)
    assert report.ok


@pytest.mark.parametrize("r", [2, 3])
def test_matrix_check_small_ranks(r):
    report = matrix_report(r, c_closed(r), samples=4, seed=5)
    assert report.ok
    assert len(report.points) == 4


def test_matrix_check_stable_across_seeds():
    for seed in (0, 1, 2):
        assert matrix_report(2, c_recursive(2), samples=3, seed=seed).ok


def test_matrix_check_detects_perturbed_table():
    table = perturbed_table(c_recursive(3), 1, 0)
    report = matrix_report(3, table, samples=3, seed=9)
    assert not report.ok


def test_matrix_report_json():
    report = matrix_report(2, c_recursive(2), samples=2, seed=4)
    obj = json.loads(json.dumps(report.to_json_obj()))
    assert obj["r"] == 2 and obj["all_zero"] is True and obj["samples"] == 2
    point = obj["points"][0]
    assert set(point) == {"params", "calibration", "zero"}
    assert point["calibration"]["matches_product"] is True


def _delta_matrix_oracle(r, table, ai, aj, q, rho):
    """The rank-r relation at (A_i, A_j), summed term by term in Fraction."""

    def power(m, n):
        out = _diag([1, 1, 1])
        for _ in range(n):
            out = mat_mul(out, m)
        return out

    aj_r = power(aj, r)
    total = _diag([0, 0, 0])
    for (p, k, sign) in delta_indices(r):
        coeff = table.entry(p, k).substitute(q) * (rho ** p) * sign
        term = mat_mul(mat_mul(power(ai, r - 2 * p + 1 - k), aj_r), power(ai, k))
        total = mat_add(total, mat_scale(term, coeff))
    return total


def _zero_both_ways(r, table, params, pair=(0, 1)):
    """(integer zero test, Fraction oracle) at one point."""
    mats = build_evaluation_rep(params)
    rho = calibrate_rho(mats, params, pair).rho
    fast = repcheck._relation_vanishes(r, table, mats[pair[0]], mats[pair[1]], params.q, rho)
    ai, aj = (fraction_rep(params)[n] for n in pair)
    slow = _delta_matrix_oracle(r, table, ai, aj, params.q, rho)
    return fast, all(x == 0 for row in slow for x in row)


# Cells whose q-multiplied mutation the pair (0, 1) cannot see on the w = 0
# branch: the relation still vanishes there.  Even ranks see every cell.
_BLIND_CELLS = {1: {(0, 1)}, 2: set(), 3: {(0, 1), (0, 2), (0, 3), (1, 1)}, 4: set()}


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_integer_zero_test_matches_oracle_on_mutations(r):
    for cell in cells(r):
        table = perturbed_table(c_recursive(r), *cell)
        for index in range(2):
            params = sample_params(random.Random(f"{r}:{cell}:{index}"))
            fast, slow = _zero_both_ways(r, table, params)
            assert fast == slow, (cell, index)
            assert fast == (cell in _BLIND_CELLS[r]), (cell, index)


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_integer_zero_test_matches_oracle_unmutated(r):
    table = c_recursive(r)
    for index in range(3):
        params = sample_params(random.Random(f"unmutated:{r}:{index}"))
        assert _zero_both_ways(r, table, params) == (True, True)
    params = generic_params(s=Fraction(-7, 3), z=Fraction(5, 4))
    assert _zero_both_ways(r, table, params, pair=(1, 2)) == (True, True)


def test_integer_zero_test_matches_oracle_on_the_w_branch():
    params = w_branch_params()
    assert any(w != 0 for w in params.w)
    for r in range(1, 6):
        assert _zero_both_ways(r, c_recursive(r), params) == (True, True)
    assert _zero_both_ways(2, perturbed_table(c_recursive(2), 0, 0), params) == (False, False)


def _as_fractions(total, denom):
    """The relation T / D of _relation_matrix, entry by entry."""
    assert denom > 0 and all(type(t) is int for row in total for t in row)
    return tuple(tuple(Fraction(t, denom) for t in row) for row in total)


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
def test_relation_matrix_values_match_the_fraction_oracle(r):
    # T / D is the relation itself, not only its zero pattern, on every
    # single-cell mutation, at rho = 0, the calibrated rho and another rho.
    params = sample_params(random.Random(f"values:{r}"))
    mats = build_evaluation_rep(params)
    fractions = fraction_rep(params)
    tables = [c_recursive(r)] + [perturbed_table(c_recursive(r), *cell) for cell in cells(r)]
    for pair in ((0, 1), (1, 2)):
        ai, aj = fractions[pair[0]], fractions[pair[1]]
        calibrated = calibrate_rho(mats, params, pair).rho
        assert calibrated == _calibration_oracle(fractions, params, pair)
        for rho in (Fraction(0), calibrated, Fraction(-7, 5)):
            for table in tables:
                got = repcheck._relation_matrix(
                    r, table, mats[pair[0]], mats[pair[1]], params.q, rho)
                assert _as_fractions(*got) == _delta_matrix_oracle(r, table, ai, aj, params.q, rho), (
                    pair, rho, table.pipeline)


def test_relation_matrix_values_on_tables_with_few_terms():
    # No nonzero entry at all, nonzero entries only at p = 0, and entries
    # whose least q-exponent is positive, at q = s^2 and at a negative q.
    r = 3
    params = generic_params()
    (ai, aj, _), (pi, pj, _) = fraction_rep(params), build_evaluation_rep(params)
    recursive = c_recursive(r).entries
    tables = [
        CoeffTable(r, dict.fromkeys(cells(r), ZERO)),
        CoeffTable(r, {(p, k): v if p == 0 else ZERO for (p, k), v in recursive.items()}),
        CoeffTable(r, {(p, k): LaurentScalar({1 + p: 2, 3 + k: -1}) for (p, k) in cells(r)}),
    ]
    for q in (params.q, Fraction(-2, 3)):
        for rho in (Fraction(0), Fraction(3, 7)):
            for table in tables:
                total, denom = repcheck._relation_matrix(r, table, pi, pj, q, rho)
                assert _as_fractions(total, denom) == _delta_matrix_oracle(r, table, ai, aj, q, rho)
    total, _ = repcheck._relation_matrix(r, tables[0], pi, pj, params.q, Fraction(3, 7))
    assert total == ((0, 0, 0),) * 3


def test_sampler_reproducible_and_valid():
    a = sample_params(random.Random(42))
    b = sample_params(random.Random(42))
    assert a == b
    assert a.s not in (0, 1, -1)
    assert all(x != 0 for x in a.c) and all(x != 0 for x in a.cbar)


# ---------------------------------------------------------------------------
# spectral band structure
# ---------------------------------------------------------------------------


def test_oracle_derives_the_calibration_constant():
    result = rho_calibration_oracle(6)
    assert result.ok
    assert result.v_independent and result.k_independent
    assert result.rho_over_c2 == spectral_rho_constant()
    assert result.rho_over_c2 == LaurentScalar({2: -1, 0: 2, -2: -1})


def test_oracle_rejects_an_expansion_without_a_laurent_rho(monkeypatch):
    # C^2 alone: rho_d [d]^2 = 1 has a Laurent-polynomial rho_d only at d = 1.
    monkeypatch.setattr(repcheck, "_factor_at", lambda desc, d, rho_over_c2: {(2, 0, 0): {0: 1}})
    # The oracle is cached per bound: run it on the patched factor, and let
    # no later test see that run.
    rho_calibration_oracle.cache_clear()
    try:
        result = rho_calibration_oracle(4)
    finally:
        rho_calibration_oracle.cache_clear()
    assert result.ok is False
    assert result.rho_over_c2 is None
    assert result.v_independent and result.k_independent


def test_the_oracle_runs_once_per_bound(monkeypatch):
    # spectral --r 5 reads the bound-5 oracle; a second run must not expand
    # the factors again, and the shared result cannot be changed.
    oracle = rho_calibration_oracle(5)

    def refuse(*args):
        raise AssertionError("the oracle ran again")

    monkeypatch.setattr(repcheck, "_factor_at", refuse)
    assert spectral_polynomial_check(5).oracle is oracle
    assert oracle.offsets == (1, 2, 3, 4, 5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        oracle.offsets = ()


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_spectral_band_structure_small(r):
    report = spectral_polynomial_check(r)
    assert report.ok
    zero_offsets = sorted(d for d, z in report.offsets if z)
    expected = sorted(
        d for d in range(-(r + 2), r + 3) if abs(d) <= r and abs(d) % 2 == r % 2
    )
    assert zero_offsets == expected


def _factor_by_products(desc, d, rho_over_c2):
    """The factor at x = theta_k, y = theta_(k+d), rho = rho_over_c2 C^2, each
    monomial multiplied out on its own from theta_k and theta_(k+d)."""
    rho = {(2, 0, 0): rho_over_c2.num} if rho_over_c2 else {}
    value = {}
    for degrees, poly in _factor_poly(desc).items():
        term = {(0, 0, 0): poly}
        for sub, n in zip((repcheck._theta(0), repcheck._theta(d), rho), degrees):
            for _ in range(n):
                term = _mmul(term, sub)
        value = _madd(value, term)
    return value


def test_shared_monomials_match_the_one_factor_expansion():
    # Every factor and offset of the ranks r <= 12, as polynomials: the
    # check's monomials shared by all factors of one offset, _factor_at's
    # built for one factor, and a product expansion of each monomial.
    pairs = {(desc, d) for r in range(1, 13) for desc in generating_factors(r)
             for d in range(-(r + 2), r + 3)}
    for rho in (spectral_rho_constant(), ZERO):
        monomials = {d: repcheck._monomials(d, rho) for _, d in pairs}
        for desc, d in sorted(pairs):
            value = repcheck._evaluate(_factor_poly(desc), monomials[d])
            assert value == repcheck._factor_at(desc, d, rho) == _factor_by_products(desc, d, rho), (
                desc, d, rho)


def _evaluate_by_madd(poly, monomials):
    """_evaluate as a fold of whole polynomials, one _madd per monomial."""
    value = {}
    for degrees, coeff in poly.items():
        value = _madd(value, _mmul({(0, 0, 0): coeff}, monomials[degrees]))
    return value


def test_evaluate_matches_the_madd_fold():
    pairs = {(desc, d) for r in range(1, 11) for desc in generating_factors(r)
             for d in range(-(r + 2), r + 3)}
    for rho in (spectral_rho_constant(), ZERO):
        monomials = {d: repcheck._monomials(d, rho) for _, d in pairs}
        for desc, d in sorted(pairs):
            poly = _factor_poly(desc)
            assert repcheck._evaluate(poly, monomials[d]) == _evaluate_by_madd(poly, monomials[d]), (
                desc, d, rho)


def test_spectral_check_refuses_miswired_constant(monkeypatch):
    wrong = -spectral_rho_constant()
    monkeypatch.setattr(repcheck, "spectral_rho_constant", lambda: wrong)
    report = spectral_polynomial_check(3)
    assert not report.ok
    assert report.oracle.rho_over_c2 is None
    assert report.offsets == []


def _spectral_product_offsets(r, wired):
    """(offset, zero) pairs with every factor multiplied out at each offset."""

    def theta(offset):
        return {(1, 1, 1): {offset: 1}, (1, -1, -1): {-offset: 1}}

    out = []
    for d in range(-(r + 2), r + 3):
        value = {(0, 0, 0): {0: 1}}
        for desc in generating_factors(r):
            if desc[0] == "diff":
                factor = _msub(theta(0), theta(d))
            else:
                s = desc[1]
                mid = {(0, 0, 0): (LaurentScalar.q_power(s) + LaurentScalar.q_power(-s)).num}
                quadratic = _msub(
                    _madd(_mmul(theta(0), theta(0)), _mmul(theta(d), theta(d))),
                    _mmul(mid, _mmul(theta(0), theta(d))),
                )
                factor = _msub(quadratic, {(2, 0, 0): (wired * q_int(s) * q_int(s)).num})
            value = _mmul(value, factor)
        out.append((d, not value))
    return out


def test_spectral_offsets_match_the_multiplied_out_product(monkeypatch):
    wired = spectral_rho_constant()
    for r in range(1, 9):
        assert spectral_polynomial_check(r).offsets == _spectral_product_offsets(r, wired), r
    monkeypatch.setattr(repcheck, "spectral_rho_constant", lambda: -wired)
    for r in range(1, 9):
        assert spectral_polynomial_check(r).offsets == [], r


def test_spectral_report_json():
    obj = json.loads(json.dumps(spectral_polynomial_check(2).to_json_obj()))
    assert obj["ok"] is True
    assert obj["oracle"]["v_independent"] is True
    entries = {item["offset"]: item for item in obj["offsets"]}
    assert entries[0]["zero"] is True and entries[0]["allowed"] is True
    assert entries[1]["zero"] is False and entries[1]["allowed"] is False


def test_spectral_params_numeric_spot_check():
    # theta_k = C (v q^k + v^-1 q^-k) at one rational point, with rho tied to
    # C and q through the wired calibration constant.
    C, v, q = Fraction(3, 2), Fraction(5, 7), Fraction(2)

    def theta(k):
        return C * (v * q ** k + q ** (-k) / v)

    rho = C ** 2 * spectral_rho_constant().substitute(q)
    # The offset-d quadratic factor vanishes at (theta_k, theta_(k+d)) with
    # the tied rho, for any k; a wrong offset leaves it nonzero.
    for d in (1, 2, 3):
        mid = q ** d + q ** (-d)
        bracket = sum(q ** (d - 1 - 2 * i) for i in range(d))
        for k in (0, 1, 4):
            x, y = theta(k), theta(k + d)
            assert x * x - mid * x * y + y * y - rho * bracket ** 2 == 0
        x, y = theta(0), theta(d + 1)
        assert x * x - mid * x * y + y * y - rho * bracket ** 2 != 0
