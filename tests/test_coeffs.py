"""Tests for the four coefficient pipelines and their auxiliary tables."""

import random

import pytest
from coefficients import rho

import qonsager.coeffs as coeffs_mod

from qonsager.coeffs import (
    CoeffTable,
    CoefficientSystemError,
    CrossCheckReport,
    ShapeError,
    _solve_unique,
    c_closed,
    c_from_polynomial,
    c_recursive,
    c_solve,
    cells,
    eta_expansion,
    eta_table,
    expand_generating_polynomial,
    generating_factors,
    m_table,
    pipelines_agree,
)
from qonsager.qcoeff import ONE, ZERO, LaurentScalar, exact_div, q_binomial, q_int
from qonsager.reducer import reduce
from qonsager.freealg import monomial


from known_tables import bar_invariant_ok, binomial_row_ok, fixture_table, palindromic_ok


def L(d):
    return LaurentScalar(d)


TWO = q_int(2)
THREE = q_int(3)


@pytest.mark.parametrize("pipeline", [c_recursive, c_closed, c_from_polynomial, c_solve])
@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_displayed_block_all_pipelines(pipeline, r):
    assert pipeline(r) == fixture_table(r)


@pytest.mark.parametrize(
    "pipeline, r",
    [pytest.param(c_recursive, r, id=str(r)) for r in range(13, 17)]
    + [pytest.param(c_closed, r, id=f"closed-{r}") for r in range(13, 17)],
)
def test_recursive_matches_polynomial_up_to_cross_check_bound(pipeline, r):
    # the acceptance suite compares pipelines up to rank 12; cross-check
    # reaches 16, so the recursion and the closed formula are guarded there too
    assert pipeline(r) == c_from_polynomial(r)


def test_rank_one_is_the_defining_relation():
    expected = CoeffTable(
        1, {(0, 0): ONE, (0, 1): TWO, (0, 2): ONE, (1, 0): ONE}, "fixture"
    )
    for pipeline in (c_recursive, c_closed, c_from_polynomial, c_solve):
        assert pipeline(1) == expected


# ---------------------------------------------------------------------------
# eta tables
# ---------------------------------------------------------------------------


def test_eta_initial_values():
    eta = eta_table(2)
    assert eta[(2, 0, 0)] == TWO
    assert eta[(2, 0, 1)] == -ONE


def test_eta_small_values():
    eta = eta_table(4)
    assert eta[(3, 1, 0)] == ONE
    assert eta[(3, 0, 0)] == TWO * TWO - ONE  # cross-checked against I^3 J below
    assert eta[(3, 0, 1)] == -TWO
    assert eta[(3, 1, 1)] == TWO


def test_eta_expansion_matches_rank_one_rule_at_m2():
    got = eta_expansion(2)
    expected = reduce(monomial(2, 1, 0))
    assert got == expected


def test_eta_expansion_matches_displayed_m3():
    got = eta_expansion(3)
    expected = (
        monomial(1, 1, 2) * rho(TWO * TWO - ONE)
        - monomial(0, 1, 3) * rho(TWO)
        + monomial(0, 1, 1) * rho(0, TWO)
        + monomial(1, 1, 0) * rho(0, ONE)
    )
    assert got == expected


def test_eta_against_reducer_small():
    eta = eta_table(8)
    for m in range(2, 9):
        assert reduce(monomial(m, 1, 0)) == eta_expansion(m, eta), m


# ---------------------------------------------------------------------------
# M tables: the printed boundary variants against the uniform formula
# ---------------------------------------------------------------------------


def test_m_table_examples():
    base = c_recursive(2)
    em = m_table(base)
    assert em[(2, 0, 0)] == base.entry(0, 0)
    assert em[(2, 1, 0)] == base.entry(1, 0)
    # M[2,0,1] = c[2,0,1] - c[2,0,1]*c[2,0,0] = [3] - [3] = 0
    assert em[(2, 0, 1)] == ZERO


@pytest.mark.parametrize("r", [2, 4, 6])
def test_m_table_even_rank_printed_lines(r):
    base = c_recursive(r)
    em = m_table(base)
    t = r // 2
    c1 = base.entry(0, 1)
    for p in range(0, t + 1):
        assert em[(r, p, 0)] == base.entry(p, 0)
        assert em[(r, p, 2 * t + 2 - 2 * p)] == -c1 * base.entry(p, 2 * t + 1 - 2 * p)
        for k in range(1, 2 * t + 2 - 2 * p):
            assert em[(r, p, k)] == base.entry(p, k) - c1 * base.entry(p, k - 1)


@pytest.mark.parametrize("r", [1, 3, 5])
def test_m_table_odd_rank_printed_lines(r):
    base = c_recursive(r)
    em = m_table(base)
    t = (r - 1) // 2
    c1 = base.entry(0, 1)
    # top rho-power block
    assert em[(r, t + 1, 0)] == base.entry(t + 1, 0)
    assert em[(r, t + 1, 1)] == -base.entry(t + 1, 0) * c1
    for p in range(0, t + 1):
        assert em[(r, p, 0)] == base.entry(p, 0)
        assert em[(r, p, 2 * t + 3 - 2 * p)] == -c1 * base.entry(p, 2 * t + 2 - 2 * p)
        for k in range(1, 2 * t + 3 - 2 * p):
            assert em[(r, p, k)] == -c1 * base.get(p, k - 1) + base.get(p, k)


# ---------------------------------------------------------------------------
# closed formula and generating polynomial
# ---------------------------------------------------------------------------


def test_closed_examples():
    assert c_closed(4).entry(1, 1) == q_int(5) * THREE * TWO ** 2
    assert c_closed(3).entry(1, 1) == q_int(4) * L({2: 1, 0: 3, -2: 1})


@pytest.mark.parametrize("r", range(1, 9))
def test_closed_binomial_row(r):
    table = c_closed(r)
    for k in range(0, r + 2):
        assert table.entry(0, k) == q_binomial(r + 1, k)


def test_generating_factors():
    assert generating_factors(1) == [("quad", 1)]
    assert generating_factors(2) == [("diff",), ("quad", 2)]
    assert generating_factors(5) == [("quad", 1), ("quad", 3), ("quad", 5)]


# Expansions are {(x_deg, y_deg, rho_deg): poly dict in q}.


def test_expand_rank_one():
    poly = expand_generating_polynomial(1)
    expected = {
        (2, 0, 0): ONE.num,
        (1, 1, 0): (-TWO).num,
        (0, 2, 0): ONE.num,
        (0, 0, 1): (-ONE).num,
    }
    assert poly == expected


def test_expand_rank_two_matches_manual_product():
    # (x - y) times the single quadratic factor, multiplied out by hand here:
    # x^3 - (mid + 1) x^2 y + (mid + 1) x y^2 - y^3 - rho [2]^2 (x - y),
    # with mid = q^2 + q^-2.
    mid = L({2: 1, -2: 1})
    rho_term = TWO ** 2
    expected = {
        (3, 0, 0): ONE.num,
        (2, 1, 0): (-(mid + ONE)).num,
        (1, 2, 0): (mid + ONE).num,
        (0, 3, 0): (-ONE).num,
        (1, 0, 1): (-rho_term).num,
        (0, 1, 1): rho_term.num,
    }
    assert expand_generating_polynomial(2) == expected


def test_expand_rank_three_is_symmetric_degree_four():
    poly = expand_generating_polynomial(3)
    assert {(y, x, p): c for (x, y, p), c in poly.items()} == poly
    assert {x + y + 2 * p for (x, y, p) in poly} == {4}


def test_expand_even_rank_antisymmetric():
    poly = expand_generating_polynomial(4)
    negated = {key: (-L(c)).num for key, c in poly.items()}
    assert {(y, x, p): c for (x, y, p), c in poly.items()} == negated
    assert {x + y + 2 * p for (x, y, p) in poly} == {5}


def test_from_polynomial_rank_one_table():
    table = c_from_polynomial(1)
    assert table.entry(0, 0) == ONE
    assert table.entry(0, 1) == TWO
    assert table.entry(0, 2) == ONE
    assert table.entry(1, 0) == ONE


def test_from_polynomial_r5_entry():
    got = c_from_polynomial(5).entry(1, 2)
    expected = exact_div(q_int(6), TWO) * q_int(5) * L({4: 1, 2: 3, 0: 6, -2: 3, -4: 1})
    assert got == expected


def test_shape_error_on_malformed_expansion():
    # A polynomial with a stray monomial must be rejected by the reader;
    # exercise the validator through a doctored expansion.
    poly = expand_generating_polynomial(2)
    poly[(5, 5, 0)] = ONE.num
    original = coeffs_mod.expand_generating_polynomial
    coeffs_mod.expand_generating_polynomial = lambda r: poly
    try:
        with pytest.raises(ShapeError):
            c_from_polynomial(2)
    finally:
        coeffs_mod.expand_generating_polynomial = original


# ---------------------------------------------------------------------------
# linear solve pipeline
# ---------------------------------------------------------------------------


def test_solve_matches_closed_at_rank_four():
    assert c_solve(4) == c_closed(4)


def test_solver_rejects_underdetermined():
    rows = [({0: ONE, 1: ONE}, TWO)]
    with pytest.raises(CoefficientSystemError, match="under-determined"):
        _solve_unique(rows, 2)


def test_solver_rejects_inconsistent():
    rows = [
        ({0: ONE}, ONE),
        ({0: ONE}, TWO),
    ]
    with pytest.raises(CoefficientSystemError, match="inconsistent"):
        _solve_unique(rows, 1)


def test_solver_exact_rational_solution():
    # x*[2] = [6] has the Laurent-polynomial solution [6]/[2] = q^4 + 1 + q^-4.
    rows = [({0: TWO}, q_int(6))]
    (x,) = _solve_unique(rows, 1)
    assert x == exact_div(q_int(6), TWO)


def test_solver_rejects_a_solution_outside_laurent_polynomials():
    # x*[4] = [2] is solved only by 1/(q^2 + q^-2).
    with pytest.raises(CoefficientSystemError, match="Laurent-polynomial"):
        _solve_unique([({0: q_int(4)}, q_int(2))], 1)


def _stall(n_open: int, n_cols: int) -> str:
    """The pinned message of a substitution that fixes nothing more."""
    return (f"under-determined or not triangular: no row has exactly one of the "
            f"{n_open} open unknowns (of {n_cols})")


def test_solver_stalls_on_a_full_rank_system_without_singleton_rows():
    # x + y = 2, x - y = 0 is full rank, but no row has one unknown, so
    # substitution alone cannot solve it.
    rows = [({0: ONE, 1: ONE}, ONE + ONE), ({0: ONE, 1: -ONE}, ZERO)]
    with pytest.raises(CoefficientSystemError) as info:
        _solve_unique(rows, 2)
    assert str(info.value) == _stall(2, 2)


def test_solver_substitutes_singletons_then_stalls_on_the_rest():
    # [2] x = [2] fixes x = 1; then y + z = [2] + 1 and y - z = [2] - 1
    # have no singleton row, so two of the three unknowns stay open.
    rows = [
        ({0: TWO, 1: ONE, 2: ONE}, TWO + TWO + ONE),
        ({0: ONE, 1: ONE, 2: -ONE}, TWO),
        ({0: TWO}, TWO),
    ]
    with pytest.raises(CoefficientSystemError) as info:
        _solve_unique(rows, 3)
    assert str(info.value) == _stall(2, 3)


def test_solver_rejects_disagreeing_singleton_rows():
    # [2] x = [2] gives x = 1 and q x = q^2 gives x = q; x + y = [2] fixes y.
    q = L({1: 1})
    rows = [({0: TWO}, TWO), ({0: ONE, 1: ONE}, TWO), ({0: q}, q * q)]
    with pytest.raises(CoefficientSystemError, match="inconsistent"):
        _solve_unique(rows, 2)


def test_pivot_step_rejects_an_inconsistent_pair():
    # x+y = 1 and x+y = 2 have no singleton row: the solve stalls.
    rows = [({0: ONE, 1: ONE}, ONE), ({0: ONE, 1: ONE}, L({0: 2}))]
    with pytest.raises(CoefficientSystemError) as info:
        _solve_unique(rows, 2)
    assert str(info.value) == _stall(2, 2)


def _random_laurent(rng):
    """A nonzero Laurent polynomial of one or two terms."""
    return L({rng.randint(-2, 2): rng.choice([-3, -2, -1, 1, 2, 3])
              for _ in range(rng.randint(1, 2))})


def _random_system(seed: int, singletons: bool):
    """A full-rank system over n unknowns with a known Laurent solution.

    The matrix is U, or L*U without singleton rows, for triangular L and U
    with unit monomials on the diagonal, so its determinant is a unit and
    the solution lies in Z[q, q^-1].  Every row is stated twice (the copy
    scaled by a unit), so dropping any one row keeps the rank full.
    """
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    x = [_random_laurent(rng) for _ in range(n)]
    unit = lambda: L({rng.randint(-2, 2): rng.choice([-1, 1])})  # noqa: E731
    upper = [
        {j: unit() if j == i else _random_laurent(rng) for j in range(i, n)}
        for i in range(n)
    ]
    matrix = upper
    if not singletons:
        matrix = []
        for i in range(n):
            row: dict[int, LaurentScalar] = {}
            for k in range(i + 1):
                factor = ONE if k == i else _random_laurent(rng)
                for j, v in upper[k].items():
                    row[j] = row.get(j, ZERO) + factor * v
            matrix.append({j: v for j, v in row.items() if not v.is_zero})
    rows = []
    for cols in matrix:
        rhs = sum((v * x[j] for j, v in cols.items()), ZERO)
        scale = unit()
        rows += [(cols, rhs), ({j: scale * v for j, v in cols.items()}, scale * rhs)]
    rng.shuffle(rows)
    return rows, x, rng


@pytest.mark.parametrize("singletons", [True, False], ids=["singletons", "no-singletons"])
@pytest.mark.parametrize("seed", range(10))
def test_solver_recovers_random_full_rank_systems(seed, singletons):
    rows, x, rng = _random_system(seed, singletons)
    n = len(x)
    has_singleton = any(len(cols) == 1 for cols, _ in rows)
    assert has_singleton == singletons
    if not singletons:
        with pytest.raises(CoefficientSystemError) as info:
            _solve_unique(rows, n)
        assert str(info.value) == _stall(n, n)
        return
    assert _solve_unique(rows, n) == x
    # One right-hand side off by one contradicts its scaled copy.
    k = rng.randrange(len(rows))
    rows[k] = (rows[k][0], rows[k][1] + 1)
    with pytest.raises(CoefficientSystemError):
        _solve_unique(rows, n)


@pytest.mark.parametrize("r", range(1, 7))
def test_singleton_substitution_fixes_every_unknown_of_the_relation(r):
    # The rank-r cancellation system is triangular up to row order; a stall
    # would raise, so equality shows that substitution finishes.
    assert c_solve(r) == c_from_polynomial(r)


# ---------------------------------------------------------------------------
# the recursive chain is built once per process
# ---------------------------------------------------------------------------


def test_recursive_tables_do_not_share_the_cached_entries():
    first = c_recursive(5)
    first.entries[(0, 0)] = ZERO
    first.entries.pop((1, 1))
    assert c_recursive(5) == fixture_table(5)


def test_recursive_chain_takes_one_step_per_rank(monkeypatch):
    steps = []
    step = coeffs_mod._next_table

    def counted(r, prev, eta):
        steps.append(r)
        return step(r, prev, eta)

    monkeypatch.setattr(coeffs_mod, "_next_table", counted)
    coeffs_mod._recursive_entries.cache_clear()
    try:
        tables = [c_recursive(r) for r in range(1, 15)]
    finally:
        coeffs_mod._recursive_entries.cache_clear()
    assert steps == list(range(2, 15))
    assert tables[-1] == c_from_polynomial(14)


# ---------------------------------------------------------------------------
# table invariants and serialization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("r", range(1, 9))
def test_invariants_small_ranks(r):
    table = c_recursive(r)
    assert binomial_row_ok(table)
    assert palindromic_ok(table)
    assert bar_invariant_ok(table)


def test_cross_check_report():
    # Built as the cross-check command builds it.
    report = CrossCheckReport(4, 2, {r: pipelines_agree(r, r <= 2) for r in range(1, 5)})
    assert report.ok
    assert set(report.agreements) == {1, 2, 3, 4}
    obj = report.to_json_obj()
    assert obj["ok"] is True


def test_table_requires_complete_cells():
    entries = {cell: ONE for cell in cells(2)}
    entries.pop((1, 1))
    with pytest.raises(ValueError, match="missing"):
        CoeffTable(2, entries)


def test_csv_rows():
    rows = c_recursive(1).to_csv_rows()
    assert rows[0] == "r,p,k,value"
    assert rows[1] == "1,0,0,1"
    assert f"1,0,1,{TWO}" in rows
