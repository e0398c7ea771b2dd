"""Tests for the four coefficient pipelines and their auxiliary tables."""

import functools
import itertools
import math
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qonsager._kernel_py as _kernel_py
import qonsager.coeffs as coeffs_mod
import qonsager.reducer as reducer_mod

from qonsager.coeffs import (
    CoeffTable,
    CoefficientSystemError,
    CrossCheckReport,
    ShapeError,
    _solve_triangular,
    c_closed,
    c_from_polynomial,
    c_recursive,
    c_solve,
    cells,
    eta_table,
    expand_generating_polynomial,
    generating_factors,
    pipelines_agree,
)
from qonsager.qcoeff import (
    ONE,
    ZERO,
    LaurentScalar,
    _kpack,
    _kunpack,
    _kwidth,
    _l1,
    exact_div,
    q_binomial,
    q_int,
)
from qonsager.reducer import reduce
from qonsager.verify import perturbed_table
from qonsager.freealg import concat


from free_ring import monomial, mul, term, word
from known_tables import (
    bar_invariant_ok,
    binomial_row_ok,
    eta_moves,
    fixture_table,
    kernel_moves,
    m_table,
    moves_of,
    next_table_by_cases,
    palindromic_ok,
    solve_rows_by_cells,
)
from slow_reducer import redex_positions, reduce_randomized


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
    [pytest.param(c_recursive, r, id=str(r)) for r in (*range(13, 17), 20, 24)]
    + [pytest.param(c_closed, r, id=f"closed-{r}") for r in (*range(13, 17), 20, 24)],
)
def test_recursive_matches_polynomial_up_to_cross_check_bound(pipeline, r):
    # the acceptance suite compares pipelines up to rank 12; cross-check
    # reaches 16, so the recursion and the closed formula are guarded there
    # too.  At ranks 20 and 24 every packed slot is wider than 64 bits.
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
    assert eta[(2, 1, 1)] == ONE
    assert eta[(4, 2, 1)] == ONE


def test_eta_expansion_matches_rank_one_rule_at_m2():
    assert eta_moves(eta_table(2), 2) == kernel_moves(2)


def test_eta_expansion_matches_displayed_m3():
    # NF(I^3 J) = ([2]^2 - 1) IJ I^2 - [2] J I^3 + rho [2] J I + rho IJ, as moves
    ij, j = word("IJ"), word("J")
    expected = {
        (ij, 2, 0): (TWO * TWO - ONE).num,
        (j, 3, 0): (-TWO).num,
        (j, 1, 1): TWO.num,
        (ij, 0, 1): ONE.num,
    }
    assert eta_moves(eta_table(3), 3) == expected


def test_eta_rows_are_built_once_per_process(monkeypatch):
    monkeypatch.setattr(coeffs_mod, "_eta_rows", coeffs_mod._eta_rows[:1])
    first = eta_table(12)
    rows = list(coeffs_mod._eta_rows)
    assert len(rows) == 11  # rows 2..12
    assert eta_table(12) == first
    assert eta_table(6).items() <= first.items()
    # no row is built again: every read returns the kept row
    assert coeffs_mod._eta_rows == rows
    assert all(coeffs_mod._eta_row(m) is rows[m - 2] for m in range(2, 13))
    # each call returns its own dict
    first[(2, 0, 0)] = ZERO
    assert eta_table(2)[(2, 0, 0)] == TWO


def test_eta_against_reducer_small():
    eta = eta_table(8)
    for m in range(2, 9):
        assert eta_moves(eta, m) == kernel_moves(m), m


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


@pytest.mark.parametrize("r", range(1, 9))
def test_packed_m_matches_the_m_table(r):
    table = c_recursive(r)
    em = m_table(table)
    bound = max(_l1(v.num) for v in em.values())
    nb = _kwidth(max(bound, *(_l1(v.num) for v in table.entries.values())))
    packed = {cell: _kpack(v.num, nb) for cell, v in table.entries.items()}
    got = {(r, p, k): LaurentScalar._raw(_kunpack(*value, nb, bound))
           for (p, k), value in coeffs_mod._m_packed(packed, r, nb).items()}
    assert got == em


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
            assert em[(r, p, k)] == (-c1 * base.entries.get((p, k - 1), ZERO)
                                     + base.entries.get((p, k), ZERO))


# ---------------------------------------------------------------------------
# closed formula and generating polynomial
# ---------------------------------------------------------------------------


def test_closed_examples():
    assert c_closed(4).entry(1, 1) == q_int(5) * THREE * TWO * TWO
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


# Expansions are {(x_deg, y_deg, rho_deg): (v, low, nb, bound)}, packed;
# _expansion decodes them to poly dicts in q.


def _expansion(r):
    return {key: _kunpack(v, low, nb, bound)
            for key, (v, low, nb, bound) in expand_generating_polynomial(r).items()}


def test_expand_rank_one():
    poly = _expansion(1)
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
    rho_term = TWO * TWO
    expected = {
        (3, 0, 0): ONE.num,
        (2, 1, 0): (-(mid + ONE)).num,
        (1, 2, 0): (mid + ONE).num,
        (0, 3, 0): (-ONE).num,
        (1, 0, 1): (-rho_term).num,
        (0, 1, 1): rho_term.num,
    }
    assert _expansion(2) == expected


def test_expand_rank_three_is_symmetric_degree_four():
    poly = expand_generating_polynomial(3)
    assert {(y, x, p): c for (x, y, p), c in poly.items()} == poly
    assert {x + y + 2 * p for (x, y, p) in poly} == {4}


def test_expand_even_rank_antisymmetric():
    poly = _expansion(4)
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


def _rows(*equations):
    """Row maps of the equations sum coeff * cell = rhs, visited in the order given.

    The right-hand side moves onto the known cell "1"; the first equation
    gets the largest key, so the solver visits it first.
    """
    n = len(equations)
    return {n - i: {**cols, **({"1": -rhs} if rhs else {})}
            for i, (cols, rhs) in enumerate(equations)}


def _packed_coefficient(s, num):
    """The solver coefficient (s, l1, nb, halves) of s * num, at the width its l1 needs."""
    nb = _kwidth(_l1(num))
    return (s, _l1(num), nb, coeffs_mod._halves(num, nb))


def coefficient_rows(rows):
    """Rows of LaurentScalar coefficients as the solver and _residual take them.

    Each coefficient c becomes the packed (s, l1, nb, halves) of s * (s c),
    s alternating between 1 and -1 along the row, with s c packed by
    _halves at _kwidth of its l1 norm: mixed parities and mixed widths.
    """
    return {key: {cell: _packed_coefficient(s, (c * s).num)
                  for s, (cell, c) in zip((1, -1) * len(row), row.items())}
            for key, row in rows.items()}


def scalar_rows(rows):
    """Rows of solver coefficients (s, l1, nb, halves) as LaurentScalars."""
    return {key: {cell: coeffs_mod._scalar(c) for cell, c in row.items()}
            for key, row in rows.items()}


def _solve(rows, unknowns):
    return _solve_triangular(coefficient_rows(rows), unknowns, {"1": ONE})


def test_solver_rejects_underdetermined():
    # x = [2] fixes x, and no row mentions y.
    with pytest.raises(CoefficientSystemError) as info:
        _solve(_rows(({"x": ONE}, TWO)), ["x", "y"])
    assert str(info.value) == "under-determined: no row fixes the unknowns ['y']"


def test_solver_rejects_inconsistent():
    rows = _rows(({"x": ONE}, ONE), ({"x": ONE}, TWO))
    with pytest.raises(CoefficientSystemError, match="inconsistent system: row 1 fails"):
        _solve(rows, ["x"])


def test_solver_exact_rational_solution():
    # x*[2] = [6] has the Laurent-polynomial solution [6]/[2] = q^4 + 1 + q^-4.
    values = _solve(_rows(({"x": TWO}, q_int(6))), ["x"])
    assert values == {"1": ONE, "x": exact_div(q_int(6), TWO)}


def test_solver_rejects_a_solution_outside_laurent_polynomials():
    # x*[4] = [2] is solved only by 1/(q^2 + q^-2).
    with pytest.raises(CoefficientSystemError,
                       match="unknown x has no Laurent-polynomial solution"):
        _solve(_rows(({"x": q_int(4)}, q_int(2))), ["x"])


def _not_triangular(key, open_cells) -> str:
    """The pinned message of a row that leaves two or more cells open."""
    return f"not triangular: row {key} has the open unknowns {open_cells}"


def test_solver_stalls_on_a_full_rank_system_without_singleton_rows():
    # x + y = 2, x - y = 0 is full rank, but its first row leaves both
    # unknowns open, so one pass cannot solve it.
    rows = _rows(({"x": ONE, "y": ONE}, ONE + ONE), ({"x": ONE, "y": -ONE}, ZERO))
    with pytest.raises(CoefficientSystemError) as info:
        _solve(rows, ["x", "y"])
    assert str(info.value) == _not_triangular(2, ["x", "y"])


def test_solver_substitutes_singletons_then_stalls_on_the_rest():
    # [2] x = [2] fixes x = 1; then y + z = [2] + 1 and y - z = [2] - 1
    # both leave y and z open.
    rows = _rows(
        ({"x": TWO}, TWO),
        ({"x": TWO, "y": ONE, "z": ONE}, TWO + TWO + ONE),
        ({"x": ONE, "y": ONE, "z": -ONE}, TWO),
    )
    with pytest.raises(CoefficientSystemError) as info:
        _solve(rows, ["x", "y", "z"])
    assert str(info.value) == _not_triangular(2, ["y", "z"])


def test_solver_rejects_disagreeing_singleton_rows():
    # [2] x = [2] gives x = 1, x + y = [2] fixes y, and q x = q^2 fails.
    q = L({1: 1})
    rows = _rows(({"x": TWO}, TWO), ({"x": ONE, "y": ONE}, TWO), ({"x": q}, q * q))
    with pytest.raises(CoefficientSystemError, match="inconsistent system: row 1 fails"):
        _solve(rows, ["x", "y"])


def test_solver_refuses_an_inconsistent_pair_without_a_singleton_row():
    # x+y = 1 and x+y = 2: the first row leaves both unknowns open.
    rows = _rows(({"x": ONE, "y": ONE}, ONE), ({"x": ONE, "y": ONE}, L({0: 2})))
    with pytest.raises(CoefficientSystemError) as info:
        _solve(rows, ["x", "y"])
    assert str(info.value) == _not_triangular(2, ["x", "y"])


def test_solver_refuses_a_triangular_system_out_of_order():
    # x = 1 then x + y = [2] solves; visited the other way round, the
    # first row leaves both unknowns open.
    rows = _rows(({"x": ONE}, ONE), ({"x": ONE, "y": ONE}, TWO))
    assert _solve(rows, ["x", "y"]) == {"1": ONE, "x": ONE, "y": TWO - ONE}
    reversed_rows = {3 - key: row for key, row in rows.items()}
    with pytest.raises(CoefficientSystemError) as info:
        _solve(reversed_rows, ["x", "y"])
    assert str(info.value) == _not_triangular(2, ["x", "y"])


def test_solver_reports_the_first_failing_row_before_a_stall():
    # x = 1 fixes x, x = [2] and x = 2 both fail, and y + z = 1 would stall
    # the pass: the first failure down the order is the one reported.
    rows = _rows(({"x": ONE}, ONE), ({"x": ONE}, TWO), ({"x": ONE}, L({0: 2})),
                 ({"y": ONE, "z": ONE}, ONE))
    with pytest.raises(CoefficientSystemError) as info:
        _solve(rows, ["x", "y", "z"])
    assert str(info.value) == "inconsistent system: row 3 fails"


def _random_laurent(rng):
    """A nonzero Laurent polynomial of one or two terms."""
    return L({rng.randint(-2, 2): rng.choice([-3, -2, -1, 1, 2, 3])
              for _ in range(rng.randint(1, 2))})


def _random_system(seed: int, singletons: bool):
    """A full-rank system over n unknowns with a known Laurent solution.

    The matrix is U, or L*U without singleton rows, for triangular L and U
    with unit monomials on the diagonal, so its determinant is a unit and
    the solution lies in Z[q, q^-1].  The rows come in back-substitution
    order, U's last row first, each followed by its copy scaled by a unit.
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
    equations = []
    for cols in reversed(matrix):
        rhs = sum((v * x[j] for j, v in cols.items()), ZERO)
        scale = unit()
        equations += [(cols, rhs), ({j: scale * v for j, v in cols.items()}, scale * rhs)]
    return equations, x, rng


@pytest.mark.parametrize("singletons", [True, False], ids=["singletons", "no-singletons"])
@pytest.mark.parametrize("seed", range(10))
def test_solver_recovers_random_full_rank_systems(seed, singletons):
    equations, x, rng = _random_system(seed, singletons)
    n = len(x)
    has_singleton = any(len(cols) == 1 for cols, _ in equations)
    assert has_singleton == singletons
    if not singletons:
        with pytest.raises(CoefficientSystemError, match="not triangular"):
            _solve(_rows(*equations), range(n))
        return
    assert _solve(_rows(*equations), range(n)) == {"1": ONE, **dict(enumerate(x))}
    # One right-hand side off by one contradicts its scaled copy.
    k = rng.randrange(len(equations))
    equations[k] = (equations[k][0], equations[k][1] + 1)
    with pytest.raises(CoefficientSystemError, match="inconsistent"):
        _solve(_rows(*equations), range(n))


# ---------------------------------------------------------------------------
# the packed residual against a plain sum in LaurentScalar arithmetic
# ---------------------------------------------------------------------------


def _residual_by_scalars(rows, values):
    """Each row's nonzero sum coeff * value, one LaurentScalar product at a time."""
    out = {}
    for key, row in rows.items():
        total = sum((coeff * values[cell] for cell, coeff in row.items()), ZERO)
        if total:
            out[key] = total.num
    return out


# Both exponent parities, and coefficients both small and beyond 2^64.
laurent = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    (st.integers(min_value=-9, max_value=9) | st.integers(min_value=-2**80, max_value=2**80))
    .filter(bool),
    max_size=4,
).map(LaurentScalar)


@st.composite
def residual_systems(draw):
    """Rows over up to four cells, whose values may be zero; a row may be empty."""
    values = dict(enumerate(draw(st.lists(laurent, min_size=1, max_size=4))))
    rows = {}
    for key in range(draw(st.integers(min_value=0, max_value=5))):
        row_cells = draw(st.lists(st.sampled_from(sorted(values)), unique=True, max_size=3))
        rows[key] = {cell: draw(laurent.filter(bool)) for cell in row_cells}
    return rows, values


@settings(max_examples=150, deadline=None)
@given(residual_systems())
def test_residual_matches_the_scalar_sum(system):
    rows, values = system
    assert coeffs_mod._residual(coefficient_rows(rows), values) == _residual_by_scalars(rows, values)


def test_residual_cancels_within_each_parity():
    x = L({-3: 2**70, 0: 3, 1: -2})
    q = L({1: 1})
    values = {"x": x, "qx": q * x, "even": L({0: 3}), "1": ONE}
    rows = {
        0: {"x": q, "qx": -ONE},  # both parities cancel
        1: {"x": L({1: 1, 2: 1}), "qx": -ONE},  # q^2 x: neither cancels
        2: {"x": ONE, "even": -ONE},  # the even half cancels, the odd one stays
        3: {"1": L({1: 5})},  # one term
    }
    expected = {1: (q * q * x).num, 2: {-3: 2**70, 1: -2}, 3: {1: 5}}
    assert _residual_by_scalars(rows, values) == expected
    assert coeffs_mod._residual(coefficient_rows(rows), values) == expected
    assert coeffs_mod._residual({}, values) == coeffs_mod._residual({}, {}) == {}


def test_residual_bounds_hold_for_every_decode(monkeypatch):
    # The relation's residual on its own solution is zero, so c_solve decodes
    # only its fixing rows there; one cell times q breaks rows of both
    # parities, and each of their sums is decoded against its row's bound.
    unpack = coeffs_mod._kunpack
    decodes = []

    def checked(v, low, nb, bound):
        out = unpack(v, low, nb, bound)
        assert bound >= _l1(out), (bound, _l1(out))
        decodes.append(bound)
        return out

    monkeypatch.setattr(coeffs_mod, "_kunpack", checked)
    q = L({1: 1})
    for r in range(1, 9):
        entries = c_solve(r).entries
        rows = coeffs_mod._relation_rows(r, coeffs_mod._normal_forms(r))
        before = len(decodes)
        assert coeffs_mod._residual(rows, {**entries, (0, 1): q * entries[(0, 1)]})
        assert len(decodes) > before, r


def _count_calls(monkeypatch, *names):
    """Count the calls of coeffs' own references to the named functions."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, name=name, fn=getattr(coeffs_mod, name)):
            counts[name] += 1
            return fn(*args)
        monkeypatch.setattr(coeffs_mod, name, counted)
    return counts


def _fixing_rows(rows, known):
    """(row, cell) for each row that fixes a cell, in the order the one-pass solve visits them."""
    fixed, out = set(known), []
    for key in sorted(rows, reverse=True):
        open_cells = set(rows[key]) - fixed
        if len(open_cells) == 1:
            out.append((rows[key], *open_cells))
        fixed |= open_cells
    return out


@pytest.mark.parametrize("r", range(1, 9))
def test_the_solve_decodes_each_normal_form_once_and_packs_no_row(monkeypatch, r):
    # The residual multiplies the packed ints of the normal forms as they
    # are, and no entry is decoded for its norm, so the solve packs only the
    # moves, the unit and the values, each of one parity: the values of each
    # fixing row's rest, then every value once for the proof, on whose
    # solution no row sum decodes.  Each fixing row decodes its pivot (one
    # half) and each nonzero parity half of its rest sum, nothing more.
    forms = coeffs_mod._normal_forms(r)
    moves = sum(len(coeffs_mod._moves(a)) for a in range(2, r + 2))
    fixing = _fixing_rows(coeffs_mod._relation_rows(r, forms), [(0, 0)])
    expected = c_recursive(r)
    values = expected.entries
    assert all(v and len({e & 1 for e in v.num}) == 1 for v in values.values())
    rests = [sum((coeffs_mod._scalar(c) * values[x] for x, c in row.items() if x != cell), ZERO)
             for row, cell in fixing]
    counts = _count_calls(monkeypatch, "_kpack", "_kunpack")
    assert c_solve(r) == expected
    assert counts == {
        "_kunpack": len(fixing) + sum(len({e & 1 for e in rest.num}) for rest in rests),
        "_kpack": moves + 1 + sum(len(row) - 1 for row, _ in fixing) + len(values),
    }


@pytest.mark.parametrize("r", range(1, 7))
def test_the_residual_takes_one_l1_norm_per_distinct_entry(monkeypatch, r):
    # _normal_forms takes only the norms of the moves, each once for all
    # its bound passes, and the rows share the entries between cells, so
    # _residual takes the norms of the values only.
    moves = sum(len(coeffs_mod._moves(a)) for a in range(2, r + 2))
    counts = _count_calls(monkeypatch, "_l1")
    forms = coeffs_mod._normal_forms(r)
    assert counts["_l1"] == moves
    rows = coeffs_mod._relation_rows(r, forms)
    values = c_recursive(r).entries
    counts["_l1"] = 0
    assert coeffs_mod._residual(rows, values) == {}
    assert counts["_l1"] == len(values)


def test_residual_repacks_rows_for_a_value_too_wide_for_the_normal_forms(monkeypatch):
    # One cell times 2^100 needs a wider width than the normal forms'
    # (4 bytes at r = 6), so every coefficient is packed again from its
    # poly dict; the residual is still the plain sum.
    r = 6
    rows = coeffs_mod._relation_rows(r, coeffs_mod._normal_forms(r))
    assert {nb for row in rows.values() for _, _, nb, _ in row.values()} == {4}
    entries = c_solve(r).entries
    values = {**entries, (1, 2): entries[(1, 2)] * 2**100}
    counts = _count_calls(monkeypatch, "_kpack")
    got = coeffs_mod._residual(rows, values)
    assert counts["_kpack"] >= sum(map(len, rows.values()))
    assert got
    assert got == _residual_by_scalars(scalar_rows(rows), values)


@pytest.mark.parametrize("r", range(1, 7))
def test_singleton_substitution_fixes_every_unknown_of_the_relation(r):
    # Down the term order each row of the rank-r cancellation system leaves
    # at most one cell open; a row with two would raise, so equality shows
    # that the one pass finishes.
    assert c_solve(r) == c_from_polynomial(r)


@pytest.mark.parametrize("r", range(1, 9))
def test_no_row_of_the_relation_leaves_two_cells_open_down_the_term_order(r):
    rows = coeffs_mod._relation_rows(r, coeffs_mod._normal_forms(r))
    fixed = {(0, 0)}
    # keys are (normal word code, rho degree): the largest normal word first
    for key in sorted(rows, reverse=True):
        open_cells = set(rows[key]) - fixed
        assert len(open_cells) <= 1, (key, open_cells)
        fixed |= open_cells
    assert fixed == set(cells(r))


@pytest.mark.parametrize("r", range(1, 9))
def test_solve_rows_match_one_kernel_run_per_cell(r):
    # Same keys, same values, and each row's cells in the same order, which
    # fixes the order of the open unknowns in a "not triangular" message.
    rows = coeffs_mod._relation_rows(r, coeffs_mod._normal_forms(r))
    oracle = solve_rows_by_cells(r)
    assert scalar_rows(rows) == oracle
    assert {key: list(row) for key, row in rows.items()} == {key: list(row) for key, row in oracle.items()}


def _mass_bounds(t: int) -> list[dict]:
    """T(a, t, d) for 0 <= a <= t + 1, as one {d: T} per a, from the kernel's moves of I^a J.

    T(a, t, d) = sum over those moves (block, m, e, c) of ||c||_1 T(m, t-1, d-e),
    and T(a, t, d) = [d == 0] for a < 2 or t = 0.
    """
    moves = {a: kernel_moves(a) for a in range(2, t + 2)}

    @functools.cache
    def mass(a, t, d):
        if a < 2 or t == 0:
            return int(d == 0)
        return sum(_l1(c) * mass(m, t - 1, d - e) for (_, m, e), c in moves[a].items() if e <= d)

    return [{d: mass(a, t, d) for d in range((a + t) // 2 + 1) if mass(a, t, d)} for a in range(t + 2)]


@pytest.mark.parametrize("t", range(1, 8))
def test_shared_normal_forms_match_the_kernel(t):
    # Each entry is (l1, nb, halves): halves are the _halves at width 8*nb
    # of the kernel's coefficient, which the residual multiplies as they
    # are, and l1 is the mass bound T(a, t, d) of the rho^d part of N(a, t),
    # which bounds that coefficient's l1 norm.
    forms = coeffs_mod._normal_forms(t)
    bound = _mass_bounds(t)
    assert sorted(forms) == list(range(t + 2))
    for a in range(t + 2):
        nums = {w: {d: coeffs_mod._unhalves(halves, nb, l1) for d, (l1, nb, halves) in coeff.items()}
                for w, coeff in forms[a].items()}
        assert nums == reduce(monomial(a, t, 0)), a
        for w, coeff in forms[a].items():
            for d, (l1, nb, halves) in coeff.items():
                assert l1 == bound[a][d] >= _l1(nums[w][d])
                assert halves == coeffs_mod._halves(nums[w][d], nb)


@pytest.mark.parametrize("r", range(1, 9))
def test_the_mass_bounds_never_widen_the_residual(monkeypatch, r):
    # The entries carry T(a, r, d) in place of their own l1 norms, a coarser
    # bound, yet every packed sum of the solve (its normal forms, each
    # fixing row's rest and the proof) and the residual of the genuine
    # relation run at the normal forms' own width: no coefficient is packed
    # again.
    forms = coeffs_mod._normal_forms(r)
    (nb,) = {w for form in forms.values() for coeff in form.values() for _, w, _ in coeff.values()}
    rows = coeffs_mod._relation_rows(r, forms)
    expected = c_recursive(r)
    widths = set()
    kdot = coeffs_mod._kdot

    def recorded(terms, w):
        widths.add(w)
        return kdot(terms, w)

    monkeypatch.setattr(coeffs_mod, "_kdot", recorded)
    assert coeffs_mod._residual(rows, expected.entries) == {}
    assert widths == {nb}
    assert c_solve(r) == expected
    assert widths == {nb}


def test_normal_forms_hold_no_poly_dict():
    for r in range(1, 7):
        for form in coeffs_mod._normal_forms(r).values():
            for coeff in form.values():
                for l1, nb, halves in coeff.values():
                    assert type(l1) is type(nb) is int and type(halves) is tuple
                    assert [(type(p), type(v), type(low)) for p, (v, low) in halves] == [(int, int, int)]


def test_the_rank_8_solve_peaks_under_6_mb():
    # One packed copy of each normal-form entry: holding its poly dict as
    # well took the tracemalloc peak to 10.8 MB.
    c_solve(3)  # warm the reducer's and the eta tables' caches
    tracemalloc.start()
    try:
        c_solve(8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20, peak


# Poly dicts of both parities, the empty one among them, with coefficients up to 2^80.
poly_dicts = st.dictionaries(
    st.integers(min_value=-8, max_value=8),
    (st.integers(min_value=-9, max_value=9) | st.integers(min_value=-2**80, max_value=2**80))
    .filter(bool),
    max_size=6,
)


@settings(max_examples=150, deadline=None)
@given(poly_dicts, st.sampled_from((1, -1)))
def test_unhalves_inverts_halves_at_every_width(a, s):
    # The slow oracle of the decode path: the poly dict itself, and s * a.
    for nb in range(_kwidth(_l1(a)), 18):
        halves = coeffs_mod._halves(a, nb)
        assert coeffs_mod._unhalves(halves, nb, _l1(a)) == a
        assert coeffs_mod._scalar((s, _l1(a), nb, halves)) == LaurentScalar(a) * s


def _random_word(rng, n):
    return word(rng.choice("IJ") for _ in range(n))


@pytest.mark.parametrize("seed", range(5))
def test_appending_i_commutes_with_the_normal_form(seed):
    # NF(X I^k) = NF(X) I^k: a trailing I never completes a factor IIJ.
    rng = random.Random(seed)
    for _ in range(20):
        x = term(_random_word(rng, rng.randint(1, 9)))
        tail = monomial(0, 0, rng.randint(1, 4))
        assert reduce(mul(x, tail)) == mul(reduce(x), tail)


@pytest.mark.parametrize("seed", range(5))
def test_a_block_before_a_normal_word_is_normal(seed):
    # IJ w and J w are normal for normal w: both blocks end in J, so no
    # factor IIJ crosses the seam.
    rng = random.Random(seed)
    normal = [w for w in (_random_word(rng, rng.randint(0, 10)) for _ in range(200))
              if not redex_positions(w)]
    assert len(normal) >= 20
    for w in normal:
        for block in (word("IJ"), word("J")):
            bw = term(concat(block, w))
            assert not redex_positions(concat(block, w))
            assert reduce(bw) == bw


def test_solve_reads_nothing_of_the_recursive_pipeline(monkeypatch):
    def refuse(*args):
        raise AssertionError("c_solve read the recursive pipeline")

    expected = c_closed(6)
    for name in ("eta_table", "_eta_row", "c_recursive"):
        monkeypatch.setattr(coeffs_mod, name, refuse)
    assert c_solve(6) == expected


def test_solve_runs_nothing_of_the_rewriter(monkeypatch):
    # The moves come from their recurrence, so the rewriter that verify
    # runs is a second, independent computation of the same normal forms.
    def refuse(*args):
        raise AssertionError("c_solve ran the rewriter")

    expected = c_closed(6)
    monkeypatch.setattr(reducer_mod, "reduce_with_stats", refuse)
    monkeypatch.setattr(_kernel_py, "reduce_packed", refuse)
    assert c_solve(6) == expected
    probe = ("import sys, qonsager.coeffs; "
             "print(sorted({'qonsager.reducer', 'qonsager._kernel_py'} & set(sys.modules)))")
    src = str(Path(coeffs_mod.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={"PATH": "/usr/bin:/bin", "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_moves_follow_the_kernel_and_the_slow_reducer():
    # The recurrence against the rewrite kernel, and (shorter, as it is
    # slower) against the randomized-order reducer, which shares no code
    # with the kernel.
    for a in range(2, 42):
        moves = {(block, m, d): c for block, m, d, c in coeffs_mod._moves(a)}
        assert moves == kernel_moves(a), a
        if a <= 25:
            assert moves == moves_of(reduce_randomized(monomial(a, 1, 0), random.Random(a))), a


@pytest.mark.parametrize("a, i", [(2, i) for i in range(3)] + [(3, i) for i in range(4)])
def test_a_perturbed_move_makes_the_system_inconsistent(a, i, monkeypatch):
    # One move scaled by q^2 (scaling by q would mix exponent parities,
    # which the packed sum refuses first): some row that fixes no unknown
    # must then fail its check.
    honest = coeffs_mod._moves

    def perturbed(m):
        moves = honest(m)
        if m == a:
            block, n, d, c = moves[i]
            moves[i] = (block, n, d, {e + 2: v for e, v in c.items()})
        return moves

    monkeypatch.setattr(coeffs_mod, "_moves", perturbed)
    with pytest.raises(CoefficientSystemError, match="inconsistent system"):
        c_solve(6)


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
    monkeypatch.setattr(coeffs_mod, "_recursive_chain", coeffs_mod._recursive_chain[:1])
    tables = [c_recursive(r) for r in range(1, 15)]
    assert steps == list(range(1, 15))
    assert tables[-1] == c_from_polynomial(14)


def test_next_table_reads_strictly():
    # The step to rank 5 reads eta row 6; a table that stops at row 5 must
    # raise instead of reading the missing entries as zero.
    prev = coeffs_mod._recursive_cells(4)
    with pytest.raises(KeyError) as caught:
        coeffs_mod._next_table(5, prev, eta_table(5))
    assert caught.value.args[0][0] == 6
    assert coeffs_mod._next_table(5, prev, eta_table(6)) == coeffs_mod._recursive_cells(5)


def _step_entries(step):
    """The entries of a step's (nb, packed, norms), each norm checked to be exact."""
    nb, packed, norms = step
    entries = {cell: LaurentScalar._raw(_kunpack(v, low, nb, norms[cell]))
               for cell, (v, low) in packed.items()}
    assert norms == {cell: _l1(v.num) for cell, v in entries.items()}
    return entries


def _step_cells(entries):
    """The (nb, packed, norms) of entries, at the least width that holds them."""
    norms = {cell: _l1(v.num) for cell, v in entries.items()}
    nb = _kwidth(max(norms.values()))
    return nb, {cell: _kpack(v.num, nb) for cell, v in entries.items()}, norms


@pytest.mark.parametrize("scaled", [False, True], ids=["genuine", "scaled"])
@pytest.mark.parametrize("r", range(1, 13))
def test_next_table_matches_the_four_case_step(r, scaled):
    # Scaling each prev entry by a nonzero integer keeps its exponent parity
    # but leaves the fixed point, so the rule itself is compared.
    prev = _step_entries(coeffs_mod._recursive_cells(r - 1))
    if scaled:
        rng = random.Random(r)
        prev = {cell: v * rng.choice((-3, -2, -1, 2, 3, 5)) for cell, v in prev.items()}
    eta = eta_table(r + 1)
    got = coeffs_mod._next_table(r, _step_cells(prev), eta)
    assert _step_entries(got) == next_table_by_cases(r, prev, eta)


def test_packed_bounds_hold_for_every_decode(monkeypatch):
    # Every packed decode in the four pipelines is given an l1 bound of the
    # sum it decodes; an under-estimate could alias silently once the
    # byte-rounded width runs out of slack.  A packed table decodes its
    # cells only when its entries are read, so each table's are; the
    # recursive chain also decodes each new cell for its exact norm.  The
    # solve's decodes are the pivots and the rest sums of its fixing rows.
    unpack = coeffs_mod._kunpack
    decodes = []

    def checked(v, low, nb, bound):
        out = unpack(v, low, nb, bound)
        assert bound >= _l1(out), (bound, _l1(out))
        decodes.append(bound)
        return out

    monkeypatch.setattr(coeffs_mod, "_kunpack", checked)
    monkeypatch.setattr(coeffs_mod, "_recursive_chain", coeffs_mod._recursive_chain[:1])
    for r in range(1, 17):
        pipelines = (c_recursive, c_closed, c_from_polynomial) + ((c_solve,) if r <= 9 else ())
        for pipeline in pipelines:
            before = len(decodes)
            pipeline(r).entries
            assert len(decodes) > before, (pipeline.__name__, r)


def test_closed_bound_scales_with_its_binomials(monkeypatch):
    # Every closed cell is linear in its binomials, so scaling each binomial
    # by 2^64 scales the table by 2^64.  The unscaled values sit far below
    # the bound (at least 1.75 times under it at r <= 32), so only operands
    # this large show a bound that drops its binomial sum: the values then
    # outgrow the packed width and the decode aliases.
    unscaled = {r: c_closed(r) for r in range(1, 13)}
    scaled_comb = SimpleNamespace(comb=lambda n, m: math.comb(n, m) << 64, prod=math.prod)
    monkeypatch.setattr(coeffs_mod, "math", scaled_comb)
    for r, table in unscaled.items():
        expected = {cell: {e: c << 64 for e, c in v.num.items()} for cell, v in table.entries.items()}
        assert {cell: v.num for cell, v in c_closed(r).entries.items()} == expected, r


# ---------------------------------------------------------------------------
# packed tables: equality against the decoded entries
# ---------------------------------------------------------------------------


def _agrees(a, b):
    """a == b, both ways, checked against the comparison of their decoded entries."""
    got = a == b
    assert (b == a) == got
    # reading the entries hands them out, after which the tables compare by them
    assert (a.entries == b.entries) == got
    return got


def test_packed_equality_agrees_with_the_entries_on_every_pipeline_pair():
    # The widths differ at r = 3, 6, 11 and 18-20, and slots are wider than
    # 8 bytes from r = 18 on, so every kind of widening is compared.
    pipelines = (c_recursive, c_closed, c_from_polynomial)
    widths = {}
    for r in range(1, 21):
        widths[r] = [pipeline(r).nb for pipeline in pipelines]
        for first, second in itertools.combinations(pipelines, 2):
            assert _agrees(first(r), second(r)), (r, first.__name__, second.__name__)
    assert {r for r, w in widths.items() if len(set(w)) > 1} == {3, 6, 11, 18, 19, 20}
    assert max(widths[17]) == 8 < max(widths[18])


@pytest.mark.parametrize("r", range(1, 8))
def test_packed_equality_agrees_with_the_entries_on_every_q_mutation(r):
    # One cell times q has the other exponent parity.  Decoded
    # (perturbed_table) that cell cannot be packed at the other table's
    # width; packed (its low plus one) it differs in its low alone.
    nb, packed, norms = coeffs_mod._recursive_cells(r)
    for cell in cells(r):
        shifted = {c: (v, low + (c == cell)) for c, (v, low) in packed.items()}
        for genuine in (c_recursive, c_closed, c_from_polynomial):
            assert not _agrees(genuine(r), perturbed_table(c_recursive(r), *cell))
            assert not _agrees(genuine(r), CoeffTable._from_packed(r, nb, shifted, norms, "mutant"))


def test_a_packed_cell_whose_lowest_slot_cancelled_equals_its_entry():
    # [2] = q + q^-1 summed as (q^-3 + q^-1) - q^-3 + q: the packed sum keeps
    # the low -3 of its cancelled products, one zero slot below q^-1.
    one = _kpack({0: 1}, 1)
    two = coeffs_mod._kdot([(1, _kpack({-3: 1, -1: 1}, 1), one), (-1, _kpack({-3: 1}, 1), one),
                            (1, _kpack({1: 1}, 1), one)], 1)
    assert two == (_kpack(TWO.num, 1)[0] << 8, -3)
    packed = {(0, 0): one, (0, 1): two, (0, 2): one, (1, 0): one}

    def cancelled():
        return CoeffTable._from_packed(1, 1, packed, dict.fromkeys(packed, 2), "cancelled")

    assert _agrees(cancelled(), c_recursive(1))
    assert _agrees(cancelled(), fixture_table(1))
    assert _agrees(cancelled(), c_closed(1))


@pytest.mark.parametrize("value", [{0: 128}, {0: -128}, {0: 200, 2: -1}, {0: -56, 1: 1}],
                         ids=["2^(B-1)", "-2^(B-1)", "alias", "both-parities"])
def test_a_decoded_cell_that_does_not_pack_at_the_slot_compares_unequal(value):
    # At nb = 1, 2^(B-1) = 128 is the least coefficient whose balanced digit
    # is not itself, and 200 q^0 - q^2 packs as -56 q^0 would: the decoded
    # table must compare unequal to the packed one, not alias it.  A cell
    # with exponents of both parities does not pack at all.
    packed = {cell: _kpack({0: 1}, 1) for cell in cells(1)}
    packed[(1, 0)] = _kpack({0: -56}, 1)

    def table():
        return CoeffTable._from_packed(1, 1, packed, dict.fromkeys(packed, 56), "packed")

    entries = {cell: ONE for cell in cells(1)}
    assert _agrees(table(), CoeffTable(1, {**entries, (1, 0): L({0: -56})}))
    assert not _agrees(table(), CoeffTable(1, {**entries, (1, 0): L(value)}))


def test_a_table_whose_entries_were_handed_out_compares_by_them():
    table, genuine = c_closed(4), c_recursive(4)
    table.entries[(1, 1)] += ONE
    assert not _agrees(table, genuine)
    table.entries[(1, 1)] = genuine.entry(1, 1)
    assert _agrees(table, genuine)
    table.entries.pop((1, 1))
    assert not _agrees(table, c_recursive(4))


def test_a_packed_bound_at_or_past_its_slot_raises():
    # As a decode against that bound would: its digits could alias.
    packed = {cell: (1, 0) for cell in cells(1)}
    for nb, top in ((1, 127), (2, 2**15 - 1)):
        CoeffTable._from_packed(1, nb, packed, dict.fromkeys(packed, top), "fits")
        with pytest.raises(OverflowError, match=f"{8 * nb}-bit slot"):
            bounds = {**dict.fromkeys(packed, 1), (1, 0): top + 1}
            CoeffTable._from_packed(1, nb, packed, bounds, "wide")


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
