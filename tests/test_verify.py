"""Tests for relation building and symbolic verification."""

import json
import random

import pytest
from coefficients import rho
from slow_reducer import reduce_randomized

from qonsager import coeffs
from qonsager.coeffs import CoeffTable, c_closed, c_recursive, cells
from qonsager.freealg import word_from_exponents
from qonsager.qcoeff import ZERO, q_binomial, q_int
from qonsager.reducer import reduce, reduce_with_stats
from qonsager.verify import (
    build_delta,
    perturbed_table,
    verify_relation,
)

TWO = q_int(2)

# Committed peak-term baselines of reduce(delta_r); the regression guard
# allows at most a 2x excursion.
PEAK_BASELINE = {1: 4, 2: 9, 3: 26, 4: 79, 5: 225, 6: 609}


def test_build_delta_rank_one_is_the_defining_relation():
    table = c_recursive(1)
    delta = build_delta(1, table)
    expected = {
        word_from_exponents(2, 1, 0): rho(1),
        word_from_exponents(1, 1, 1): rho(-TWO),
        word_from_exponents(0, 1, 2): rho(1),
        word_from_exponents(0, 1, 0): rho(0, -1),
    }
    assert delta == expected


def test_build_delta_rank_two_term_count():
    # Admissible (p, k) pairs at r=2: four at p=0 plus two at p=1, and the
    # corresponding words are pairwise distinct.
    table = c_recursive(2)
    delta = build_delta(2, table)
    pairs = list(cells(2))
    assert len(pairs) == 6
    assert len(delta) == 6


def test_build_delta_rho_zero_matches_qserre_binomials():
    r = 4
    table = c_recursive(r)
    delta = build_delta(r, table, rho_zero=True)
    expected = {
        word_from_exponents(r + 1 - k, r, k): rho((-1) ** k * q_binomial(r + 1, k))
        for k in range(0, r + 2)
    }
    assert delta == expected


def test_build_delta_rejects_rank_mismatch():
    with pytest.raises(ValueError):
        build_delta(3, c_recursive(2))


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_verify_relation_zero_fast_ranks(r):
    cert = verify_relation(r)
    assert cert.zero
    assert cert.residual_terms == 0
    assert cert.term_count_peak <= 2 * PEAK_BASELINE[r]


def test_verify_relation_rank_five_with_closed_table():
    cert = verify_relation(5, table=c_closed(5))
    assert cert.zero
    assert cert.table_source == "closed"
    assert cert.term_count_peak <= 2 * PEAK_BASELINE[5]


@pytest.mark.parametrize(
    "r, rho_zero, mutate, stats, residual",
    [
        (5, False, None, (225, 1736, 25), 0),
        (6, False, None, (609, 7126, 36), 0),
        (7, False, None, (1608, 26503, 49), 0),
        (7, True, None, (837, 14301, 49), 0),
        (8, False, None, (4135, 90926, 64), 0),
        (8, True, None, (2053, 45676, 64), 0),
        (7, False, (1, 2), (1608, 26503, 49), 85),
    ],
    ids=["r5", "r6", "r7", "r7-rho-zero", "r8", "r8-rho-zero", "r7-mutate1,2"],
)
def test_reduction_stats_are_pinned(r, rho_zero, mutate, stats, residual):
    # (peak_terms, steps, passes) as the dict-of-exponents kernel counted
    # them: verify's JSON prints peak_terms, so it must not move with the
    # kernel.  A change of the pass schedule or of the zero-drop rule moves them.
    table = c_recursive(r)
    if mutate is not None:
        table = perturbed_table(table, *mutate)
    delta = build_delta(r, table, rho_zero=rho_zero)
    nf, got = reduce_with_stats(delta, rho_zero=rho_zero)
    assert len(nf) == residual
    assert (got.peak_terms, got.steps, got.passes) == stats


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_the_delta_and_its_reduced_form_are_plain_term_dicts(r):
    # {word: {rho degree: poly dict}}, the kernel's own form, equal term for
    # term to the randomized-order oracle on the genuine and a mutated table.
    for table in (c_recursive(r), perturbed_table(c_recursive(r), 0, 1)):
        delta = build_delta(r, table)
        cert = verify_relation(r, table)
        assert type(delta) is dict and type(cert.reduced_form) is dict
        expected = reduce_randomized(delta, random.Random(r))
        assert cert.reduced_form == expected
        assert cert.residual_terms == len(expected) and cert.zero == (not expected)


@pytest.mark.parametrize("cell, rho_zero", [((1, 1), False), ((0, 2), True)])
def test_a_zero_cell_puts_no_word_into_the_delta(cell, rho_zero):
    r, (p, k) = 4, cell
    table = c_recursive(r)
    zeroed = CoeffTable(r, {**table.entries, cell: ZERO}, "zeroed")
    cell_word = word_from_exponents(r - 2 * p + 1 - k, r, k)
    without = {w: c for w, c in build_delta(r, table, rho_zero).items() if w != cell_word}
    assert build_delta(r, zeroed, rho_zero) == without
    cert = verify_relation(r, zeroed, rho_zero)
    nf, stats = reduce_with_stats(without, rho_zero)
    assert not cert.zero
    assert (cert.reduced_form, cert.term_count_peak) == (nf, stats.peak_terms)


def test_mutation_control_nonzero_residual():
    cert = verify_relation(3, table=perturbed_table(c_recursive(3), 1, 1))
    assert not cert.zero
    assert cert.residual_terms > 0


def _residual_by_word(r, table):
    """The packed residual of the rank-r relation, grouped as the kernel's terms
    {word: {rho degree: poly dict}}."""
    rows = coeffs._relation_rows(r, coeffs._normal_forms(r))
    out = {}
    for (w, d), poly in coeffs._residual(rows, table.entries).items():
        out.setdefault(w, {})[d] = poly
    return out


@pytest.mark.parametrize("r", range(1, 9))
def test_the_residual_of_the_relation_is_zero(r):
    assert _residual_by_word(r, c_recursive(r)) == {}


@pytest.mark.parametrize(
    "r, p, k",
    [(r, p, k) for r in range(1, 6) for (p, k) in cells(r)] + [(8, 0, 1), (8, 1, 2)],
)
def test_the_residual_equals_the_kernel_term_for_term(r, p, k):
    # Each mutation multiplies one entry by q, which mixes exponent parities.
    table = perturbed_table(c_recursive(r), p, k)
    expected = reduce(build_delta(r, table))
    assert expected
    assert _residual_by_word(r, table) == expected


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_verify_qserre_zero(r):
    cert = verify_relation(r, rho_zero=True)
    assert cert.zero


def test_qserre_binomial_row():
    for r in range(1, 9):
        table = c_recursive(r)
        for k in range(0, r + 2):
            assert table.entry(0, k) == q_binomial(r + 1, k)


def test_certificate_json_schema():
    cert = verify_relation(2)
    obj = json.loads(json.dumps(cert.to_json_obj()))
    assert set(obj) == {"r", "pipeline", "zero", "residual_terms", "peak_terms", "ms"}
    assert obj["r"] == 2
    assert obj["zero"] is True
    assert obj["residual_terms"] == 0
    assert isinstance(obj["peak_terms"], int)
    assert isinstance(obj["ms"], int)


def test_certificates_for_all_pipelines_rank_three():
    for name in ("recursive", "closed", "polynomial", "solve"):
        cert = verify_relation(3, pipeline=name)
        assert cert.zero
        assert cert.table_source == name
