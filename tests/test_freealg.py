"""Tests for the two-generator free algebra."""

import random

import pytest

from coefficients import rho

from qonsager.freealg import (
    AI,
    AJ,
    ONE,
    NCPolynomial,
    concat,
    letters,
    monomial,
    word,
    word_from_exponents,
)
from qonsager.qcoeff import q_int

W = word


def test_word_round_trip_and_degrees():
    w = W("IIJIJ")
    assert letters(w) == "IIJIJ"
    assert w == 0b111010
    assert letters(W("")) == ""
    assert W("") == 1
    assert word_from_exponents(2, 1, 3) == W("IIJIII")
    with pytest.raises(ValueError):
        word_from_exponents(0, -1, 0)


def test_word_concatenation():
    assert concat(W("IIJ"), W("JI")) == W("IIJJI")
    assert concat(W(""), W("IJ")) == W("IJ")
    assert concat(W("IJ"), W("")) == W("IJ")


def test_word_order_is_graded_lex_with_i_above_j():
    # length dominates
    assert W("JJ") > W("I")
    # equal length: lexicographic with I > J
    assert W("IIJ") > W("IJI") > W("JII")
    assert W("IJ") > W("JI")
    assert max([W("JII"), W("IIJ"), W("IJI")]) == W("IIJ")


def test_word_rejects_bad_letters():
    with pytest.raises(ValueError):
        W("IXJ")


def test_terms_are_keyed_by_word_codes():
    for bad in (0, -3, "IJ", 1.0, None):
        with pytest.raises(ValueError):
            NCPolynomial({bad: {0: {0: 1}}})
    assert NCPolynomial({W(""): {0: {0: 1}}}) == ONE


def test_nc_multiply_examples():
    assert AI * AJ == NCPolynomial.from_word(W("IJ"))
    x = monomial(2, 1, 1)
    assert ONE * x == x
    prod = (AI + AJ) * (AI - AJ)
    expected = (
        NCPolynomial.from_word(W("II"))
        - NCPolynomial.from_word(W("IJ"))
        + NCPolynomial.from_word(W("JI"))
        - NCPolynomial.from_word(W("JJ"))
    )
    assert prod == expected


def test_monomial_examples():
    assert monomial(3, 2, 0) == NCPolynomial.from_word(W("IIIJJ"))
    assert monomial(0, 0, 0) == ONE
    assert monomial(2, 1, 1) == NCPolynomial.from_word(W("IIJI"))
    with pytest.raises(ValueError):
        monomial(-1, 0, 0)


def _random_poly(rng, max_terms=4, max_len=5):
    out = NCPolynomial.zero()
    for _ in range(rng.randint(1, max_terms)):
        w = W("".join(rng.choice("IJ") for _ in range(rng.randint(0, max_len))))
        coeff = rho(q_int(rng.randint(0, 3)), q_int(rng.randint(0, 2)))
        out = out + NCPolynomial.from_word(w, coeff)
    return out


def test_associativity_on_random_triples():
    rng = random.Random(11)
    for _ in range(40):
        a, b, c = (_random_poly(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_zero_coefficients_never_stored():
    p = AI - AI
    assert p.is_zero
    assert p.terms == {}
    assert NCPolynomial({W("IJ"): {}}).is_zero
    assert NCPolynomial({W("IJ"): {0: {}, 1: {0: 1}}}).terms == {W("IJ"): {1: {0: 1}}}
    assert (AI * {}).is_zero


def test_zero_integers_inside_a_q_polynomial_are_dropped():
    assert NCPolynomial({W("IIJ"): {0: {0: 0}}}).is_zero
    assert NCPolynomial({W("IIJ"): {0: {0: 0}}}) == NCPolynomial.zero()
    assert NCPolynomial({W("IJ"): {0: {0: 0, 1: 2}}}).terms == {W("IJ"): {0: {1: 2}}}


def test_rendering():
    assert str(NCPolynomial.zero()) == "0"
    p = AI * AJ * AI + AJ * rho(0, 1)
    # Terms in descending graded lex order.
    assert str(p) == "((1))·Ai·Aj·Ai + ((1)*rho)·Aj"
    assert str(ONE) == "((1))"
