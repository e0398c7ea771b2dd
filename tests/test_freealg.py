"""Tests for the two-generator free algebra."""

import random

import pytest

from coefficients import rho

from qonsager.freealg import AI, AJ, EMPTY_WORD, ONE, NCPolynomial, Word, monomial
from qonsager.qcoeff import q_int


def W(letters):
    return Word.from_letters(letters)


def test_word_round_trip_and_degrees():
    w = W("IIJIJ")
    assert w.letters == "IIJIJ"
    assert len(w) == 5
    assert len(EMPTY_WORD) == 0


def test_word_concatenation():
    assert W("IIJ") * W("JI") == W("IIJJI")
    assert EMPTY_WORD * W("IJ") == W("IJ")
    assert W("IJ") * EMPTY_WORD == W("IJ")


def test_word_order_is_graded_lex_with_i_above_j():
    # length dominates
    assert W("JJ") > W("I")
    # equal length: lexicographic with I > J
    assert W("IIJ") > W("IJI") > W("JII")
    assert W("IJ") > W("JI")
    assert max([W("JII"), W("IIJ"), W("IJI")]) == W("IIJ")


def test_word_rejects_bad_letters():
    with pytest.raises(ValueError):
        Word.from_letters("IXJ")


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
