"""Tests for the free algebra's word codec, and for the ring on its term
dicts that the tests keep for their oracles (``free_ring``)."""

import random

import pytest

from coefficients import rho
from free_ring import add, element, letters, monomial, mul, scale, term, word

from qonsager.freealg import concat, word_from_exponents
from qonsager.qcoeff import q_int

W = word
ONE, AI, AJ = term(W("")), term(W("I")), term(W("J"))


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
            element({bad: {0: {0: 1}}})
    assert element({W(""): {0: {0: 1}}}) == ONE


def test_nc_multiply_examples():
    assert mul(AI, AJ) == term(W("IJ"))
    x = monomial(2, 1, 1)
    assert mul(ONE, x) == x
    prod = mul(add(AI, AJ), add(AI, term(W("J"), rho(-1))))
    assert prod == {W("II"): rho(1), W("IJ"): rho(-1), W("JI"): rho(1), W("JJ"): rho(-1)}


def test_monomial_examples():
    assert monomial(3, 2, 0) == term(W("IIIJJ"))
    assert monomial(0, 0, 0) == ONE
    assert monomial(2, 1, 1) == term(W("IIJI"))
    with pytest.raises(ValueError):
        monomial(-1, 0, 0)


def _random_poly(rng, max_terms=4, max_len=5):
    out = {}
    for _ in range(rng.randint(1, max_terms)):
        w = W("".join(rng.choice("IJ") for _ in range(rng.randint(0, max_len))))
        coeff = rho(q_int(rng.randint(0, 3)), q_int(rng.randint(0, 2)))
        out = add(out, term(w, coeff))
    return out


def test_associativity_on_random_triples():
    rng = random.Random(11)
    for _ in range(40):
        a, b, c = (_random_poly(rng) for _ in range(3))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))


def test_zero_coefficients_never_stored():
    assert add(AI, term(W("I"), rho(-1))) == {}
    assert element({W("IJ"): {}}) == {}
    assert element({W("IJ"): {0: {}, 1: {0: 1}}}) == {W("IJ"): {1: {0: 1}}}
    assert scale(AI, {}) == {}


def test_zero_integers_inside_a_q_polynomial_are_dropped():
    assert element({W("IIJ"): {0: {0: 0}}}) == {}
    assert element({W("IJ"): {0: {0: 0, 1: 2}}}) == {W("IJ"): {0: {1: 2}}}
