"""Tests for the rewriting engine: examples, properties, strategy independence."""

import random

import pytest

from qonsager.freealg import AI, AJ, NCPolynomial, Word, monomial
from qonsager.qcoeff import ONE, RHO, LaurentScalar, RhoScalar, q_int
from qonsager.reducer import (
    Q_OFFSET,
    redex_positions,
    reduce,
    reduce_randomized,
    reduce_with_stats,
    rewrite_at,
)


def W(letters):
    return Word.from_letters(letters)


def word_poly(letters, coeff=1):
    return NCPolynomial.from_word(W(letters), coeff)


TWO = q_int(2)
# The ordering rule IIJ -> [2]_q IJI - JII + rho J, and its rho-zero truncation.
RULE = word_poly("IJI", TWO) - word_poly("JII") + word_poly("J", RHO)
RULE_RHO_ZERO = word_poly("IJI", TWO) - word_poly("JII")


def test_rule_shape():
    assert redex_positions(W("IIJ")) == [0]
    assert rewrite_at(W("IIJ"), 0) == RULE
    assert rewrite_at(W("IIJ"), 0, rho_zero=True) == RULE_RHO_ZERO


def test_reduce_iij_matches_rule():
    assert reduce(word_poly("IIJ")) == RULE


def test_reduce_iiij_matches_displayed_expansion():
    # A_i^3 A_j = ([2]^2 - 1) A_i A_j A_i^2 - [2] A_j A_i^3
    #             + rho ([2] A_j A_i + A_i A_j)
    got = reduce(word_poly("IIIJ"))
    expected = (
        word_poly("IJII", TWO * TWO - ONE)
        - word_poly("JIII", TWO)
        + word_poly("JI", RHO * TWO)
        + word_poly("IJ", RHO)
    )
    assert got == expected


def test_reduce_leaves_normal_words_alone():
    p = word_poly("IJIJI")
    nf, stats = reduce_with_stats(p)
    assert nf == p
    assert stats.steps == 0


def test_soundness_at_r_one():
    # The left side of the defining relation reduces to zero.
    delta1 = (
        word_poly("IIJ")
        - word_poly("IJI", TWO)
        + word_poly("JII")
        - word_poly("J", RHO)
    )
    assert reduce(delta1).is_zero


def test_rho_zero_mode_truncates_rule():
    assert reduce(word_poly("IIJ"), rho_zero=True) == RULE_RHO_ZERO


def _random_word(rng, max_len=10):
    return W("".join(rng.choice("IJ") for _ in range(rng.randint(0, max_len))))


def _random_scalar(rng):
    num = {rng.randint(-3, 3): rng.randint(-4, 4) for _ in range(rng.randint(1, 3))}
    den = {0: 1} if rng.random() < 0.6 else {rng.randint(0, 2): 1, 0: rng.randint(1, 3)}
    s = LaurentScalar(num, den)
    return RhoScalar((s,)) if rng.random() < 0.7 else RhoScalar((s, s + 1))


def test_replacement_words_strictly_below_redex():
    # Per-step multiset decrease: each replacement word sits strictly below
    # the rewritten word in graded lex with I > J.
    rng = random.Random(3)
    for _ in range(200):
        w = _random_word(rng, 12)
        for pos in redex_positions(w):
            for produced in rewrite_at(w, pos).terms:
                assert produced < w


def test_idempotence_and_shape():
    rng = random.Random(7)
    for _ in range(60):
        p = NCPolynomial({_random_word(rng): _random_scalar(rng)})
        nf = reduce(p)
        assert reduce(nf) == nf
        for w in nf.terms:
            assert redex_positions(w) == []


def test_linearity():
    rng = random.Random(13)
    for _ in range(30):
        x = NCPolynomial({_random_word(rng): _random_scalar(rng) for _ in range(2)})
        y = NCPolynomial({_random_word(rng): _random_scalar(rng) for _ in range(2)})
        a = _random_scalar(rng)
        b = _random_scalar(rng)
        left = reduce(x * a + y * b)
        right = reduce(x) * a + reduce(y) * b
        assert left == right


def test_randomized_strategy_agrees_with_kernel():
    rng = random.Random(23)
    for trial in range(40):
        p = NCPolynomial({_random_word(rng, 11): _random_scalar(rng) for _ in range(2)})
        expected = reduce(p)
        strategy_rng = random.Random(1000 + trial)
        assert reduce_randomized(p, strategy_rng) == expected
        assert reduce_randomized(p, strategy_rng, rho_zero=True) == reduce(p, rho_zero=True)


def test_randomized_steps_decrease_measure():
    rng = random.Random(31)
    seen_steps = 0

    def check(redex, produced):
        nonlocal seen_steps
        seen_steps += 1
        for w in produced:
            assert w < redex

    for _ in range(20):
        p = NCPolynomial({_random_word(rng, 10): RhoScalar((ONE,))})
        reduce_randomized(p, rng, on_step=check)
    assert seen_steps > 0


def test_rewrite_leftmost_none_for_normal():
    assert redex_positions(W("JJII")) == []
    with pytest.raises(ValueError):
        rewrite_at(W("JJII"), 0)  # a normal word has no redex to rewrite
    assert rewrite_at(W("IIJ"), redex_positions(W("IIJ"))[0]) == RULE


def test_rational_coefficients_cleared_and_restored():
    half = RhoScalar((LaurentScalar({0: 1}, {1: 1, -1: 1}),))  # 1/[2]_q
    p = NCPolynomial({W("IIJ"): half})
    nf = reduce(p)
    expected = RULE * half
    assert nf == expected


def test_stats_reported():
    delta = monomial(3, 1, 0)
    nf, stats = reduce_with_stats(delta)
    assert stats.steps >= 2
    assert stats.passes >= 1
    assert stats.peak_terms >= len(nf.terms)
    assert stats.backend == "python"


def test_reduce_respects_product_congruence():
    # reduce(x*y) == reduce(reduce(x)*reduce(y)) for random small inputs.
    rng = random.Random(41)
    for _ in range(20):
        x = NCPolynomial({_random_word(rng, 6): _random_scalar(rng)})
        y = NCPolynomial({_random_word(rng, 6): _random_scalar(rng)})
        assert reduce(x * y) == reduce(reduce(x) * reduce(y))


def test_unit_and_generators_are_normal():
    assert reduce(AI) == AI
    assert reduce(AJ) == AJ
    one = monomial(0, 0, 0)
    assert reduce(one) == one


def test_q_exponents_outside_the_packed_range_are_rejected():
    # Unguarded, these alias: q^(2^26) J came back as rho J and
    # q^-(2^24+1) J as 0.
    for e in (1 << 26, -((1 << 24) + 1)):
        with pytest.raises(ValueError, match="packed range"):
            reduce(word_poly("J", LaurentScalar.q_power(e)))
    # The bound widens by len(word)^2/4, the most a chain of steps can shift.
    top = LaurentScalar.q_power(Q_OFFSET - 1)
    assert reduce(word_poly("J", top)) == word_poly("J", top)
    with pytest.raises(ValueError, match="packed range"):
        reduce(word_poly("IIJ", top))
    edge = LaurentScalar.q_power(Q_OFFSET - 3)
    assert reduce(word_poly("IIJ", edge)) == RULE * RhoScalar((edge,))
