"""Tests for the rewriting engine: examples, properties, strategy independence,
and the packed kernel against the randomized-order oracle, the pass-schedule
oracle for its counters, and its exactness proof."""

import copy
import random
import time

import pytest

from coefficients import rho
from free_ring import UNIT, add, element, letters, monomial, mul, scale, term, word

from qonsager import _kernel_py
from qonsager.coeffs import c_recursive, cells
from qonsager.qcoeff import ONE, ZERO, LaurentScalar, q_int
from qonsager.reducer import reduce, reduce_with_stats
from qonsager.verify import build_delta, perturbed_table
from slow_reducer import _rewrite_codes, redex_positions, reduce_by_passes, reduce_randomized


W = word


def word_poly(spelling, coeff=UNIT):
    return term(W(spelling), coeff)


TWO = q_int(2)
# The ordering rule IIJ -> [2]_q IJI - JII + rho J, and its rho-zero truncation.
RULE = {W("IJI"): rho(TWO), W("JII"): rho(-1), W("J"): rho(0, 1)}
RULE_TRUNCATED = {W("IJI"): rho(TWO), W("JII"): rho(-1)}


def test_rule_shape():
    assert redex_positions(W("IIJ")) == [0]
    assert redex_positions(W("JJII")) == []
    assert _rewrite_codes(W("IIJ"), 0) == (W("IJI"), W("JII"), W("J"))


def test_reduce_iij_matches_rule():
    assert reduce(word_poly("IIJ")) == RULE


def test_reduce_iiij_matches_displayed_expansion():
    # A_i^3 A_j = ([2]^2 - 1) A_i A_j A_i^2 - [2] A_j A_i^3
    #             + rho ([2] A_j A_i + A_i A_j)
    got = reduce(word_poly("IIIJ"))
    expected = {
        W("IJII"): rho(TWO * TWO - ONE),
        W("JIII"): rho(-TWO),
        W("JI"): rho(0, TWO),
        W("IJ"): rho(0, 1),
    }
    assert got == expected


def test_reduce_leaves_normal_words_alone():
    p = word_poly("IJIJI")
    nf, stats = reduce_with_stats(p)
    assert nf == p
    assert stats.steps == 0


def test_soundness_at_r_one():
    # The left side of the defining relation reduces to zero.
    delta1 = {W("IIJ"): rho(1), W("IJI"): rho(-TWO), W("JII"): rho(1), W("J"): rho(0, -1)}
    assert reduce(delta1) == {}


def test_rho_zero_mode_truncates_rule():
    assert reduce(word_poly("IIJ"), rho_zero=True) == RULE_TRUNCATED


def _random_word(rng, max_len=10):
    return W("".join(rng.choice("IJ") for _ in range(rng.randint(0, max_len))))


def _random_scalar(rng):
    s = LaurentScalar({rng.randint(-3, 3): rng.randint(-4, 4) for _ in range(rng.randint(1, 3))})
    return rho(s) if rng.random() < 0.7 else rho(s, s + 1)


def test_replacement_words_strictly_below_redex():
    # Per-step multiset decrease: each replacement word sits strictly below
    # the rewritten word in graded lex with I > J.  The replacement words are
    # those of the rule, spliced in at the redex.
    rng = random.Random(3)
    for _ in range(200):
        w = _random_word(rng, 12)
        for pos in redex_positions(w):
            produced = _rewrite_codes(w, pos)
            head, tail = letters(w)[:pos], letters(w)[pos + 3:]
            assert [letters(u) for u in produced] == [head + x + tail for x in ("IJI", "JII", "J")]
            for u in produced:
                assert u < w


def test_idempotence_and_shape():
    rng = random.Random(7)
    for _ in range(60):
        p = element({_random_word(rng): _random_scalar(rng)})
        nf = reduce(p)
        assert reduce(nf) == nf
        for w in nf:
            assert redex_positions(w) == []


def test_linearity():
    rng = random.Random(13)
    for _ in range(30):
        x = element({_random_word(rng): _random_scalar(rng) for _ in range(2)})
        y = element({_random_word(rng): _random_scalar(rng) for _ in range(2)})
        a = _random_scalar(rng)
        b = _random_scalar(rng)
        left = reduce(add(scale(x, a), scale(y, b)))
        right = add(scale(reduce(x), a), scale(reduce(y), b))
        assert left == right


def test_randomized_strategy_agrees_with_kernel():
    rng = random.Random(23)
    for trial in range(40):
        p = element({_random_word(rng, 11): _random_scalar(rng) for _ in range(2)})
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
        p = term(_random_word(rng, 10))
        reduce_randomized(p, rng, on_step=check)
    assert seen_steps > 0


def test_stats_reported():
    delta = monomial(3, 1, 0)
    nf, stats = reduce_with_stats(delta)
    assert stats.steps >= 2
    assert stats.passes >= 1
    assert stats.peak_terms >= len(nf)


def test_reduce_respects_product_congruence():
    # reduce(x*y) == reduce(reduce(x)*reduce(y)) for random small inputs.
    rng = random.Random(41)
    for _ in range(20):
        x = element({_random_word(rng, 6): _random_scalar(rng)})
        y = element({_random_word(rng, 6): _random_scalar(rng)})
        assert reduce(mul(x, y)) == reduce(mul(reduce(x), reduce(y)))


def test_unit_and_generators_are_normal():
    for x in (word_poly("I"), word_poly("J"), monomial(0, 0, 0)):
        assert reduce(x) == x


def test_any_q_exponent_reduces_exactly():
    # Exponents past what a fixed-width exponent field would hold, on both
    # sides of zero.
    for e in (1 << 26, -((1 << 24) + 1), 1 << 80):
        c = rho(LaurentScalar.q_power(e))
        for rho_zero, rule in ((False, RULE), (True, RULE_TRUNCATED)):
            assert reduce(word_poly("J", c), rho_zero=rho_zero) == word_poly("J", c), e
            assert reduce(word_poly("IIJ", c), rho_zero=rho_zero) == scale(rule, c), e


def _scalar(num):
    return {0: num}


@pytest.mark.parametrize(
    "num",
    [{0: 1 << 64, 1: -(1 << 64)}, {0: 1 << 64, 1: -1}, {0: 1 << 70}],
    ids=["2^64-2^64q", "2^64-q", "2^70"],
)
def test_large_coefficients_reduce_exactly(num):
    # Coefficients wider than 64 bits; with 64 bits per exponent slot,
    # 2^64 - q would encode to the int 0.
    c = _scalar(num)
    assert reduce(word_poly("J", c)) == word_poly("J", c)
    assert reduce(word_poly("IIJ", c)) == scale(RULE, c)
    assert reduce(word_poly("IIJ", c), rho_zero=True) == scale(RULE_TRUNCATED, c)


def _delta_plus_big_coefficients():
    return add(build_delta(4, c_recursive(4)), word_poly("IIIJ", _scalar({0: 1 << 70, 3: -5})))


def _unproved(lanes, states):
    """The lanes of a run whose largest proved bound reaches 2^(B-1)."""
    return [i for i, ((_, _, width, _), state) in enumerate(zip(lanes, states))
            if max(state.bounds().values()) >> (width - 1)]


@pytest.mark.parametrize("width", [1, 4, 8])
@pytest.mark.parametrize(
    "make, rho_zero",
    [
        (lambda width: build_delta(4, c_recursive(4)), False),  # zeros whose bound reaches 2^B
        (lambda width: build_delta(5, c_recursive(5), rho_zero=True), True),
        (lambda width: word_poly("IIJ", _scalar({0: 1 << 70})), False),  # decode needs 2^(B-1)
        (lambda width: word_poly("JIIJ", _scalar({0: 1 << width, 1: -1})), False),  # two parity lanes
        (lambda width: word_poly("JIIJ", _scalar({0: 1 << width, 2: -1})), False),  # encodes to 0
        (lambda width: _delta_plus_big_coefficients(), False),
    ],
    ids=["delta4", "delta5-rho-zero", "2^70-IIJ", "2^B-q", "2^B-q^2", "delta4+2^70"],
)
def test_too_narrow_start_is_widened_to_the_exact_result(monkeypatch, make, rho_zero, width):
    # Every lane starts at a width too narrow to hold its coefficients; the
    # proof after the run must fail, and the widened rerun must pass it and
    # give the kernel's usual result and counts.
    packed = make(width)
    expected = _kernel_py.reduce_packed(packed, rho_zero)
    runs = []
    real_run = _kernel_py._run

    def counting_run(lanes, rz):
        result = real_run(lanes, rz)
        runs.append(([w for _, _, w, _ in lanes], _unproved(lanes, result[0])))
        return result

    monkeypatch.setattr(_kernel_py, "_run", counting_run)
    narrow = [(wt, base, width, words) for wt, base, _, words in _kernel_py._lanes(packed)]
    assert _kernel_py._reduce_lanes(narrow, rho_zero) == expected
    assert len(runs) == 2  # one failed run, one rerun sized from its bounds
    (_, failed), (widths, proved) = runs
    assert failed and not proved
    assert max(widths) > width


@pytest.mark.parametrize("rho_zero", [False, True])
@pytest.mark.parametrize(
    "make, width",
    [
        (lambda: build_delta(5, perturbed_table(c_recursive(5), 0, 1)), None),  # two parity lanes
        (_delta_plus_big_coefficients, 1),  # too narrow: one failed run, then the rerun
    ],
    ids=["delta5-q(0,1)", "delta4+2^70-narrow"],
)
def test_the_kernel_only_reads_its_input(monkeypatch, make, width, rho_zero):
    # reduce_with_stats hands the kernel the terms themselves, so neither
    # the outer dict nor any coefficient dict may change, through a failed
    # proof and its rerun either.
    x = make()
    before = copy.deepcopy(x)
    runs = []
    real_run, real_lanes = _kernel_py._run, _kernel_py._lanes

    def counting_run(lanes, rz):
        result = real_run(lanes, rz)
        runs.append(bool(_unproved(lanes, result[0])))
        return result

    monkeypatch.setattr(_kernel_py, "_run", counting_run)
    if width is not None:
        monkeypatch.setattr(
            _kernel_py, "_lanes",
            lambda terms: [(wt, base, width, words) for wt, base, _, words in real_lanes(terms)],
        )
    reduce_with_stats(x, rho_zero=rho_zero)
    assert runs == ([False] if width is None else [True, False])
    assert x == before


def test_a_term_that_encodes_to_zero_is_caught():
    # 2^16 - q^2 sits in one parity lane as 2^16 X^s - X^(s+1), which is 0
    # at X = 2^16.  The run cannot see that, but the proof starts from the
    # input's own bound, 2^16 + 1, which does not fit 16 bits.
    (lane,) = _kernel_py._lanes(word_poly("JIIJ", _scalar({0: 1 << 16, 2: -1})))
    weight, base, width, words = lane
    assert width > 16
    narrow = (weight, base, 16, words)
    assert _kernel_py._Lane(words, 16).active == {W("JIIJ"): 0}
    (state,) = _kernel_py._run([narrow], False)[0]
    assert state.bounds()[W("JIIJ")] == (1 << 16) + 1
    assert _unproved([narrow], [state]) == [0]
    assert _unproved([lane], _kernel_py._run([lane], False)[0]) == []


def test_sparse_exponent_span_is_split_into_clusters():
    # Two exponents 2^21 apart: one int spanning both would hold 2^21 slots.
    c = _scalar({1 << 20: 1, -(1 << 20): 1})
    start = time.perf_counter()
    got = reduce(word_poly("IIJ", c))
    assert time.perf_counter() - start < 1.0
    assert got == scale(RULE, c)


def test_lane_base_follows_each_words_own_inversions():
    # One lane of weight 6: IIIJJJ (9 inversions) at q^0 and JJJIIJ (2) at
    # q^-5, both with e - inversions(word) odd.  The base is the least
    # e - inversions(word), here -9, not the least exponent minus the lane's
    # most inversions (-14); a word's slot is (e - inversions(word) - base) / 2.
    x = {W("IIIJJJ"): UNIT, W("JJJIIJ"): _scalar({-5: 1})}
    ((_, base, _, words),) = _kernel_py._lanes(x)
    want = min(e - _kernel_py._inversions(code) for code, c in x.items() for e in c[0])
    assert base == want == -9
    assert words == {W("IIIJJJ"): {0: 1}, W("JJJIIJ"): {1: 1}}
    for rho_zero in (False, True):
        assert reduce(x, rho_zero=rho_zero) == reduce_randomized(x, random.Random(5), rho_zero=rho_zero)


def test_mixed_parity_input_is_split_into_two_lanes():
    # The rank-5 relation with one cell times q: within a weight,
    # e - inversions(word) now takes both parities, and each parity is its
    # own lane.  The lanes hold exactly the input terms.
    delta = build_delta(5, perturbed_table(c_recursive(5), 0, 1))
    lanes = _kernel_py._lanes(delta)
    parities = {}
    terms = {}
    for weight, base, _, words in lanes:
        parities.setdefault(weight, []).append(base & 1)
        for code, slots in words.items():
            p = (weight - code.bit_length() + 1) // 2
            poly = terms.setdefault(code, {}).setdefault(p, {})
            for s, c in slots.items():
                e = base + _kernel_py._inversions(code) + 2 * s
                assert e not in poly
                poly[e] = c
    assert terms == delta
    assert any(sorted(ps) == [0, 1] for ps in parities.values())
    got = reduce(delta)
    assert got
    assert got == reduce_randomized(delta, random.Random(55))


def test_rho_rewrite_shifts_by_each_j_right_of_the_redex():
    # IIJ -> rho J removes 2 * (1 + #J right of the redex) inversions, so the
    # J branch moves a coefficient up 1 + #J slots; these words have 0..3 J's
    # right of their first redex.
    x = {
        W("IIJJIJ"): _scalar({0: 1, 1: 3}),
        W("JIIJJJ"): rho(LaurentScalar({-2: 2, 0: -1}), LaurentScalar({1: 5})),
        W("IIJIJJJ"): _scalar({3: -7}),
        W("IIJII"): _scalar({0: 1 << 40}),
    }
    for rho_zero in (False, True):
        expected = reduce_randomized(x, random.Random(7), rho_zero=rho_zero)
        assert reduce(x, rho_zero=rho_zero) == expected, rho_zero


def test_mixed_weights_count_distinct_words():
    # IIIJ sits in three lanes (two exponent clusters of weight 4, and
    # weight 6); the counts are those of one dict of words, pinned from the
    # dict-of-exponents kernel.
    q40 = LaurentScalar.q_power(40)
    x = {
        W("IIIJ"): rho(ONE + q40, 1),
        W("IIJ"): rho(0, 1),
        W("JIIJ"): _scalar({-2: 3}),
        W("IIJIJ"): {0: {1: -1}, 1: {0: 2}},
    }
    for rho_zero, stats in ((False, (16, 8, 3)), (True, (10, 8, 3))):
        _, got = reduce_with_stats(x, rho_zero=rho_zero)
        assert (got.peak_terms, got.steps, got.passes) == stats


def _fuzz_scalar(rng):
    """A coefficient mixing rho degrees, exponent clusters and big integers."""
    coeffs = []
    for _ in range(rng.randint(1, 3)):
        center = rng.choice([0, 0, 0, 50, -200])
        num = {}
        for _ in range(rng.randint(1, 3)):
            num[center + rng.randint(-3, 3)] = rng.choice([1, -1, 2, 7, -(1 << rng.randint(20, 90))])
        coeffs.append(LaurentScalar(num) if rng.random() < 0.8 else ZERO)
    return rho(*coeffs)


def _long_word(rng):
    """A word of 61..90 letters with at most a few dozen inversions."""
    middle = "".join(rng.choice("IJ") for _ in range(rng.randint(3, 8)))
    n = rng.randint(61, 90) - len(middle)
    head = rng.randint(0, n)
    return W("J" * head + middle + "I" * (n - head))


def _fuzz_inputs(kind):
    """25 inputs of 2..5 random words, short or long, with fuzzed coefficients."""
    rng = random.Random(f"fuzz:{kind}")
    for _ in range(25):
        words = [_long_word(rng) if kind == "long" else _random_word(rng, 9) for _ in range(rng.randint(2, 5))]
        yield element({w: _fuzz_scalar(rng) for w in words})


@pytest.mark.parametrize("kind", ["inhomogeneous", "long"])
def test_kernel_matches_the_randomized_oracle(kind):
    for trial, x in enumerate(_fuzz_inputs(kind)):
        for rho_zero in (False, True):
            expected = reduce_randomized(x, random.Random(trial), rho_zero=rho_zero)
            assert reduce(x, rho_zero=rho_zero) == expected, (kind, trial, rho_zero)


@pytest.mark.parametrize("source", ["inhomogeneous", "long", "mutated"])
def test_kernel_counters_match_the_pass_oracle(source):
    # The normal form and (peak, steps, passes) of the kernel equal those of
    # the same pass schedule on exact coefficients, on arbitrary input: the
    # fuzz inputs above, and every single-cell mutation at r <= 4 under both
    # rules (the truncated rule's relation holds only the p = 0 cells).
    if source == "mutated":
        cases = [
            (build_delta(r, perturbed_table(c_recursive(r), p, k), rho_zero=rho_zero), rho_zero)
            for r in range(1, 5)
            for p, k in cells(r)
            for rho_zero in ((False, True) if p == 0 else (False,))
        ]
    else:
        cases = [(x, rho_zero) for x in _fuzz_inputs(source) for rho_zero in (False, True)]
    for i, (x, rho_zero) in enumerate(cases):
        assert _kernel_py.reduce_packed(x, rho_zero) == reduce_by_passes(x, rho_zero), (source, i, rho_zero)


def _lane_element(weight, base, words):
    """One lane's input as a free-algebra element."""
    return {
        code: {(weight - code.bit_length() + 1) // 2: {
            base + _kernel_py._inversions(code) + 2 * s: c for s, c in slots.items()}}
        for code, slots in words.items()
    }


def _largest(coeff):
    return max(abs(c) for poly in coeff.values() for c in poly.values())


@pytest.mark.parametrize("source", ["inhomogeneous", "long", "relations", "mutated"])
def test_proved_bounds_cover_every_exact_coefficient(source):
    # Each lane's proved bound of a word is at least its largest exact
    # |coefficient| after every pass, normal words' running sums included,
    # and at least the sum of those over the passes that rewrite it.  The
    # exact run of a lane is the pass oracle on that lane's input alone,
    # since lanes never meet.  Inputs: the fuzz inputs, the relations for
    # r <= 6 under both rules, every single-cell mutation at r <= 5.
    if source == "relations":
        cases = [(build_delta(r, c_recursive(r), rho_zero=rz), rz)
                 for r in range(1, 7) for rz in (False, True)]
    elif source == "mutated":
        cases = [
            (build_delta(r, perturbed_table(c_recursive(r), p, k), rho_zero=rz), rz)
            for r in range(1, 6)
            for p, k in cells(r)
            for rz in ((False, True) if p == 0 else (False,))
        ]
    else:
        cases = [(x, rz) for x in _fuzz_inputs(source) for rz in (False, True)]
    checked = 0
    for i, (x, rho_zero) in enumerate(cases):
        lanes = _kernel_py._lanes(x)
        states = _kernel_py._run(lanes, rho_zero)[0]
        assert _unproved(lanes, states) == [], (source, i)
        for (weight, base, _, words), state in zip(lanes, states):
            bound = state.bounds()
            rewritten = {}

            def covered(terms):
                for w, c in terms.items():
                    assert bound.get(w, 0) >= _largest(c), (source, i, w)

            def on_pass(sources, terms):
                for w, c in sources.items():
                    rewritten[w] = rewritten.get(w, 0) + _largest(c)
                covered(terms)

            lane_x = _lane_element(weight, base, words)
            covered(lane_x)
            reduce_by_passes(lane_x, rho_zero, on_pass)
            covered({w: {0: {0: total}} for w, total in rewritten.items()})
            checked += len(rewritten)
    assert checked


def test_a_zero_is_dropped_only_at_the_end_of_its_pass():
    # One lane; the pass rewrites JIIJ and then IIJJ.  JIIJ's rho J brings
    # JJ to 0 and IIJJ's brings it back to rho, so JJ stays and is counted;
    # IIJJ's [2]_q IJIJ cancels IJIJ, which ends the pass at 0 and is dropped
    # before the peak is counted.  The next pass cancels JJ for good.
    x = {
        W("IIJJ"): UNIT,
        W("JIIJ"): _scalar({0: 2}),
        W("JJ"): {1: {0: -2}},
        W("IJIJ"): _scalar({-1: -1, 1: -1}),
    }
    nf, stats = reduce_with_stats(x)
    assert nf == {W("JIJI"): _scalar({-1: 1, 1: 1}), W("JJII"): _scalar({0: -1})}
    assert (stats.peak_terms, stats.steps, stats.passes) == (4, 3, 2)
    assert reduce_by_passes(x) == (nf, 4, 3, 2)
    assert nf == reduce_randomized(x, random.Random(3))


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_mutated_tables_leave_the_oracle_residual(r):
    rng = random.Random(f"mutate:{r}")
    table = c_recursive(r)
    chosen = list(cells(r)) if r < 5 else rng.sample(list(cells(r)), 4)
    for p, k in chosen:
        for rho_zero in (False, True) if p == 0 else (False,):
            delta = build_delta(r, perturbed_table(table, p, k), rho_zero=rho_zero)
            expected = reduce_randomized(delta, random.Random(p * 100 + k), rho_zero=rho_zero)
            assert expected
            assert reduce(delta, rho_zero=rho_zero) == expected, (p, k, rho_zero)
