"""Tests for the exact q-arithmetic layer."""

import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from free_ring import rmul
from qonsager.qcoeff import (
    ONE,
    ZERO,
    LaurentScalar,
    _kdot,
    _kpack,
    _kunpack,
    _kwidth,
    _l1,
    _madd,
    _mmul,
    _mnorm,
    _mprod,
    _msub,
    _pmul,
    exact_div,
    q_binomial,
    q_factorial,
    q_int,
)


def L(d):
    return LaurentScalar(d)


# ---------------------------------------------------------------------------
# q-integers / factorials / binomials
# ---------------------------------------------------------------------------


def test_q_int_zero_is_empty_sum():
    assert q_int(0) == ZERO


def test_q_int_two():
    assert q_int(2) == L({1: 1, -1: 1})


def test_q_int_three_matches_division_oracle():
    # Independent route: expand (q^3 - q^-3)/(q - q^-1) by exact division.
    oracle = exact_div(L({3: 1, -3: -1}), L({1: 1, -1: -1}))
    assert q_int(3) == oracle
    assert q_int(3) == L({2: 1, 0: 1, -2: 1})


def test_q_int_rejects_negative():
    with pytest.raises(ValueError):
        q_int(-1)


def test_q_factorial_values():
    assert q_factorial(0) == ONE
    assert q_factorial(1) == ONE
    assert q_factorial(3) == q_int(2) * q_int(3)


def test_q_binomial_edges_and_values():
    assert q_binomial(5, 0) == ONE
    assert q_binomial(3, 1) == q_int(3)
    assert q_binomial(4, 2) == L({4: 1, 2: 1, 0: 2, -2: 1, -4: 1})


def test_q_binomial_rejects_out_of_range():
    with pytest.raises(ValueError):
        q_binomial(3, -1)
    with pytest.raises(ValueError):
        q_binomial(3, 4)


def test_q_binomial_pascal_recurrence():
    # Independent oracle: [n m] = q^m [n-1 m] + q^(m-n) [n-1 m-1].
    for n in range(1, 9):
        for m in range(0, n + 1):
            left = q_binomial(n, m)
            right = ZERO
            if m <= n - 1:
                right = right + LaurentScalar.q_power(m) * q_binomial(n - 1, m)
            if m >= 1:
                right = right + LaurentScalar.q_power(m - n) * q_binomial(n - 1, m - 1)
            assert left == right, (n, m)


# ---------------------------------------------------------------------------
# exact division and canonical forms
# ---------------------------------------------------------------------------


def test_exact_div_six_by_three():
    assert exact_div(q_int(6), q_int(3)) == L({3: 1, -3: 1})


def test_exact_div_self_is_one():
    x = L({5: 3, 0: -2, -1: 7})
    assert exact_div(x, x) == ONE


def test_exact_div_two_by_four_raises():
    # [2]/[4] = 1/(q^2 + q^-2) is not a Laurent polynomial.
    with pytest.raises(ArithmeticError):
        exact_div(q_int(2), q_int(4))


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        exact_div(ONE, ZERO)


def test_hash_agrees_with_int_equality():
    # ONE == 1 and ZERO == 0, so they must hash alike and collapse in sets.
    assert hash(ONE) == hash(1) and hash(ZERO) == hash(0)
    assert hash(L({0: -7})) == hash(-7)
    assert len({ONE, 1}) == 1 and len({ZERO, 0}) == 1
    assert {L({0: 3}): "three"}[3] == "three"
    assert hash(q_int(2)) == hash(L({1: 1, -1: 1}))


laurent_dicts = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-9, max_value=9).filter(lambda c: c != 0),
    max_size=5,
)


@st.composite
def laurents(draw):
    return LaurentScalar(draw(laurent_dicts))


@st.composite
def nonzero_laurents(draw):
    val = draw(laurents())
    if val.is_zero:
        val = val + ONE
    return val


@settings(max_examples=150, deadline=None)
@given(laurents(), laurents(), laurents())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=150, deadline=None)
@given(laurents(), nonzero_laurents())
def test_exact_div_inverts_multiplication(a, b):
    assert exact_div(a * b, b) == a


@settings(max_examples=150, deadline=None)
@given(laurents(), nonzero_laurents())
def test_exact_div_raises_off_the_multiples(a, b):
    # The units of Z[q, q^-1] are +-q^k; any other b divides a*b + 1 only if
    # it divides 1.
    assume(not (len(b.num) == 1 and abs(next(iter(b.num.values()))) == 1))
    with pytest.raises(ArithmeticError):
        exact_div(a * b + ONE, b)


@settings(max_examples=100, deadline=None)
@given(laurents())
def test_bar_is_an_involution(a):
    assert a.bar().bar() == a


# ---------------------------------------------------------------------------
# polynomials over poly dicts: {exponent 3-tuple or rho degree: poly dict}
# ---------------------------------------------------------------------------

multi_polys = st.dictionaries(
    st.tuples(*(st.integers(min_value=-2, max_value=2),) * 3),
    laurent_dicts.filter(bool),
    max_size=4,
)
rho_polys = st.dictionaries(
    st.integers(min_value=0, max_value=3), laurent_dicts.filter(bool), max_size=4
)


def _flatten(a):
    return {(*key, e): c for key, poly in a.items() for e, c in poly.items()}


def _flat_mul(a, b):
    """The product of two flattened polynomials, one monomial pair at a time."""
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            out[key] = out.get(key, 0) + ca * cb
    return {key: c for key, c in out.items() if c}


def _one_slot(a):
    """A rho-polynomial with its degrees as 1-int exponent tuples."""
    return {(p,): poly for p, poly in a.items()}


@settings(max_examples=150, deadline=None)
@given(multi_polys, multi_polys, multi_polys, rho_polys, rho_polys)
def test_mmul_matches_the_flat_product(a, b, c, x, y):
    product = _mmul(a, b)
    assert _flatten(product) == _flat_mul(_flatten(a), _flatten(b))
    assert all(product.values())
    assert _msub(a, a) == {}
    assert _mmul(a, _madd(b, c)) == _madd(_mmul(a, b), _mmul(a, c))
    # The tests' product of free-algebra coefficients is the same product on
    # rho-degree keys.
    rho_product = rmul(x, y)
    assert _flatten(_one_slot(rho_product)) == _flat_mul(
        _flatten(_one_slot(x)), _flatten(_one_slot(y))
    )
    assert all(rho_product.values())


# ---------------------------------------------------------------------------
# the product _pmul against a per-pair oracle
# ---------------------------------------------------------------------------


def _naive_pmul(a, b):
    """a*b one pair of terms at a time in a dict, deleting zeros as they appear."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            n = out.get(e, 0) + ca * cb
            if n:
                out[e] = n
            elif e in out:
                del out[e]
    return out


def _naive_pdot(terms):
    """sum s*a*b, each product by _naive_pmul, added term by term in a dict."""
    out = {}
    for s, a, b in terms:
        for e, c in _naive_pmul(a, b).items():
            n = out.get(e, 0) + s * c
            if n:
                out[e] = n
            elif e in out:
                del out[e]
    return out


# Small, negative and far-apart exponents (a sparse span up to 2 * 10^5), and
# coefficients both small and beyond 2^64.
wide_dicts = st.dictionaries(
    st.integers(min_value=-6, max_value=6) | st.just(10**5),
    (st.integers(min_value=-9, max_value=9) | st.integers(min_value=-2**80, max_value=2**80))
    .filter(bool),
    max_size=5,
)


@settings(max_examples=150, deadline=None)
@given(wide_dicts, wide_dicts)
def test_pmul_matches_the_per_pair_product(a, b):
    result = _pmul(a, b)
    assert result == _naive_pmul(a, b)
    assert all(result.values())


def test_pmul_edge_cases():
    one_plus_q, one_minus_q = {0: 1, 1: 1}, {0: 1, 1: -1}
    assert _pmul({}, one_plus_q) == _pmul(one_plus_q, {}) == _pmul({}, {}) == {}
    # one-term operands: scale and shift, negative exponents included
    assert _pmul({-3: -2}, {1: 5, 4: 1}) == _pmul({1: 5, 4: 1}, {-3: -2}) == {-2: -10, 1: -2}
    # (1 + q)(1 - q) = 1 - q^2 holds no zero entry at q^1
    assert _pmul(one_plus_q, one_minus_q) == {0: 1, 2: -1}


def test_a_wide_exponent_span_allocates_no_dense_accumulator():
    # Two terms 10^7 apart times two terms: four pairs, whatever the span.
    a, b = LaurentScalar({0: 1, 10**7: 1}), LaurentScalar({0: 1, 2: 1})
    tracemalloc.start()
    try:
        product = a * b
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert product == LaurentScalar({0: 1, 2: 1, 10**7: 1, 10**7 + 2: 1})
    assert peak < 2**20, peak


# ---------------------------------------------------------------------------
# the packed layer against the poly-dict products
# ---------------------------------------------------------------------------

packed_coeffs = (st.integers(min_value=-9, max_value=9)
                 | st.integers(min_value=-2**100, max_value=2**100)).filter(bool)


@st.composite
def one_parity_dicts(draw, parity=None):
    """A poly dict whose exponents share one parity: negative ones, gaps, or none."""
    if parity is None:
        parity = draw(st.integers(min_value=0, max_value=1))
    return draw(st.dictionaries(
        st.integers(min_value=-8, max_value=8).map(lambda k: 2 * k + parity),
        packed_coeffs, max_size=6))


@settings(max_examples=200, deadline=None)
@given(one_parity_dicts(), st.integers(min_value=0, max_value=3))
def test_pack_unpack_round_trip(a, extra_bytes):
    bound = max(map(abs, a.values()), default=0)
    nb = _kwidth(bound) + extra_bytes
    v, low = _kpack(a, nb)
    assert _kunpack(v, low, nb, bound) == a
    if a:
        assert low == min(a)
    else:
        assert (v, low) == (0, 0)


@st.composite
def packed_terms(draw):
    """(s, a, b) triples whose products share one exponent parity."""
    parity = draw(st.integers(min_value=0, max_value=1))
    terms = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        pa = draw(st.integers(min_value=0, max_value=1))
        s = draw(st.integers(min_value=-3, max_value=3))
        terms.append((s, draw(one_parity_dicts(pa)), draw(one_parity_dicts(parity ^ pa))))
    return terms


@settings(max_examples=150, deadline=None)
@given(packed_terms())
def test_packed_sum_of_products_matches_the_per_pair_sum(terms):
    bound = sum(abs(s) * _l1(a) * _l1(b) for s, a, b in terms)
    nb = _kwidth(max(bound, *(_l1(a) + _l1(b) for _, a, b in terms), 0))
    packed = [(s, _kpack(a, nb), _kpack(b, nb)) for s, a, b in terms]
    assert _kunpack(*_kdot(packed, nb), nb, bound) == _naive_pdot(terms)


@st.composite
def graded_factors(draw):
    """Polynomials {3-int key: poly dict} whose value at key k has the parity
    of g.k + d, with g shared by every factor; then every key of their product
    has one parity, as in the coefficient pipelines."""
    g = draw(st.tuples(*(st.integers(min_value=0, max_value=1),) * 3))
    factors = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        d = draw(st.integers(min_value=0, max_value=1))
        keys = draw(st.lists(st.tuples(*(st.integers(min_value=-1, max_value=2),) * 3),
                             max_size=3, unique=True))
        f = {}
        for key in keys:
            parity = (sum(x * y for x, y in zip(g, key)) + d) % 2
            poly = draw(one_parity_dicts(parity).filter(bool))
            f[key] = poly
        factors.append(f)
    return factors


@settings(max_examples=100, deadline=None)
@given(graded_factors())
def test_packed_product_matches_mmul(factors):
    expected = {(0, 0, 0): {0: 1}}
    for f in factors:
        expected = _mmul(expected, f)
    norms = [_mnorm(f) for f in factors]
    bound = math.prod(norms)
    nb = _kwidth(max(bound, *norms, 0))  # a zero factor makes the bound 0
    got = {key: _kunpack(*value, nb, bound) for key, value in _mprod(factors, nb).items()}
    assert {key: a for key, a in got.items() if a} == expected


@pytest.mark.parametrize("nb", range(1, 18))
def test_pack_is_the_defining_sum_at_every_width(nb):
    # 1, 2, 4 and 8 bytes are array items, the other widths byte slices.
    top = 2 ** (8 * nb - 1) - 1  # the largest coefficient that decodes at this width
    a = {-3: top, -1: -top, 1: 1, 5: -1, 7: top}  # a gap at exponent 3
    v, low = _kpack(a, nb)
    assert low == -3
    assert v == sum(c * 2 ** (8 * nb * (e - low) // 2) for e, c in a.items())
    assert _kunpack(v, low, nb, top) == a
    with pytest.raises(OverflowError):
        _kunpack(v, low, nb, top + 1)
    # a slot holds any |c| below 2^B when packing, one sign per buffer
    wide = 2 ** (8 * nb) - 1
    assert _kpack({2: wide, 4: -wide}, nb) == (wide - (wide << 8 * nb), 2)
    for c in (2 ** (8 * nb), -2 ** (8 * nb)):
        with pytest.raises(OverflowError):
            _kpack({0: 1, 2: c}, nb)
    with pytest.raises(ValueError, match="parity"):
        _kpack({0: 1, 2: 1, 5: -1}, nb)


def test_kwidth_is_the_least_array_width_then_the_least_exact_one():
    widths = [1, 2, 4, 8, *range(9, 30)]
    for bits in range(201):
        for bound in {(1 << bits) - 1, 1 << max(bits - 1, 0)} if bits else {0}:
            assert bound.bit_length() == bits
            assert _kwidth(bound) == min(nb for nb in widths if 2 ** (8 * nb - 1) > bound), bound


def test_an_undersized_width_raises():
    # 2^15 needs 17 bits with its sign: read at 16 bits, v is -2^15, whose one
    # balanced digit would give {-2: -2^15}.
    a = {-2: 2**15, 0: -1}
    assert _kunpack(*_kpack(a, 3), 3, 2**15) == a
    v, low = _kpack(a, 2)
    with pytest.raises(OverflowError, match="16-bit slot"):
        _kunpack(v, low, 2, 2**15)
    # at 8 bits a bound of 200 does not fit either
    with pytest.raises(OverflowError):
        _kunpack(v, low, 1, 200)
    # a coefficient that does not fit its slot does not pack at all
    with pytest.raises(OverflowError):
        _kpack({0: 2**16}, 2)


def test_mixed_parity_does_not_pack():
    with pytest.raises(ValueError, match="parity"):
        _kpack({0: 1, 1: 1}, 1)
    even, odd = _kpack({0: 1}, 1), _kpack({1: 1}, 1)
    with pytest.raises(ValueError, match="parity"):
        _kdot([(1, even, even), (1, even, odd)], 1)


def test_bar_symmetry_of_q_quantities():
    for n in range(0, 10):
        assert q_int(n).bar() == q_int(n)
        assert q_factorial(n).bar() == q_factorial(n)
        for m in range(0, n + 1):
            assert q_binomial(n, m).bar() == q_binomial(n, m)


def test_substitute_exact_rational():
    assert q_int(3).substitute(Fraction(2)) == Fraction(21, 4)


# ---------------------------------------------------------------------------
# rendering contract
# ---------------------------------------------------------------------------


def test_canonical_rendering():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(L({4: 1, 0: 2, -4: 1})) == "q^4 + 2 + q^-4"
    assert str(L({2: 1, 0: -2, -2: 1})) == "q^2 - 2 + q^-2"
    assert str(L({1: -3, 0: 1})) == "-3q + 1"
    assert str(L({1: 1, -1: -1})) == "q - q^-1"
    assert str(L({1: -1, -1: 1})) == "-q + q^-1"
    assert str(L({2: -1, 1: 2})) == "-q^2 + 2q"
    assert str(L({0: -2, -3: -1})) == "-2 - q^-3"
