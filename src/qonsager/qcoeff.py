"""Exact scalar arithmetic in the deformation parameter q.

``LaurentScalar`` is an exact Laurent polynomial in q, an element of
Z[q, q^-1] with arbitrary-precision integer coefficients.  Division is exact
division in that ring and raises ArithmeticError when the divisor does not
divide.

Representation: a "poly dict" maps an integer q-exponent to a nonzero integer
coefficient; the empty dict is zero.  A LaurentScalar stores one poly dict,
so equal values have identical representations.  ``_pmul`` multiplies two
poly dicts one pair of terms at a time, or by a scale-and-shift when an
operand has a single term; sums of many products go through the packed
layer below.  A polynomial in further variables maps the exponents of those
variables to nonzero poly dicts in q (``_madd``, ``_msub``): a 3-int
exponent tuple for the multivariate polynomials of coeffs and repcheck
(``_mmul``), or the rho degree for the free algebra's coefficients.

The packed layer (Kronecker substitution) serves the coefficient pipelines.
A poly dict a whose exponents all have the parity of its least one, low, is
held as the pair (v, low) with v = (q^-low a)(q^2 = 2^B): one B-bit slot per
two exponents, B = 8*nb.  ``_kwidth`` rounds nb up to 1, 2, 4 or 8 bytes
when it is at most 8, the item sizes of ``array.array``, so that
``_kpack`` writes and ``_kunpack`` reads the slots as array items, whose
little-endian bytes (byte-swapped on a big-endian host) are the int's
(``int.from_bytes``, ``int.to_bytes``); a wider slot is nb bytes of a
bytearray.  Evaluation at q^2 = 2^B is a ring homomorphism, so the int of a
product is the product of the ints (the lows add), and the int of a sum is
the sum of the ints once each is shifted by whole slots to the least low
(``_kdot``, and ``_mprod`` for polynomials in further variables).
Exactness: when no coefficient of a result reaches 2^(B-1) in absolute
value, its coefficients are the balanced base-2^B digits of its int, and
those digits are unique, so decoding them back (``_kunpack``) recovers the
result.  The ints of intermediate values need no such bound.  A caller bounds every
result from the l1 norms of its operands (|(ab)_e| <= ||a||_1 ||b||_1 for
each exponent e), takes B from the largest bound (``_kwidth``), packs each
operand once and decodes each result once; ``_kunpack`` raises
OverflowError unless 2^(B-1) exceeds the bound it is given, so a width too
narrow for its bound cannot alias silently.  The same uniqueness makes
packed values comparable without a decode: ``_kstrip`` drops the zero low
slots that a cancelled sum keeps, and ``_kwiden`` moves the digits of a
value to wider slots as they are.  A packed operand, and the
terms of one packed sum, must share one exponent parity (ValueError
otherwise); ``coeffs._residual`` splits its operands by parity to meet it.

Everything is exact; no floats appear anywhere.  Values are immutable after
construction and all operations are pure, so they are safe to share between
threads without synchronization.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from functools import lru_cache

# ---------------------------------------------------------------------------
# poly-dict helpers: dict[int exponent -> int coefficient], no zero values
# ---------------------------------------------------------------------------


def _padd(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        n = out.get(e, 0) + c
        if n:
            out[e] = n
        else:
            del out[e]
    return out


def _pneg(a: dict) -> dict:
    return {e: -c for e, c in a.items()}


def _psub(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        n = out.get(e, 0) - c
        if n:
            out[e] = n
        else:
            del out[e]
    return out


def _pmul(a: dict, b: dict) -> dict:
    """The product a*b, one pair of terms at a time in a dict.

    An operand with a single term is scaled and shifted by a plain loop, as
    most products are of that kind: a comprehension would cost a frame.
    """
    if len(b) == 1:
        a, b = b, a
    out = {}
    if len(a) == 1:
        ((ea, ca),) = a.items()
        for e, c in b.items():
            out[ea + e] = ca * c
        return out
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


# ---------------------------------------------------------------------------
# polynomials over poly dicts: dict[exponent key -> nonzero poly dict in q]
# ---------------------------------------------------------------------------
# A key holds the exponents of the variables other than q: a 3-int tuple
# (``_mmul`` adds keys slot by slot) or a rho degree.  ``_madd`` and
# ``_msub`` serve both.  Values may be shared between results and are
# never mutated.


def _madd(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, v in b.items():
        n = _padd(out.get(key, {}), v)
        if n:
            out[key] = n
        else:
            out.pop(key, None)
    return out


def _msub(a: dict, b: dict) -> dict:
    return _madd(a, {key: _pneg(v) for key, v in b.items()})


def _mmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (a0, a1, a2), pa in a.items():
        for (b0, b1, b2), pb in b.items():
            key = (a0 + b0, a1 + b1, a2 + b2)
            n = _padd(out.get(key, {}), _pmul(pa, pb))
            if n:
                out[key] = n
            else:
                out.pop(key, None)
    return out


# ---------------------------------------------------------------------------
# the packed layer: a one-parity q-polynomial as one int (Kronecker substitution)
# ---------------------------------------------------------------------------
# The layout and its exactness argument are in the module docstring.


def _l1(a: dict) -> int:
    """The l1 norm of a poly dict, the sum of its absolute coefficients."""
    return sum(map(abs, a.values()))


def _kwidth(bound: int) -> int:
    """The byte count nb of the packed width B = 8*nb for a coefficient bound.

    The least nb with 2^(B-1) > bound, rounded up to 1, 2, 4 or 8 bytes when
    it is at most 8, so that _kpack and _kunpack move the slots as array
    items; a wider width stays exact.  Widening a slot never changes a
    decoded value.
    """
    nb = bound.bit_length() // 8 + 1
    return nb if nb > 8 else 1 << (nb - 1).bit_length()


# One zero slot for each width that an array typecode holds (1, 2, 4 and 8
# bytes): a buffer of n slots is this times n.  Array items are in the
# host's byte order, and the packed ints read them little-endian.
_SLOTS = {array(code).itemsize: array(code, [0]) for code in "BHIQ"}
_SWAP = sys.byteorder == "big"


def _kpack(a: dict, nb: int) -> tuple[int, int]:
    """The packed form (v, low) of a poly dict at slot width B = 8*nb.

    low is the least exponent of a and every exponent must have its parity
    (ValueError otherwise).  Each coefficient fills one slot of one of two
    buffers, by sign: an array item at the widths of _SLOTS, nb bytes of a
    bytearray at any other width.  So |c| must be below 2^B; the array
    assignment or int.to_bytes raises OverflowError otherwise.  Zero packs
    as (0, 0).
    """
    if not a:
        return 0, 0
    low = min(a)
    n = (max(a) - low) // 2 + 1
    slot = _SLOTS.get(nb)
    if slot is None:
        pos, neg = bytearray(n * nb), bytearray(n * nb)
        for e, c in a.items():
            if (e - low) & 1:
                raise ValueError(f"packed exponents {low} and {e} differ in parity")
            i = (e - low) // 2 * nb
            if c > 0:
                pos[i:i + nb] = c.to_bytes(nb, "little")
            else:
                neg[i:i + nb] = (-c).to_bytes(nb, "little")
    else:
        pos, neg = slot * n, slot * n
        for e, c in a.items():
            if (e - low) & 1:
                raise ValueError(f"packed exponents {low} and {e} differ in parity")
            if c > 0:
                pos[(e - low) >> 1] = c
            else:
                neg[(e - low) >> 1] = -c
        if _SWAP:
            pos.byteswap()
            neg.byteswap()
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little"), low


def _khalf(nb: int, bound: int) -> int:
    """2^(B-1) for B = 8*nb, once it is checked to exceed bound: the least
    that makes balanced base-2^B digits bounded by bound unique.  Raises
    OverflowError otherwise."""
    half = 1 << (8 * nb - 1)
    if bound >= half:
        raise OverflowError(f"a {8 * nb}-bit slot cannot hold a packed coefficient bound of {bound}")
    return half


def _kstrip(v: int, low: int, nb: int) -> tuple[int, int]:
    """(v, low) at width 8*nb with its zero low slots dropped; zero is (0, 0).

    A packed sum whose lowest slots cancelled keeps their low.  When every
    coefficient is below 2^(B-1) in absolute value, a slot is zero exactly
    when its balanced digit is, so the stripped pair is the one packed form
    of its poly dict: two of them are equal exactly when their poly dicts are.
    """
    if not v:
        return 0, 0
    k = ((v & -v).bit_length() - 1) // (8 * nb)
    return v >> (8 * nb * k), low + 2 * k


def _kbiased(v: int, nb: int) -> bytes:
    """The little-endian bytes of v at width 8*nb with 2^(B-1) added to every
    slot, n*nb of them for n at least the number of digits: each balanced
    digit d is the unsigned nb-byte field d + 2^(B-1)."""
    n = abs(v).bit_length() // (8 * nb) + 1
    return (v + int.from_bytes((bytes(nb - 1) + b"\x80") * n, "little")).to_bytes(n * nb, "little")


def _kwiden(v: int, nb: int, wide: int, bound: int) -> int:
    """The int at width 8*wide >= 8*nb of the value that v packs at width 8*nb.

    The low is unchanged.  bound bounds the absolute value of every
    coefficient, and 2^(8*nb-1) must exceed it (OverflowError otherwise), as
    for _kunpack, since the digits are moved as they are: slice assignments
    put each biased field of _kbiased into the low bytes of a wide-byte
    field, and the bias at the new width is taken away again.  No
    coefficient is decoded.
    """
    _khalf(nb, bound)
    if not v or wide == nb:
        return v
    raw = _kbiased(v, nb)
    n = len(raw) // nb
    out = bytearray(n * wide)
    for j in range(nb):
        out[j::wide] = raw[j::nb]
    bias = int.from_bytes((bytes(nb - 1) + b"\x80" + bytes(wide - nb)) * n, "little")
    return int.from_bytes(out, "little") - bias


def _kunpack(v: int, low: int, nb: int, bound: int) -> dict:
    """The poly dict whose packed form at slot width B = 8*nb is (v, low).

    bound must bound the absolute value of every coefficient.  The balanced
    base-2^B digits of v are the coefficients only when 2^(B-1) > bound, so a
    narrower width raises OverflowError instead of returning an alias.  The
    digits are read after adding 2^(B-1) to every slot, which makes each one
    an unsigned nb-byte field of one to_bytes: one array of them at the
    widths of _SLOTS, one int.from_bytes per slice at any other width.
    """
    half = _khalf(nb, bound)
    if -half <= v < half:  # one digit, so no slot to read
        return {low: v} if v else {}
    raw = _kbiased(v, nb)
    n = len(raw) // nb
    slot = _SLOTS.get(nb)
    if slot is not None:
        digits = array(slot.typecode, raw)
        if _SWAP:
            digits.byteswap()
        return {low + 2 * i: d - half for i, d in enumerate(digits.tolist()) if d != half}
    out = {}
    e = low
    for i in range(0, n * nb, nb):
        d = int.from_bytes(raw[i:i + nb], "little") - half
        if d:
            out[e] = d
        e += 2
    return out


def _kdot(terms, nb: int) -> tuple[int, int]:
    """The packed sum s*a*b over (int s, packed a, packed b) triples at width 8*nb.

    Each product is one int multiply.  The products are shifted by whole
    slots to their least low and added, so their lows must share a parity
    (ValueError otherwise).
    """
    prods = [(s * (va * vb), la + lb) for s, (va, la), (vb, lb) in terms if s and va and vb]
    if not prods:
        return 0, 0
    low = min(lp for _, lp in prods)
    width = 8 * nb
    total = 0
    for vp, lp in prods:
        if (lp - low) & 1:
            raise ValueError(f"packed terms with lows {low} and {lp} differ in parity")
        total += vp << (width * ((lp - low) >> 1))
    return total, low


def _mnorm(f: dict) -> int:
    """The l1 norm of a polynomial {key: poly dict}, summed over all its keys."""
    return sum(_l1(a) for a in f.values())


def _mprod(factors, nb: int) -> dict:
    """The product of polynomials {3-int exponent tuple: poly dict}, packed.

    Returns {key: packed value at width 8*nb}, and a value may be zero.  No
    coefficient of the product exceeds the product of the factors' _mnorm,
    the bound to decode it against.  Each factor is packed once, so its
    coefficients must fit a slot, and each key of a step is one _kdot over
    its key pairs.
    """
    out = {(0, 0, 0): (1, 0)}
    for f in factors:
        packed = [(key, _kpack(a, nb)) for key, a in f.items()]
        terms: dict = {}
        for (a0, a1, a2), x in out.items():
            for (b0, b1, b2), y in packed:
                terms.setdefault((a0 + b0, a1 + b1, a2 + b2), []).append((1, x, y))
        out = {key: _kdot(t, nb) for key, t in terms.items()}
    return out


def _pshift(a: dict, k: int) -> dict:
    if k == 0:
        return dict(a)
    return {e + k: c for e, c in a.items()}


def _pexact_div(a: dict, b: dict) -> dict:
    """Exact division of poly dicts over Z; raises if it does not divide."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return {}
    db = max(b)
    lb = b[db]
    out: dict = {}
    r = dict(a)
    while r:
        dr = max(r)
        if dr < db:
            raise ArithmeticError("inexact polynomial division")
        lr = r[dr]
        if lr % lb:
            raise ArithmeticError("inexact polynomial division")
        c = lr // lb
        out[dr - db] = c
        for e, cb in b.items():
            ee = e + dr - db
            n = r.get(ee, 0) - c * cb
            if n:
                r[ee] = n
            elif ee in r:
                del r[ee]
    return out


# ---------------------------------------------------------------------------
# LaurentScalar
# ---------------------------------------------------------------------------


class LaurentScalar:
    """An exact Laurent polynomial in q with integer coefficients.

    >>> str(q_int(3))
    'q^2 + 1 + q^-2'
    >>> str(exact_div(q_int(6), q_int(3)))
    'q^3 + q^-3'
    """

    __slots__ = ("num", "_hash")

    def __init__(self, num: dict | int = 0):
        if isinstance(num, int):
            num = {0: num} if num else {}
        else:
            num = {e: c for e, c in num.items() if c}
        self.num = num
        self._hash = None

    @classmethod
    def _raw(cls, num: dict) -> "LaurentScalar":
        """Internal constructor for a poly dict without zero coefficients."""
        self = object.__new__(cls)
        self.num = num
        self._hash = None
        return self

    @classmethod
    def q_power(cls, e: int) -> "LaurentScalar":
        return cls._raw({e: 1})

    # -- predicates ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.num

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, LaurentScalar):
            return other
        if isinstance(other, int):
            return LaurentScalar._raw({0: other} if other else {})
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return LaurentScalar._raw(_padd(self.num, o.num))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return LaurentScalar._raw(_psub(self.num, o.num))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return LaurentScalar._raw(_pneg(self.num))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return LaurentScalar._raw(_pmul(self.num, o.num))

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Exact division in Z[q, q^-1]; ArithmeticError when it does not divide.

        Both operands are shifted to lowest exponent 0, where a Laurent
        quotient is an ordinary polynomial quotient over Z.
        """
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("division of LaurentScalar by zero")
        if self.is_zero:
            return self
        va, vb = min(self.num), min(o.num)
        quotient = _pexact_div(_pshift(self.num, -va), _pshift(o.num, -vb))
        return LaurentScalar._raw(_pshift(quotient, va - vb))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    # -- structure ----------------------------------------------------------

    def bar(self) -> "LaurentScalar":
        """The image under q -> q^-1."""
        return LaurentScalar._raw({-e: c for e, c in self.num.items()})

    def substitute(self, value: Fraction) -> Fraction:
        """Evaluate at an exact rational point q = value (value != 0)."""
        value = Fraction(value)
        if value == 0:
            raise ZeroDivisionError("cannot evaluate at q = 0")
        return sum((c * value ** e for e, c in self.num.items()), Fraction(0))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num

    def __hash__(self):
        """Agrees with __eq__ on ints: a constant hashes as its int, zero as 0."""
        if self._hash is None:
            num = self.num
            if num.keys() <= {0}:
                self._hash = hash(num.get(0, 0))
            else:
                self._hash = hash(tuple(sorted(num.items())))
        return self._hash

    def __bool__(self):
        return not self.is_zero

    # -- rendering ----------------------------------------------------------

    def __str__(self):
        return _poly_str(self.num) if self.num else "0"

    def __repr__(self):
        return f"LaurentScalar({str(self)!r})"


def _poly_str(d: dict) -> str:
    """Canonical text of a poly dict: strictly descending q-exponents."""
    parts = []
    for e in sorted(d, reverse=True):
        c = d[e]
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            power = "q" if e == 1 else f"q^{e}"
            body = power if mag == 1 else f"{mag}{power}"
        parts.append(("-" if c < 0 else "+", body))
    sign0, body0 = parts[0]
    pieces = [("-" + body0) if sign0 == "-" else body0]
    for sign, body in parts[1:]:
        pieces.append(f" {sign} {body}")
    return "".join(pieces)


ZERO = LaurentScalar._raw({})
ONE = LaurentScalar._raw({0: 1})


# ---------------------------------------------------------------------------
# q-integers, factorials, binomials
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def q_int(n: int) -> LaurentScalar:
    """The symmetric q-integer [n]_q = q^(n-1) + q^(n-3) + ... + q^(1-n).

    [0]_q = 0 (empty sum); n must be nonnegative.
    """
    if n < 0:
        raise ValueError("q_int requires n >= 0")
    return LaurentScalar._raw({n - 1 - 2 * i: 1 for i in range(n)})


@lru_cache(maxsize=None)
def q_factorial(n: int) -> LaurentScalar:
    """The q-factorial [n]_q! = [1]_q [2]_q ... [n]_q, with [0]_q! = 1."""
    if n < 0:
        raise ValueError("q_factorial requires n >= 0")
    if n == 0:
        return ONE
    return q_factorial(n - 1) * q_int(n)


@lru_cache(maxsize=None)
def q_binomial(n: int, m: int) -> LaurentScalar:
    """The q-binomial coefficient [n]_q!/([m]_q! [n-m]_q!).

    Always a Laurent polynomial; m outside 0..n is rejected.
    """
    if m < 0 or m > n:
        raise ValueError(f"q_binomial requires 0 <= m <= n, got ({n}, {m})")
    return exact_div(q_factorial(n), q_factorial(m) * q_factorial(n - m))


def exact_div(a: LaurentScalar, b: LaurentScalar) -> LaurentScalar:
    """The Laurent polynomial a/b; b must be nonzero and divide a.

    Raises ArithmeticError when b does not divide a in Z[q, q^-1].
    """
    return a / b
