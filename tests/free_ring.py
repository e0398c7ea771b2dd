"""Sums and products of free-algebra elements, for the test oracles.

An element is the plain dict ``{word code: {rho_degree: poly dict}}`` that
``verify.build_delta`` builds and ``reducer.reduce`` takes and returns (see
``qonsager.freealg``); zero coefficients are never stored.  The package never
adds or multiplies elements; the oracles do (linearity, product congruence,
the expected rewrites), so the ring lives here, with ``word`` and
``letters``, which spell a word code and read it back.  Results are new
dicts, and coefficient dicts may be shared but are never mutated.
"""

from typing import Iterable

from qonsager.freealg import concat, word_from_exponents
from qonsager.qcoeff import _madd, _pmul

UNIT = {0: {0: 1}}  # the coefficient 1


def word(spelling: Iterable[str]) -> int:
    """The code of the word spelled by letters over {I, J}."""
    code = 1
    for ch in spelling:
        if ch == "I":
            code = (code << 1) | 1
        elif ch == "J":
            code = code << 1
        else:
            raise ValueError(f"letter must be 'I' or 'J', got {ch!r}")
    return code


def letters(code: int) -> str:
    """The letters of a word code, leftmost first."""
    n = code.bit_length() - 1
    return "".join("I" if (code >> (n - 1 - i)) & 1 else "J" for i in range(n))


def element(terms: dict) -> dict:
    """terms with zero integers, zero q-polynomials and empty coefficients
    dropped; every key must be a word code, an int >= 1."""
    out = {}
    for w, c in terms.items():
        if type(w) is not int or w < 1:
            raise ValueError(f"invalid word code {w!r}")
        if c := {p: nz for p, v in c.items() if (nz := {e: n for e, n in v.items() if n})}:
            out[w] = c
    return out


def term(code: int, coeff: dict = UNIT) -> dict:
    """The word with the given coefficient."""
    return {code: coeff} if coeff else {}


def monomial(n_left: int, r_mid: int, n_right: int) -> dict:
    """The single word I^n_left J^r_mid I^n_right with coefficient 1."""
    return term(word_from_exponents(n_left, r_mid, n_right))


def add(x: dict, y: dict) -> dict:
    out = dict(x)
    for w, c in y.items():
        if n := _madd(out.get(w, {}), c):
            out[w] = n
        else:
            out.pop(w, None)
    return out


def rmul(a: dict, b: dict) -> dict:
    """The product of two coefficients, polynomials in rho over poly dicts."""
    out: dict = {}
    for pa, va in a.items():
        for pb, vb in b.items():
            out = _madd(out, {pa + pb: _pmul(va, vb)})
    return out


def scale(x: dict, c: dict) -> dict:
    """x times the coefficient c."""
    return {w: n for w, cw in x.items() if (n := rmul(cw, c))}


def mul(x: dict, y: dict) -> dict:
    """The product x·y: words concatenate, coefficients multiply."""
    out: dict = {}
    for wa, ca in x.items():
        # The words wa·wb are distinct, so one merge per left term.
        out = add(out, {concat(wa, wb): rmul(ca, cb) for wb, cb in y.items()})
    return out
