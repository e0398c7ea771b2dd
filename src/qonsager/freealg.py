"""Free associative algebra on the two generators of one linked pair.

Words over the alphabet {I, J} stand for products of the generators A_i and
A_j.  A word is its code, a plain int ``(1 << n) | bits`` where n is the
length and bit (n-1-pos) is 1 for the letter I, 0 for J; ``word``,
``word_from_exponents``, ``letters`` and ``concat`` build and read codes.  The
sentinel bit makes the packing injective, and comparing codes as integers is
exactly the graded lexicographic order with I > J, which is the term order
used everywhere (iteration, rendering, and the reducer's termination measure).

NCPolynomial is a finite linear combination of words, ``{code: coefficient}``.
A coefficient is a polynomial in rho over Laurent polynomials in q, stored as
``{rho_degree: nonzero poly dict in q}`` (see ``qcoeff``).  So the terms are
exactly the form the rewrite kernel reads and returns; zero coefficients are
never stored.  Values are immutable and operations pure: coefficient dicts
may be shared and are never mutated.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .qcoeff import _madd, _msub, _pneg, _poly_str, _rmul

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


def word_from_exponents(n_left: int, r_mid: int, n_right: int) -> int:
    """The code of I^n_left J^r_mid I^n_right."""
    if n_left < 0 or r_mid < 0 or n_right < 0:
        raise ValueError("exponents must be nonnegative")
    n = n_left + r_mid + n_right
    bits = (((1 << n_left) - 1) << (r_mid + n_right)) | ((1 << n_right) - 1)
    return (1 << n) | bits


def letters(code: int) -> str:
    """The letters of a word code, leftmost first."""
    n = code.bit_length() - 1
    return "".join("I" if (code >> (n - 1 - i)) & 1 else "J" for i in range(n))


def concat(a: int, b: int) -> int:
    """The code of the word a followed by the word b."""
    nb = b.bit_length() - 1
    return (a << nb) | (b ^ (1 << nb))


def _word_str(code: int) -> str:
    """The word as a product "·Ai·Aj…"; empty for the empty word."""
    return "".join("·Ai" if ch == "I" else "·Aj" for ch in letters(code))


UNIT = {0: {0: 1}}  # the coefficient 1


def _merge(a: dict, b: dict, op) -> dict:
    """Terms of a and b combined word by word with op (``_madd`` or ``_msub``)."""
    out = dict(a)
    for w, c in b.items():
        n = op(out.get(w, {}), c)
        if n:
            out[w] = n
        else:
            out.pop(w, None)
    return out


def _rho_str(c: dict) -> str:
    parts = []
    for p in sorted(c, reverse=True):
        power = "" if p == 0 else "*rho" if p == 1 else f"*rho^{p}"
        parts.append(f"({_poly_str(c[p])}){power}")
    return " + ".join(parts)


class NCPolynomial:
    """Linear combination of words, ``{word code: {rho_degree: poly dict}}``."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, dict] | None = None):
        """Drops zero integers, then zero q-polynomials, then empty coefficients.

        Every key must be a word code, an int >= 1.
        """
        cleaned: dict[int, dict] = {}
        if terms:
            for w, c in terms.items():
                if type(w) is not int or w < 1:
                    raise ValueError(f"invalid word code {w!r}")
                c = {p: nz for p, v in c.items() if (nz := {e: n for e, n in v.items() if n})}
                if c:
                    cleaned[w] = c
        self.terms = cleaned

    @classmethod
    def _raw(cls, terms: dict) -> "NCPolynomial":
        self = object.__new__(cls)
        self.terms = terms
        return self

    @classmethod
    def zero(cls) -> "NCPolynomial":
        return cls._raw({})

    @classmethod
    def from_word(cls, code: int, coeff: dict = UNIT) -> "NCPolynomial":
        return cls._raw({code: coeff} if coeff else {})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "NCPolynomial") -> "NCPolynomial":
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        return NCPolynomial._raw(_merge(self.terms, other.terms, _madd))

    def __sub__(self, other: "NCPolynomial") -> "NCPolynomial":
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        return NCPolynomial._raw(_merge(self.terms, other.terms, _msub))

    def __neg__(self) -> "NCPolynomial":
        return NCPolynomial._raw(
            {w: {p: _pneg(v) for p, v in c.items()} for w, c in self.terms.items()}
        )

    def __mul__(self, other):
        """Product with an NCPolynomial, or with a coefficient dict on the right."""
        if isinstance(other, NCPolynomial):
            out: dict[int, dict] = {}
            for wa, ca in self.terms.items():
                # The words wa·wb are distinct, so one merge per left term.
                row = {concat(wa, wb): _rmul(ca, cb) for wb, cb in other.terms.items()}
                out = _merge(out, row, _madd)
            return NCPolynomial._raw(out)
        if isinstance(other, dict):
            return NCPolynomial._raw(
                {w: n for w, c in self.terms.items() if (n := _rmul(c, other))}
            )
        return NotImplemented

    def __eq__(self, other):
        return isinstance(other, NCPolynomial) and self.terms == other.terms

    __hash__ = None

    def __bool__(self):
        return not self.is_zero

    def __str__(self):
        if not self.terms:
            return "0"
        # Descending graded lex with I > J: the module term order.
        return " + ".join(
            f"({_rho_str(c)}){_word_str(w)}" for w, c in sorted(self.terms.items(), reverse=True)
        )

    def __repr__(self):
        return f"NCPolynomial({str(self)})"


ONE = NCPolynomial._raw({word(""): UNIT})
AI = NCPolynomial._raw({word("I"): UNIT})
AJ = NCPolynomial._raw({word("J"): UNIT})


def monomial(n_left: int, r_mid: int, n_right: int) -> NCPolynomial:
    """The single word I^n_left J^r_mid I^n_right with coefficient 1."""
    return NCPolynomial.from_word(word_from_exponents(n_left, r_mid, n_right))
