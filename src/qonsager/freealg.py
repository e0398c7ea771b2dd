"""Free associative algebra on the two generators of one linked pair.

Words over the alphabet {I, J} stand for products of the generators A_i and
A_j.  A word is stored packed into a single integer: ``code = (1 << n) | bits``
where n is the length and bit (n-1-pos) is 1 for the letter I, 0 for J.  The
sentinel bit makes the packing injective, and comparing codes as integers is
exactly the graded lexicographic order with I > J, which is the term order
used everywhere (iteration, rendering, and the reducer's termination measure).

NCPolynomial is a finite linear combination of words.  A coefficient is a
polynomial in rho over Laurent polynomials in q, stored as ``{rho_degree:
nonzero poly dict in q}`` (see ``qcoeff``), the form the rewrite kernel reads
and returns; zero coefficients are never stored.  Values are immutable and
operations pure: coefficient dicts may be shared and are never mutated.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .qcoeff import _madd, _msub, _pneg, _poly_str, _rmul

EMPTY_CODE = 1  # packed code of the empty word


class Word:
    """An immutable word over {I, J}; the empty word is the unit monomial."""

    __slots__ = ("code",)

    def __init__(self, code: int = EMPTY_CODE):
        if code < 1:
            raise ValueError("invalid packed word code")
        self.code = code

    @classmethod
    def from_letters(cls, letters: Iterable[str]) -> "Word":
        code = 1
        for ch in letters:
            if ch == "I":
                code = (code << 1) | 1
            elif ch == "J":
                code = code << 1
            else:
                raise ValueError(f"letter must be 'I' or 'J', got {ch!r}")
        return cls(code)

    @classmethod
    def from_exponents(cls, n_left: int, r_mid: int, n_right: int) -> "Word":
        """The word I^n_left J^r_mid I^n_right."""
        if n_left < 0 or r_mid < 0 or n_right < 0:
            raise ValueError("exponents must be nonnegative")
        n = n_left + r_mid + n_right
        bits = (((1 << n_left) - 1) << (r_mid + n_right)) | ((1 << n_right) - 1)
        return cls((1 << n) | bits)

    @property
    def letters(self) -> str:
        n = self.code.bit_length() - 1
        return "".join("I" if (self.code >> (n - 1 - i)) & 1 else "J" for i in range(n))

    def __len__(self) -> int:
        return self.code.bit_length() - 1

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        nb = other.code.bit_length() - 1
        return Word((self.code << nb) | (other.code ^ (1 << nb)))

    def __eq__(self, other):
        return isinstance(other, Word) and self.code == other.code

    def __hash__(self):
        return hash(self.code)

    # Graded lex with I > J coincides with integer order on packed codes.
    def __lt__(self, other: "Word") -> bool:
        return self.code < other.code

    def __le__(self, other: "Word") -> bool:
        return self.code <= other.code

    def __gt__(self, other: "Word") -> bool:
        return self.code > other.code

    def __ge__(self, other: "Word") -> bool:
        return self.code >= other.code

    def __str__(self):
        if self.code == EMPTY_CODE:
            return "1"
        return "·".join("Ai" if ch == "I" else "Aj" for ch in self.letters)

    def __repr__(self):
        return f"Word({self.letters!r})"


EMPTY_WORD = Word(EMPTY_CODE)


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
    """Linear combination of words with ``{rho_degree: poly dict}`` coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Word, dict] | None = None):
        """Drops zero integers, then zero q-polynomials, then empty coefficients."""
        cleaned: dict[Word, dict] = {}
        if terms:
            for w, c in terms.items():
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
    def from_word(cls, word: Word, coeff: dict = UNIT) -> "NCPolynomial":
        return cls._raw({word: coeff} if coeff else {})

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
            out: dict[Word, dict] = {}
            for wa, ca in self.terms.items():
                # The words wa·wb are distinct, so one merge per left term.
                row = {wa * wb: _rmul(ca, cb) for wb, cb in other.terms.items()}
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
        parts = []
        # Descending graded lex with I > J: the module term order.
        for w, c in sorted(self.terms.items(), key=lambda t: t[0].code, reverse=True):
            if w.code == EMPTY_CODE:
                parts.append(f"({_rho_str(c)})")
            else:
                parts.append(f"({_rho_str(c)})·{w}")
        return " + ".join(parts)

    def __repr__(self):
        return f"NCPolynomial({str(self)})"


ONE = NCPolynomial._raw({EMPTY_WORD: UNIT})
AI = NCPolynomial._raw({Word.from_letters("I"): UNIT})
AJ = NCPolynomial._raw({Word.from_letters("J"): UNIT})


def monomial(n_left: int, r_mid: int, n_right: int) -> NCPolynomial:
    """The single word I^n_left J^r_mid I^n_right with coefficient 1."""
    return NCPolynomial.from_word(Word.from_exponents(n_left, r_mid, n_right))
