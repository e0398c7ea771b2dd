"""Free associative algebra on the two generators of one linked pair.

Words over the alphabet {I, J} stand for products of the generators A_i and
A_j.  A word is stored packed into a single integer: ``code = (1 << n) | bits``
where n is the length and bit (n-1-pos) is 1 for the letter I, 0 for J.  The
sentinel bit makes the packing injective, and comparing codes as integers is
exactly the graded lexicographic order with I > J, which is the term order
used everywhere (iteration, rendering, and the reducer's termination measure).

NCPolynomial is a finite linear combination of words with RhoScalar
coefficients; zero coefficients are never stored.  Values are immutable and
operations pure.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .qcoeff import RHO_ONE, LaurentScalar, RhoScalar

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

    @property
    def i_degree(self) -> int:
        return (self.code ^ (1 << len(self))).bit_count()

    @property
    def j_degree(self) -> int:
        return len(self) - self.i_degree

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


def _as_rho(coeff) -> RhoScalar:
    if isinstance(coeff, RhoScalar):
        return coeff
    if isinstance(coeff, (LaurentScalar, int)):
        s = coeff if isinstance(coeff, LaurentScalar) else LaurentScalar(coeff)
        return RhoScalar((s,))
    raise TypeError(f"cannot use {type(coeff).__name__} as a coefficient")


class NCPolynomial:
    """Linear combination of words with RhoScalar coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Word, RhoScalar] | None = None):
        cleaned: dict[Word, RhoScalar] = {}
        if terms:
            for w, c in terms.items():
                c = _as_rho(c)
                if not c.is_zero:
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
    def from_word(cls, word: Word, coeff=1) -> "NCPolynomial":
        c = _as_rho(coeff)
        return cls._raw({word: c} if not c.is_zero else {})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, word: Word) -> RhoScalar:
        return self.terms.get(word, RhoScalar(()))

    def sorted_terms(self) -> list[tuple[Word, RhoScalar]]:
        """Terms in the module term order: descending graded lex, I > J."""
        return sorted(self.terms.items(), key=lambda t: t[0].code, reverse=True)

    def __add__(self, other: "NCPolynomial") -> "NCPolynomial":
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        out = dict(self.terms)
        for w, c in other.terms.items():
            n = out.get(w)
            n = c if n is None else n + c
            if n.is_zero:
                out.pop(w, None)
            else:
                out[w] = n
        return NCPolynomial._raw(out)

    def __sub__(self, other: "NCPolynomial") -> "NCPolynomial":
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "NCPolynomial":
        return NCPolynomial._raw({w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, NCPolynomial):
            out: dict[Word, RhoScalar] = {}
            for wa, ca in self.terms.items():
                for wb, cb in other.terms.items():
                    w = wa * wb
                    c = ca * cb
                    n = out.get(w)
                    n = c if n is None else n + c
                    if n.is_zero:
                        out.pop(w, None)
                    else:
                        out[w] = n
            return NCPolynomial._raw(out)
        if isinstance(other, (RhoScalar, LaurentScalar, int)):
            c = _as_rho(other)
            out = {}
            for w, cw in self.terms.items():
                n = cw * c
                if not n.is_zero:
                    out[w] = n
            return NCPolynomial._raw(out)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (RhoScalar, LaurentScalar, int)):
            return self * other
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
        for w, c in self.sorted_terms():
            if w.code == EMPTY_CODE:
                parts.append(f"({c})")
            else:
                parts.append(f"({c})·{w}")
        return " + ".join(parts)

    def __repr__(self):
        return f"NCPolynomial({str(self)})"


ONE = NCPolynomial._raw({EMPTY_WORD: RHO_ONE})
AI = NCPolynomial._raw({Word.from_letters("I"): RHO_ONE})
AJ = NCPolynomial._raw({Word.from_letters("J"): RHO_ONE})


def monomial(n_left: int, r_mid: int, n_right: int) -> NCPolynomial:
    """The single word I^n_left J^r_mid I^n_right with coefficient 1."""
    return NCPolynomial.from_word(Word.from_exponents(n_left, r_mid, n_right))
