"""The ordering prescription as a terminating, confluent rewriting system.

One rewrite rule: a factor IIJ is replaced by ``[2]_q IJI - JII + rho J``
(the rho term dropped in rho-zero mode, which verifies the plain q-Serre
family with the same engine).  The pattern has no self-overlap, so normal
forms are unique; every replacement word is strictly below IIJ in graded lex
with I > J, so the multiset of words strictly decreases and reduction
terminates on every input.

The kernel module ``_kernel_py`` does the reduction.  It takes and returns
``{word.code: {rho_degree: {q_exponent: c}}}`` with nonzero int c; the
inner dicts ``_pack`` hands it are the coefficients' own LaurentScalar poly
dicts, which the kernel only reads.  It holds each coefficient as one int
and keeps the result exact for any integer exponents and coefficients; see
``_kernel_py`` for how.

``reduce_randomized`` is an independent slow engine on RhoScalar
coefficients that the tests use as the oracle for the kernel.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from . import _kernel_py
from .freealg import NCPolynomial, Word
from .qcoeff import ONE, ZERO, LaurentScalar, RhoScalar, q_int

_kernel = _kernel_py


def kernel_backend() -> str:
    """Name of the rewrite kernel."""
    return _kernel.BACKEND


@dataclass(frozen=True)
class ReduceStats:
    """Profile of one reduction run."""

    peak_terms: int
    steps: int
    passes: int


def redex_positions(word: Word) -> list[int]:
    """All positions where IIJ occurs in the word."""
    n = len(word)
    code = word.code
    return [i for i in range(n - 2) if (code >> (n - 3 - i)) & 7 == 0b110]


def _rewrite_codes(code: int, pos: int) -> tuple[int, int, int]:
    """Codes of the three replacement words for the redex at pos.

    Returns (IJI-word, JII-word, J-word); the first two keep the length,
    the last is shorter by two letters.
    """
    n = code.bit_length() - 1
    tail = n - 3 - pos
    bits = code ^ (1 << n)
    suffix = bits & ((1 << tail) - 1)
    head = (bits >> (tail + 3)) | (1 << pos)  # prefix with its own sentinel
    w_iji = (((head << 3) | 0b101) << tail) | suffix
    w_jii = (((head << 3) | 0b011) << tail) | suffix
    w_j = ((head << 1) << tail) | suffix
    return w_iji, w_jii, w_j


def rewrite_at(word: Word, pos: int, rho_zero: bool = False) -> NCPolynomial:
    """Apply the rule to the redex at the given position (one rewrite step)."""
    if pos not in redex_positions(word):
        raise ValueError(f"no IIJ factor at position {pos} of {word.letters!r}")
    w_iji, w_jii, w_j = _rewrite_codes(word.code, pos)
    terms = {
        Word(w_iji): RhoScalar((q_int(2),)),
        Word(w_jii): RhoScalar((-ONE,)),
    }
    if not rho_zero:
        terms[Word(w_j)] = RhoScalar((ZERO, ONE))
    return NCPolynomial(terms)


def _pack(x: NCPolynomial) -> dict:
    """x in the kernel's form ``{word.code: {rho_degree: {q_exponent: c}}}``."""
    return {
        word.code: {p: ls.num for p, ls in enumerate(coeff.coeffs)}
        for word, coeff in x.terms.items()
    }


def _unpack(reduced: dict) -> NCPolynomial:
    terms: dict[Word, RhoScalar] = {}
    for code, by_rho in reduced.items():
        coeffs = [LaurentScalar._raw(by_rho.get(p, {})) for p in range(max(by_rho) + 1)]
        terms[Word(code)] = RhoScalar(coeffs)
    return NCPolynomial(terms)


def reduce_with_stats(x: NCPolynomial, rho_zero: bool = False) -> tuple[NCPolynomial, ReduceStats]:
    """Normal form of x plus a profile of the run.

    The result contains no word with an IIJ factor and equals x modulo the
    two-sided ideal of the defining relation (its rho-zero truncation in
    rho-zero mode).
    """
    if x.is_zero:
        return x, ReduceStats(0, 0, 0)
    out, peak, steps, passes = _kernel.reduce_packed(_pack(x), rho_zero)
    return _unpack(out), ReduceStats(peak, steps, passes)


def reduce(x: NCPolynomial, rho_zero: bool = False) -> NCPolynomial:
    """Unique normal form of x under the ordering prescription."""
    return reduce_with_stats(x, rho_zero)[0]


def reduce_randomized(
    x: NCPolynomial,
    rng: random.Random,
    rho_zero: bool = False,
    on_step: Callable[[Word, list[Word]], None] | None = None,
) -> NCPolynomial:
    """Reduce with a randomized redex-selection order.

    Confluence makes the strategy semantically irrelevant; this engine exists
    so tests can compare arbitrary strategies against the kernel and inspect
    individual steps via ``on_step(redex_word, produced_words)``.  Works
    directly on RhoScalar coefficients.
    """
    terms = dict(x.terms)
    # The live words with a redex, as a swap-remove list plus each word's slot
    # in it, so a step costs time linear in the words it touches.
    reducible: list[Word] = []
    slot: dict[Word, int] = {}

    def sync(word: Word) -> None:
        wanted = word in terms and bool(redex_positions(word))
        if wanted and word not in slot:
            slot[word] = len(reducible)
            reducible.append(word)
        elif not wanted and word in slot:
            i = slot.pop(word)
            last = reducible.pop()
            if last != word:
                reducible[i] = last
                slot[last] = i

    for word in terms:
        sync(word)
    factors = [q_int(2), -ONE]
    if not rho_zero:
        factors.append(RhoScalar((ZERO, ONE)))
    while reducible:
        word = rng.choice(reducible)
        pos = rng.choice(redex_positions(word))
        coeff = terms.pop(word)
        sync(word)
        codes = _rewrite_codes(word.code, pos)
        produced = [Word(code) for code in codes[: len(factors)]]
        for tw, factor in zip(produced, factors):
            n = terms.get(tw, RhoScalar(())) + coeff * factor
            if n.is_zero:
                terms.pop(tw, None)
            else:
                terms[tw] = n
            sync(tw)
        if on_step is not None:
            on_step(word, produced)
    return NCPolynomial(terms)
