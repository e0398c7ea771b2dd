"""The ordering prescription as a terminating, confluent rewriting system.

One rewrite rule: a factor IIJ is replaced by ``[2]_q IJI - JII + rho J``
(the rho term dropped in rho-zero mode, which verifies the plain q-Serre
family with the same engine).  The pattern has no self-overlap, so normal
forms are unique; every replacement word is strictly below IIJ in graded lex
with I > J, so the multiset of words strictly decreases and reduction
terminates on every input.

The kernel module ``_kernel_py`` does the reduction.  It takes and returns
``{word code: {rho_degree: {q_exponent: c}}}`` with nonzero int c, which is
exactly ``NCPolynomial.terms``: a word is its int code (see ``freealg``).  So
``_pack`` hands the kernel the terms themselves, which it only reads, and
``_unpack`` wraps its result; both are identity wrappers, kept so that a
profiler can time them as stages.  The kernel holds each coefficient as one
int with a slot per reachable q-exponent (they step by two, since
``e - inversions(word)`` keeps its parity under the rule), so every rewrite
is a left shift, and keeps the result exact for any integer exponents and
coefficients; see ``_kernel_py`` for how.

``reduce_randomized`` is an independent slow engine on the coefficient dicts
that the tests use as the oracle for the kernel.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from . import _kernel_py
from .freealg import NCPolynomial
from .qcoeff import _madd, _pmul, _pneg

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


def redex_positions(code: int) -> list[int]:
    """All positions where IIJ occurs in the word."""
    n = code.bit_length() - 1
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


def _pack(x: NCPolynomial) -> dict:
    """x in the kernel's form, which is its own terms."""
    return x.terms


def _unpack(reduced: dict) -> NCPolynomial:
    return NCPolynomial._raw(reduced)


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
    on_step: Callable[[int, tuple[int, ...]], None] | None = None,
) -> NCPolynomial:
    """Reduce with a randomized redex-selection order.

    Confluence makes the strategy semantically irrelevant; this engine exists
    so tests can compare arbitrary strategies against the kernel and inspect
    individual steps via ``on_step(redex_word, produced_words)``.  Works
    directly on the ``{rho_degree: poly dict}`` coefficients.
    """
    terms = dict(x.terms)
    # The live words with a redex, as a swap-remove list plus each word's slot
    # in it, so a step costs time linear in the words it touches.
    reducible: list[int] = []
    slot: dict[int, int] = {}

    def sync(word: int) -> None:
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
    while reducible:
        word = rng.choice(reducible)
        pos = rng.choice(redex_positions(word))
        coeff = terms.pop(word)
        sync(word)
        # [2]_q c on IJI, -c on JII, rho c on J
        parts = [
            {p: _pmul(v, {1: 1, -1: 1}) for p, v in coeff.items()},
            {p: _pneg(v) for p, v in coeff.items()},
        ]
        if not rho_zero:
            parts.append({p + 1: v for p, v in coeff.items()})
        produced = _rewrite_codes(word, pos)[: len(parts)]
        for tw, part in zip(produced, parts):
            n = _madd(terms.get(tw, {}), part)
            if n:
                terms[tw] = n
            else:
                terms.pop(tw, None)
            sync(tw)
        if on_step is not None:
            on_step(word, produced)
    return NCPolynomial._raw(terms)
