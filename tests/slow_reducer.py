"""Slow oracles for the rewrite kernel, on plain dicts.

Both apply the one rule IIJ -> [2]_q IJI - JII + rho J (the rho term dropped
in rho-zero mode) directly on the ``{rho_degree: poly dict}`` coefficients of
a free-algebra element, the plain dict ``{word code: coefficient}`` that
``qonsager.reducer.reduce`` takes and returns, and share no code with
``qonsager._kernel_py``.  ``reduce_randomized`` rewrites a randomly chosen
redex one step at a time; confluence makes its strategy irrelevant, so its
normal form must equal ``reduce``'s.  ``reduce_by_passes`` follows the
kernel's own schedule, so its counters must equal the kernel's too.
"""

from __future__ import annotations

import random
from typing import Callable

from qonsager.qcoeff import _madd, _pmul, _pneg


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


def _products(coeff: dict, rho_zero: bool) -> list[dict]:
    """The coefficients a rewrite of a word with coefficient coeff gives its
    IJI-, JII- and (unless rho_zero) J-word: [2]_q coeff, -coeff, rho coeff."""
    parts = [
        {p: _pmul(v, {1: 1, -1: 1}) for p, v in coeff.items()},
        {p: _pneg(v) for p, v in coeff.items()},
    ]
    if not rho_zero:
        parts.append({p + 1: v for p, v in coeff.items()})
    return parts


def _merge(terms: dict, word: int, coeff: dict) -> None:
    """Add coeff to the word's coefficient in terms, dropping a zero."""
    if n := _madd(terms.get(word, {}), coeff):
        terms[word] = n
    else:
        terms.pop(word, None)


def reduce_by_passes(
    x: dict,
    rho_zero: bool = False,
    on_pass: Callable[[dict, dict], None] | None = None,
) -> tuple[dict, int, int, int]:
    """The kernel's pass schedule with exact coefficients and no packing.

    Each pass takes every word with a redex out at once and rewrites its
    leftmost redex; the products merge into what is left, so a product that
    has a redex waits for the next pass.  Returns (normal form, peak, steps,
    passes) as ``qonsager._kernel_py.reduce_packed`` counts them: peak is the
    most words alive at the start or after any pass, steps the number of
    rewrites.  After each pass, ``on_pass(sources, terms)`` sees the words
    the pass rewrote with their coefficients, and every word alive after it.
    """
    terms = dict(x)
    peak, steps, passes = len(terms), 0, 0
    while sources := {w: terms.pop(w) for w in list(terms) if redex_positions(w)}:
        passes += 1
        steps += len(sources)
        for word, coeff in sources.items():
            produced = _rewrite_codes(word, redex_positions(word)[0])
            for tw, part in zip(produced, _products(coeff, rho_zero)):
                _merge(terms, tw, part)
        peak = max(peak, len(terms))
        if on_pass is not None:
            on_pass(sources, terms)
    return terms, peak, steps, passes


def reduce_randomized(
    x: dict,
    rng: random.Random,
    rho_zero: bool = False,
    on_step: Callable[[int, tuple[int, ...]], None] | None = None,
) -> dict:
    """Reduce with a randomized redex-selection order.

    Confluence makes the strategy semantically irrelevant; this engine exists
    so tests can compare arbitrary strategies against the kernel and inspect
    individual steps via ``on_step(redex_word, produced_words)``.  Works
    directly on the ``{rho_degree: poly dict}`` coefficients.
    """
    terms = dict(x)
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
        parts = _products(coeff, rho_zero)
        produced = _rewrite_codes(word, pos)[: len(parts)]
        for tw, part in zip(produced, parts):
            _merge(terms, tw, part)
            sync(tw)
        if on_step is not None:
            on_step(word, produced)
    return terms
