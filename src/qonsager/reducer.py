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

The tests keep an independent slow engine on the coefficient dicts as the
oracle for the kernel (``tests/slow_reducer.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernel_py
from .freealg import NCPolynomial

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
