"""The ordering prescription as a terminating, confluent rewriting system.

One rewrite rule: a factor IIJ is replaced by ``[2]_q IJI - JII + rho J``
(the rho term dropped in rho-zero mode, which verifies the plain q-Serre
family with the same engine).  The pattern has no self-overlap, so normal
forms are unique; every replacement word is strictly below IIJ in graded lex
with I > J, so the multiset of words strictly decreases and reduction
terminates on every input.

The kernel module ``_kernel_py`` does the reduction.  It takes and returns
``{word code: {rho_degree: {q_exponent: c}}}`` with nonzero int c, which is
exactly the free-algebra element that ``reduce`` takes and returns: a word is
its int code (see ``freealg``).  So ``_pack`` hands the kernel the element
itself, which it only reads, and ``_unpack`` hands back its result; both are
identity functions, kept so that a profiler can time them as stages.  The
kernel holds each coefficient as one int with a slot per reachable
q-exponent (they step by two, since ``e - inversions(word)`` keeps its
parity under the rule), so every rewrite is a left shift, and once the run
is over proves it exact for any integer exponents and coefficients, from one
bound per word that its move memo yields; see ``_kernel_py`` for how.

The tests keep an independent slow engine on the same dicts as the oracle
for the kernel (``tests/slow_reducer.py``), and the sums and products that
the oracles need (``tests/free_ring.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernel_py

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


def _pack(x: dict) -> dict:
    """x in the kernel's form, which is x itself."""
    return x


def _unpack(reduced: dict) -> dict:
    return reduced


def reduce_with_stats(x: dict, rho_zero: bool = False) -> tuple[dict, ReduceStats]:
    """Normal form of x plus a profile of the run.

    x is ``{word code: {rho_degree: poly dict}}`` with no zero coefficient,
    and is only read.  The result, in the same form, contains no word with an
    IIJ factor and equals x modulo the two-sided ideal of the defining
    relation (its rho-zero truncation in rho-zero mode).
    """
    if not x:
        return {}, ReduceStats(0, 0, 0)
    out, peak, steps, passes = _kernel.reduce_packed(_pack(x), rho_zero)
    return _unpack(out), ReduceStats(peak, steps, passes)


def reduce(x: dict, rho_zero: bool = False) -> dict:
    """Unique normal form of x under the ordering prescription."""
    return reduce_with_stats(x, rho_zero)[0]
