"""Free associative algebra on the two generators of one linked pair.

Words over the alphabet {I, J} stand for products of the generators A_i and
A_j.  A word is its code, a plain int ``(1 << n) | bits`` where n is the
length and bit (n-1-pos) is 1 for the letter I, 0 for J;
``word_from_exponents`` and ``concat`` build the codes that the package needs
(the tests spell codes and read them back with ``word`` and ``letters`` from
``tests/free_ring.py``).  The sentinel bit makes the packing injective, and
comparing codes as integers is exactly the graded lexicographic order with
I > J, which is the term order used everywhere (iteration and the reducer's
termination measure).

An element of the algebra is a plain dict ``{code: coefficient}``.  A
coefficient is a polynomial in rho over Laurent polynomials in q, stored as
``{rho_degree: nonzero poly dict in q}`` (see ``qcoeff``); zero coefficients
are never stored.  That is the form ``verify.build_delta`` builds and the
rewrite kernel reads and returns.  Nothing in the package adds or multiplies
elements, so this module holds only the word codec; the tests keep a ring on
these dicts for their oracles.
"""

from __future__ import annotations


def word_from_exponents(n_left: int, r_mid: int, n_right: int) -> int:
    """The code of I^n_left J^r_mid I^n_right."""
    if n_left < 0 or r_mid < 0 or n_right < 0:
        raise ValueError("exponents must be nonnegative")
    n = n_left + r_mid + n_right
    bits = (((1 << n_left) - 1) << (r_mid + n_right)) | ((1 << n_right) - 1)
    return (1 << n) | bits


def concat(a: int, b: int) -> int:
    """The code of the word a followed by the word b."""
    nb = b.bit_length() - 1
    return (a << nb) | (b ^ (1 << nb))
