"""Exact-arithmetic engine for higher-order relations of ADE-type
generalized q-Onsager algebras.

Subpackage map:

* ``qcoeff``   -- exact Laurent-polynomial arithmetic in q, and polynomials
                  over q in further variables (coeffs, repcheck)
* ``freealg``  -- word codec of the free algebra on the two generators of one
                  linked pair: a word is its int code, an element the plain
                  dict ``{code: {rho_degree: poly dict}}``
* ``reducer``  -- ordering prescription as a confluent rewriting system on
                  those dicts; it serves ``verify`` only
* ``coeffs``   -- the coefficient tables c[r,p,k] via four independent pipelines
* ``verify``   -- builds the degree-(2r+1) relation and reduces it to zero
* ``repcheck`` -- evaluation-representation and spectral evidence checks
* ``cli``      -- batch front end
"""

__version__ = "0.1.0"

from .qcoeff import (  # noqa: F401
    LaurentScalar,
    exact_div,
    q_binomial,
    q_factorial,
    q_int,
)
