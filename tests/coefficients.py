"""Free-algebra coefficients for the tests, written as lists of q-polynomials."""

from qonsager.qcoeff import LaurentScalar


def rho(*coeffs):
    """The coefficient sum_p coeffs[p] rho^p as ``{rho_degree: poly dict}``.

    Each entry is a LaurentScalar or an int; zero entries are left out.
    """
    out = {}
    for p, c in enumerate(coeffs):
        num = c.num if isinstance(c, LaurentScalar) else ({0: c} if c else {})
        if num:
            out[p] = num
    return out
