"""The explicitly known low-rank coefficient tables, frozen as fixtures.

Each value is entered in its published closed form (products of q-integers
and explicit palindromic Laurent polynomials), with the palindromic
completion c[r,p,k] = c[r,p,r-2p+1-k] filling the halves that are not
written out.  Every pipeline must reproduce these tables exactly.
"""

from free_ring import letters, monomial

from qonsager.coeffs import CoeffTable, cells, delta_indices
from qonsager.freealg import word_from_exponents
from qonsager.qcoeff import ZERO, LaurentScalar, _pneg, exact_div, q_binomial, q_int
from qonsager.reducer import reduce


def L(d):
    return LaurentScalar(d)


TWO = q_int(2)
THREE = q_int(3)


def _sq(x):
    return x * x


_EXPLICIT = {
    2: {
        (1, 0): L({2: 1, 0: 2, -2: 1}),
        (1, 1): L({2: 1, 0: 2, -2: 1}),
    },
    3: {
        (1, 0): L({4: 1, 2: 2, 0: 4, -2: 2, -4: 1}),
        (1, 1): q_int(4) * L({2: 1, 0: 3, -2: 1}),
        (2, 0): _sq(L({2: 1, 0: 1, -2: 1})),
    },
    4: {
        (1, 0): L({4: 1, 0: 3, -4: 1}) * _sq(TWO),
        (1, 1): q_int(5) * THREE * _sq(TWO),
        (2, 0): _sq(L({2: 1, -2: 1})) * _sq(_sq(TWO)),
    },
    5: {
        (1, 0): L({8: 1, 6: 2, 4: 4, 2: 6, 0: 9, -2: 6, -4: 4, -6: 2, -8: 1}),
        (1, 1): exact_div(q_int(6), THREE)
        * L({8: 1, 6: 4, 4: 8, 2: 14, 0: 16, -2: 14, -4: 8, -6: 4, -8: 1}),
        (1, 2): exact_div(q_int(6), TWO) * q_int(5) * L({4: 1, 2: 3, 0: 6, -2: 3, -4: 1}),
        (2, 0): L({12: 1, 10: 4, 8: 11, 6: 20, 4: 31, 2: 40, 0: 45,
                   -2: 40, -4: 31, -6: 20, -8: 11, -10: 4, -12: 1}),
        (2, 1): exact_div(q_int(6), THREE)
        * L({10: 1, 8: 6, 6: 17, 4: 32, 2: 47, 0: 53,
             -2: 47, -4: 32, -6: 17, -8: 6, -10: 1}),
        (3, 0): _sq(THREE * q_int(5)),
    },
}


def fixture_table(r: int) -> CoeffTable:
    """The rank-r fixture for 1 <= r <= 5."""
    if r == 1:
        entries = {
            (0, 0): q_binomial(2, 0),
            (0, 1): q_binomial(2, 1),
            (0, 2): q_binomial(2, 2),
            (1, 0): LaurentScalar(1),
        }
        return CoeffTable(1, entries, "fixture")
    entries = {}
    for (p, k) in cells(r):
        if p == 0:
            entries[(p, k)] = q_binomial(r + 1, k)
        elif (p, k) in _EXPLICIT[r]:
            entries[(p, k)] = _EXPLICIT[r][(p, k)]
        else:
            entries[(p, k)] = _EXPLICIT[r][(p, r - 2 * p + 1 - k)]
    return CoeffTable(r, entries, "fixture")


# -- the M table, cell by cell: the oracle for the packed M of coeffs -----------


def m_table(base: CoeffTable) -> dict:
    """The M coefficients built from one rank's table, keyed (r, p, k).

    All six printed variants (even/odd rank, boundary k) collapse to the one
    formula M[r,p,k] = c[r,p,k] - c[r,0,1]*c[r,p,k-1] with out-of-range c
    read as zero; the boundary cases are asserted against this form in the
    test suite.  Indices run 0 <= k <= r + 2 - 2p.
    """
    r = base.r
    c1 = base.entry(0, 1)
    em = {}
    for p in range(0, (r + 1) // 2 + 1):
        for k in range(0, r + 3 - 2 * p):
            em[(r, p, k)] = base.entries.get((p, k), ZERO) - c1 * base.entries.get((p, k - 1), ZERO)
    return em


def eta_moves(eta: dict, m: int) -> dict:
    """Row m of the eta table as moves of NF(I^m J), keyed like coeffs._moves.

    Entry (m, p, 0) is the move (block IJ, m - 1 - 2p, rho^p) and (m, p, 1)
    the move (block J, m - 2p, rho^p); the value is the entry's poly dict.
    """
    blocks = (word_from_exponents(1, 1, 0), word_from_exponents(0, 1, 0))
    return {
        (blocks[j], m - 1 - 2 * p + j, p): eta[(m, p, j)].num
        for j in (0, 1)
        for p in range((m - 1 + j) // 2 + 1)
    }


def moves_of(nf) -> dict:
    """The moves of nf, a normal form of I^m J, keyed like coeffs._moves.

    Every word of nf must be a block IJ or J followed by I^m; each (word,
    rho degree) term is the move (block code, m, rho degree) with its poly
    dict.  A word of any other shape fails an assertion.
    """
    moves = {}
    for w, coeff in nf.items():
        n = w.bit_length() - 1
        if n >= 1 and w == word_from_exponents(0, 1, n - 1):
            block, m = word_from_exponents(0, 1, 0), n - 1
        elif n >= 2 and w == word_from_exponents(1, 1, n - 2):
            block, m = word_from_exponents(1, 1, 0), n - 2
        else:
            raise AssertionError(f"the normal form has the word {letters(w)!r}, not IJ I^m or J I^m")
        moves.update({(block, m, d): poly for d, poly in coeff.items()})
    return moves


def kernel_moves(m: int) -> dict:
    """The rewrite kernel's reading of NF(I^m J), the oracle for coeffs._moves(m)."""
    return moves_of(reduce(monomial(m, 1, 0)))


def next_table_by_cases(r: int, prev: dict, eta: dict) -> dict:
    """The paper's induction step to rank r, cell case by cell case.

    The slow oracle for the one-rule step coeffs._next_table, on
    LaurentScalar.  prev holds the rank-(r-1) entries, c1 = [r+1]_q,
    M(p,k) = prev(p,k) - prev(0,1) prev(p,k-1) with prev read as zero
    outside its table (the formula of m_table), E1(m,p) = eta[m,p,1],
    sign(n) = (-1)^n and h = l + k//2; the sums run over p >= 0:

        c[0,0] = prev(0,0),  c[0,1] = c1 prev(0,0)
        c[l,0] = sum_{p <= min(l, r//2)} sign(p+l) M(p, 2(l-p))
        c[0,k] = M(0,k) E1(k,0) [+ c1 prev(0,k-1) E1(k-1,0) if k >= 3]
        k odd:  sum_{p <= min(l, h-1)} sign(p+l) M(p, 2(h-p)+1) E1(2(h-p)+1, l-p)
                + c1 sum_{p <= l} sign(p+l) prev(p, 2(h-p)) [E1(2(h-p), l-p) if k > 1]
        k even: sum_{p <= l} sign(p+l) M(p, 2(h-p)) E1(2(h-p), l-p)
                + c1 sum_{p <= min(l, h-2)} sign(p+l) prev(p, 2(h-p)-1) E1(2(h-p)-1, l-p)

    On the genuine rank-(r-1) table c[0,0] = 1 and c[0,1] = c1.
    """
    c1 = q_int(r + 1)
    zero = LaurentScalar(0)

    def M(p, k):
        return prev.get((p, k), zero) - prev[(0, 1)] * prev.get((p, k - 1), zero)

    def E1(m, p):
        return eta[(m, p, 1)]

    def sign(n):
        return 1 if n % 2 == 0 else -1

    c = {}
    for (l, k) in cells(r):
        h = l + k // 2
        if l == 0 and k < 2:
            c[(0, k)] = prev[(0, 0)] * (c1 if k else 1)
        elif l == 0:
            c[(0, k)] = M(0, k) * E1(k, 0)
            if k >= 3:
                c[(0, k)] += c1 * prev[(0, k - 1)] * E1(k - 1, 0)
        elif k == 0:
            c[(l, 0)] = sum((M(p, 2 * (l - p)) * sign(p + l) for p in range(min(l, r // 2) + 1)), zero)
        elif k % 2:
            c[(l, k)] = sum(
                (M(p, 2 * (h - p) + 1) * E1(2 * (h - p) + 1, l - p) * sign(p + l)
                 for p in range(min(l, h - 1) + 1)), zero,
            ) + c1 * sum(
                (prev[(p, 2 * (h - p))] * (E1(2 * (h - p), l - p) if k > 1 else 1) * sign(p + l)
                 for p in range(l + 1)), zero,
            )
        else:
            c[(l, k)] = sum(
                (M(p, 2 * (h - p)) * E1(2 * (h - p), l - p) * sign(p + l) for p in range(l + 1)), zero,
            ) + c1 * sum(
                (prev[(p, 2 * (h - p) - 1)] * E1(2 * (h - p) - 1, l - p) * sign(p + l)
                 for p in range(min(l, h - 2) + 1)), zero,
            )
    return c


# -- the solve rows, one kernel run per cell: the oracle for c_solve's rows ----


def solve_rows_by_cells(r: int) -> dict:
    """The rows of the rank-r cancellation system, one reduction per cell.

    The slow oracle for the shared normal forms of coeffs._normal_forms:
    cell (p, k) reduces its monomial I^(r-2p+1-k) J^r I^k with the rewrite
    kernel, and every (normal word, rho degree) term of that normal form
    adds the cell with its sign (-1)^(p+k) times the coefficient to the row
    of that key.  Rows are {(word code, rho degree): {cell: LaurentScalar}},
    their cells in delta_indices order.
    """
    rows = {}
    for (p, k, sign) in delta_indices(r):
        for w, coeff in reduce(monomial(r - 2 * p + 1 - k, r, k)).items():
            for d, num in coeff.items():
                rows.setdefault((w, p + d), {})[(p, k)] = LaurentScalar._raw(
                    num if sign > 0 else _pneg(num))
    return rows


# -- structural invariants every table must have ------------------------------


def binomial_row_ok(table: CoeffTable) -> bool:
    """c[r,0,k] equals the q-binomial (r+1 choose k)_q for all k."""
    return all(
        table.entry(0, k) == q_binomial(table.r + 1, k) for k in range(table.r + 2)
    )


def palindromic_ok(table: CoeffTable) -> bool:
    """c[r,p,k] == c[r,p,r-2p+1-k] for every cell."""
    return all(
        table.entry(p, k) == table.entry(p, table.r - 2 * p + 1 - k)
        for (p, k) in cells(table.r)
    )


def bar_invariant_ok(table: CoeffTable) -> bool:
    """Every entry is invariant under q -> q^-1."""
    return all(v.bar() == v for v in table.entries.values())
