"""The coefficient tables c[r,p,k] by four independent pipelines.

A table at rank r holds one Laurent polynomial per admissible cell (p, k),
0 <= p <= (r+1)//2 and 0 <= k <= r - 2p + 1.  The four routes to the same
table are deliberately independent so they can cross-check each other:

* ``c_recursive``   -- one recursion rule for every cell, driven by the eta
                       and M auxiliary tables, seeded from the trivial
                       rank-0 relation;
* ``c_closed``      -- the closed double-sum formula over index families;
* ``c_from_polynomial`` -- expansion of the factorized generating
                       polynomial in x, y and rho;
* ``c_solve``       -- treating all entries as unknowns, reducing the
                       candidate relation by the rewrite rule alone (the
                       normal forms of I^a J^r, built one J at a time from
                       those of I^a J by their recurrence) and solving the
                       resulting linear system exactly, in one pass down the
                       term order (it is triangular there).

Exact agreement of all pipelines is the core evidence this package produces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .freealg import concat, word_from_exponents
from .qcoeff import (
    ONE,
    ZERO,
    LaurentScalar,
    _kdot,
    _kpack,
    _kunpack,
    _kwidth,
    _l1,
    _madd,
    _mnorm,
    _mprod,
    _msub,
    _pmul,
    _pneg,
    q_int,
)


class CoefficientSystemError(Exception):
    """The linear system for a table is inconsistent, or one pass cannot solve it.

    Raised by c_solve and surfaced loudly.  An inconsistency (or a solution
    outside Laurent polynomials) would falsify the existence of the relation
    at that rank; a row with two open unknowns ("not triangular") or an
    unknown that no row fixes ("under-determined") falsifies nothing by
    itself.
    """


class ShapeError(Exception):
    """The expanded generating polynomial stepped outside the expected shape."""


def cells(r: int) -> Iterator[tuple[int, int]]:
    """Admissible (p, k) index pairs of the rank-r table."""
    if r < 1:
        raise ValueError("rank must be >= 1")
    for p in range(0, (r + 1) // 2 + 1):
        for k in range(0, r - 2 * p + 2):
            yield (p, k)


class CoeffTable:
    """The triangular coefficient array for one rank.

    Equality compares rank and entries only; the pipeline tag is provenance
    metadata so that tables from different routes can be compared directly.
    """

    __slots__ = ("r", "entries", "pipeline")

    ok = True  # a table is a result, not a check: emitting one always passes

    def __init__(self, r: int, entries: dict[tuple[int, int], LaurentScalar],
                 pipeline: str = "unknown"):
        expected = set(cells(r))
        got = set(entries)
        if got != expected:
            missing = sorted(expected - got)
            extra = sorted(got - expected)
            raise ValueError(
                f"rank-{r} table cells mismatch: missing {missing}, extra {extra}"
            )
        self.r = r
        self.entries = dict(entries)
        self.pipeline = pipeline

    def entry(self, p: int, k: int) -> LaurentScalar:
        return self.entries[(p, k)]

    def __eq__(self, other):
        return (
            isinstance(other, CoeffTable)
            and self.r == other.r
            and self.entries == other.entries
        )

    __hash__ = None

    def __repr__(self):
        return f"CoeffTable(r={self.r}, pipeline={self.pipeline!r})"

    # -- serialization -----------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "r": self.r,
            "pipeline": self.pipeline,
            "entries": [
                {"p": p, "k": k, "value": str(self.entries[(p, k)])}
                for (p, k) in sorted(self.entries)
            ],
        }

    def to_csv_rows(self) -> list[str]:
        rows = ["r,p,k,value"]
        for (p, k) in sorted(self.entries):
            rows.append(f"{self.r},{p},{k},{self.entries[(p, k)]}")
        return rows

    def to_text(self) -> str:
        lines = [f"# rank {self.r} coefficient table ({self.pipeline} pipeline)"]
        for (p, k) in sorted(self.entries):
            lines.append(f"c[{self.r},{p},{k}] = {self.entries[(p, k)]}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# eta recursion tables
# ---------------------------------------------------------------------------


def eta_table(m_max: int) -> dict[tuple[int, int, int], LaurentScalar]:
    """The eta coefficients for 2 <= m <= m_max, keyed (m, p, j).

    eta[m, p, j] is the coefficient of rho^p on the j-th normal shape in the
    normal form of I^m J: j = 0 selects the word I J I^(m-1-2p), j = 1 the
    word J I^(m-2p).  Row m holds the p whose word exists, p <= (m-1+j)//2,
    so an even row ends in eta[m, m/2, 1] = 1, the coefficient of
    rho^(m/2) J.  Row 2 is the rewrite rule IIJ = [2] IJI - JII + rho J;
    every later row follows from row m-1 by one rule, which rewrites
    I (I^(m-1) J) (entries outside row m-1 read as zero):

        eta[m,p,0] = [2] eta[m-1,p,0] + eta[m-1,p,1]
        eta[m,p,1] = eta[m-1,p-1,0] - eta[m-1,p,0]

    Each row is built once per process.  _moves(m) builds row m, the moves
    of NF(I^m J), independently by right multiplication.
    """
    if m_max < 2:
        raise ValueError("m_max must be >= 2")
    return {(m, p, j): v for m in range(2, m_max + 1) for (p, j), v in _eta_row(m).items()}


# The eta rows built so far in this process, row m at index m - 2.
_eta_rows = [{(0, 0): q_int(2), (0, 1): -ONE, (1, 1): ONE}]


def _eta_row(m: int) -> dict[tuple[int, int], LaurentScalar]:
    """Row m >= 2 of the eta table, keyed (p, j).  Callers must not mutate it.

    The missing rows up to m are built bottom-up in a loop, so a deep row
    does not deepen the stack.
    """
    if m < 2:
        raise ValueError("eta rows start at m = 2")
    two = q_int(2)
    for n in range(len(_eta_rows) + 2, m + 1):
        prev_row = _eta_rows[-1]
        prev = lambda p, j: prev_row.get((p, j), ZERO)  # noqa: E731
        row = {(p, 0): two * prev(p, 0) + prev(p, 1) for p in range((n + 1) // 2)}
        row.update({(p, 1): prev(p - 1, 0) - prev(p, 0) for p in range(n // 2 + 1)})
        _eta_rows.append(row)
    return _eta_rows[m - 2]


# ---------------------------------------------------------------------------
# pipeline 1: recursion family
# ---------------------------------------------------------------------------


def _m_cells(rank: int) -> Iterator[tuple[int, int]]:
    """The (p, k) index pairs of a rank's M table: p <= (rank+1)//2, k <= rank + 2 - 2p."""
    for p in range(0, (rank + 1) // 2 + 1):
        for k in range(0, rank + 3 - 2 * p):
            yield (p, k)


def _m_packed(packed: dict, rank: int, nb: int) -> dict:
    """The M table of one rank from its packed entries, packed at width 8*nb.

    M[p,k] = c[p,k] - c[0,1] c[p,k-1] over _m_cells(rank), with c read as
    zero outside the table: the one formula that all six printed variants
    (even/odd rank, boundary k) collapse to.
    """
    c1 = packed[(0, 1)]
    zero, one = (0, 0), (1, 0)
    return {
        (p, k): _kdot(((1, packed.get((p, k), zero), one), (-1, c1, packed.get((p, k - 1), zero))), nb)
        for (p, k) in _m_cells(rank)
    }


def _next_table(
    r: int, prev: dict[tuple[int, int], LaurentScalar], eta: dict[tuple[int, int, int], LaurentScalar]
) -> dict[tuple[int, int], LaurentScalar]:
    """One induction step: the rank-r entries from the rank-(r-1) entries prev.

    Every cell (l, k) follows one rule, with c1 = [r+1]_q, M the M table of
    prev (_m_packed), E(n, j) = eta[n, j, 1] and m = k + 2(l-p):

        c[l,k] = sum_{p <= min(l, r//2)} (-1)^(p+l) [M(p, m) E(m, l-p)
                                                    + c1 prev(p, m-1) E(m-1, l-p)]

    keeping only the terms whose eta index (n, j) lies in the triangle
    0 <= j <= n//2.  Above row 1 that is the j = 1 part of eta_table; below
    it E(0,0) = 1 (J is normal) and E(1,0) = 0 (IJ is normal).

    The step runs on qcoeff's packed layer.  A first pass lists each cell's
    (sign, M cell, E index) and (sign, prev cell, E index) terms and
    bounds the cell by sum ||M||_1 ||E||_1 + ||c1||_1 sum ||prev||_1 ||E||_1,
    with ||M||_1 bounded through its formula.  The largest bound fixes one
    width, every prev entry, E entry and c1 is packed once at it, each
    cell is one packed sum of products plus c1 times its prev sum, and each
    is decoded once against its own bound.  Which terms exist is decided by
    index arithmetic alone, and every read of M, prev and eta is strict: an
    index outside its table raises.
    """
    c1 = q_int(r + 1)
    terms = {}  # cell -> (M terms, prev terms), each (sign, table cell, E index)
    for (l, k) in cells(r):
        m_terms, p_terms = [], []
        for p in range(min(l, r // 2) + 1):
            sign, m, j = (-1) ** (p + l), k + 2 * (l - p), l - p
            if j <= m // 2:
                m_terms.append((sign, (p, m), (m, j)))
            if j <= (m - 1) // 2:
                p_terms.append((sign, (p, m - 1), (m - 1, j)))
        terms[(l, k)] = (m_terms, p_terms)

    e1 = {(0, 0): ONE.num, (1, 0): {}}
    e1.update({(m, p): v.num for (m, p, j), v in eta.items() if j == 1})
    n_prev = {cell: _l1(v.num) for cell, v in prev.items()}
    n_e1 = {i: _l1(a) for i, a in e1.items()}
    n_c1 = _l1(c1.num)
    n_m = {(p, k): n_prev.get((p, k), 0) + n_prev[(0, 1)] * n_prev.get((p, k - 1), 0)
           for (p, k) in _m_cells(r - 1)}
    bounds = {
        cell: sum(n_m[a] * n_e1[i] for _, a, i in m_terms)
        + n_c1 * sum(n_prev[a] * n_e1[i] for _, a, i in p_terms)
        for cell, (m_terms, p_terms) in terms.items()
    }
    nb = _kwidth(max(*bounds.values(), *n_prev.values(), *n_e1.values(), n_c1))

    P = {cell: _kpack(v.num, nb) for cell, v in prev.items()}
    E1 = {i: _kpack(a, nb) for i, a in e1.items()}
    M = _m_packed(P, r - 1, nb)
    packed_c1 = _kpack(c1.num, nb)
    c: dict[tuple[int, int], LaurentScalar] = {}
    for cell, (m_terms, p_terms) in terms.items():
        p_sum = _kdot([(s, P[a], E1[i]) for s, a, i in p_terms], nb)
        total = _kdot([(s, M[a], E1[i]) for s, a, i in m_terms] + [(1, packed_c1, p_sum)], nb)
        c[cell] = LaurentScalar._raw(_kunpack(*total, nb, bounds[cell]))
    return c


# The recursive chain built so far in this process, rank r at index r.
_recursive_chain = [{(0, 0): ONE, (0, 1): ONE}]


def _recursive_entries(r: int) -> dict[tuple[int, int], LaurentScalar]:
    """The rank-r entries, built one _next_table step per rank past the chain's top.

    The chain starts from the trivial rank-0 relation A_i - A_i = 0, that is
    c[0,0,0] = c[0,0,1] = 1, so the rank-1 defining relation is its first
    step.  One chain per process, extended bottom-up in a loop: every rank
    built so far is kept, so the ranks 1..r cost r steps in all and no rank
    deepens the stack.  Callers must not mutate the result.
    """
    if r < 0:
        raise ValueError("rank must be >= 0")
    for n in range(len(_recursive_chain), r + 1):
        # the induction step to rank n reads eta rows m <= n + 1 only
        _recursive_chain.append(_next_table(n, _recursive_chain[-1], eta_table(n + 1)))
    return _recursive_chain[r]


def c_recursive(r: int) -> CoeffTable:
    """The rank-r table built strictly bottom-up from the rank-0 seed."""
    if r < 1:
        raise ValueError("rank must be >= 1")
    return CoeffTable(r, _recursive_entries(r), "recursive")


# ---------------------------------------------------------------------------
# pipeline 2: closed formula
# ---------------------------------------------------------------------------


def _support(r: int) -> list[int]:
    """The index set the closed formula draws from: {r-2*floor((r-1)/2), ..., r-2, r}."""
    return list(range(r - 2 * ((r - 1) // 2), r + 1, 2))


def c_closed(r: int) -> CoeffTable:
    """The rank-r table from the closed double-sum formula.

        c[r,p,k] = sum_l binom(half-k+alpha*l-p, alpha*l//2) * inner(p, k-alpha*l)

    with alpha = 2 (odd r) or 1 (even r) and half = (r+1)//2.  The inner sum
    runs over disjoint families of the support, p indices weighted by [s]^2
    and k-alpha*l by [2s]/[s], so with the product built once per rank,

        inner sum = coefficient of x^p y^(k-alpha*l) in prod_s (1 + x[s]^2 + y[2s]/[s]),

    a multivariate polynomial keyed (x_deg, y_deg, 0) over poly dicts in q.
    It is multiplied out on qcoeff's packed layer (_mprod) at one width,
    from the largest cell bound prod_s ||factor_s||_1 * sum_l binom; each
    cell's sum over l is one packed sum with the binomials as scales,
    decoded once.

    The binomial is an ordinary integer binomial, read as zero whenever its
    arguments leave 0 <= m <= n (the factorial form is undefined there, and
    only that reading reproduces the expansion shape).
    """
    if r < 1:
        raise ValueError("rank must be >= 1")
    alpha = 2 if r % 2 else 1
    half = (r + 1) // 2
    factors = [{
        (0, 0, 0): {0: 1}, (1, 0, 0): (q_int(s) * q_int(s)).num,
        (0, 1, 0): (LaurentScalar.q_power(s) + LaurentScalar.q_power(-s)).num,
    } for s in _support(r)]
    terms = {}  # cell -> (binomial, family key) pairs
    for (p, k) in cells(r):
        terms[(p, k)] = []
        for l in range(0, k // alpha + 1):
            n_bin = half - k + alpha * l - p
            m_bin = (alpha * l) // 2
            if 0 <= m_bin <= n_bin:
                terms[(p, k)].append((math.comb(n_bin, m_bin), (p, k - alpha * l, 0)))
    norm = math.prod(map(_mnorm, factors))
    bounds = {cell: norm * sum(b for b, _ in t) for cell, t in terms.items()}
    nb = _kwidth(max(bounds.values()))
    families = _mprod(factors, nb)
    zero, one = (0, 0), (1, 0)
    entries: dict[tuple[int, int], LaurentScalar] = {}
    for cell, t in terms.items():
        total = _kdot([(b, families.get(key, zero), one) for b, key in t], nb)
        entries[cell] = LaurentScalar._raw(_kunpack(*total, nb, bounds[cell]))
    return CoeffTable(r, entries, "closed")


# ---------------------------------------------------------------------------
# pipeline 3: generating polynomial expansion
# ---------------------------------------------------------------------------


def generating_factors(r: int) -> list[tuple]:
    """Factor descriptors of the rank-r generating polynomial.

    ``("quad", s)`` stands for x^2 - (q^s + q^-s) xy + y^2 - rho [s]_q^2 and
    ``("diff",)`` for the x - y factor present at even rank.
    """
    if r < 1:
        raise ValueError("rank must be >= 1")
    if r % 2:
        return [("quad", s) for s in range(1, r + 1, 2)]
    return [("diff",)] + [("quad", s) for s in range(2, r + 1, 2)]


def _factor_poly(desc: tuple) -> dict:
    """One factor as a polynomial keyed (x_deg, y_deg, rho_deg) over poly dicts."""
    if desc[0] == "diff":
        return {(1, 0, 0): {0: 1}, (0, 1, 0): {0: -1}}
    s = desc[1]
    mid = LaurentScalar.q_power(s) + LaurentScalar.q_power(-s)
    return {
        (2, 0, 0): {0: 1},
        (1, 1, 0): (-mid).num,
        (0, 2, 0): {0: 1},
        (0, 0, 1): (-(q_int(s) * q_int(s))).num,
    }


def expand_generating_polynomial(r: int) -> dict:
    """Fully expanded rank-r generating polynomial, {(x_deg, y_deg, rho_deg): poly dict}.

    The factors are multiplied out on qcoeff's packed layer (_mprod) at one
    width, from the bound prod ||factor||_1, and each key is decoded once.
    """
    factors = [_factor_poly(desc) for desc in generating_factors(r)]
    bound = math.prod(map(_mnorm, factors))
    nb = _kwidth(bound)
    out = {}
    for key, value in _mprod(factors, nb).items():
        poly = _kunpack(*value, nb, bound)
        if poly:
            out[key] = poly
    return out


def c_from_polynomial(r: int) -> CoeffTable:
    """Read the table off the expanded generating polynomial.

    The expansion must consist exactly of monomials rho^p x^(r-2p+1-k) y^k
    carrying sign (-1)^(k+p); anything else raises ShapeError, since it would
    falsify the claimed expansion shape.
    """
    admissible = set(cells(r))
    entries: dict[tuple[int, int], LaurentScalar] = {}
    for (dx, k, p), poly in expand_generating_polynomial(r).items():
        if dx + k + 2 * p != r + 1 or (p, k) not in admissible:
            raise ShapeError(
                f"rank {r}: monomial rho^{p} x^{dx} y^{k} outside the expansion shape"
            )
        entries[(p, k)] = LaurentScalar._raw(poly if (k + p) % 2 == 0 else _pneg(poly))
    try:
        return CoeffTable(r, entries, "polynomial")
    except ValueError as exc:
        raise ShapeError(f"rank {r}: expansion missing cells ({exc})") from exc


# ---------------------------------------------------------------------------
# pipeline 4: linear-system solve over the rewriting engine
# ---------------------------------------------------------------------------


def delta_indices(r: int) -> list[tuple[int, int, int]]:
    """(p, k, sign) triples of the rank-r relation's double sum."""
    return [(p, k, (-1) ** (p + k)) for (p, k) in cells(r)]


def _halves(a: dict, nb: int) -> tuple[tuple[int, tuple[int, int]], ...]:
    """(parity, packed half) for each nonzero parity half of a at width 8*nb."""
    try:
        return ((min(a) & 1, _kpack(a, nb)),) if a else ()
    except ValueError:  # both parities: pack each half apart
        halves = ({}, {})
        for e, c in a.items():
            halves[e & 1][e] = c
        return tuple((parity, _kpack(h, nb)) for parity, h in enumerate(halves))


def _unhalves(halves: tuple, nb: int, bound: int) -> dict:
    """The poly dict whose _halves at width 8*nb are halves; bound bounds every coefficient."""
    return {e: c for _, (v, low) in halves for e, c in _kunpack(v, low, nb, bound).items()}


def _residual(rows: dict, values: dict) -> dict:
    """Each row's nonzero sum of coeff * value, as {key: poly dict}.

    rows maps a key to {cell: coefficient}, and a coefficient is the tuple
    (s, l1, nb, halves): the sign s (1 or -1) times the poly dict whose
    _halves at width 8*nb are halves, and l1 a bound on its l1 norm.  values
    holds every cell of every row.  The sums run on qcoeff's packed layer at
    one width: the least that covers the largest row bound sum l1 ||value||_1
    and is no narrower than any coefficient's nb, so that the coefficients
    of c_solve's rows are used as they are.  Each value is split into its
    even- and odd-exponent halves, so any Laurent polynomial is accepted; a
    coefficient packed at another width is decoded (_unhalves) and packed
    again at this one.  A row is one _kdot per product parity, with s as the
    scale; each nonzero sum is decoded against its row's bound.
    """
    norms = {cell: _l1(v.num) for cell, v in values.items()}
    bounds = {key: sum(l1 * norms[cell] for cell, (_, l1, _, _) in row.items())
              for key, row in rows.items()}
    widths = {w for row in rows.values() for _, _, w, _ in row.values()}
    nb = max(widths | {_kwidth(max([*bounds.values(), *norms.values()], default=0))})
    packed = {cell: _halves(v.num, nb) for cell, v in values.items()}
    out = {}
    for key, row in rows.items():
        sums = ([], [])
        for cell, (s, l1, w, halves) in row.items():
            if packed[cell]:  # a zero value leaves its coefficient unbounded and unused
                for pa, a in (halves if w == nb else _halves(_unhalves(halves, w, l1), nb)):
                    for pb, b in packed[cell]:
                        sums[pa ^ pb].append((s, a, b))
        for terms in sums:
            v, low = _kdot(terms, nb)
            if v:
                out.setdefault(key, {}).update(_kunpack(v, low, nb, bounds[key]))
    return out


def _scalar(coeff: tuple) -> LaurentScalar:
    """The LaurentScalar of a row coefficient (s, l1, nb, halves), decoded on
    demand against its bound l1: c_solve decodes only its pivots."""
    s, l1, nb, halves = coeff
    num = _unhalves(halves, nb, l1)
    return LaurentScalar._raw(num if s > 0 else _pneg(num))


def _solve_triangular(rows: dict, unknowns, known: dict) -> dict:
    """Solve the homogeneous rows sum_cell coeff * value = 0 in one pass.

    rows maps a sortable key to {cell: nonzero coefficient}, each coefficient
    a tuple (s, l1, nb, halves) as _residual takes; known holds the cells
    fixed in advance.  Visited in descending key order, a row with one
    open cell fixes it by an exact division, so the solution is unique:
    _residual sums the rest of the row over the values fixed so far, and
    _scalar decodes the pivot alone.  A row with two or more open cells
    stops the pass (not triangular), and so does a quotient outside
    Z[q, q^-1].  One _residual over the rows visited then proves existence,
    a failing row taking precedence as a check at each row would.  Returns
    every value, known ones included, or raises CoefficientSystemError, also
    when no row fixes an unknown.
    """
    order = sorted(rows, reverse=True)
    values = dict(known)
    error = None
    for i, key in enumerate(order):
        row = rows[key]
        open_cells = [cell for cell in row if cell not in values]
        if len(open_cells) == 1:
            (cell,) = open_cells
            others = {c: v for c, v in row.items() if c != cell}
            rest = _residual({key: others}, {c: values[c] for c in others}).get(key, {})
            try:
                values[cell] = -LaurentScalar._raw(rest) / _scalar(row[cell])
            except ArithmeticError:  # the table lives in Z[q, q^-1]
                error = f"unknown {cell} has no Laurent-polynomial solution"
        elif open_cells:
            error = f"not triangular: row {key} has the open unknowns {open_cells}"
        if error:
            order = order[:i]
            break
    failing = _residual({key: rows[key] for key in order}, values)
    if failing:
        raise CoefficientSystemError(f"inconsistent system: row {max(failing)} fails")
    if error:
        raise CoefficientSystemError(error)
    missing = [cell for cell in unknowns if cell not in values]
    if missing:
        raise CoefficientSystemError(f"under-determined: no row fixes the unknowns {missing}")
    return values


_IJ, _J = word_from_exponents(1, 1, 0), word_from_exponents(0, 1, 0)


def _moves(a: int) -> list[tuple[int, int, int, dict]]:
    """The moves of NF(I^a J), a >= 2, from their three-term recurrence.

    I^a J = I^(a-2) IIJ, and the rule IIJ = [2] IJI - JII + rho J gives
    I^a J = [2] (I^(a-1) J) I - (I^(a-2) J) I^2 + rho I^(a-2) J.  A trailing
    I never completes a factor IIJ, so NF(X I) = NF(X) I and

        NF(I^a J) = [2] NF(I^(a-1) J) I - NF(I^(a-2) J) I^2 + rho NF(I^(a-2) J),

    from NF(J) = J and NF(IJ) = IJ.  Every word is thus a block IJ or J
    followed by I^m.  On moves keyed (block code, m, rho degree), each move
    of a-1 goes to m+1 times [2], and each move of a-2 goes to m+2 negated
    and to rho degree d+1 as it is; terms that sum to zero are dropped.
    Returns the moves as (block code, m, rho degree, poly dict in q).
    """
    two = q_int(2).num
    prev, cur = {(_J, 0, 0): {0: 1}}, {(_IJ, 0, 0): {0: 1}}
    for _ in range(a - 1):
        lower = _msub({(b, m, d + 1): c for (b, m, d), c in prev.items()},
                      {(b, m + 2, d): c for (b, m, d), c in prev.items()})
        prev, cur = cur, _madd({(b, m + 1, d): _pmul(two, c) for (b, m, d), c in cur.items()}, lower)
    return [(b, m, d, c) for (b, m, d), c in cur.items()]


def _normal_forms(r: int) -> dict[int, dict[int, dict]]:
    """N(a, r) = NF(I^a J^r) for 0 <= a <= r + 1, each as reduce's terms
    {word code: {rho degree d: entry}} with the entry (l1, nb, halves): a
    bound on the coefficient's l1 norm, the mass bound T(a, r, d) below,
    and its _halves at width 8*nb, one half each.

    Two facts share the work between all a: a block IJ or J followed by a
    normal word is normal (the block ends in J, so no IIJ crosses the
    seam), and the two-sided ideal lets NF(I^a J^t) reduce I^a J first.  So
    N(a, 0) = I^a, N(0, t) = J^t, N(1, t) = IJ^t, and for a >= 2

        N(a, t) = sum over the moves (block, m, d, c) of I^a J: rho^d c block N(m, t-1),

    with m <= a, built one level per t and keeping only the previous one.
    Every level runs on qcoeff's packed layer: each move is packed once and
    each (word code, rho degree) key of a level is one _kdot.  No entry is
    decoded.  By the triangle inequality the rho^d part of N(a, t) has l1
    mass at most

        T(a, t, d) = sum over the moves (block, m, e, c) of ||c||_1 T(m, t-1, d-e),

    with T(a, t, d) = 1 for d = 0 and 0 otherwise when a < 2 or t = 0.
    Split by rho degree, T leaves _residual's width on the relation's rows
    where the entries' own l1 norms put it at every r <= 13, while the mass
    summed over d would widen it from 4 to 8 bytes at r = 7.  T(a, t, 0) >= 1,
    so T(a, r, d) >= T(a, 1, d) bounds every move coefficient of degree d,
    and the one width from the largest T(a, r, d) packs them all.  The ints
    in between need no bound, since evaluation at q^2 = 2^B is a ring
    homomorphism.  Each entry keeps its packed int, which _residual
    multiplies as it is; its poly dict is never built (it would take most
    of the memory), and _scalar decodes a pivot on demand.
    """
    moves = {a: _moves(a) for a in range(2, r + 2)}
    norms = {a: [(m, d, _l1(c)) for _, m, d, c in mv] for a, mv in moves.items()}
    bound = [{0: 1}] * (r + 2)
    for _ in range(r):
        nxt = [{0: 1}, {0: 1}]
        for a in range(2, r + 2):
            mass: dict[int, int] = {}
            for m, d, n in norms[a]:
                for e, b in bound[m].items():
                    mass[d + e] = mass.get(d + e, 0) + n * b
            nxt.append(mass)
        bound = nxt
    nb = _kwidth(max(b for mass in bound for b in mass.values()))
    packed = {a: [(block, m, d, _kpack(c, nb)) for block, m, d, c in mv] for a, mv in moves.items()}
    one = _kpack({0: 1}, nb)
    level = {a: {(word_from_exponents(a, 0, 0), 0): one} for a in range(r + 2)}
    for t in range(1, r + 1):
        nxt = {a: {(word_from_exponents(a, t, 0), 0): one} for a in (0, 1)}
        for a in range(2, r + 2):
            sums: dict = {}
            for block, m, d, c in packed[a]:
                for (w, e), v in level[m].items():
                    sums.setdefault((concat(block, w), d + e), []).append((1, c, v))
            nxt[a] = {key: v for key, prods in sums.items() if (v := _kdot(prods, nb))[0]}
        level = nxt
    forms: dict[int, dict[int, dict]] = {}
    for a, entries in level.items():
        forms[a] = {}
        for (w, d), v in entries.items():
            forms[a].setdefault(w, {})[d] = (bound[a][d], nb, ((v[1] & 1, v),))
    return forms


def _relation_rows(r: int, forms: dict[int, dict[int, dict]]) -> dict:
    """The rows {(normal word code, rho degree): {cell: coefficient}} of the
    rank-r relation over forms = _normal_forms(r), each of which must vanish.

    Cell (p, k) carries the monomial I^a J^r I^k, a = r - 2p + 1 - k, whose
    normal form is N(a, r) I^k: appending I's never creates a factor IIJ.
    Its coefficient in a row is the (s, l1, nb, halves) of _residual: the
    cell's sign (-1)^(p+k) and the entry of N(a, r), shared, not copied.
    """
    rows: dict[tuple[int, int], dict[tuple[int, int], tuple]] = {}
    for (p, k, sign) in delta_indices(r):
        tail = word_from_exponents(0, 0, k)
        for w, coeff in forms[r - 2 * p + 1 - k].items():
            code = concat(w, tail)
            for d, (l1, nb, halves) in coeff.items():
                rows.setdefault((code, p + d), {})[(p, k)] = (sign, l1, nb, halves)
    return rows


def c_solve(r: int) -> CoeffTable:
    """The rank-r table as the unique solution of the cancellation system.

    Every entry is an unknown except c[r,0,0] = 1, and every row of
    _relation_rows must vanish.  Down the term order that system is
    triangular (checked at r = 1..13): _solve_triangular solves it in one
    pass and proves the solution with one _residual.  The normal forms come
    from the rewrite rule alone (_moves applies it by recurrence), so this
    pipeline shares nothing with the other three, nor with verify's rewriter.
    A failure raises CoefficientSystemError: an inconsistency would falsify
    the relation at this rank, while two open cells only stall the pass.
    """
    if r < 1:
        raise ValueError("rank must be >= 1")
    rows = _relation_rows(r, _normal_forms(r))
    return CoeffTable(r, _solve_triangular(rows, cells(r), {(0, 0): ONE}), "solve")


# ---------------------------------------------------------------------------
# pipeline registry and cross-checks
# ---------------------------------------------------------------------------

PIPELINES = {
    "recursive": c_recursive,
    "closed": c_closed,
    "polynomial": c_from_polynomial,
    "solve": c_solve,
}


@dataclass
class CrossCheckReport:
    """Per-rank agreement summary across pipelines."""

    max_r: int
    solve_max_r: int
    agreements: dict[int, bool]

    @property
    def ok(self) -> bool:
        return all(self.agreements.values())

    def to_json_obj(self) -> dict:
        return {
            "max_r": self.max_r,
            "solve_max_r": self.solve_max_r,
            "ok": self.ok,
            "per_r": [{"r": r, "agree": v} for r, v in sorted(self.agreements.items())],
        }

    def to_text(self) -> str:
        lines = [f"r={r} agree={v}" for r, v in sorted(self.agreements.items())]
        lines.append(f"pipelines agree for all r <= {self.max_r}: {self.ok}")
        return "\n".join(lines)


def pipelines_agree(r: int, with_solve: bool) -> bool:
    """Exact agreement at rank r of recursive/closed/polynomial (and solve if asked)."""
    tables = [c_recursive(r), c_closed(r), c_from_polynomial(r)]
    if with_solve:
        tables.append(c_solve(r))
    return all(t == tables[0] for t in tables[1:])
