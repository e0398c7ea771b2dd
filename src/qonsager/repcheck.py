"""Representation-theoretic evidence checks, all in exact arithmetic.

Two independent kinds of evidence:

* the coideal realization A_i -> c_i e_i q^(h_i/2) + cbar_i f_i q^(h_i/2)
  + w_i q^(h_i) inside the 3-dimensional evaluation representation of the
  rank-2 affine quantum algebra (nodes 0, 1, 2 pairwise linked): the rank-r
  relation must evaluate to the exact zero matrix at random rational points.
  The module's defining relations are proved once per process as identities
  over Z[q^±1, z^±1], and every point evaluates that checked module
  straight into integers: each generator is an integer matrix B_i over one
  positive integer L_i, A_i = B_i / L_i.  One evaluator,
  ``_relation_matrix``, computes the relation from those pairs as an
  integer matrix over one common denominator: every table entry is an
  integer sum over the powers of q's numerator and denominator, and rho's
  and the matrices' denominators are folded into each cell's integer scale.
  Integer arithmetic is exact, so the matrix is zero exactly when the
  relation is.  At rank r it is the zero test, and at rank 1 with rho = 0
  it gives the rho calibration, whose one Fraction is rho itself;
* the spectral band structure: with eigenvalues theta_k = C (v q^k +
  v^-1 q^-k), the generating polynomial vanishes at (theta_k, theta_l)
  exactly for parity-allowed offsets |k - l| <= r.  The factors are those
  of ``coeffs.generating_factors``, each substituted on its own into
  monomials of theta_k, theta_(k+d) and rho built once per offset d.

q is always specialized through q = s^2 so that q^(1/2) = s stays rational.
The rho needed by the spectral substitution is not hard-coded: an expansion
oracle derives it symbolically (with C, v and the base index k all formal)
and the check refuses to run unless the wired constant matches the oracle.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .coeffs import CoeffTable, _factor_poly, delta_indices, generating_factors
from .qcoeff import ONE, ZERO, LaurentScalar, _madd, _mmul, _padd, _pmul, exact_div, q_int

IMat = tuple[tuple[int, ...], ...]
# A generator at one point: (L, B) with A = B / L, L > 0 and gcd(L, *B) = 1.
Rep = tuple[int, IMat]


class RepConstructionError(Exception):
    """The constructed generator matrices failed their own relation checks."""


class CalibrationError(Exception):
    """No scalar rho satisfies the rank-1 relation on the given matrices."""


# ---------------------------------------------------------------------------
# parameters and the evaluation representation
# ---------------------------------------------------------------------------

_NODES = (0, 1, 2)
_LINKED = tuple((i, j) for i in _NODES for j in _NODES if i != j)


@dataclass(frozen=True)
class RepParams:
    """One exact parameter point: q = s^2, spectral parameter z, and the
    per-node scalars of the coideal map."""

    s: Fraction
    z: Fraction
    c: tuple[Fraction, Fraction, Fraction]
    cbar: tuple[Fraction, Fraction, Fraction]
    w: tuple[Fraction, Fraction, Fraction] = (Fraction(0), Fraction(0), Fraction(0))

    def __post_init__(self):
        if self.s in (0, 1, -1):
            raise ValueError("s must avoid {0, 1, -1}")
        if self.z == 0:
            raise ValueError("z must be nonzero")
        if not any(self.w):
            return  # every product w_i * (...) below is exactly 0
        q = self.s ** 2
        kappa = q + 1 / q - 2  # equals (s - 1/s)^2, nonzero since s != +-1
        for i, j in _LINKED:
            if self.w[i] and self.w[j] ** 2 + self.c[j] * self.cbar[j] / kappa != 0:
                raise ValueError(f"w constraint violated for the linked pair ({i},{j})")

    @property
    def q(self) -> Fraction:
        return self.s ** 2

    def as_strings(self) -> dict:
        return {
            "s": str(self.s),
            "z": str(self.z),
            "c": [str(x) for x in self.c],
            "cbar": [str(x) for x in self.cbar],
            "w": [str(x) for x in self.w],
        }


# A qcoeff multivariate Laurent polynomial: {exponent 3-tuple: poly dict in q},
# multiplied by _mmul.  The Chevalley module's entries live in Z[q^±1, z^±1]
# and use keys (0, z_exponent, 0); the spectral check reads a key as
# (C_degree, v_exponent, k_coefficient), so a term's q-exponent is its
# poly-dict exponent plus k_coefficient times the formal base index k.
_XPoly = dict


# A matrix of the module is a 3x3 tuple of such polynomials.
_QZMat = tuple[tuple[_XPoly, ...], ...]


def _qz_matrix(entries: dict[tuple[int, int], _XPoly]) -> _QZMat:
    return tuple(tuple(entries.get((a, b), {}) for b in range(3)) for a in range(3))


def _qz_matmul(a: _QZMat, b: _QZMat) -> _QZMat:
    out = {}
    for i in range(3):
        for j in range(3):
            total: _XPoly = {}
            for k in range(3):
                total = _madd(total, _mmul(a[i][k], b[k][j]))
            out[(i, j)] = total
    return _qz_matrix(out)


def _qz_combine(*terms: tuple[_XPoly, _QZMat]) -> _QZMat:
    """sum of scalar * matrix over the given (scalar, matrix) pairs."""
    out = {}
    for i in range(3):
        for j in range(3):
            total: _XPoly = {}
            for scalar, m in terms:
                total = _madd(total, _mmul(scalar, m[i][j]))
            out[(i, j)] = total
    return _qz_matrix(out)


def _q(n: int) -> _XPoly:
    return {(0, 0, 0): {n: 1}}


def _chevalley():
    """Generator matrices e_i, f_i over Z[q^±1, z^±1] and the weight vectors
    h_i of the 3-dim evaluation module."""
    one, z, z_inv = _q(0), {(0, 1, 0): {0: 1}}, {(0, -1, 0): {0: 1}}
    e = {1: _qz_matrix({(0, 1): one}), 2: _qz_matrix({(1, 2): one}),
         0: _qz_matrix({(2, 0): z})}
    f = {1: _qz_matrix({(1, 0): one}), 2: _qz_matrix({(2, 1): one}),
         0: _qz_matrix({(0, 2): z_inv})}
    h = {1: (1, -1, 0), 2: (0, 1, -1), 0: (-1, 0, 1)}
    return e, f, h


def _check_module(e, f, h) -> None:
    """The defining relations of the quantum algebra, as identities over
    Z[q^±1, z^±1]: they then hold at every evaluation point."""
    one, minus = _q(0), {(0, 0, 0): {0: -1}}
    q_diff = {(0, 0, 0): {1: 1, -1: -1}}  # q - q^-1
    minus_two_q = {(0, 0, 0): {1: -1, -1: -1}}  # -(q + q^-1)

    def K(i, sign=1):
        return _qz_matrix({(a, a): _q(sign * hv) for a, hv in enumerate(h[i])})

    zero = _qz_matrix({})
    for i in _NODES:
        if sum(h[i]) != 0:
            raise RepConstructionError(f"h_{i} trace is not zero")
        k_i, k_i_inv = K(i), K(i, -1)
        for j in _NODES:
            # weight relations: K_i x_j K_i^-1 = q^(+-a_ij) x_j
            a_ij = 2 if i == j else -1
            for x, sign, name in ((e, 1, "e"), (f, -1, "f")):
                lhs = _qz_matmul(_qz_matmul(k_i, x[j]), k_i_inv)
                if lhs != _qz_combine((_q(sign * a_ij), x[j])):
                    raise RepConstructionError(
                        f"weight relation failed on {name} for ({i},{j})"
                    )
            # (q - q^-1) [e_i, f_j] = delta_ij (K_i - K_i^-1)
            comm = _qz_combine(
                (one, _qz_matmul(e[i], f[j])), (minus, _qz_matmul(f[j], e[i]))
            )
            lhs = _qz_combine((q_diff, comm))
            expected = _qz_combine((one, k_i), (minus, k_i_inv)) if i == j else zero
            if lhs != expected:
                raise RepConstructionError(f"e-f relation failed for ({i},{j})")
    for x in (e, f):
        for i, j in _LINKED:
            # rank-2 q-Serre relation for every linked pair
            xii = _qz_matmul(x[i], x[i])
            serre = _qz_combine(
                (one, _qz_matmul(xii, x[j])),
                (minus_two_q, _qz_matmul(_qz_matmul(x[i], x[j]), x[i])),
                (one, _qz_matmul(x[j], xii)),
            )
            if serre != zero:
                raise RepConstructionError(f"q-Serre failed for the pair ({i},{j})")


@functools.cache
def _checked_module():
    """The Chevalley module, checked once per process on first use."""
    e, f, h = _chevalley()
    _check_module(e, f, h)
    return e, f, h


def _power(x: Fraction, n: int) -> tuple[int, int]:
    """x^n for a nonzero x and any integer n, as (numerator, denominator);
    the denominator is negative when n < 0 and x^n < 0."""
    num, den = (x.numerator, x.denominator) if n >= 0 else (x.denominator, x.numerator)
    return num ** abs(n), den ** abs(n)


def build_evaluation_rep(params: RepParams) -> tuple[Rep, Rep, Rep]:
    """The three coideal generators, one (L_i, B_i) per node, A_i = B_i / L_i.

    They are the checked Chevalley module evaluated at (s, z):
    A_i = (c_i e_i + cbar_i f_i) q^(h_i/2) + w_i q^(h_i), with q^(h/2) = s^h.
    Each term c coef s^(2 qe + h_b) z^ze of an entry, and each diagonal
    w_i s^(2 h_a), is an integer (numerator, denominator) pair; L_i is the
    positive lcm of the denominators, B_i sums num * (L_i // den), and both
    are then divided by gcd(L_i, *B_i), so that L_i is the lcm of A_i's
    reduced entry denominators.
    """
    e, f, h = _checked_module()
    s, z = params.s, params.z
    out = []
    for i in _NODES:
        terms = []  # (a, b, numerator, denominator)
        for m, scalar in ((e[i], params.c[i]), (f[i], params.cbar[i])):
            if not scalar:
                continue
            for a in range(3):
                for b in range(3):
                    for (_, ze, _), poly in m[a][b].items():
                        zn, zd = _power(z, ze)
                        for qe, coef in poly.items():
                            sn, sd = _power(s, 2 * qe + h[i][b])
                            terms.append((a, b, scalar.numerator * coef * sn * zn,
                                          scalar.denominator * sd * zd))
        w = params.w[i]
        if w:
            for a in range(3):
                sn, sd = _power(s, 2 * h[i][a])
                terms.append((a, a, w.numerator * sn, w.denominator * sd))
        lcm = math.lcm(*(den for *_, den in terms))
        rows = [[0] * 3 for _ in range(3)]
        for a, b, num, den in terms:
            rows[a][b] += num * (lcm // den)
        g = math.gcd(lcm, *(x for row in rows for x in row))
        out.append((lcm // g, tuple(tuple(x // g for x in row) for row in rows)))
    return tuple(out)


# ---------------------------------------------------------------------------
# rho calibration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CalibrationResult:
    """rho measured from the rank-1 relation, compared to the product c*cbar."""

    rho: Fraction
    product: Fraction
    i: int
    j: int

    @property
    def matches_product(self) -> bool:
        return self.rho == self.product

    @property
    def ratio(self) -> Fraction | None:
        """Normalization factor rho/(c*cbar); None when the product vanishes."""
        if self.product == 0:
            return None
        return self.rho / self.product

    def to_json_obj(self) -> dict:
        return {
            "pair": [self.i, self.j],
            "rho": str(self.rho),
            "c_times_cbar": str(self.product),
            "matches_product": self.matches_product,
            "ratio": None if self.ratio is None else str(self.ratio),
        }


# The defining relation A_i^2 A_j - [2]_q A_i A_j A_i + A_j A_i^2 = rho A_j as
# a rank-1 table, built once: every sample point calibrates against it.
_DEFINING_RELATION = CoeffTable(1, {(0, 0): ONE, (0, 1): q_int(2), (0, 2): ONE, (1, 0): ONE},
                                "defining")


def calibrate_rho(
    matrices: tuple[Rep, Rep, Rep], params: RepParams, pair: tuple[int, int] = (0, 1)
) -> CalibrationResult:
    """Solve the rank-1 relation for the single scalar rho_i on matrices.

    The rank-1 relation at rho = 0, A_i^2 A_j - [2]_q A_i A_j A_i + A_j A_i^2,
    comes from the same evaluator as the rank-r check, and all nine of its
    entries must be proportional to A_j with the one factor rho; the measured
    rho is compared against c_i * cbar_i and any normalization discrepancy is
    reported through the result.  With the relation T / D and A_j = B_j / L_j,
    rho = T L_j / (D B_j) at the first nonzero entry of B_j, and every entry
    is checked in integers as T L_j rho_den == rho_num D B_j.
    """
    i, j = pair
    if i == j:
        raise ValueError("calibration needs a linked pair of distinct nodes")
    lj, bj = matrices[j]
    total, denom = _relation_matrix(
        1, _DEFINING_RELATION, matrices[i], matrices[j], params.q, Fraction(0)
    )
    entries = [(t, x) for t_row, b_row in zip(total, bj) for t, x in zip(t_row, b_row)]
    first = next(((t, x) for t, x in entries if x), None)
    if first is None:
        raise CalibrationError("A_j is the zero matrix; cannot calibrate")
    rho = Fraction(first[0] * lj, denom * first[1])
    lhs, rhs = lj * rho.denominator, rho.numerator * denom
    if any(t * lhs != rhs * x for t, x in entries):
        raise CalibrationError(
            f"no scalar rho satisfies the rank-1 relation for the pair ({i},{j})"
        )
    return CalibrationResult(rho=rho, product=params.c[i] * params.cbar[i], i=i, j=j)


# ---------------------------------------------------------------------------
# parameter sampling
# ---------------------------------------------------------------------------


def _random_fraction(rng: random.Random, allow_zero=False) -> Fraction:
    while True:
        v = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        if allow_zero or v != 0:
            return v


def sample_params(rng: random.Random) -> RepParams:
    """A random small-height rational parameter point on the w = 0 branch,
    avoiding the degenerations s in {0, +-1} and c_i cbar_i = 0."""
    while True:
        s = _random_fraction(rng)
        if s not in (1, -1):
            break
    z = _random_fraction(rng)
    c = tuple(_random_fraction(rng) for _ in range(3))
    cbar = tuple(_random_fraction(rng) for _ in range(3))
    return RepParams(s=s, z=z, c=c, cbar=cbar)


# ---------------------------------------------------------------------------
# matrix evidence for the higher-order relation
# ---------------------------------------------------------------------------


@dataclass
class PointResult:
    params: RepParams
    calibration: CalibrationResult
    zero: bool

    def to_json_obj(self) -> dict:
        return {
            "params": self.params.as_strings(),
            "calibration": self.calibration.to_json_obj(),
            "zero": self.zero,
        }


@dataclass
class MatrixReport:
    r: int
    seed: int
    pair: tuple[int, int]
    points: list[PointResult]

    @property
    def ok(self) -> bool:
        """The relation vanished at every sample point."""
        return all(p.zero for p in self.points)

    def to_json_obj(self) -> dict:
        return {
            "r": self.r,
            "seed": self.seed,
            "pair": list(self.pair),
            "samples": len(self.points),
            "all_zero": self.ok,
            "points": [p.to_json_obj() for p in self.points],
        }

    def to_text(self) -> str:
        lines = [
            f"point {i}: zero={p.zero} rho={p.calibration.rho} "
            f"matches_c_cbar={p.calibration.matches_product}"
            for i, p in enumerate(self.points)
        ]
        lines.append(f"all {len(self.points)} points zero: {self.ok}")
        return "\n".join(lines)


def _imat_mul(a: IMat, b: IMat) -> IMat:
    cols = tuple(zip(*b))
    return tuple(
        tuple(x0 * y0 + x1 * y1 + x2 * y2 for y0, y1, y2 in cols) for x0, x1, x2 in a
    )


def _relation_matrix(
    r: int, table: CoeffTable, ai: Rep, aj: Rep, q: Fraction, rho: Fraction
) -> tuple[IMat, int]:
    """The rank-r relation at A_i, A_j as (T, D): an integer matrix T over
    the positive denominator D, so that the relation is T / D.

    No Fraction is built per cell: every number is an integer until D, and
    integer arithmetic is exact.  Write q = a/b and rho = rn/rd, and let lo
    and hi be the least and largest q-exponent of the whole table.  An entry
    sum c_e q^e is then N * a^lo / b^hi with the integer
    N = sum c_e a^(e-lo) b^(hi-e), read off two power lists (lo <= e <= hi),
    and a^lo / b^hi = g/h in lowest terms is one factor of every entry.
    With A_i = B_i / L_i and A_j = B_j / L_j as given and P the
    largest p of the table, the term rho^p A_i^n A_j^r A_i^k
    (n + k = r - 2p + 1) times rd^P L_i^(r+1) L_j^r is
    rn^p rd^(P-p) L_i^(2p) B_i^n B_j^r B_i^k.  So a cell's sign, N,
    rn^p rd^(P-p) and L_i^(2p) make one integer scale; the scaled B_i^k of
    one n are summed before one product by B_i^n B_j^r; and T = g * that
    sum, D = h * rd^P * L_i^(r+1) * L_j^r.  T is zero exactly when the
    relation is, so the zero test needs no D.
    """
    (li, bi), (lj, bj) = ai, aj
    entries = [(p, k, sign, table.entry(p, k).num) for (p, k, sign) in delta_indices(r)]
    exponents = [e for *_, num in entries for e in num]
    lo, hi = (min(exponents), max(exponents)) if exponents else (0, 0)
    a_pow, b_pow = [1], [1]
    for _ in range(hi - lo):
        a_pow.append(a_pow[-1] * q.numerator)
        b_pow.append(b_pow[-1] * q.denominator)
    top = max(p for p, *_ in entries)
    rho_pow = [rho.numerator ** p * rho.denominator ** (top - p) * li ** (2 * p)
               for p in range(top + 1)]
    powers = [((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    for _ in range(r + 1):
        powers.append(_imat_mul(powers[-1], bi))
    right: dict[int, list[list[int]]] = {}  # n -> sum of scale * B_i^k
    for p, k, sign, num in entries:
        scale = sign * rho_pow[p] * sum(c * a_pow[e - lo] * b_pow[hi - e] for e, c in num.items())
        if scale:
            acc = right.setdefault(r - 2 * p + 1 - k, [[0] * 3 for _ in range(3)])
            for row, power_row in zip(acc, powers[k]):
                for b in range(3):
                    row[b] += scale * power_row[b]
    bj_r = powers[0]
    for _ in range(r):
        bj_r = _imat_mul(bj_r, bj)
    total = [[0] * 3 for _ in range(3)]
    for n, acc in right.items():
        for row, term_row in zip(total, _imat_mul(_imat_mul(powers[n], bj_r), acc)):
            for b in range(3):
                row[b] += term_row[b]
    g = Fraction(q.numerator) ** lo / q.denominator ** hi
    return (tuple(tuple(g.numerator * x for x in row) for row in total),
            g.denominator * rho.denominator ** top * li ** (r + 1) * lj ** r)


def _relation_vanishes(
    r: int, table: CoeffTable, ai: Rep, aj: Rep, q: Fraction, rho: Fraction
) -> bool:
    """Whether the rank-r relation is the zero matrix at A_i, A_j."""
    total, _ = _relation_matrix(r, table, ai, aj, q, rho)
    return not any(any(row) for row in total)


def matrix_point(
    r: int,
    table: CoeffTable,
    seed: int,
    index: int,
    pair: tuple[int, int] = (0, 1),
) -> PointResult:
    """One sample point of the matrix evidence check.

    The parameter point is derived from (seed, index) alone, so points are
    independent of each other and of scheduling: they can be evaluated in any
    order or in parallel and merged by index.
    """
    params = sample_params(random.Random(f"{seed}:{index}"))
    matrices = build_evaluation_rep(params)
    calibration = calibrate_rho(matrices, params, pair)
    zero = _relation_vanishes(
        r, table, matrices[pair[0]], matrices[pair[1]], params.q, calibration.rho
    )
    return PointResult(params=params, calibration=calibration, zero=zero)


# ---------------------------------------------------------------------------
# spectral band structure
# ---------------------------------------------------------------------------

# The spectral polynomials are _XPoly in the formal symbols C, v and q, with
# the q-exponent kept linear in a formal base index k.


def _theta(offset: int) -> _XPoly:
    """theta_(k+offset) = C (v q^(k+offset) + v^-1 q^-(k+offset)), k formal."""
    return {(1, 1, 1): {offset: 1}, (1, -1, -1): {-offset: 1}}


def _monomials(d: int, rho_over_c2: LaurentScalar) -> dict[tuple, _XPoly]:
    """theta_k, theta_(k+d), their three products of degree 2 and rho =
    rho_over_c2 C^2, keyed by the (x_deg, y_deg, rho_deg) of ``_factor_poly``."""
    x, y = _theta(0), _theta(d)
    return {
        (1, 0, 0): x, (0, 1, 0): y,
        (2, 0, 0): _mmul(x, x), (1, 1, 0): _mmul(x, y), (0, 2, 0): _mmul(y, y),
        (0, 0, 1): {(2, 0, 0): rho_over_c2.num} if rho_over_c2 else {},
    }


def _evaluate(poly: dict, monomials: dict[tuple, _XPoly]) -> _XPoly:
    """A factor polynomial (``_factor_poly``) with each of its monomials
    replaced by the value ``_monomials`` gives it."""
    value: _XPoly = {}
    for degrees, coeff in poly.items():
        for key, pv in monomials[degrees].items():
            n = _padd(value.get(key, {}), _pmul(coeff, pv))
            if n:
                value[key] = n
            else:
                value.pop(key, None)
    return value


def _factor_at(desc: tuple, d: int, rho_over_c2: LaurentScalar) -> _XPoly:
    """The generating factor ``desc`` (``coeffs._factor_poly``) at
    x = theta_k, y = theta_(k+d) and rho = rho_over_c2 C^2, k formal."""
    return _evaluate(_factor_poly(desc), _monomials(d, rho_over_c2))


def spectral_rho_constant() -> LaurentScalar:
    """The wired spectral calibration constant rho / C^2 = -(q - q^-1)^2."""
    diff = LaurentScalar.q_power(1) - LaurentScalar.q_power(-1)
    return -(diff * diff)


@dataclass(frozen=True)
class OracleResult:
    """Outcome of the brute-force expansion oracle for the rho calibration."""

    offsets: tuple[int, ...]
    v_independent: bool
    k_independent: bool
    rho_over_c2: LaurentScalar | None

    @property
    def ok(self) -> bool:
        return (
            self.v_independent
            and self.k_independent
            and self.rho_over_c2 is not None
        )

    def to_json_obj(self) -> dict:
        return {
            "offsets": list(self.offsets),
            "v_independent": self.v_independent,
            "k_independent": self.k_independent,
            "rho_over_c2": None if self.rho_over_c2 is None else str(self.rho_over_c2),
        }


@functools.cache
def rho_calibration_oracle(max_offset: int = 4) -> OracleResult:
    """Derive the spectral rho by brute-force symbolic expansion.

    For each offset d, expand the generating factor ("quad", d) at
    x = theta_k, y = theta_(k+d) and rho = 0, that is theta_k^2 +
    theta_(k+d)^2 - (q^d + q^-d) theta_k theta_(k+d), with C, v and k all
    formal.  The expansion must be free of v and of k, carry C-degree 2, and
    equal rho_d [d]_q^2 for a d-independent Laurent polynomial rho_d; that
    common value (divided by C^2) is returned.  The result depends only on
    the bound, so it is computed once per bound and process.
    """
    offsets = tuple(range(1, max_offset + 1))
    values: list[LaurentScalar] = []
    v_ok = True
    k_ok = True
    for d in offsets:
        laurent = {}
        for (cdeg, vexp, qk), poly in _factor_at(("quad", d), d, ZERO).items():
            if vexp != 0:
                v_ok = False
            if qk != 0:
                k_ok = False
            if cdeg != 2:
                return OracleResult(offsets, v_ok, k_ok, None)
            laurent = _padd(laurent, poly)
        if not (v_ok and k_ok):
            return OracleResult(offsets, v_ok, k_ok, None)
        try:
            values.append(exact_div(LaurentScalar(laurent), q_int(d) * q_int(d)))
        except ArithmeticError:  # [d]^2 does not divide the expansion
            return OracleResult(offsets, v_ok, k_ok, None)
    if not values or any(v != values[0] for v in values):
        return OracleResult(offsets, v_ok, k_ok, None)
    return OracleResult(offsets, v_ok, k_ok, values[0])


@dataclass
class SpectralReport:
    r: int
    oracle: OracleResult
    offsets: list[tuple[int, bool]] = field(default_factory=list)  # (offset, zero)

    def allowed(self, d: int) -> bool:
        return abs(d) <= self.r and abs(d) % 2 == self.r % 2

    @property
    def ok(self) -> bool:
        return self.oracle.ok and all(
            zero == self.allowed(d) for d, zero in self.offsets
        )

    def to_json_obj(self) -> dict:
        return {
            "r": self.r,
            "ok": self.ok,
            "oracle": self.oracle.to_json_obj(),
            "offsets": [
                {"offset": d, "zero": zero, "allowed": self.allowed(d)}
                for d, zero in self.offsets
            ],
        }

    def to_text(self) -> str:
        lines = [f"oracle ok: {self.oracle.ok} (rho/C^2 = {self.oracle.rho_over_c2})"]
        lines.extend(f"offset {d:+d}: zero={z} allowed={self.allowed(d)}" for d, z in self.offsets)
        lines.append(f"band structure consistent: {self.ok}")
        return "\n".join(lines)


def spectral_polynomial_check(r: int) -> SpectralReport:
    """Evaluate the generating polynomial at eigenvalue pairs, symbolically in v.

    Offsets -r-2 .. r+2 are tested: the value must vanish identically in v
    exactly for parity-allowed |d| <= r.  Each of ``generating_factors(r)``
    is substituted on its own, and an offset counts as zero when one factor
    vanishes; the factors are never multiplied out.  The rho substitution is
    validated against the expansion oracle before anything else runs; by
    homogeneity (x, y, rho) -> (Cx, Cy, C^2 rho) the overall C power is fixed
    and C is carried exactly.  A wired constant that the oracle does not
    derive is refused: the report carries no offsets.
    """
    if r < 1:
        raise ValueError("rank must be >= 1")
    oracle = rho_calibration_oracle(max(4, min(r, 8)))
    wired = spectral_rho_constant()
    if not oracle.ok or oracle.rho_over_c2 != wired:
        return SpectralReport(r=r, oracle=replace(oracle, rho_over_c2=None))
    report = SpectralReport(r=r, oracle=oracle)
    factors = [_factor_poly(desc) for desc in generating_factors(r)]
    for d in range(-(r + 2), r + 3):
        # Every factor lies in Z[C, v^±1, q^±1, (q^k)^±1], an integral domain,
        # so the product vanishes exactly when one factor does.
        monomials = _monomials(d, wired)
        zero = any(not _evaluate(poly, monomials) for poly in factors)
        report.offsets.append((d, zero))
    return report
