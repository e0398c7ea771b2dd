"""Representation-theoretic evidence checks, all in exact rational arithmetic.

Two independent kinds of evidence:

* the coideal realization A_i -> c_i e_i q^(h_i/2) + cbar_i f_i q^(h_i/2)
  + w_i q^(h_i) inside the 3-dimensional evaluation representation of the
  rank-2 affine quantum algebra (nodes 0, 1, 2 pairwise linked): the rank-r
  relation must evaluate to the exact zero matrix at random rational points;
* the spectral band structure: with eigenvalues theta_k = C (v q^k +
  v^-1 q^-k), the generating polynomial vanishes at (theta_k, theta_l)
  exactly for parity-allowed offsets |k - l| <= r.

q is always specialized through q = s^2 so that q^(1/2) = s stays rational.
The rho needed by the spectral substitution is not hard-coded: an expansion
oracle derives it symbolically (with C, v and the base index k all formal)
and the check refuses to run unless the wired constant matches the oracle.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .coeffs import CoeffTable, delta_indices, generating_factors
from .qcoeff import LaurentScalar, _padd, _psub, exact_div, q_int

Mat = tuple[tuple[Fraction, ...], ...]


class RepConstructionError(Exception):
    """The constructed generator matrices failed their own relation checks."""


class CalibrationError(Exception):
    """No scalar rho satisfies the rank-1 relation on the given matrices."""


# ---------------------------------------------------------------------------
# exact 3x3 matrix helpers
# ---------------------------------------------------------------------------


def _mat(rows) -> Mat:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def _zeros() -> Mat:
    return _mat([[0, 0, 0], [0, 0, 0], [0, 0, 0]])


def _eye() -> Mat:
    return _mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def _elem(a: int, b: int, value=1) -> Mat:
    rows = [[Fraction(0)] * 3 for _ in range(3)]
    rows[a][b] = Fraction(value)
    return _mat(rows)


def _diag(values) -> Mat:
    rows = [[Fraction(0)] * 3 for _ in range(3)]
    for i, v in enumerate(values):
        rows[i][i] = Fraction(v)
    return _mat(rows)


def mat_add(a: Mat, b: Mat) -> Mat:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a: Mat, b: Mat) -> Mat:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(a: Mat, s) -> Mat:
    s = Fraction(s)
    return tuple(tuple(x * s for x in row) for row in a)


def mat_mul(a: Mat, b: Mat) -> Mat:
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def mat_is_zero(a: Mat) -> bool:
    return all(x == 0 for row in a for x in row)


def mat_pow_table(a: Mat, top: int) -> list[Mat]:
    """[a^0, a^1, ..., a^top]."""
    out = [_eye()]
    for _ in range(top):
        out.append(mat_mul(out[-1], a))
    return out


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
        q = self.s ** 2
        kappa = q + 1 / q - 2  # equals (s - 1/s)^2, nonzero since s != +-1
        for i, j in _LINKED:
            if self.w[i] * (self.w[j] ** 2 + self.c[j] * self.cbar[j] / kappa) != 0:
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


def _chevalley(params: RepParams):
    """Generator matrices e_i, f_i and weight vectors h_i on the 3-dim module."""
    z = params.z
    e = {1: _elem(0, 1), 2: _elem(1, 2), 0: _elem(2, 0, z)}
    f = {1: _elem(1, 0), 2: _elem(2, 1), 0: _elem(0, 2, 1 / z)}
    h = {1: (1, -1, 0), 2: (0, 1, -1), 0: (-1, 0, 1)}
    return e, f, h


def _self_validate(params: RepParams, e, f, h) -> None:
    """Oracle for the construction: the defining relations of the quantum
    algebra must hold exactly on the module."""
    q = params.q
    two_q = q + 1 / q

    def K(i, power=1):
        return _diag([(q ** hv) ** power for hv in h[i]])

    for i in _NODES:
        for j in _NODES:
            # weight relations: K_i x_j K_i^-1 = q^(+-a_ij) x_j
            a_ij = 2 if i == j else -1
            lhs = mat_mul(mat_mul(K(i), e[j]), K(i, -1))
            if lhs != mat_scale(e[j], q ** a_ij):
                raise RepConstructionError(f"weight relation failed on e for ({i},{j})")
            lhs = mat_mul(mat_mul(K(i), f[j]), K(i, -1))
            if lhs != mat_scale(f[j], Fraction(1) / q ** a_ij):
                raise RepConstructionError(f"weight relation failed on f for ({i},{j})")
            # [e_i, f_j] = delta_ij (K_i - K_i^-1)/(q - q^-1)
            comm = mat_sub(mat_mul(e[i], f[j]), mat_mul(f[j], e[i]))
            if i == j:
                expected = mat_scale(mat_sub(K(i), K(i, -1)), Fraction(1) / (q - 1 / q))
            else:
                expected = _zeros()
            if comm != expected:
                raise RepConstructionError(f"e-f relation failed for ({i},{j})")
        # h eigenvalue sanity: the module's weights are symmetric
        if sum(h[i]) != 0:
            raise RepConstructionError(f"h_{i} trace is not zero")
    for x in (e, f):
        for i, j in _LINKED:
            # rank-2 q-Serre relation for every linked pair
            serre = mat_add(
                mat_sub(
                    mat_mul(mat_mul(x[i], x[i]), x[j]),
                    mat_scale(mat_mul(mat_mul(x[i], x[j]), x[i]), two_q),
                ),
                mat_mul(x[j], mat_mul(x[i], x[i])),
            )
            if not mat_is_zero(serre):
                raise RepConstructionError(f"q-Serre failed for the pair ({i},{j})")


def build_evaluation_rep(params: RepParams) -> tuple[Mat, Mat, Mat]:
    """The three coideal generator matrices, one per node.

    The underlying Chevalley action is self-validated against the quantum
    algebra's defining relations before assembly.
    """
    e, f, h = _chevalley(params)
    _self_validate(params, e, f, h)
    s = params.s
    out = []
    for i in _NODES:
        half = _diag([s ** hv for hv in h[i]])  # q^(h_i/2) via q = s^2
        full = _diag([(s ** 2) ** hv for hv in h[i]])
        a_i = mat_add(
            mat_add(
                mat_scale(mat_mul(e[i], half), params.c[i]),
                mat_scale(mat_mul(f[i], half), params.cbar[i]),
            ),
            mat_scale(full, params.w[i]),
        )
        out.append(a_i)
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


def calibrate_rho(
    matrices: tuple[Mat, Mat, Mat], params: RepParams, pair: tuple[int, int] = (0, 1)
) -> CalibrationResult:
    """Solve the rank-1 relation for the single scalar rho_i on matrices.

    All nine entries of A_i^2 A_j - [2]_q A_i A_j A_i + A_j A_i^2 must be
    proportional to A_j; the measured rho is compared against c_i * cbar_i
    and any normalization discrepancy is reported through the result.
    """
    i, j = pair
    if i == j:
        raise ValueError("calibration needs a linked pair of distinct nodes")
    ai, aj = matrices[i], matrices[j]
    q = params.q
    lhs = mat_add(
        mat_sub(
            mat_mul(mat_mul(ai, ai), aj),
            mat_scale(mat_mul(mat_mul(ai, aj), ai), q + 1 / q),
        ),
        mat_mul(aj, mat_mul(ai, ai)),
    )
    rho = None
    for a in range(3):
        for b in range(3):
            if aj[a][b] != 0:
                candidate = lhs[a][b] / aj[a][b]
                if rho is None:
                    rho = candidate
    if rho is None:
        raise CalibrationError("A_j is the zero matrix; cannot calibrate")
    if lhs != mat_scale(aj, rho):
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


def sample_params_with_w(rng: random.Random) -> RepParams | None:
    """A point on the w != 0 branch, where every node needs
    w_j^2 = -c_j cbar_j / (q + q^-1 - 2).

    Arranged by picking c_j cbar_j = -t_j^2 so the square root is rational;
    returns None when the drawn point degenerates.
    """
    while True:
        s = _random_fraction(rng)
        if s not in (1, -1):
            break
    z = _random_fraction(rng)
    denom = s - 1 / s  # (q + q^-1 - 2) = (s - 1/s)^2
    c = []
    cbar = []
    w = []
    for _ in range(3):
        t = _random_fraction(rng)
        cj = _random_fraction(rng)
        c.append(cj)
        cbar.append(-(t ** 2) / cj)
        w.append(t / denom)
    return RepParams(s=s, z=z, c=tuple(c), cbar=tuple(cbar), w=tuple(w))


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
    points: list[PointResult] = field(default_factory=list)

    @property
    def all_zero(self) -> bool:
        return all(p.zero for p in self.points)

    def to_json_obj(self) -> dict:
        return {
            "r": self.r,
            "seed": self.seed,
            "pair": list(self.pair),
            "samples": len(self.points),
            "all_zero": self.all_zero,
            "points": [p.to_json_obj() for p in self.points],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)


def _delta_matrix(r: int, table: CoeffTable, ai: Mat, aj: Mat, q: Fraction, rho: Fraction) -> Mat:
    ai_pow = mat_pow_table(ai, r + 1)
    aj_r = mat_pow_table(aj, r)[r]
    total = _zeros()
    for (p, k, sign) in delta_indices(r):
        coeff = table.entry(p, k).substitute(q) * (rho ** p) * sign
        if coeff == 0:
            continue
        term = mat_mul(mat_mul(ai_pow[r - 2 * p + 1 - k], aj_r), ai_pow[k])
        total = mat_add(total, mat_scale(term, coeff))
    return total


def matrix_point(
    r: int,
    table: CoeffTable,
    seed: int,
    index: int,
    pair: tuple[int, int] = (0, 1),
    point_factory=sample_params,
) -> PointResult:
    """One sample point of the matrix evidence check.

    The parameter point is derived from (seed, index) alone, so points are
    independent of each other and of scheduling: they can be evaluated in any
    order or in parallel and merged by index.
    """
    params = point_factory(random.Random(f"{seed}:{index}"))
    matrices = build_evaluation_rep(params)
    calibration = calibrate_rho(matrices, params, pair)
    delta = _delta_matrix(
        r, table, matrices[pair[0]], matrices[pair[1]], params.q, calibration.rho
    )
    return PointResult(params=params, calibration=calibration, zero=mat_is_zero(delta))


def check_relation_matrix(
    r: int,
    table: CoeffTable,
    samples: int = 20,
    seed: int = 0,
    pair: tuple[int, int] = (0, 1),
    bound: int = 5,
    point_factory=sample_params,
) -> MatrixReport:
    """Evaluate the rank-r relation on the coideal matrices at random points.

    rho is always the calibrated scalar of the pair, never assumed; a nonzero
    result at any exact rational point is a hard falsification and shows up
    as zero=False in the report.
    """
    if r < 1:
        raise ValueError("rank must be >= 1")
    if r > bound:
        raise ValueError(f"rank {r} above the configured bound {bound}")
    if table.r != r:
        raise ValueError(f"table is for rank {table.r}, not {r}")
    report = MatrixReport(r=r, seed=seed, pair=pair)
    for index in range(samples):
        report.points.append(matrix_point(r, table, seed, index, pair, point_factory))
    return report


# ---------------------------------------------------------------------------
# spectral band structure
# ---------------------------------------------------------------------------

# Exponent-tuple polynomial over Z in the formal symbols C, v and q, with the
# q-exponent kept linear in a formal base index k: key =
# (C_degree, v_exponent, q_constant, q_k_coefficient).
_XPoly = dict


def _xp_mul(a: _XPoly, b: _XPoly) -> _XPoly:
    out: _XPoly = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2], ka[3] + kb[3])
            n = out.get(key, 0) + ca * cb
            if n:
                out[key] = n
            elif key in out:
                del out[key]
    return out


def _xp_from_laurent(value: LaurentScalar, c_degree: int = 0) -> _XPoly:
    if not value.is_polynomial:
        raise ValueError("need a Laurent polynomial")
    return {(c_degree, 0, e, 0): c for e, c in value.num.items()}


def _theta(offset: int) -> _XPoly:
    """theta_(k+offset) = C (v q^(k+offset) + v^-1 q^-(k+offset)), k formal."""
    return {(1, 1, offset, 1): 1, (1, -1, -offset, -1): 1}


def _quadratic(d: int, s: int) -> _XPoly:
    """theta_k^2 + theta_(k+d)^2 - (q^s + q^-s) theta_k theta_(k+d), k formal."""
    theta0, thetad = _theta(0), _theta(d)
    mid = _xp_from_laurent(LaurentScalar.q_power(s) + LaurentScalar.q_power(-s))
    return _psub(
        _padd(_xp_mul(theta0, theta0), _xp_mul(thetad, thetad)),
        _xp_mul(mid, _xp_mul(theta0, thetad)),
    )


def spectral_rho_constant() -> LaurentScalar:
    """The wired spectral calibration constant rho / C^2 = -(q - q^-1)^2."""
    diff = LaurentScalar.q_power(1) - LaurentScalar.q_power(-1)
    return -(diff * diff)


@dataclass(frozen=True)
class SpectralParams:
    """One numeric configuration of the eigenvalue family
    theta_k = C (v q^k + v^-1 q^-k).

    The band-structure check keeps C and v formal; this type exists for
    rational spot checks of the same substitution.  rho is not free: it is
    tied to C and q through the oracle-derived calibration constant.
    """

    C: Fraction
    v: Fraction
    q: Fraction

    def __post_init__(self):
        if self.v == 0 or self.q == 0:
            raise ValueError("v and q must be nonzero")

    def theta(self, k: int) -> Fraction:
        return self.C * (self.v * self.q ** k + self.q ** (-k) / self.v)

    @property
    def rho(self) -> Fraction:
        return self.C ** 2 * spectral_rho_constant().substitute(self.q)


@dataclass
class OracleResult:
    """Outcome of the brute-force expansion oracle for the rho calibration."""

    offsets: list[int]
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
            "offsets": self.offsets,
            "v_independent": self.v_independent,
            "k_independent": self.k_independent,
            "rho_over_c2": None if self.rho_over_c2 is None else str(self.rho_over_c2),
        }


def rho_calibration_oracle(max_offset: int = 4) -> OracleResult:
    """Derive the spectral rho by brute-force symbolic expansion.

    For each offset d, expand theta_k^2 + theta_(k+d)^2 - (q^d + q^-d)
    theta_k theta_(k+d) with C, v and k all formal.  The expansion must be
    free of v and of k, carry C-degree 2, and equal rho_d [d]_q^2 for a
    d-independent rho_d; that common value (divided by C^2) is returned.
    """
    offsets = list(range(1, max_offset + 1))
    values: list[LaurentScalar] = []
    v_ok = True
    k_ok = True
    for d in offsets:
        laurent = {}
        for (cdeg, vexp, qconst, qk), coeff in _quadratic(d, d).items():
            if vexp != 0:
                v_ok = False
            if qk != 0:
                k_ok = False
            if cdeg != 2:
                return OracleResult(offsets, v_ok, k_ok, None)
            laurent[qconst] = laurent.get(qconst, 0) + coeff
        if not (v_ok and k_ok):
            return OracleResult(offsets, v_ok, k_ok, None)
        rho_d = exact_div(LaurentScalar(laurent), q_int(d) * q_int(d))
        values.append(rho_d)
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

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)


def spectral_polynomial_check(
    r: int, rho_over_c2: LaurentScalar | None = None
) -> SpectralReport:
    """Evaluate the generating polynomial at eigenvalue pairs, symbolically in v.

    Offsets -r-2 .. r+2 are tested: the value must vanish identically in v
    exactly for parity-allowed |d| <= r.  The rho substitution is validated
    against the expansion oracle before anything else runs; by homogeneity
    (x, y, rho) -> (Cx, Cy, C^2 rho) the overall C power is fixed and C is
    carried exactly.

    A rho_over_c2 override exists so tests can demonstrate that a miswired
    constant is caught; the oracle guard rejects it.
    """
    if r < 1:
        raise ValueError("rank must be >= 1")
    oracle = rho_calibration_oracle(max(4, min(r, 8)))
    wired = rho_over_c2 if rho_over_c2 is not None else spectral_rho_constant()
    if not oracle.ok or oracle.rho_over_c2 != wired:
        return SpectralReport(r=r, oracle=OracleResult(oracle.offsets, oracle.v_independent,
                                                       oracle.k_independent, None))
    rho_xp = _xp_from_laurent(wired, c_degree=2)
    report = SpectralReport(r=r, oracle=oracle)
    for d in range(-(r + 2), r + 3):
        value: _XPoly = {(0, 0, 0, 0): 1}
        for desc in generating_factors(r):
            if desc[0] == "diff":
                factor = _psub(_theta(0), _theta(d))
            else:
                s = desc[1]
                rho_term = _xp_mul(rho_xp, _xp_from_laurent(q_int(s) * q_int(s)))
                factor = _psub(_quadratic(d, s), rho_term)
            value = _xp_mul(value, factor)
        report.offsets.append((d, not value))
    return report
