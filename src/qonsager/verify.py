"""Builds the degree-(2r+1) higher-order relation and verifies it symbolically.

The candidate relation at rank r is the double sum

    sum over admissible (p, k) of (-1)^(k+p) rho^p c[r,p,k] A_i^(r-2p+1-k) A_j^r A_i^k

which must reduce to zero under the ordering prescription.  With rho set to
zero the same construction degenerates to the r-th higher-order q-Serre
relation of a linked pair (Cartan entry -1), verified with the truncated
rewrite rule.  Verification outcomes are certificates, not exceptions: a
nonzero residual is a reported falsification.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .coeffs import CoeffTable, PIPELINES, delta_indices
from .freealg import word_from_exponents
from .qcoeff import LaurentScalar, _pneg
from .reducer import reduce_with_stats


@dataclass
class RelationCertificate:
    """Outcome of one symbolic verification run; ``reduced_form`` is the
    relation's normal form ``{word code: {rho_degree: poly dict}}``."""

    r: int
    table_source: str
    reduced_form: dict
    elapsed_ms: int
    term_count_peak: int

    @property
    def zero(self) -> bool:
        return not self.reduced_form

    @property
    def residual_terms(self) -> int:
        return len(self.reduced_form)

    def to_json_obj(self) -> dict:
        return {
            "r": self.r,
            "pipeline": self.table_source,
            "zero": self.zero,
            "residual_terms": self.residual_terms,
            "peak_terms": self.term_count_peak,
            "ms": self.elapsed_ms,
        }


@dataclass
class VerifyReport:
    """The certificates of one verify run, in rank order."""

    certificates: list[RelationCertificate]

    @property
    def ok(self) -> bool:
        return all(c.zero for c in self.certificates)

    def to_json_obj(self) -> dict | list[dict]:
        """One certificate's object, or the list of them for more than one rank."""
        objs = [c.to_json_obj() for c in self.certificates]
        return objs if len(objs) > 1 else objs[0]

    def to_text(self) -> str:
        lines = [
            "r={r} pipeline={pipeline} zero={zero} residual_terms={residual_terms} "
            "peak_terms={peak_terms} ms={ms}".format(**c.to_json_obj())
            for c in self.certificates
        ]
        lines.append(f"verified: {sum(c.zero for c in self.certificates)}/{len(self.certificates)}")
        return "\n".join(lines)


def build_delta(r: int, table: CoeffTable, rho_zero: bool = False) -> dict:
    """The exact double sum of the rank-r relation over the given table, as
    ``{word code: {rho_degree: poly dict}}``.

    Every cell has its own word, and a zero cell has no term.  With rho_zero
    set only the p = 0 part remains, whose coefficients are the q-binomials
    for any valid table.
    """
    if table.r != r:
        raise ValueError(f"table is for rank {table.r}, not {r}")
    terms: dict[int, dict] = {}
    for (p, k, sign) in delta_indices(r):
        if rho_zero and p > 0:
            continue
        num = table.entry(p, k).num
        if num:
            terms[word_from_exponents(r - 2 * p + 1 - k, r, k)] = {p: num if sign > 0 else _pneg(num)}
    return terms


def verify_relation(
    r: int,
    table: CoeffTable | None = None,
    rho_zero: bool = False,
    pipeline: str = "recursive",
) -> RelationCertificate:
    """Reduce the rank-r relation to normal form and certify the outcome.

    The certificate's reduced form is identically zero exactly when the
    relation holds; a nonzero residual is recorded, not raised.
    """
    if r < 1:
        raise ValueError("rank must be >= 1")
    if table is None:
        table = PIPELINES[pipeline](r)
    delta = build_delta(r, table, rho_zero=rho_zero)
    start = time.perf_counter()
    reduced, stats = reduce_with_stats(delta, rho_zero=rho_zero)
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    return RelationCertificate(
        r=r,
        table_source=table.pipeline,
        reduced_form=reduced,
        elapsed_ms=elapsed_ms,
        term_count_peak=stats.peak_terms,
    )


def perturbed_table(table: CoeffTable, p: int, k: int) -> CoeffTable:
    """A copy of the table with one entry multiplied by q.

    Mutation control: the relation built on a perturbed table must leave a
    nonzero residual, guarding against a reducer that maps everything to zero.
    """
    entries = dict(table.entries)
    entries[(p, k)] = entries[(p, k)] * LaurentScalar.q_power(1)
    return CoeffTable(table.r, entries, f"{table.pipeline}+perturbed({p},{k})")


__all__ = [
    "RelationCertificate",
    "VerifyReport",
    "build_delta",
    "verify_relation",
    "perturbed_table",
]
