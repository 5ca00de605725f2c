"""Special-type detection and the sum-of-two-nilpotents decision.

Special types over a division algebra: nonzero rational scalar matrices
(type I), rank-one perturbations of rational scalars (type II, carrying a
supertrace class), and 3x3 nonzero unispectral diagonalizable matrices
(type III).  Verdicts are mutually exclusive under the fixed priority
Zero > TypeI > TypeII > TypeIII > Generic.

Decision: a square matrix is a sum of two nilpotent matrices iff
  n = 1: it is zero;
  n = 2: its square is unispectral diagonalizable and, if the matrix itself
         is, it is zero or its eigenvalue class is noncentral pure;
  n >= 3: its reduced trace is zero and it is of none of the special types,
          except that type II with zero supertrace is always a yes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import DimensionMismatchError
from .qcore import ConjClass, Quaternion, rational_sqrt
from .qlinalg import QMatrix, QVector, outer, reduced_trace
from .spectral import DiagonalizationCertificate, unispectral_diagonalizable


class Verdict(enum.Enum):
    ZERO = "Zero"
    TYPE_I = "TypeI"
    TYPE_II = "TypeII"
    TYPE_III = "TypeIII"
    GENERIC = "Generic"


class Reason(enum.Enum):
    TRACE_NONZERO = "TraceNonzero"
    TYPE_I = "TypeI"
    TYPE_II_SUPERTRACE_NONZERO = "TypeIISupertraceNonzero"
    TYPE_III = "TypeIII"
    N2_SPECTRAL_OBSTRUCTION = "N2SpectralObstruction"
    N1_NONZERO = "N1Nonzero"
    YES = "Yes"


@dataclass
class TypeIIData:
    """Decomposition M = lam*I + A with rank(A) = 1, plus the supertrace."""

    lam: Fraction
    rank_one: QMatrix
    column: QVector
    row: QVector
    image_eigenvalue: Quaternion
    supertrace: ConjClass


@dataclass
class Classification:
    verdict: Verdict
    type_i_scalar: Optional[Fraction] = None
    type_ii: Optional[TypeIIData] = None
    type_iii: Optional[DiagonalizationCertificate] = None


@dataclass
class Decision:
    answer: bool
    reason: Reason
    trace: Fraction
    type_i_scalar: Optional[Fraction] = None
    type_ii: Optional[TypeIIData] = None
    type_iii: Optional[DiagonalizationCertificate] = None
    note: str = ""
    classification: Optional[Classification] = None  # the one pass that decided
    # n = 2 yes: the certificate of M*M that decided it, which the 2x2 reduction
    # reads; it is evidence for the construction, not part of the report
    square_certificate: Optional[DiagonalizationCertificate] = None


def detect_type_I(m: QMatrix) -> Optional[Fraction]:
    """lam for M = lam*I with a nonzero rational lam, else None."""
    if not m.is_square():
        raise DimensionMismatchError("classification needs a square matrix")
    lam = m.rational_scalar_value()
    if lam is None or lam == 0:
        return None
    return lam


def _rational_quadratic_roots(a: Fraction, b: Fraction, c: Fraction) -> list[Fraction]:
    """Rational roots of a*x^2 + b*x + c with (a, b) != (0, 0), ascending."""
    if a == 0:
        return [Fraction(-c, b)] if b != 0 else []
    disc = b * b - 4 * a * c
    root = rational_sqrt(disc)
    if root is None:
        return []
    sols = {(-b + root) / (2 * a), (-b - root) / (2 * a)}
    return sorted(sols)


def _assemble_type_ii(m: QMatrix, lam: Fraction, col: QVector, row: QVector) -> Optional[TypeIIData]:
    """Validate M = lam*I + outer(col, row) with a genuine rank-1 part."""
    n = m.rows
    a = outer(col, row)
    if a.is_zero():
        return None
    if m != QMatrix.scalar(n, lam, m.algebra) + a:
        return None
    q_a = m.algebra.zero()
    for r_t, c_t in zip(row, col):
        q_a = q_a + r_t * c_t
    rep = m.algebra.scalar(n * lam) + q_a
    return TypeIIData(lam, a, col, row, q_a, ConjClass.of(rep))


def detect_type_II(m: QMatrix) -> Optional[TypeIIData]:
    """Decomposition M = lam*I + A with lam rational and rank(A) = 1, or None.

    The off-diagonal entries of M and A coincide, which pins the rank-one
    factorization up to normalization; lam is then forced by the diagonal
    (n >= 3) or found among the rational roots of a single quaternionic
    quadratic (n = 2).  Diagonal matrices are handled separately: all but
    one diagonal entry must share a rational value.
    """
    if not m.is_square():
        raise DimensionMismatchError("classification needs a square matrix")
    n = m.rows
    if n < 2:
        return None
    alg = m.algebra
    pivot = next(
        ((s, t) for s in range(n) for t in range(n) if s != t and not m[s, t].is_zero()),
        None,
    )

    if pivot is None:
        diag = m.diagonal_entries()
        candidates: list[tuple[Fraction, int]] = []
        if n == 2:
            for idx in (0, 1):
                if diag[idx].is_central() and diag[1 - idx] != diag[idx]:
                    candidates.append((diag[idx].w, 1 - idx))
        else:
            for idx in range(n):
                v = diag[idx]
                if not v.is_central():
                    continue
                others = [s for s in range(n) if diag[s] != v]
                if len(others) == 1:
                    candidates.append((v.w, others[0]))
                    break
        for lam, hot in candidates:
            col = QVector([alg.one() if s == hot else alg.zero() for s in range(n)])
            row = QVector(
                [diag[hot] - alg.scalar(lam) if t == hot else alg.zero() for t in range(n)]
            )
            data = _assemble_type_ii(m, lam, col, row)
            if data is not None:
                return data
        return None

    s0, t0 = pivot
    r_t0 = m[s0, t0]
    rinv = r_t0.inverse()
    if n >= 3:
        third = next(s for s in range(n) if s not in (s0, t0))
        c_third = m[third, t0] * rinv
        r_third = m[s0, third]
        lam_q = m[third, third] - c_third * r_third
        candidates = [lam_q.w] if lam_q.is_central() else []
    else:
        u, v = m[t0, t0], m[s0, s0]
        a_coef = rinv
        u_rinv = u * rinv
        b_coef = -(u_rinv + rinv * v)
        c_coef = u_rinv * v - m[t0, s0]
        coords = list(zip(a_coef.coords(), b_coef.coords(), c_coef.coords()))
        informative = next((t for t in coords if t[0] != 0 or t[1] != 0), None)
        roots = _rational_quadratic_roots(*informative) if informative is not None else []
        # rank(M - lam*I) = 1 exactly when lam solves the whole quaternionic quadratic
        candidates = [lam for lam in roots if ((a_coef * lam + b_coef) * lam + c_coef).is_zero()]

    for lam in candidates:
        lam_s = alg.scalar(lam)
        row_entries = [m[s0, t] for t in range(n)]
        row_entries[s0] = m[s0, s0] - lam_s
        col_entries = [m[s, t0] * rinv for s in range(n)]
        col_entries[s0] = alg.one()
        col_entries[t0] = (m[t0, t0] - lam_s) * rinv
        data = _assemble_type_ii(m, lam, QVector(col_entries), QVector(row_entries))
        if data is not None:
            return data
    return None


def detect_type_III(m: QMatrix) -> Optional[DiagonalizationCertificate]:
    """Certificate when n = 3, M != 0, and M is unispectral diagonalizable."""
    if not m.is_square():
        raise DimensionMismatchError("classification needs a square matrix")
    if m.rows != 3 or m.is_zero():
        return None
    return unispectral_diagonalizable(m)


def classify(m: QMatrix) -> Classification:
    """Verdict under the fixed priority Zero > TypeI > TypeII > TypeIII > Generic."""
    if not m.is_square():
        raise DimensionMismatchError("classification needs a square matrix")
    if m.is_zero():
        return Classification(Verdict.ZERO)
    lam = detect_type_I(m)
    if lam is not None:
        return Classification(Verdict.TYPE_I, type_i_scalar=lam)
    data = detect_type_II(m)
    if data is not None:
        return Classification(Verdict.TYPE_II, type_ii=data)
    cert = detect_type_III(m)
    if cert is not None:
        return Classification(Verdict.TYPE_III, type_iii=cert)
    return Classification(Verdict.GENERIC)


def is_sum_of_two_nilpotents(m: QMatrix) -> Decision:
    """Decide whether M splits as N1 + N2 with both summands nilpotent.

    One `classify` pass; for n >= 3 its verdict and the reduced trace decide,
    while n = 1 and n = 2 follow their own rules once zero and type I are out.
    """
    if not m.is_square():
        raise DimensionMismatchError("decision needs a square matrix")
    cls = classify(m)
    n = m.rows
    trace = reduced_trace(m)

    def decided(answer: bool, reason: Reason, **evidence) -> Decision:
        return Decision(answer, reason, trace, classification=cls, **evidence)

    if cls.verdict == Verdict.ZERO:
        return decided(True, Reason.YES)
    if cls.verdict == Verdict.TYPE_I:
        return decided(False, Reason.TYPE_I, type_i_scalar=cls.type_i_scalar)

    if n == 1:
        if trace != 0:
            return decided(False, Reason.TRACE_NONZERO)
        return decided(False, Reason.N1_NONZERO, note="1x1: only the zero matrix splits")

    if n == 2:
        if trace != 0:
            return decided(False, Reason.TRACE_NONZERO)
        cert_sq = unispectral_diagonalizable(m * m)
        if cert_sq is None:
            return decided(
                False,
                Reason.N2_SPECTRAL_OBSTRUCTION,
                note="square is not unispectral diagonalizable",
            )
        cert_m = unispectral_diagonalizable(m)
        if cert_m is not None:
            q = cert_m.eigenvalue
            if q.reduced_trace() != 0 or q.is_central():
                return decided(
                    False,
                    Reason.N2_SPECTRAL_OBSTRUCTION,
                    type_iii=cert_m,
                    note="unispectral diagonalizable with eigenvalue not a noncentral pure",
                )
        return decided(True, Reason.YES, square_certificate=cert_sq)

    if cls.verdict == Verdict.TYPE_II:
        if cls.type_ii.supertrace.is_zero():
            return decided(True, Reason.YES, type_ii=cls.type_ii)
        return decided(False, Reason.TYPE_II_SUPERTRACE_NONZERO, type_ii=cls.type_ii)
    if cls.verdict == Verdict.TYPE_III:
        return decided(False, Reason.TYPE_III, type_iii=cls.type_iii)
    if trace != 0:
        return decided(False, Reason.TRACE_NONZERO)
    return decided(True, Reason.YES)
