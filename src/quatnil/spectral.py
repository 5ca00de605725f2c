"""Eigenvalue machinery over quaternion algebras.

Eigenvectors satisfy M X = X q (right eigenvalues); for fixed q the solution
set is a Q-linear subspace of the coordinate space, computed exactly as a
rational linear system in the 4n coordinates.  Unispectral diagonalizability
is decided through a chain (central quadratic relation, existence of a class
representative, constructive eigenbasis) and the resulting certificate is
checked exactly before it is returned (CertificateError if the check fails),
so a defect in the chain can only surface as a loud failure, never as a
wrong positive answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import ratlin
from .errors import CertificateError, DimensionMismatchError, PreconditionError
from .qcore import (
    Quaternion,
    is_rational_square,
    left_mul_matrix,
    right_mul_matrix,
    sqrt_pure,
    sylvester_solve,
)
from .qlinalg import (
    QMatrix,
    QVector,
    SimilarityWitness,
    conjugate_by,
    independent_subfamily,
    invert,
)


@dataclass
class EigenSolution:
    """Q-basis of the solution space {X : M X = X q} for a fixed q."""

    eigenvalue: Quaternion
    basis: list[QVector]


@dataclass(frozen=True)
class QuadraticRelation:
    """Central coefficients with M*M == trace*M - norm*I exactly."""

    trace: Fraction
    norm: Fraction


@dataclass(frozen=True)
class DiagonalizationCertificate:
    """Witness with P * M * Pinv == Diag(q, ..., q) exactly.

    The columns of Pinv are right-independent eigenvectors, M X = X q, and
    Pinv is the identity when M is a rational scalar.
    """

    eigenvalue: Quaternion
    witness: SimilarityWitness


def checked_witness(p: QMatrix, pinv: QMatrix) -> SimilarityWitness:
    """(P, Pinv) through the checked constructor; CertificateError unless mutually inverse."""
    try:
        return SimilarityWitness(p, pinv)
    except PreconditionError as exc:
        raise CertificateError(f"similarity witness: {exc}") from exc


def _vector_from_coords(coords: list[Fraction], n: int, algebra) -> QVector:
    quats = [
        Quaternion(coords[4 * s], coords[4 * s + 1], coords[4 * s + 2], coords[4 * s + 3], algebra)
        for s in range(n)
    ]
    return QVector(quats)


def _eigen_system(m: QMatrix, q: Quaternion) -> list[list[Fraction]]:
    """Rational matrix of X -> M X - X q on the 4n coordinates of X."""
    n = m.rows
    rq = right_mul_matrix(q)
    rows = []
    blocks = [[left_mul_matrix(m[s, l]) for l in range(n)] for s in range(n)]
    for s in range(n):
        for c in range(4):
            row = []
            for l in range(n):
                block = blocks[s][l]
                correction = rq if l == s else None
                for cc in range(4):
                    val = block[c][cc]
                    if correction is not None:
                        val = val - correction[c][cc]
                    row.append(val)
            rows.append(row)
    return rows


def eigenvectors_for(m: QMatrix, q: Quaternion) -> EigenSolution:
    """All solutions of M X = X q, as a Q-basis (possibly empty)."""
    if not m.is_square():
        raise DimensionMismatchError("eigenvector search needs a square matrix")
    system = _eigen_system(m, q)
    basis = [
        _vector_from_coords(vec, m.rows, m.algebra) for vec in ratlin.kernel(system)
    ]
    return EigenSolution(q, basis)


def triangular_eigenvector(
    s: Optional[QMatrix], x0: Optional[QVector], t: Quaternion
) -> QVector:
    """Eigenvector of the block matrix [[S, X0], [0, t]] for the eigenvalue t.

    Either t is already an eigenvalue of S (pad an eigenvector with 0), or
    X -> S X - X t is injective on the top block, hence surjective over the
    rationals, and the last coordinate can be taken to be 1.  Pass S = None
    for the degenerate 1x1 case.
    """
    algebra = t.algebra
    if s is None:
        return QVector([algebra.one()])
    n_top = s.rows
    if s.rows != s.cols or x0 is None or x0.dim != n_top:
        raise DimensionMismatchError("block shapes are inconsistent")
    sol = eigenvectors_for(s, t)
    if sol.basis:
        y = sol.basis[0]
        out = QVector(list(y.entries) + [algebra.zero()])
    else:
        system = _eigen_system(s, t)
        rhs = []
        for r in range(n_top):
            rhs.extend((-x0[r]).coords())
        coords = ratlin.solve(system, rhs)
        if coords is None:  # injective implies surjective in finite dimension
            raise CertificateError("triangular_eigenvector: the top block system has no solution")
        xp = _vector_from_coords(coords, n_top, algebra)
        out = QVector(list(xp.entries) + [algebra.one()])
    full = QMatrix(
        [list(s.entries[r]) + [x0[r]] for r in range(n_top)]
        + [[algebra.zero()] * n_top + [t]]
    )
    if out.is_zero() or full.apply(out) != out.scale_right(t):
        raise CertificateError("triangular_eigenvector: the vector is not an eigenvector for t")
    return out


def quadratic_relation(m: QMatrix) -> Optional[QuadraticRelation]:
    """Central (trace, norm) with M*M = trace*M - norm*I, or None.

    Solved as an overdetermined rational system in the two unknowns; for a
    nonscalar matrix the solution is unique when it exists.
    """
    if not m.is_square():
        raise DimensionMismatchError("quadratic relation needs a square matrix")
    m2 = m * m
    rows, rhs = [], []
    for s in range(m.rows):
        for l in range(m.cols):
            entry = m[s, l].coords()
            target = m2[s, l].coords()
            for c in range(4):
                ident = Fraction(int(s == l and c == 0))
                rows.append([entry[c], -ident])
                rhs.append(target[c])
    sol = ratlin.solve(rows, rhs)
    if sol is None:
        return None
    return QuadraticRelation(sol[0], sol[1])


def diagonalize_2x2_jordanlike(a: Quaternion, b: Quaternion) -> Optional[SimilarityWitness]:
    """Witness T with T [[a,b],[0,a]] T^-1 = Diag(a,a), when b is a commutator [a, c]."""
    c = sylvester_solve(a, a, b)
    if c is None:
        return None
    algebra = a.algebra
    t = QMatrix([[algebra.one(), c], [algebra.zero(), algebra.one()]])
    tinv = QMatrix([[algebra.one(), -c], [algebra.zero(), algebra.one()]])
    witness = checked_witness(t, tinv)
    m = QMatrix([[a, b], [algebra.zero(), a]])
    if conjugate_by(m, witness) != QMatrix.diagonal([a, a]):
        raise CertificateError("the shear does not diagonalize [[a, b], [0, a]]")
    return witness


def unispectral_diagonalizable(m: QMatrix) -> Optional[DiagonalizationCertificate]:
    """Certificate that M is similar to Diag(q, ..., q) for a single q, or None.

    Chain: rational scalar matrices are their own certificates; otherwise M
    must satisfy a central quadratic relation whose discriminant is not a
    rational square (else the would-be eigenvalue is central and M would be
    scalar), a class representative q = t/2 + s must exist in the algebra,
    and the rational solution space of M X = X q must right-span the whole
    column space.  The certificate is checked exactly before returning, and a
    failed check raises CertificateError.
    """
    if not m.is_square():
        raise DimensionMismatchError("diagonalization needs a square matrix")
    n = m.rows
    lam = m.rational_scalar_value()
    if lam is not None:
        return DiagonalizationCertificate(
            m.algebra.scalar(lam), SimilarityWitness.identity(n, m.algebra)
        )
    rel = quadratic_relation(m)
    if rel is None:
        return None
    disc = rel.trace * rel.trace / 4 - rel.norm
    if is_rational_square(disc):
        return None
    s = sqrt_pure(disc, m.algebra)
    if s is None:
        return None
    q = m.algebra.scalar(rel.trace / 2) + s
    picked = independent_subfamily(eigenvectors_for(m, q).basis)
    if len(picked) < n:
        return None
    pinv_mat = QMatrix.from_columns(picked)
    p_mat = invert(pinv_mat)
    # P*Pinv = I forces Pinv*P = I (square matrices over a division ring), and
    # M*Pinv = Pinv*q (eigenvector columns) then gives P*M*Pinv = Diag(q, ..., q)
    if (
        p_mat is None
        or p_mat * pinv_mat != QMatrix.identity(n, m.algebra)
        or m * pinv_mat != pinv_mat.scale_right(q)
    ):
        raise CertificateError("the eigenbasis does not diagonalize the matrix")
    return DiagonalizationCertificate(q, SimilarityWitness._trusted(p_mat, pinv_mat))
