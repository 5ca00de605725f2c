"""Matrices over a quaternion division algebra, acting on right vector spaces.

Vectors are columns with scalars acting on the right, matrices act on the
left; a matrix represents an endomorphism via u(e_j) = sum_i e_i m[i][j].
Row reduction, rank, kernels, solves and inverses all go through the one
elimination `ratlin.rref`, whose left row operations preserve the right
null space.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from . import ratlin
from .errors import (
    AlgebraMismatchError,
    CertificateError,
    DimensionMismatchError,
    PreconditionError,
)
from .qcore import AlgebraParams, Quaternion, rat

ScalarLike = Union[int, Fraction, Quaternion]


class QVector:
    """Immutable column vector of quaternions; scalars act on the right."""

    __slots__ = ("entries", "algebra")

    def __init__(self, entries: Sequence[Quaternion]):
        entries = tuple(entries)
        if not entries:
            raise DimensionMismatchError("empty vector")
        algebra = entries[0].algebra
        if any(e.algebra != algebra for e in entries):
            raise AlgebraMismatchError("mixed algebras in vector")
        self.entries = entries
        self.algebra = algebra

    @classmethod
    def zero(cls, n: int, algebra: AlgebraParams) -> "QVector":
        return cls([algebra.zero()] * n)

    @classmethod
    def unit(cls, n: int, index: int, algebra: AlgebraParams) -> "QVector":
        return cls([algebra.one() if s == index else algebra.zero() for s in range(n)])

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __getitem__(self, s: int) -> Quaternion:
        return self.entries[s]

    def __iter__(self):
        return iter(self.entries)

    def __add__(self, other: "QVector") -> "QVector":
        if self.dim != other.dim:
            raise DimensionMismatchError("vector dimensions differ")
        return QVector([p + q for p, q in zip(self.entries, other.entries)])

    def __sub__(self, other: "QVector") -> "QVector":
        return self + (-other)

    def __neg__(self) -> "QVector":
        return QVector([-q for q in self.entries])

    def scale_right(self, c: ScalarLike) -> "QVector":
        if not isinstance(c, Quaternion):
            c = self.algebra.scalar(rat(c))
        return QVector([q * c for q in self.entries])

    def is_zero(self) -> bool:
        return all(q.is_zero() for q in self.entries)

    def __eq__(self, other):
        return isinstance(other, QVector) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return "(" + ", ".join(str(q) for q in self.entries) + ")^T"


class QMatrix:
    """Immutable dense matrix of quaternions over a fixed algebra."""

    __slots__ = ("rows", "cols", "entries", "algebra")

    def __init__(self, entries: Sequence[Sequence[Quaternion]]):
        rows = tuple(tuple(row) for row in entries)
        if not rows or not rows[0]:
            raise DimensionMismatchError("empty matrix")
        cols = len(rows[0])
        if any(len(row) != cols for row in rows):
            raise DimensionMismatchError("ragged rows")
        algebra = rows[0][0].algebra
        if any(e.algebra != algebra for row in rows for e in row):
            raise AlgebraMismatchError("mixed algebras in matrix")
        self.entries = rows
        self.rows = len(rows)
        self.cols = cols
        self.algebra = algebra

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, n: int, algebra: AlgebraParams) -> "QMatrix":
        one, zero = algebra.one(), algebra.zero()
        return cls([[one if r == c else zero for c in range(n)] for r in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int, algebra: AlgebraParams) -> "QMatrix":
        zero = algebra.zero()
        return cls([[zero] * cols for _ in range(rows)])

    @classmethod
    def diagonal(cls, diag: Sequence[Quaternion]) -> "QMatrix":
        n = len(diag)
        algebra = diag[0].algebra
        zero = algebra.zero()
        return cls([[diag[r] if r == c else zero for c in range(n)] for r in range(n)])

    @classmethod
    def scalar(cls, n: int, c: ScalarLike, algebra: AlgebraParams) -> "QMatrix":
        if not isinstance(c, Quaternion):
            c = algebra.scalar(rat(c))
        return cls.diagonal([c] * n)

    @classmethod
    def from_columns(cls, columns: Sequence[QVector]) -> "QMatrix":
        n = columns[0].dim
        if any(col.dim != n for col in columns):
            raise DimensionMismatchError("column dimensions differ")
        return cls([[col[r] for col in columns] for r in range(n)])

    # -- basic structure ----------------------------------------------

    def __getitem__(self, rc) -> Quaternion:
        r, c = rc
        return self.entries[r][c]

    def column(self, c: int) -> QVector:
        return QVector([self.entries[r][c] for r in range(self.rows)])

    def columns(self) -> list[QVector]:
        return [self.column(c) for c in range(self.cols)]

    def submatrix(self, row_range, col_range) -> "QMatrix":
        return QMatrix([[self.entries[r][c] for c in col_range] for r in row_range])

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def diagonal_entries(self) -> list[Quaternion]:
        return [self.entries[s][s] for s in range(min(self.rows, self.cols))]

    def has_zero_diagonal(self) -> bool:
        return all(e.is_zero() for e in self.diagonal_entries())

    def is_strictly_upper(self) -> bool:
        """Whether every entry on or below the diagonal is zero."""
        return all(e.is_zero() for r, row in enumerate(self.entries) for e in row[: r + 1])

    def is_strictly_lower(self) -> bool:
        """Whether every entry on or above the diagonal is zero."""
        return all(e.is_zero() for r, row in enumerate(self.entries) for e in row[r:])

    def is_rational(self) -> bool:
        return all(e.is_central() for row in self.entries for e in row)

    def rational_scalar_value(self) -> Optional[Fraction]:
        """lambda when the matrix equals lambda*I for a rational lambda, else None."""
        if not self.is_square():
            return None
        lam = self.entries[0][0]
        if not lam.is_central():
            return None
        for r in range(self.rows):
            for c in range(self.cols):
                want = lam if r == c else self.algebra.zero()
                if self.entries[r][c] != want:
                    return None
        return lam.w

    # -- arithmetic ----------------------------------------------------

    def _check_same_shape(self, other: "QMatrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatchError("matrix shapes differ")
        if self.algebra != other.algebra:
            raise AlgebraMismatchError("matrices over different algebras")

    def __add__(self, other: "QMatrix") -> "QMatrix":
        self._check_same_shape(other)
        return QMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        return self + (-other)

    def __neg__(self) -> "QMatrix":
        return QMatrix([[-e for e in row] for row in self.entries])

    def __mul__(self, other):
        if isinstance(other, QMatrix):
            if self.cols != other.rows:
                raise DimensionMismatchError("inner dimensions differ")
            if self.algebra != other.algebra:
                raise AlgebraMismatchError("matrices over different algebras")
            zero = self.algebra.zero()
            out = []
            for r in range(self.rows):
                row = []
                for c in range(other.cols):
                    acc = zero
                    for m in range(self.cols):
                        acc = acc + self.entries[r][m] * other.entries[m][c]
                    row.append(acc)
                out.append(row)
            return QMatrix(out)
        if isinstance(other, QVector):
            return self.apply(other)
        return NotImplemented

    def apply(self, x: QVector) -> QVector:
        """Matrix action M*X on a column vector."""
        if self.cols != x.dim:
            raise DimensionMismatchError("matrix-vector dimensions differ")
        zero = self.algebra.zero()
        out = []
        for r in range(self.rows):
            acc = zero
            for c in range(self.cols):
                acc = acc + self.entries[r][c] * x[c]
            out.append(acc)
        return QVector(out)

    def scale_right(self, c: ScalarLike) -> "QMatrix":
        if not isinstance(c, Quaternion):
            c = self.algebra.scalar(rat(c))
        return QMatrix([[e * c for e in row] for row in self.entries])

    def __eq__(self, other):
        return isinstance(other, QMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        body = "; ".join(", ".join(str(e) for e in row) for row in self.entries)
        return f"[{body}]"


def row_reduce(m: QMatrix) -> tuple[QMatrix, QMatrix, int]:
    """Reduced row echelon form via left row operations.

    Returns (echelon, transform, rank) with transform * m == echelon exactly:
    [M | I] is reduced with pivots in M alone and split.
    """
    ident = QMatrix.identity(m.rows, m.algebra).entries
    red, pivots = ratlin.rref([row + e for row, e in zip(m.entries, ident)], m.cols)
    echelon = QMatrix([row[: m.cols] for row in red])
    transform = QMatrix([row[m.cols :] for row in red])
    return echelon, transform, len(pivots)


def rank(m: QMatrix) -> int:
    return len(ratlin.rref(m.entries)[1])


def kernel_basis(m: QMatrix) -> list[QVector]:
    """Canonical basis of the right null space {X : M X = 0}.

    The returned vectors are right-independent over the algebra; general
    kernel elements are their right-linear combinations.
    """
    return [QVector(v) for v in ratlin.kernel(m.entries)]


def invert(m: QMatrix) -> Optional[QMatrix]:
    """Exact inverse for full-rank square matrices, else None.

    A full-rank reduced echelon form is the identity, so transform * m == I,
    and over a division ring a one-sided inverse is two-sided.
    """
    if not m.is_square():
        raise DimensionMismatchError("only square matrices can be inverted")
    _, trans, rk = row_reduce(m)
    return trans if rk == m.rows else None


def independent_subfamily(vectors: Sequence[QVector]) -> list[QVector]:
    """The greedy right-independent subfamily: each vector outside the span of those before it.

    These are the pivot columns of one reduction of the vectors taken as
    columns, since left row operations keep every right-linear relation
    among the columns.
    """
    if not vectors:
        return []
    pivots = ratlin.rref(QMatrix.from_columns(vectors).entries)[1]
    return [vectors[c] for c in pivots]


@dataclass(frozen=True)
class SimilarityWitness:
    """Invertible basis-change pair; conjugation is P * M * Pinv.

    The constructor checks that P and Pinv are square of one size and that
    P * Pinv = I; for square matrices over a division ring a one-sided
    inverse is two-sided, so Pinv * P = I follows.
    """

    P: QMatrix
    Pinv: QMatrix

    def __post_init__(self):
        n = self.P.rows
        if (self.P.cols, self.Pinv.rows, self.Pinv.cols) != (n, n, n):
            raise PreconditionError("witness pair must be square matrices of one size")
        if self.P * self.Pinv != QMatrix.identity(n, self.P.algebra):
            raise PreconditionError("witness pair is not a mutual inverse pair")

    @classmethod
    def _trusted(cls, p: QMatrix, pinv: QMatrix) -> "SimilarityWitness":
        """Skip revalidation for pairs inverse by construction."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "P", p)
        object.__setattr__(obj, "Pinv", pinv)
        return obj

    @classmethod
    def identity(cls, n: int, algebra: AlgebraParams) -> "SimilarityWitness":
        ident = QMatrix.identity(n, algebra)
        return cls._trusted(ident, ident)

    def inverse(self) -> "SimilarityWitness":
        return SimilarityWitness._trusted(self.Pinv, self.P)


def conjugate_by(m: QMatrix, w: SimilarityWitness) -> QMatrix:
    """P * M * Pinv, exactly."""
    if m.rows != w.P.cols:
        raise DimensionMismatchError("witness size does not match matrix")
    return w.P * m * w.Pinv


def is_nilpotent(m: QMatrix) -> bool:
    """Whether M^n = 0 for the matrix size n (a valid bound over a division ring).

    Checked by repeated squaring: the nilindex is at most n, so M^n = 0 is
    equivalent to M^(2^k) = 0 for the least 2^k >= n.
    """
    if not m.is_square():
        raise DimensionMismatchError("nilpotency needs a square matrix")
    power = m
    steps = max(1, (m.rows - 1).bit_length())
    for _ in range(steps):
        if power.is_zero():
            return True
        power = power * power
    return power.is_zero()


def reduced_trace(m: QMatrix) -> Fraction:
    """t(sum of diagonal entries), a similarity-invariant rational."""
    if not m.is_square():
        raise DimensionMismatchError("trace needs a square matrix")
    total = m.algebra.zero()
    for e in m.diagonal_entries():
        total = total + e
    return total.reduced_trace()


def strict_split(m: QMatrix) -> tuple[QMatrix, QMatrix]:
    """Split a zero-diagonal matrix into strictly upper and strictly lower parts."""
    if not m.is_square():
        raise DimensionMismatchError("strict split needs a square matrix")
    if not m.has_zero_diagonal():
        raise PreconditionError("strict split requires a zero diagonal")
    zero = m.algebra.zero()
    upper = [[m[r, c] if c > r else zero for c in range(m.cols)] for r in range(m.rows)]
    lower = [[m[r, c] if c < r else zero for c in range(m.cols)] for r in range(m.rows)]
    return QMatrix(upper), QMatrix(lower)


def rank1_factor(m: QMatrix) -> Optional[tuple[QVector, QVector]]:
    """Outer-product factorization A[s][t] = c[s]*r[t] when rank(A) = 1.

    Normalized so that the first nonzero entry of the column c equals 1.
    """
    if rank(m) != 1:
        return None
    one = m.algebra.one()
    s0 = next(r for r in range(m.rows) if not all(e.is_zero() for e in m.entries[r]))
    row = list(m.entries[s0])
    t0 = next(c for c in range(m.cols) if not row[c].is_zero())
    inv = row[t0].inverse()
    col = [m[s, t0] * inv for s in range(m.rows)]
    c_vec, r_vec = QVector(col), QVector(row)
    if col[s0] != one or outer(c_vec, r_vec) != m:
        raise CertificateError("rank1_factor: c*r does not reproduce the matrix")
    return c_vec, r_vec


def outer(c: QVector, r: QVector) -> QMatrix:
    """Rank <= 1 matrix with entries c[s]*r[t]."""
    return QMatrix([[c[s] * r[t] for t in range(r.dim)] for s in range(c.dim)])
