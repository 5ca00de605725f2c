"""Deterministic instance generators for testing and the CLI.

Each kind is built to carry its label by construction; the tests check that
generated instances classify as labelled.  The seeded random-entry helpers
here are the ones the self-test and the test suite draw from.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .classify import Verdict, classify
from .errors import ParameterError
from .qcore import AlgebraParams, Quaternion
from .qlinalg import QMatrix, QVector, invert, outer, reduced_trace

KINDS = ("generic-trace-zero", "type-I", "type-II", "type-III", "random")


@dataclass
class InstanceSpec:
    algebra: AlgebraParams
    n: int
    kind: str
    seed: int
    height: int = 2
    lam: Optional[Fraction] = None
    rep: Optional[Quaternion] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"unknown kind {self.kind!r}; expected one of {KINDS}")
        if self.n < 1:
            raise ParameterError("size must be positive")
        if self.height < 1:
            # a height-0 draw is all zeros, which the rejection loops never accept,
            # and a negative height leaves no value to draw
            raise ParameterError("height must be positive")
        if self.kind == "type-III" and self.n != 3:
            raise ParameterError("type-III instances exist only at size 3")
        if self.kind == "type-II" and self.n < 2:
            raise ParameterError("type-II instances need size >= 2")


def _rational(rng: random.Random, h: int = 10) -> Fraction:
    return Fraction(rng.randint(-h, h), rng.choice((1, 1, 1, 2)))


def _quaternion(rng: random.Random, alg: AlgebraParams, h: int = 10) -> Quaternion:
    return alg.quat(*(_rational(rng, h) for _ in range(4)))


def _nonzero_quaternion(rng, alg, h: int = 10) -> Quaternion:
    while True:
        q = _quaternion(rng, alg, h)
        if not q.is_zero():
            return q


def _noncentral_quaternion(rng, alg, h: int = 10) -> Quaternion:
    while True:
        q = _quaternion(rng, alg, h)
        if not q.is_central():
            return q


def _matrix(rng, alg, n, h) -> QMatrix:
    return QMatrix([[_quaternion(rng, alg, h) for _ in range(n)] for _ in range(n)])


def _invertible(rng, alg, n, h) -> QMatrix:
    while True:
        p = _matrix(rng, alg, n, h)
        if invert(p) is not None:
            return p


def _zero_trace(m: QMatrix) -> QMatrix:
    """Shift the last diagonal entry to cancel the reduced trace."""
    n = m.rows
    entries = [list(row) for row in m.entries]
    entries[n - 1][n - 1] = entries[n - 1][n - 1] - m.algebra.scalar(
        reduced_trace(m) / 2
    )
    return QMatrix(entries)


def type_ii_matrix(
    rng: random.Random,
    alg: AlgebraParams,
    n: int,
    height: int,
    lam: Fraction,
    image_eigenvalue: Quaternion,
) -> QMatrix:
    """lam*I + (rank-one with prescribed eigenvalue on its image)."""
    while True:
        col = QVector(
            [alg.one()] + [_quaternion(rng, alg, height) for _ in range(n - 1)]
        )
        rest = [_quaternion(rng, alg, height) for _ in range(n - 1)]
        head = image_eigenvalue
        for r_t, c_t in zip(rest, col.entries[1:]):
            head = head - r_t * c_t
        row = QVector([head] + rest)
        if row.is_zero():
            continue
        return QMatrix.scalar(n, lam, alg) + outer(col, row)


def square_zero_matrix(rng: random.Random, alg: AlgebraParams, n: int, height: int) -> QMatrix:
    """A nonzero rank-one matrix annihilating its own image."""
    while True:
        col = QVector(
            [_nonzero_quaternion(rng, alg, height)]
            + [_quaternion(rng, alg, height) for _ in range(n - 1)]
        )
        rest = [_quaternion(rng, alg, height) for _ in range(n - 1)]
        head = alg.zero()
        for r_t, c_t in zip(rest, col.entries[1:]):
            head = head - r_t * c_t
        row = QVector([head * col[0].inverse()] + rest)
        if row.is_zero():
            continue
        return outer(col, row)


def two_square_zero_sum(rng: random.Random, alg: AlgebraParams, n: int, height: int) -> QMatrix:
    """Sum of two seeded square-zero matrices; a guaranteed positive instance."""
    return square_zero_matrix(rng, alg, n, height) + square_zero_matrix(
        rng, alg, n, height
    )


def generic_trace_zero_matrix(
    rng: random.Random, alg: AlgebraParams, n: int, height: int
) -> QMatrix:
    """Random matrix with reduced trace exactly zero and verdict Generic."""
    while True:
        m = _zero_trace(_matrix(rng, alg, n, height))
        if classify(m).verdict == Verdict.GENERIC:
            return m


def generate(spec: InstanceSpec) -> QMatrix:
    """Deterministically generate an instance of the requested kind."""
    rng = random.Random(spec.seed)
    alg, n, h = spec.algebra, spec.n, spec.height

    if spec.kind == "random":
        return _matrix(rng, alg, n, h)

    if spec.kind == "type-I":
        lam = spec.lam
        if lam is None:
            lam = Fraction(rng.choice([v for v in range(-h, h + 1) if v != 0]))
        if lam == 0:
            raise ParameterError("type-I needs a nonzero scalar")
        return QMatrix.scalar(n, lam, alg)

    if spec.kind == "type-II":
        lam = spec.lam if spec.lam is not None else Fraction(rng.randint(-h, h))
        image_eig = spec.rep if spec.rep is not None else alg.scalar(-n * lam)
        return type_ii_matrix(rng, alg, n, h, lam, image_eig)

    if spec.kind == "type-III":
        rep = spec.rep if spec.rep is not None else _noncentral_quaternion(rng, alg, h)
        if rep.is_central():
            raise ParameterError("type-III needs a noncentral eigenvalue representative")
        d = QMatrix.diagonal([rep] * 3)
        p = _invertible(rng, alg, 3, h)
        return invert(p) * d * p

    return generic_trace_zero_matrix(rng, alg, n, h)
