"""Constructive two-nilpotent decompositions with checked certificates.

Every matrix accepted by the decision procedure is conjugated to a matrix
with zero diagonal; splitting that into strictly upper and strictly lower
parts and pulling back through the witness yields the two nilpotent
summands.  The matrix is decided once, and the diagonal-zero reduction
works by cases on that decision: a spectral basis trick for 2x2, a
reduction to a rational trace-zero matrix when the decision carries type-II
data, a companion-basis completion for 3x3, and a perturbation-and-recurse
step for larger sizes, which hands the accepted block's own decision to the
recursion.  The reductions build their witnesses without re-checking them.
Each public function checks the certificate it returns once, with explicit
tests that `python -O` keeps, and raises CertificateError if a check fails.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .classify import Decision, TypeIIData, is_sum_of_two_nilpotents
from .errors import CertificateError, PreconditionError, SearchBudgetExceeded
from .qcore import DEFAULT_SQRT_BUDGET, AlgebraParams, Quaternion, conjugator, translate_conjugate
from .qlinalg import (
    QMatrix,
    QVector,
    SimilarityWitness,
    conjugate_by,
    independent_subfamily,
    invert,
    is_nilpotent,
    kernel_basis,
    rank,
    reduced_trace,
    strict_split,
)
from .spectral import checked_witness, eigenvectors_for

#: Number of candidate vectors / perturbation lists tried before giving up.
DEFAULT_SEARCH_BUDGET = 600


@dataclass(frozen=True)
class Completion2x2Certificate:
    """Data certifying that [[a, delta], [1, b]] is a sum of two square-zero matrices.

    q translates a and -b into a common conjugacy class, g conjugates -b+q
    to s = a+q, and the two summands are exact pullbacks of the model pair
    [[s, s^2], [-1, -s]] and [[0, 0], [g+1, 0]] through Diag(1, g)*[[1, q], [0, 1]].
    """

    delta: Quaternion
    q: Quaternion
    g: Quaternion
    s: Quaternion
    summands: tuple[QMatrix, QMatrix]
    target: QMatrix


@dataclass(frozen=True)
class TwoNilpotentDecomposition:
    n1: QMatrix
    n2: QMatrix
    witness: Optional[SimilarityWitness]
    diag_zero: Optional[QMatrix]


def verify_decomposition(m: QMatrix, n1: QMatrix, n2: QMatrix) -> bool:
    """Independent checker: N1 + N2 == M with both summands nilpotent, exactly."""
    if m.rows != n1.rows or m.rows != n2.rows or m.cols != n1.cols or m.cols != n2.cols:
        return False
    return n1 + n2 == m and is_nilpotent(n1) and is_nilpotent(n2)


# ---------------------------------------------------------------------------
# Rational (central) trace-zero matrices: classical diagonal-zero reduction
# ---------------------------------------------------------------------------


def field_diag_zero(m: QMatrix) -> SimilarityWitness:
    """Zero-diagonal similarity for a rational trace-zero matrix (nonscalar or zero).

    Classical induction: pick x with Mx outside the line of x, pass to a
    basis starting (x, Mx) which zeroes the leading diagonal entry, and
    recurse on the trailing block (its trace stays zero, and over a field of
    characteristic zero a scalar trace-zero block is zero).
    """
    witness, result = _certify(m, _field_diag_zero_inner(m))
    if not result.is_rational():
        raise CertificateError("field reduction left the rationals")
    return witness


def _field_diag_zero_inner(m: QMatrix) -> SimilarityWitness:
    if not m.is_square():
        raise PreconditionError("square input required")
    if not m.is_rational():
        raise PreconditionError("entries must be rational (central)")
    n = m.rows
    if m.is_zero():
        return SimilarityWitness.identity(n, m.algebra)
    if m.rational_scalar_value() is not None:
        raise PreconditionError("nonzero scalar matrices have no zero-diagonal form")
    if reduced_trace(m) != 0:
        raise PreconditionError("trace must be zero")

    alg = m.algebra
    units = _unit_vectors(n, alg)
    candidates = units + [units[s] + units[t] for s in range(n) for t in range(s + 1, n)]
    # nonscalar rational matrices move some candidate off its line
    x = next(v for v in candidates if rank(QMatrix.from_columns([v, m.apply(v)])) == 2)
    base = _to_basis(independent_subfamily([x, m.apply(x), *units]))
    w_sub = _field_diag_zero_inner(conjugate_by(m, base).submatrix(range(1, n), range(1, n)))
    return _embed_witness(w_sub, alg).compose(base)


def _embed_witness(w: SimilarityWitness, algebra: AlgebraParams) -> SimilarityWitness:
    """1 (+) P block witness acting on the trailing coordinates."""

    def embed(mat: QMatrix) -> QMatrix:
        n = mat.rows + 1
        one, zero = algebra.one(), algebra.zero()
        rows = [[one] + [zero] * (n - 1)]
        for r in range(mat.rows):
            rows.append([zero] + list(mat.entries[r]))
        return QMatrix(rows)

    return SimilarityWitness._trusted(embed(w.P), embed(w.Pinv))


def _to_basis(cols: list[QVector]) -> Optional[SimilarityWitness]:
    """Witness rewriting a matrix in the basis `cols` (P = S^-1, Pinv = S), or None if singular."""
    s_mat = QMatrix.from_columns(cols)
    p = invert(s_mat)
    return None if p is None else SimilarityWitness._trusted(p, s_mat)


def _unit_vectors(n: int, alg: AlgebraParams) -> list[QVector]:
    return [QVector.unit(n, s, alg) for s in range(n)]


def _certify(m: QMatrix, w: SimilarityWitness) -> tuple[SimilarityWitness, QMatrix]:
    """The boundary check: (P, Pinv) mutually inverse and P*M*Pinv with zero diagonal."""
    w = checked_witness(w.P, w.Pinv)
    d = conjugate_by(m, w)
    if not d.has_zero_diagonal():
        raise CertificateError("witness does not conjugate the matrix to a zero diagonal")
    return w, d


# ---------------------------------------------------------------------------
# The 2x2 completion of Lemma-style pairs (a, b) with t(a+b) = 0
# ---------------------------------------------------------------------------


def completion_2x2(a: Quaternion, b: Quaternion) -> Completion2x2Certificate:
    """delta and two square-zero matrices summing to [[a, delta], [1, b]].

    Requires t(a+b) = 0.  Construction: translate a and -b by q into a
    common class, conjugate by g, and read the completion off the model
    matrix [[s, s^2], [g, -s]]; the sum and both square-zero identities are
    checked before return.
    """
    a._check_same_algebra(b)
    alg = a.algebra
    if (a + b).reduced_trace() != 0:
        raise PreconditionError("completion requires t(a+b) = 0")
    if a == -b:
        q, g = alg.zero(), alg.one()
    else:
        q = translate_conjugate(a, -b)
        g = conjugator(a + q, -b + q)
    s = a + q

    one, zero = alg.one(), alg.zero()
    t_mat = QMatrix([[one, q], [zero, g]])
    t_inv = invert(t_mat)
    base = QMatrix([[a, zero], [one, b]])
    c = (t_mat * base * t_inv)[0, 1]
    delta = (s * s - c) * g

    model1 = QMatrix([[s, s * s], [-one, -s]])
    model2 = QMatrix([[zero, zero], [g + one, zero]])
    summand1 = t_inv * model1 * t_mat
    summand2 = t_inv * model2 * t_mat
    target = QMatrix([[a, delta], [one, b]])
    if not (
        summand1 + summand2 == target
        and (summand1 * summand1).is_zero()
        and (summand2 * summand2).is_zero()
    ):
        raise CertificateError("2x2 completion: summands are not square-zero with sum the target")
    return Completion2x2Certificate(
        delta=delta, q=q, g=g, s=s, summands=(summand1, summand2), target=target
    )


# ---------------------------------------------------------------------------
# Candidate enumeration (deterministic)
# ---------------------------------------------------------------------------


def _units(alg: AlgebraParams) -> list[Quaternion]:
    one, i, j, k = alg.basis()
    return [one, i, j, k, -one, -i, -j, -k]


def _vector_candidates(n: int, alg: AlgebraParams, budget: int) -> Iterator[QVector]:
    """Structured candidates first, then seeded pseudo-random vectors."""
    count = 0

    def emit(v):
        nonlocal count
        count += 1
        return v

    for s in range(n):
        if count >= budget:
            return
        yield emit(QVector.unit(n, s, alg))
    units = _units(alg)
    for s in range(n):
        for t in range(n):
            if s == t:
                continue
            for u in units:
                if count >= budget:
                    return
                yield emit(QVector.unit(n, s, alg) + QVector.unit(n, t, alg).scale_right(u))
    if n >= 3:
        for s in range(n):
            for t in range(s + 1, n):
                for r in range(t + 1, n):
                    for u in units:
                        for v in units:
                            if count >= budget:
                                return
                            yield emit(
                                QVector.unit(n, s, alg)
                                + QVector.unit(n, t, alg).scale_right(u)
                                + QVector.unit(n, r, alg).scale_right(v)
                            )
    rng = random.Random(0x5EED)
    while count < budget:
        entries = [
            Quaternion(
                Fraction(rng.randint(-3, 3)),
                Fraction(rng.randint(-3, 3)),
                Fraction(rng.randint(-3, 3)),
                Fraction(rng.randint(-3, 3)),
                alg,
            )
            for _ in range(n)
        ]
        v = QVector(entries)
        if not v.is_zero():
            yield emit(v)


def _perturbation_lists(
    k: int, alg: AlgebraParams, budget: int
) -> Iterator[tuple[Quaternion, ...]]:
    """Zero list, then single-slot units, then slot pairs, then seeded random lists."""
    zero = alg.zero()
    count = 0
    yield tuple([zero] * k)
    count += 1
    units = _units(alg)
    for slot in range(k):
        for u in units:
            if count >= budget:
                return
            out = [zero] * k
            out[slot] = u
            yield tuple(out)
            count += 1
    for s in range(k):
        for t in range(s + 1, k):
            for u in units:
                for v in units:
                    if count >= budget:
                        return
                    out = [zero] * k
                    out[s], out[t] = u, v
                    yield tuple(out)
                    count += 1
    rng = random.Random(0xBA5E)
    while count < budget:
        out = [
            Quaternion(
                Fraction(rng.randint(-2, 2)),
                Fraction(rng.randint(-2, 2)),
                Fraction(rng.randint(-2, 2)),
                Fraction(rng.randint(-2, 2)),
                alg,
            )
            for _ in range(k)
        ]
        yield tuple(out)
        count += 1


# ---------------------------------------------------------------------------
# Diagonal-zero similarity, by cases
# ---------------------------------------------------------------------------


def diag_zero_form(
    m: QMatrix,
    sqrt_budget: int = DEFAULT_SQRT_BUDGET,
    search_budget: int = DEFAULT_SEARCH_BUDGET,
) -> SimilarityWitness:
    """Witness conjugating M to a matrix with zero diagonal.

    Precondition: the decision procedure accepts M.  Budget exhaustion in
    the constructive searches raises SearchBudgetExceeded (an enumeration
    gap, never a mathematical rejection); a witness that fails its check
    raises CertificateError.
    """
    return _decided_diag_zero(m, sqrt_budget, search_budget)[0]


def _decided_diag_zero(
    m: QMatrix, sqrt_budget: int, search_budget: int
) -> tuple[SimilarityWitness, QMatrix]:
    """Decide M once, reduce it by that decision, and certify the result."""
    decision = is_sum_of_two_nilpotents(m, sqrt_budget=sqrt_budget)
    if not decision.answer:
        raise PreconditionError(
            f"matrix is not a sum of two nilpotents (reason: {decision.reason.value})"
        )
    return _certify(m, _diag_zero(m, decision, sqrt_budget, search_budget))


def _diag_zero(
    m: QMatrix, decision: Decision, sqrt_budget: int, search_budget: int
) -> SimilarityWitness:
    """Zero-diagonal witness for M, by the case its accepting decision names."""
    n = m.rows
    if m.is_zero():
        return SimilarityWitness.identity(n, m.algebra)
    if n == 2:
        return _diag_zero_2x2(m, decision, search_budget)
    if decision.type_ii is not None:
        return _diag_zero_type_ii(m, decision.type_ii)
    if n == 3:
        return _diag_zero_3x3(m, search_budget)
    return _diag_zero_large(m, sqrt_budget, search_budget)


def _diag_zero_2x2(m: QMatrix, decision: Decision, search_budget: int) -> SimilarityWitness:
    """Basis (x, Mx) for an eigenvector x of M*M gives [[0, q], [1, 0]].

    q is the eigenvalue of the certificate for M*M that the decision built.
    """
    alg = m.algebra
    q = decision.square_certificate.eigenvalue
    if q.is_central():
        # M*M = q*I, so every nonzero vector is an eigenvector of the square.
        candidates = _vector_candidates(2, alg, search_budget)
    else:
        basis = eigenvectors_for(m * m, q).basis
        candidates = list(basis)
        candidates += [u + v for s, u in enumerate(basis) for v in basis[s + 1 :]]
        candidates += [u - v for s, u in enumerate(basis) for v in basis[s + 1 :]]
    for x in candidates:
        witness = _to_basis([x, m.apply(x)])
        if witness is not None:
            return witness
    raise SearchBudgetExceeded("2x2 reduction: no independent (x, Mx) pair found")


def _diag_zero_type_ii(m: QMatrix, data: TypeIIData) -> SimilarityWitness:
    """Rank-one perturbations of scalars with zero supertrace: rationalize, then reduce.

    In a basis adapted to the rank-one part the whole matrix has rational
    entries and zero trace, so the classical field reduction applies.
    """
    n = m.rows
    alg = m.algebra
    c = data.column
    if not data.image_eigenvalue.is_zero():
        cols = [c] + kernel_basis(data.rank_one)
    else:
        t0 = next(t for t in range(n) if not data.row[t].is_zero())
        preimage = QVector.unit(n, t0, alg).scale_right(data.row[t0].inverse())
        cols = independent_subfamily([c, preimage, *kernel_basis(data.rank_one)])
    base = _to_basis(cols)
    w_field = _field_diag_zero_inner(conjugate_by(m, base))
    return w_field.compose(base)


def _square_zero_pair_witness(k: QMatrix, a_mat: QMatrix, b_mat: QMatrix) -> SimilarityWitness:
    """Zero-diagonal witness for a 2x2 matrix given as a sum of two square-zero matrices.

    With x spanning ker B and y spanning ker A, the basis (x, y) represents
    K = A + B as [[0, *], [*, 0]]; degenerate summand configurations reduce
    to a strictly triangular representation.
    """
    alg = k.algebra
    if k.is_zero():
        return SimilarityWitness.identity(2, alg)
    basis_pool = _unit_vectors(2, alg)
    if a_mat.is_zero() or b_mat.is_zero():
        single = b_mat if a_mat.is_zero() else a_mat
        v = next(u for u in basis_pool if not single.apply(u).is_zero())
        cols = [single.apply(v), v]
    else:
        x, y = kernel_basis(b_mat)[0], kernel_basis(a_mat)[0]
        cols = independent_subfamily([x, y, *basis_pool])
    return _to_basis(cols)


def _diag_zero_3x3(m: QMatrix, search_budget: int) -> SimilarityWitness:
    """Companion basis (x, Mx, M^2 x + x*delta) with delta from the 2x2 completion.

    In that basis the first diagonal entry is zero and the trailing 2x2
    block is the completion's target, whose square-zero summands give the
    rest of the witness.
    """
    alg = m.algebra
    for x in _vector_candidates(3, alg, search_budget):
        mx = m.apply(x)
        m2x = m.apply(mx)
        cyclic = _to_basis([x, mx, m2x])
        if cyclic is not None:
            break
    else:
        raise SearchBudgetExceeded("3x3 reduction: no cyclic vector found in budget")
    companion = conjugate_by(m, cyclic)
    completion = completion_2x2(alg.zero(), companion[2, 2])
    delta = completion.delta - companion[1, 2]
    base = _to_basis([x, mx, m2x + x.scale_right(delta)])
    w_block = _square_zero_pair_witness(completion.target, *completion.summands)
    return _embed_witness(w_block, alg).compose(base)


def _diag_zero_large(m: QMatrix, sqrt_budget: int, search_budget: int) -> SimilarityWitness:
    """n >= 4: zero the corner, perturb the trailing block until it is accepted, recurse.

    The basis (x, Mx, ...) makes the first column e_2 and the corner zero.
    Conjugating by the shear with first row (1, 0, q_1, ..., q_{n-2}) adds
    the perturbation to the first row of the trailing block and keeps the
    corner zero.
    """
    n = m.rows
    alg = m.algebra
    x = next(
        (
            cand
            for cand in _vector_candidates(n, alg, search_budget)
            if rank(QMatrix.from_columns([cand, m.apply(cand)])) == 2
        ),
        None,
    )
    if x is None:
        raise SearchBudgetExceeded("reduction: no vector off its own line found")
    base = _to_basis(independent_subfamily([x, m.apply(x), *_unit_vectors(n, alg)]))
    trailing = conjugate_by(m, base).submatrix(range(1, n), range(1, n))

    def shear(top) -> QMatrix:
        rows = [list(row) for row in QMatrix.identity(n, alg).entries]
        rows[0][2:] = top
        return QMatrix(rows)

    zero = alg.zero()
    for qlist in _perturbation_lists(n - 2, alg, search_budget):
        bump = QMatrix(
            [[zero, *qlist]] + [[zero] * (n - 1) for _ in range(n - 2)]
        )
        candidate = trailing + bump
        try:
            decision = is_sum_of_two_nilpotents(candidate, sqrt_budget=sqrt_budget)
        except SearchBudgetExceeded:
            # undecided within budget; any accepted perturbation works, try the next
            continue
        if not decision.answer:
            continue
        sheared = SimilarityWitness._trusted(shear([-q for q in qlist]), shear(qlist))
        w_sub = _diag_zero(candidate, decision, sqrt_budget, search_budget)
        return _embed_witness(w_sub, alg).compose(sheared.compose(base))
    raise SearchBudgetExceeded("reduction: no accepted trailing perturbation in budget")


# ---------------------------------------------------------------------------
# The decomposition itself
# ---------------------------------------------------------------------------


def decompose_two_nilpotents(
    m: QMatrix,
    sqrt_budget: int = DEFAULT_SQRT_BUDGET,
    search_budget: int = DEFAULT_SEARCH_BUDGET,
) -> TwoNilpotentDecomposition:
    """Two nilpotent matrices summing to M, with the similarity certificate.

    The zero-diagonal conjugate splits into strictly upper and strictly
    lower triangular parts; N1 is the pullback of the upper part and
    N2 = M - N1 that of the lower one.  The witness pair, the zero diagonal
    and `verify_decomposition` are checked before returning, and a failed
    check raises CertificateError.
    """
    witness, d = _decided_diag_zero(m, sqrt_budget, search_budget)
    upper, _ = strict_split(d)
    n1 = conjugate_by(upper, witness.inverse())
    n2 = m - n1
    if not verify_decomposition(m, n1, n2):
        raise CertificateError("decomposition failed the independent check")
    return TwoNilpotentDecomposition(n1=n1, n2=n2, witness=witness, diag_zero=d)
