"""Constructive two-nilpotent decompositions with checked certificates.

Every matrix accepted by the decision procedure is conjugated to a matrix
with zero diagonal, whose strictly upper and strictly lower parts pull back
to the two nilpotent summands.  The matrix is decided once, and each case
of that decision builds one basis S in which M has zero diagonal: (x, Mx)
at n = 2, with x built from the eigenbasis of M*M that decided it, a
closed form for type-II data (M becomes lam*(I - J), or E_12 when
lam = 0), and otherwise the companion basis (x, Mx, ..., M^(n-1) x) of
the first cyclic candidate x.  Only a non-cyclic candidate at n >= 4
perturbs and recurses on the trailing block, whose basis T recombines the
trailing columns: S*(I (+) T).  Each public function inverts S once,
P = S^-1 and Pinv = S, and checks what it returns with explicit tests that
`python -O` keeps; a singular S or a failed check raises CertificateError.
A decomposition is checked through its witness (`verify_certificate`):
P*N1*Pinv strictly upper and P*N2*Pinv strictly lower triangular prove both
summands nilpotent without powering them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from . import ratlin
from .classify import Decision, TypeIIData, is_sum_of_two_nilpotents
from .errors import CertificateError, PreconditionError, SearchBudgetExceeded
from .qcore import AlgebraParams, Quaternion, conjugator, translate_conjugate
from .qlinalg import (
    QMatrix,
    QVector,
    SimilarityWitness,
    conjugate_by,
    independent_subfamily,
    invert,
    is_nilpotent,
    kernel_basis,
    reduced_trace,
    strict_split,
)
from .spectral import checked_witness

#: Most trial decisions of perturbed trailing blocks in one `_diag_zero_large` call.
MAX_TRIAL_DECISIONS = 600


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


def verify_certificate(
    m: QMatrix,
    n1: QMatrix,
    n2: QMatrix,
    witness: SimilarityWitness,
    conjugate: Optional[QMatrix] = None,
) -> bool:
    """Certificate checker: the witness triangularizes both summands, exactly.

    True when M, N1, N2, P and Pinv are square of one size, P*Pinv = I,
    N1 + N2 = M, P*N1*Pinv is strictly upper and P*N2*Pinv strictly lower
    triangular.  A matrix similar to a strictly triangular one is nilpotent,
    so this proves what `verify_decomposition` proves, and it also checks
    that P is the similarity that splits M.  `conjugate` is P*M*Pinv where
    the caller has already computed it from this witness.
    """
    return certificate_defect(m, n1, n2, witness, conjugate) is None


def certificate_defect(
    m: QMatrix,
    n1: QMatrix,
    n2: QMatrix,
    witness: SimilarityWitness,
    conjugate: Optional[QMatrix] = None,
) -> Optional[str]:
    """The first condition of `verify_certificate` that fails, or None when all hold."""
    p, pinv = witness.P, witness.Pinv
    n = m.rows
    if any((a.rows, a.cols) != (n, n) for a in (m, n1, n2, p, pinv)):
        return "the matrices are not square of one size"
    if p * pinv != QMatrix.identity(n, m.algebra):
        return "P*Pinv is not the identity"
    if n1 + n2 != m:
        return "N1 + N2 is not M"
    upper = p * n1 * pinv
    if not upper.is_strictly_upper():
        return "P*N1*Pinv is not strictly upper triangular"
    # once the sum holds, P*N2*Pinv = P*M*Pinv - P*N1*Pinv, and M has the lowest height
    if conjugate is None:
        conjugate = p * m * pinv
    if not (conjugate - upper).is_strictly_lower():
        return "P*N2*Pinv is not strictly lower triangular"
    return None


# ---------------------------------------------------------------------------
# Rational (central) trace-zero matrices: classical diagonal-zero reduction
# ---------------------------------------------------------------------------


def field_diag_zero(m: QMatrix) -> SimilarityWitness:
    """Zero-diagonal similarity for a rational trace-zero matrix (nonscalar or zero).

    Classical induction: a corner basis (x, Mx, ...) zeroes the leading
    diagonal entry, and the recursion reduces the trailing block.  The input
    is checked here once: that block is rational with trace zero, and over a
    field of characteristic zero a scalar trace-zero block is zero, so every
    block the recursion meets is zero or nonscalar.  The decomposition
    itself never takes this path.
    """
    if not m.is_square():
        raise PreconditionError("square input required")
    if not m.is_rational():
        raise PreconditionError("entries must be rational (central)")
    if not m.is_zero() and m.rational_scalar_value() is not None:
        raise PreconditionError("nonzero scalar matrices have no zero-diagonal form")
    if reduced_trace(m) != 0:
        raise PreconditionError("trace must be zero")
    witness, result = _certify(m, _field_diag_zero_inner(m))
    if not result.is_rational():
        raise CertificateError("field reduction left the rationals")
    return checked_witness(witness.P, witness.Pinv)


def _field_diag_zero_inner(m: QMatrix) -> QMatrix:
    if m.is_zero():
        return QMatrix.identity(m.rows, m.algebra)
    # a nonscalar rational matrix moves some e_s or e_s + e_t off its line
    base, trailing = next(filter(None, (_corner_basis(m, x) for x in _vector_candidates(m.rows, m.algebra))))
    return _recombine(base, _field_diag_zero_inner(trailing))


def _recombine(s: QMatrix, t: QMatrix) -> QMatrix:
    """S*(I (+) T): the trailing columns of S recombined by the square block T."""
    k = s.cols - t.rows
    tail = s.submatrix(range(s.rows), range(k, s.cols)) * t
    return QMatrix([row[:k] + new for row, new in zip(s.entries, tail.entries)])


def _certify(m: QMatrix, s: QMatrix) -> tuple[SimilarityWitness, QMatrix]:
    """The boundary of a reduction: P = S^-1, computed once, and P*M*S, which must have zero diagonal.

    A singular S raises CertificateError; the caller checks the pair (P, S).
    """
    p = invert(s)
    if p is None:
        raise CertificateError("the reduction basis is singular")
    w = SimilarityWitness._trusted(p, s)
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


def _vector_candidates(n: int, alg: AlgebraParams) -> Iterator[QVector]:
    """Unit vectors e_s, then e_s + e_t*u, then e_s + e_t*u + e_r*v, for units u and v.

    For u = ±1 the pair (t, s) gives ±(e_s + e_t*u) again, so a central u is
    taken only with s < t, and no candidate is ± an earlier one.
    """
    e, units = QMatrix.identity(n, alg).columns(), _units(alg)
    yield from e
    for (s, t), u in itertools.product(itertools.permutations(range(n), 2), units):
        if s < t or not u.is_central():
            yield e[s] + e[t].scale_right(u)
    for (s, t, r), u, v in itertools.product(itertools.combinations(range(n), 3), units, units):
        yield e[s] + e[t].scale_right(u) + e[r].scale_right(v)


def _perturbation_lists(k: int, alg: AlgebraParams) -> Iterator[tuple[Quaternion, ...]]:
    """The zero list, then one unit in one slot, then units in two slots."""
    zero, units = alg.zero(), _units(alg)

    def placed(*pairs) -> tuple[Quaternion, ...]:
        out = [zero] * k
        for slot, u in pairs:
            out[slot] = u
        return tuple(out)

    yield placed()
    for slot, u in itertools.product(range(k), units):
        yield placed((slot, u))
    for (s, t), u, v in itertools.product(itertools.combinations(range(k), 2), units, units):
        yield placed((s, u), (t, v))


def _corner_basis(m: QMatrix, x: QVector) -> Optional[tuple[QMatrix, QMatrix]]:
    """Basis S = (x, Mx, units...) and the trailing block of S^-1*M*S, or None if Mx is on x's line.

    One elimination of [x, Mx, e_1, ..., e_n | M*Mx, M e_1, ..., M e_n]
    picks the greedy basis, which keeps Mx second exactly when Mx is off the
    line of x, and gives the coordinates of M s for each basis vector s;
    the first column of S^-1*M*S is then e_2, so its corner is zero.
    """
    n = m.rows
    mx = m.apply(x)
    family = [x, mx, *QMatrix.identity(n, m.algebra).columns()]
    reduced, pivots = ratlin.rref(QMatrix.from_columns([*family, m.apply(mx), *m.columns()]).entries, n + 2)
    if pivots[1] != 1:
        return None
    # M maps family column p >= 1 to column n + 1 + p
    trailing = QMatrix([[row[n + 1 + p] for p in pivots[1:]] for row in reduced[1:]])
    return QMatrix.from_columns([family[p] for p in pivots]), trailing


# ---------------------------------------------------------------------------
# Diagonal-zero similarity, by cases
# ---------------------------------------------------------------------------


def diag_zero_form(m: QMatrix) -> SimilarityWitness:
    """Witness conjugating M, which the decision procedure must accept, to a zero diagonal.

    A construction search that runs out (no cyclic candidate at n = 3, or
    the trial-decision cap that only non-cyclic corner vectors at n >= 4
    spend) raises SearchBudgetExceeded, never a mathematical rejection; a
    witness that fails its check raises CertificateError.
    """
    witness, _ = _certify(m, _decided_diag_zero(m))
    return checked_witness(witness.P, witness.Pinv)


def _decided_diag_zero(m: QMatrix) -> QMatrix:
    """Decide M once and reduce it by that decision to a basis S, not yet inverted."""
    decision = is_sum_of_two_nilpotents(m)
    if not decision.answer:
        raise PreconditionError(f"matrix is not a sum of two nilpotents (reason: {decision.reason.value})")
    return _diag_zero(m, decision)


def _diag_zero(m: QMatrix, decision: Decision) -> QMatrix:
    """Basis S with S^-1*M*S of zero diagonal, by the case M's accepting decision names."""
    if m.is_zero():
        return QMatrix.identity(m.rows, m.algebra)
    if m.rows == 2:
        return _diag_zero_2x2(m, decision)
    if decision.type_ii is not None:
        return _diag_zero_type_ii(m, decision.type_ii)
    return _diag_zero_large(m)


def _diag_zero_2x2(m: QMatrix, decision: Decision) -> QMatrix:
    """Basis (x, Mx) for an eigenvector x of M*M, which gives [[0, q], [1, 0]].

    (p1, p2), the columns of Pinv in the decision's certificate of M*M, are
    eigenvectors for its eigenvalue q, and x is the first of p1, p2, p1 + p2,
    p1 + p2*i, p1 + p2*j with x and Mx right-independent.  The list cannot
    run out.  If p1, p2 and p1 + p2 fail, M p1 = p1*mu1, M p2 = p2*mu2 and
    M(p1 + p2) = (p1 + p2)*nu force mu1 = mu2 = nu, so M is similar to
    Diag(mu, mu).  Then t(M) = 2*t(mu) = 0 makes mu pure and q = mu^2
    central, so M*M = q*I is a rational scalar, whose certificate has
    Pinv = I, and M = Diag(mu, mu).  M is nonzero, so mu is a noncentral
    pure, which commutes with at most one of i and j; M(p1 + p2*u) is
    (mu, mu*u), on the line of (1, u) only if u commutes with mu, so
    p1 + p2*i or p1 + p2*j works, and it is an eigenvector of M*M = q*I.
    """
    p1, p2 = decision.square_certificate.witness.Pinv.columns()
    _, i, j, _ = m.algebra.basis()
    for x in (p1, p2, p1 + p2, p1 + p2.scale_right(i), p1 + p2.scale_right(j)):
        pair = [x, m.apply(x)]
        if len(independent_subfamily(pair)) == 2:
            return QMatrix.from_columns(pair)
    raise CertificateError("2x2 reduction: every candidate x has Mx on its line")


def _diag_zero_type_ii(m: QMatrix, data: TypeIIData) -> QMatrix:
    """Closed-form basis for M = lam*I + c*r with zero supertrace, so that r*c = -n*lam.

    lam != 0: with k_1..k_(n-1) a basis of ker r and k_n = -(k_1 + ... + k_(n-1)),
    the columns s_i = c/n + k_i are a basis, because c is outside ker r.
    They sum to c and r*s_i = -lam, so M s_i = lam*s_i - lam*(s_1 + ... + s_n):
    M is lam*(I - J), with J the all-ones matrix, whose diagonal is zero.
    lam = 0: M = c*r is square-zero, and with r*p = 1 the basis
    (c, p, ker r ...) makes M equal to E_12.
    """
    n = m.rows
    c, kernel = data.column, kernel_basis(data.rank_one)
    if data.lam == 0:
        t0 = next(t for t in range(n) if not data.row[t].is_zero())
        preimage = QVector.unit(n, t0, m.algebra).scale_right(data.row[t0].inverse())
        return QMatrix.from_columns(independent_subfamily([c, preimage, *kernel]))
    kernel.append(-sum(kernel[1:], kernel[0]))
    centre = c.scale_right(Fraction(1, n))
    return QMatrix.from_columns([centre + k for k in kernel])


def _diag_zero_3x3(m: QMatrix, x: QVector) -> Optional[QMatrix]:
    """Companion basis from x for any n >= 3, or None if x is not cyclic.

    One elimination of [x, Mx, ..., M^(n-1) x | M^n x] tells whether the
    Krylov vectors are a basis and gives the coordinates c of M^n x, the
    last column of the companion matrix, whose diagonal is zero but for c_(n-1).
    Replacing the last basis vector by M^(n-1) x + M^(n-3) x*(delta - c_(n-2))
    turns the trailing 2x2 block into the completion's target
    [[0, delta], [1, c_(n-1)]] = A + B and keeps the rest of the diagonal
    zero.  With x' spanning ker B and y' spanning ker A, the basis (x', y')
    represents A + B as [[0, *], [*, 0]]; when the kernels coincide, A + B
    is square-zero and (x', e_s) makes it strictly upper triangular.
    """
    n, alg = m.rows, m.algebra
    # x, Mx, ..., M^n x
    krylov = list(itertools.accumulate(range(n), lambda v, _: m.apply(v), initial=x))
    reduced, pivots = ratlin.rref(QMatrix.from_columns(krylov).entries, n)
    if len(pivots) < n:
        return None
    c = [row[n] for row in reduced]
    completion = completion_2x2(alg.zero(), c[n - 1])
    last = krylov[n - 1] + krylov[n - 3].scale_right(completion.delta - c[n - 2])
    a_mat, b_mat = completion.summands
    kernels = kernel_basis(b_mat)[0], kernel_basis(a_mat)[0]
    block = independent_subfamily([*kernels, *QMatrix.identity(2, alg).columns()])
    return _recombine(QMatrix.from_columns(krylov[: n - 1] + [last]), QMatrix.from_columns(block))


def _diag_zero_large(m: QMatrix) -> QMatrix:
    """n >= 3: a companion basis from the first cyclic candidate, else perturb and recurse.

    Candidates x are taken in `_vector_candidates` order, and a cyclic x
    ends the search with `_diag_zero_3x3`.  At n >= 4 a non-cyclic x with Mx
    off its line gives a corner basis (s_1, ..., s_n) = (x, Mx, ...), which
    zeroes the corner.  Adding s_1*q_j to s_(j+2), a shear, adds the
    perturbation q to the first row of the trailing block and keeps the
    corner zero; an accepted block is reduced by its own decision.  When no
    perturbation is accepted, the next x is tried, for at most
    MAX_TRIAL_DECISIONS trial decisions in all.  A derogatory M, with no
    cyclic vector, takes only this step.
    """
    n, alg = m.rows, m.algebra
    trials = 0
    for x in _vector_candidates(n, alg):
        companion = _diag_zero_3x3(m, x)
        if companion is not None:
            return companion
        corner = _corner_basis(m, x) if n > 3 else None
        if corner is None:
            continue
        base, trailing = corner
        s = base.columns()
        for qlist in _perturbation_lists(n - 2, alg):
            if trials == MAX_TRIAL_DECISIONS:
                raise SearchBudgetExceeded(f"reduction: no trailing block accepted in {trials} decisions")
            trials += 1
            first = [t + q for t, q in zip(trailing.entries[0], (alg.zero(), *qlist))]
            candidate = QMatrix([first, *trailing.entries[1:]])
            decision = is_sum_of_two_nilpotents(candidate)
            if decision.answer:
                sheared = s[:2] + [v + s[0].scale_right(q) for v, q in zip(s[2:], qlist)]
                return _recombine(QMatrix.from_columns(sheared), _diag_zero(candidate, decision))
            if not any(qlist) and _scalar_below_first_row(trailing):
                # the block is lam*I + e_1*r, and a first-row perturbation keeps lam
                # and the image eigenvalue r_1, hence the verdict
                break
    raise SearchBudgetExceeded(f"{n}x{n} reduction: the candidate vectors ran out")


def _scalar_below_first_row(t: QMatrix) -> bool:
    """Whether the rows of T below the first are those of lam*I for a rational lam."""
    lam = t[1, 1]
    below = range(1, t.rows), range(t.cols)
    scalar = QMatrix.scalar(t.rows, lam, t.algebra)
    return lam.is_central() and t.submatrix(*below) == scalar.submatrix(*below)


# ---------------------------------------------------------------------------
# The decomposition itself
# ---------------------------------------------------------------------------


def decompose_two_nilpotents(m: QMatrix) -> TwoNilpotentDecomposition:
    """Two nilpotent matrices summing to M, with the similarity certificate.

    The zero-diagonal conjugate splits into strictly upper and strictly
    lower triangular parts; N1 is the pullback of the upper part and
    N2 = M - N1 that of the lower one.  The zero diagonal and then
    `verify_certificate`, which reuses the conjugate P*M*Pinv, are checked
    before returning, and a failed check raises CertificateError.
    """
    witness, d = _certify(m, _decided_diag_zero(m))
    upper, _ = strict_split(d)
    n1 = conjugate_by(upper, witness.inverse())
    n2 = m - n1
    if not verify_certificate(m, n1, n2, witness, d):
        raise CertificateError("decomposition failed its certificate check")
    return TwoNilpotentDecomposition(n1=n1, n2=n2, witness=witness, diag_zero=d)
