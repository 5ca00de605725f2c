"""Constructive two-nilpotent decompositions with checked certificates.

Every matrix accepted by the decision procedure is conjugated to a matrix
with zero diagonal; splitting that into strictly upper and strictly lower
parts and pulling back through the witness yields the two nilpotent
summands.  The matrix is decided once, and the diagonal-zero reduction
works by cases on that decision: a spectral basis trick for 2x2, one
closed-form basis when the decision carries type-II data (it conjugates M
to lam*(I - J), or to E_12 when lam = 0), and for every other n >= 3 one
companion basis (x, Mx, ..., M^(n-1) x) from the first cyclic candidate x.
Only a candidate that is not cyclic, at n >= 4, takes a
perturbation-and-recurse step, which hands the accepted trailing block's
own decision to the recursion.  The reductions build their witnesses
without re-checking them.
Each public function checks the certificate it returns once, with explicit
tests that `python -O` keeps, and raises CertificateError if a check fails.
A decomposition is checked through its witness (`verify_certificate`):
P*N1*Pinv strictly upper and P*N2*Pinv strictly lower triangular prove
both summands nilpotent without powering them.
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

    Classical induction: pick x with Mx outside the line of x, pass to a
    basis starting (x, Mx) which zeroes the leading diagonal entry, and
    recurse on the trailing block.  The input is checked here once: the
    trailing block of a rational trace-zero matrix with a zero corner is
    rational with trace zero, and over a field of characteristic zero a
    scalar trace-zero block is zero, so every block the recursion meets is
    zero or nonscalar.  The decomposition itself never takes this path.
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
    return witness


def _field_diag_zero_inner(m: QMatrix) -> SimilarityWitness:
    n = m.rows
    if m.is_zero():
        return SimilarityWitness.identity(n, m.algebra)
    # a nonscalar rational matrix moves some e_s or e_s + e_t off its line
    base = next(filter(None, (_corner_basis(m, x) for x in _vector_candidates(n, m.algebra))))
    w_sub = _field_diag_zero_inner(conjugate_by(m, base).submatrix(range(1, n), range(1, n)))
    return _embed_witness(w_sub, n).compose(base)


def _embed_witness(w: SimilarityWitness, n: int) -> SimilarityWitness:
    """I_(n-k) (+) P block witness acting on the trailing k coordinates."""

    def embed(mat: QMatrix) -> QMatrix:
        rows = [list(row) for row in QMatrix.identity(n, mat.algebra).entries]
        for r, row in enumerate(mat.entries, start=n - mat.rows):
            rows[r][n - mat.rows :] = row
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
    return w, _zero_diagonal_conjugate(m, w)


def _zero_diagonal_conjugate(m: QMatrix, w: SimilarityWitness) -> QMatrix:
    """P*M*Pinv, which the witness must bring to a zero diagonal."""
    d = conjugate_by(m, w)
    if not d.has_zero_diagonal():
        raise CertificateError("witness does not conjugate the matrix to a zero diagonal")
    return d


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
    e, units = _unit_vectors(n, alg), _units(alg)
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


def _corner_basis(m: QMatrix, x: QVector) -> Optional[SimilarityWitness]:
    """Basis (x, Mx, units...) when Mx is off the line of x, else None.

    In such a basis the first column of M is e_2, so the corner entry is zero.
    The greedy subfamily keeps Mx second exactly when Mx is off the line of x.
    """
    mx = m.apply(x)
    cols = independent_subfamily([x, mx, *_unit_vectors(m.rows, m.algebra)])
    return _to_basis(cols) if cols[1] == mx else None


# ---------------------------------------------------------------------------
# Diagonal-zero similarity, by cases
# ---------------------------------------------------------------------------


def diag_zero_form(m: QMatrix) -> SimilarityWitness:
    """Witness conjugating M to a matrix with zero diagonal.

    Precondition: the decision procedure accepts M, which never runs out.
    At n >= 3 a cyclic candidate vector gives one companion basis.  A
    construction search that runs out (the end of a fixed candidate list,
    or the trial-decision cap, which only non-cyclic corner vectors at
    n >= 4 spend) raises SearchBudgetExceeded, which is never a
    mathematical rejection; a witness that fails its check raises
    CertificateError.
    """
    return _certify(m, _decided_diag_zero(m))[0]


def _decided_diag_zero(m: QMatrix) -> SimilarityWitness:
    """Decide M once and reduce it by that decision; the witness is not yet checked."""
    decision = is_sum_of_two_nilpotents(m)
    if not decision.answer:
        raise PreconditionError(
            f"matrix is not a sum of two nilpotents (reason: {decision.reason.value})"
        )
    return _diag_zero(m, decision)


def _diag_zero(m: QMatrix, decision: Decision) -> SimilarityWitness:
    """Zero-diagonal witness for M, by the case its accepting decision names."""
    n = m.rows
    if m.is_zero():
        return SimilarityWitness.identity(n, m.algebra)
    if n == 2:
        return _diag_zero_2x2(m, decision)
    if decision.type_ii is not None:
        return _diag_zero_type_ii(m, decision.type_ii)
    return _diag_zero_large(m)


def _diag_zero_2x2(m: QMatrix, decision: Decision) -> SimilarityWitness:
    """Basis (x, Mx) for an eigenvector x of M*M gives [[0, q], [1, 0]].

    q is the eigenvalue of the certificate for M*M that the decision built,
    and the certificate carries the Q-basis of the eigenvectors for q.
    """
    square = decision.square_certificate
    if square.eigenvalue.is_central():
        # M*M = q*I, so every nonzero vector is an eigenvector of the square.
        candidates = _vector_candidates(2, m.algebra)
    else:
        basis = square.solution_basis
        candidates = list(basis)
        candidates += [u + v for s, u in enumerate(basis) for v in basis[s + 1 :]]
        candidates += [u - v for s, u in enumerate(basis) for v in basis[s + 1 :]]
    bases = filter(None, (_to_basis([x, m.apply(x)]) for x in candidates))
    witness = next(bases, None)
    if witness is None:
        raise SearchBudgetExceeded("2x2 reduction: no independent (x, Mx) pair found")
    return witness


def _diag_zero_type_ii(m: QMatrix, data: TypeIIData) -> SimilarityWitness:
    """Closed-form basis for M = lam*I + c*r with zero supertrace, so that r*c = -n*lam.

    lam != 0: with k_1..k_(n-1) a basis of ker r and k_n = -(k_1 + ... + k_(n-1)),
    the columns s_i = c/n + k_i are a basis, because c is outside ker r.
    They sum to c and r*s_i = -lam, so
    M s_i = lam*s_i + c*(r*s_i) = lam*s_i - lam*(s_1 + ... + s_n):
    in this basis M is lam*(I - J), with J the all-ones matrix, whose
    diagonal is zero.
    lam = 0: M = c*r is square-zero, and with r*p = 1 the basis
    (c, p, ker r ...) makes M equal to E_12.
    """
    n = m.rows
    c, kernel = data.column, kernel_basis(data.rank_one)
    if data.lam == 0:
        t0 = next(t for t in range(n) if not data.row[t].is_zero())
        preimage = QVector.unit(n, t0, m.algebra).scale_right(data.row[t0].inverse())
        return _to_basis(independent_subfamily([c, preimage, *kernel]))
    kernel.append(-sum(kernel[1:], kernel[0]))
    centre = c.scale_right(Fraction(1, n))
    return _to_basis([centre + k for k in kernel])


def _square_zero_pair_witness(a_mat: QMatrix, b_mat: QMatrix) -> SimilarityWitness:
    """Zero-diagonal witness for A + B, with A and B nonzero 2x2 square-zero matrices.

    With x spanning ker B and y spanning ker A, the basis (x, y) represents
    A + B as [[0, *], [*, 0]]; when the kernels coincide, A + B is
    square-zero and (x, e_s) makes it strictly upper triangular.
    """
    x, y = kernel_basis(b_mat)[0], kernel_basis(a_mat)[0]
    return _to_basis(independent_subfamily([x, y, *_unit_vectors(2, a_mat.algebra)]))


def _diag_zero_3x3(m: QMatrix, x: QVector) -> Optional[SimilarityWitness]:
    """Companion-basis witness from x for any n >= 3, or None if x is not cyclic.

    One elimination of [x, Mx, ..., M^(n-1) x | M^n x] tells whether the
    Krylov vectors are a basis and gives the coordinates c of M^n x, the
    last column of the companion matrix, whose diagonal is zero but for c_(n-1).
    Replacing the last basis vector by M^(n-1) x + M^(n-3) x*(delta - c_(n-2))
    turns the trailing 2x2 block into the completion's target
    [[0, delta], [1, c_(n-1)]] and keeps the rest of the diagonal zero; the
    completion's square-zero summands give the rest of the witness.
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
    base = _to_basis(krylov[: n - 1] + [last])
    w_block = _square_zero_pair_witness(*completion.summands)
    return _embed_witness(w_block, n).compose(base)


def _diag_zero_large(m: QMatrix) -> SimilarityWitness:
    """n >= 3: a companion basis from the first cyclic candidate, else perturb and recurse.

    Candidates x are taken in `_vector_candidates` order, and a cyclic x
    ends the search with `_diag_zero_3x3`.  At n >= 4 a non-cyclic x with Mx
    off its line gives a corner basis (x, Mx, ...), which zeroes the corner.
    Conjugating by the shear with first row (1, 0, q_1, ..., q_{n-2}) adds
    the perturbation to the first row of the trailing block and keeps the
    corner zero; an accepted block is reduced by its own decision.  When no
    perturbation is accepted, the next x is tried, for at most
    MAX_TRIAL_DECISIONS trial decisions in all.  A derogatory M, with no
    cyclic vector, takes only this step.
    """
    n, alg = m.rows, m.algebra

    def shear(top) -> QMatrix:
        rows = [list(row) for row in QMatrix.identity(n, alg).entries]
        rows[0][2:] = top
        return QMatrix(rows)

    zero = alg.zero()
    trials = 0
    for x in _vector_candidates(n, alg):
        companion = _diag_zero_3x3(m, x)
        if companion is not None:
            return companion
        base = _corner_basis(m, x) if n > 3 else None
        if base is None:
            continue
        trailing = conjugate_by(m, base).submatrix(range(1, n), range(1, n))
        for qlist in _perturbation_lists(n - 2, alg):
            if trials == MAX_TRIAL_DECISIONS:
                raise SearchBudgetExceeded(
                    f"reduction: no trailing block accepted in {MAX_TRIAL_DECISIONS} decisions"
                )
            trials += 1
            bump = QMatrix(
                [[zero, *qlist]] + [[zero] * (n - 1) for _ in range(n - 2)]
            )
            candidate = trailing + bump
            decision = is_sum_of_two_nilpotents(candidate)
            if decision.answer:
                sheared = SimilarityWitness._trusted(shear([-q for q in qlist]), shear(qlist))
                w_sub = _diag_zero(candidate, decision)
                return _embed_witness(w_sub, n).compose(sheared.compose(base))
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
    witness = _decided_diag_zero(m)
    d = _zero_diagonal_conjugate(m, witness)
    upper, _ = strict_split(d)
    n1 = conjugate_by(upper, witness.inverse())
    n2 = m - n1
    if not verify_certificate(m, n1, n2, witness, d):
        raise CertificateError("decomposition failed its certificate check")
    return TwoNilpotentDecomposition(n1=n1, n2=n2, witness=witness, diag_zero=d)
