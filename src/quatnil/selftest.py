"""The acceptance suite: one function per criterion, shared by CLI and pytest.

Every check is exact (zero tolerance); stated runtime bounds are recorded in
the results and enforced by the callers.  All instance streams are seeded,
so a fixed seed reproduces the identical run.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .classify import Reason, is_sum_of_two_nilpotents
from .decompose import completion_2x2, decompose_two_nilpotents, field_diag_zero, verify_decomposition
from .gen import (
    _noncentral_quaternion,
    _nonzero_quaternion,
    _quaternion,
    generic_trace_zero_matrix,
    two_square_zero_sum,
    type_ii_matrix,
)
from .qcore import (
    ConjClass,
    are_conjugate,
    conjugator,
    hamilton_algebra,
    polar_form,
    quadratic_identity_check,
)
from .qlinalg import (
    QMatrix,
    QVector,
    conjugate_by,
    outer,
    rank1_factor,
    reduced_trace,
)
from .spectral import diagonalize_2x2_jordanlike, triangular_eigenvector


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float
    limit: Optional[float] = None

    @property
    def within_limit(self) -> bool:
        return self.limit is None or self.seconds < self.limit

    def line(self) -> str:
        status = "PASS" if (self.passed and self.within_limit) else "FAIL"
        bound = f" (limit {self.limit:.0f}s)" if self.limit else ""
        return f"{status} {self.name}: {self.detail} [{self.seconds:.2f}s{bound}]"


def criterion_quadratic_identity(seed: int, quick: bool) -> CriterionResult:
    """Seeded quaternions of height <= 10 satisfy q*q = t(q)q - N(q) exactly."""
    alg = hamilton_algebra()
    rng = random.Random(seed ^ 0xC1)
    count = 100 if quick else 1000
    start = time.perf_counter()
    ok = all(quadratic_identity_check(_quaternion(rng, alg, 10)) for _ in range(count))
    dt = time.perf_counter() - start
    return CriterionResult(
        "quadratic-identity", ok, f"{count} quaternions, all exact", dt, limit=1.0
    )


def criterion_conjugacy_witnesses(seed: int, quick: bool) -> CriterionResult:
    """Conjugation orbits match the (trace, norm) test and witnesses verify."""
    alg = hamilton_algebra()
    rng = random.Random(seed ^ 0xC2)
    pos = 50 if quick else 500
    neg = 10 if quick else 100
    start = time.perf_counter()
    ok = True
    for _ in range(pos):
        q = _quaternion(rng, alg, 6)
        g = _nonzero_quaternion(rng, alg, 6)
        p = g * q * g.inverse()
        w = conjugator(p, q)
        ok = ok and are_conjugate(p, q) and w * q * w.inverse() == p
    done = 0
    while done < neg:
        p = _quaternion(rng, alg, 6)
        q = _quaternion(rng, alg, 6)
        if p.reduced_trace() == q.reduced_trace() and p.norm() == q.norm():
            continue
        ok = ok and not are_conjugate(p, q)
        done += 1
    dt = time.perf_counter() - start
    return CriterionResult(
        "conjugacy-witnesses", ok, f"{pos} verified witnesses, {neg} rejections", dt, limit=2.0
    )


def criterion_commutator_diagonalization(seed: int, quick: bool) -> CriterionResult:
    """[[a,[a,c]],[0,a]] diagonalizes to Diag(a,a); non-commutators are refused."""
    alg = hamilton_algebra()
    rng = random.Random(seed ^ 0xC3)
    pos = 20 if quick else 200
    neg = 6 if quick else 50
    start = time.perf_counter()
    ok = True
    for _ in range(pos):
        a = _noncentral_quaternion(rng, alg, 5)
        c = _quaternion(rng, alg, 5)
        b = a * c - c * a
        w = diagonalize_2x2_jordanlike(a, b)
        m = QMatrix([[a, b], [alg.zero(), a]])
        ok = ok and w is not None and conjugate_by(m, w) == QMatrix.diagonal([a, a])
    for idx in range(neg):
        a = _noncentral_quaternion(rng, alg, 5)
        if idx % 2 == 0:
            b = alg.one() + _quaternion(rng, alg, 5).pure_part()  # t(b) = 2, commutators are pure
        else:
            b = a.pure_part() * Fraction(rng.randint(1, 4))
            # the image of x -> ax - xa is orthogonal to the pure part of a
            x = _quaternion(rng, alg, 5)
            ok = ok and polar_form(a * x - x * a, a.pure_part()) == 0
            ok = ok and polar_form(b, a.pure_part()) != 0
        ok = ok and diagonalize_2x2_jordanlike(a, b) is None
    dt = time.perf_counter() - start
    return CriterionResult(
        "commutator-diagonalization", ok, f"{pos} round-trips, {neg} refusals", dt
    )


def criterion_completion(seed: int, quick: bool) -> CriterionResult:
    """The worked 2x2 completion instance plus seeded pairs, all verified."""
    alg = hamilton_algebra()
    rng = random.Random(seed ^ 0xC4)
    count = 20 if quick else 200
    start = time.perf_counter()
    one, i = alg.one(), alg.i()
    cert = completion_2x2(i, -i)
    ok = (
        cert.delta == -one
        and cert.summands[0] == QMatrix([[i, -one], [-one, -i]])
        and cert.summands[1] == QMatrix([[alg.zero(), alg.zero()], [alg.scalar(2), alg.zero()]])
    )
    for _ in range(count):
        a = _quaternion(rng, alg, 5)
        b = _quaternion(rng, alg, 5)
        b = b - alg.scalar(a.w + b.w)
        cert = completion_2x2(a, b)
        ok = ok and cert.target == QMatrix([[a, cert.delta], [one, b]])
        ok = ok and cert.summands[0] + cert.summands[1] == cert.target
        ok = ok and (cert.summands[0] * cert.summands[0]).is_zero()
        ok = ok and (cert.summands[1] * cert.summands[1]).is_zero()
    dt = time.perf_counter() - start
    return CriterionResult(
        "completion-2x2", ok, f"worked instance exact, {count} seeded pairs verified", dt, limit=5.0
    )


def criterion_special_type_non_examples(seed: int, quick: bool) -> CriterionResult:
    """Known negative families: Diag(i,0,..), Diag(i,i,i), nonzero rational scalars."""
    alg = hamilton_algebra()
    i = alg.i()
    start = time.perf_counter()
    ok = True
    for n in range(2, 6):
        m = QMatrix.diagonal([i] + [alg.zero()] * (n - 1))
        d = is_sum_of_two_nilpotents(m)
        ok = ok and not d.answer and reduced_trace(m) == 0
        if n >= 3:
            ok = ok and d.reason == Reason.TYPE_II_SUPERTRACE_NONZERO
    d = is_sum_of_two_nilpotents(QMatrix.diagonal([i, i, i]))
    ok = ok and not d.answer and d.reason == Reason.TYPE_III
    for n in range(1, 6):
        d = is_sum_of_two_nilpotents(QMatrix.scalar(n, 5, alg))
        ok = ok and not d.answer and d.reason == Reason.TYPE_I
    dt = time.perf_counter() - start
    return CriterionResult(
        "special-type-non-examples", ok, "rank-one, 3x3 constant-diagonal and scalar families all refused", dt
    )


def criterion_dimension_three_boundary(seed: int, quick: bool) -> CriterionResult:
    """Constant diagonal Diag(i,..,i): refused at n=3, decomposed at n=4."""
    alg = hamilton_algebra()
    i = alg.i()
    start = time.perf_counter()
    d3 = is_sum_of_two_nilpotents(QMatrix.diagonal([i] * 3))
    ok = not d3.answer and d3.reason == Reason.TYPE_III
    m4 = QMatrix.diagonal([i] * 4)
    d4 = is_sum_of_two_nilpotents(m4)
    ok = ok and d4.answer
    dec = decompose_two_nilpotents(m4)
    ok = ok and verify_decomposition(m4, dec.n1, dec.n2)
    mixed = QMatrix.diagonal([alg.i(), alg.j(), alg.k()])
    dm = is_sum_of_two_nilpotents(mixed)
    ok = ok and not dm.answer and dm.reason == Reason.TYPE_III and dm.type_iii is not None
    cert = dm.type_iii
    ident = QMatrix.identity(3, alg)
    ok = ok and cert.witness.P * cert.witness.Pinv == ident
    ok = ok and conjugate_by(mixed, cert.witness) == QMatrix.diagonal([cert.eigenvalue] * 3)
    ok = ok and are_conjugate(cert.eigenvalue, i)
    dt = time.perf_counter() - start
    return CriterionResult(
        "dimension-three-boundary", ok, "n=3 refused with verified certificate, n=4 decomposed", dt
    )


def criterion_master_round_trip(seed: int, quick: bool) -> CriterionResult:
    """Seeded positive instances per size decide yes and decompose verifiably."""
    alg = hamilton_algebra()
    per_size = 20 if quick else 200
    start = time.perf_counter()
    ok = True
    worst = 0.0
    total = 0
    for n in (2, 3, 4, 5):
        rng = random.Random((seed << 4) ^ n ^ 0xC7)
        for idx in range(per_size):
            if idx % 2 == 0:
                if n == 2:
                    m = two_square_zero_sum(rng, alg, 2, 2)
                else:
                    m = generic_trace_zero_matrix(rng, alg, n, 2)
            else:
                lam = Fraction(rng.randint(-2, 2))
                m = type_ii_matrix(rng, alg, n, 2, lam, alg.scalar(-n * lam))
            t0 = time.perf_counter()
            decision = is_sum_of_two_nilpotents(m)
            ok = ok and decision.answer
            dec = decompose_two_nilpotents(m)
            ok = ok and verify_decomposition(m, dec.n1, dec.n2)
            dt_inst = time.perf_counter() - t0
            worst = max(worst, dt_inst)
            ok = ok and dt_inst < 2.0
            total += 1
    dt = time.perf_counter() - start
    return CriterionResult(
        "master-round-trip",
        ok,
        f"{total} instances across n=2..5, worst instance {worst:.2f}s (< 2s each)",
        dt,
    )


def criterion_supertrace_well_defined(seed: int, quick: bool) -> CriterionResult:
    """Two decompositions lam*I + a = mu*I + b of one 2x2 map share the supertrace."""
    alg = hamilton_algebra()
    rng = random.Random(seed ^ 0xC8)
    count = 10 if quick else 100
    start = time.perf_counter()
    ok = True
    for _ in range(count):
        lam = Fraction(rng.randint(-5, 5))
        mu = lam
        while mu == lam:
            mu = Fraction(rng.randint(-5, 5))
        q_a = alg.scalar(mu - lam)
        col = QVector([alg.one(), _quaternion(rng, alg, 4)])
        tail = _quaternion(rng, alg, 4)
        head = q_a - tail * col[1]
        a = outer(col, QVector([head, tail]))
        b = a + QMatrix.scalar(2, lam - mu, alg)
        m1 = QMatrix.scalar(2, lam, alg) + a
        m2 = QMatrix.scalar(2, mu, alg) + b
        ok = ok and m1 == m2
        fact = rank1_factor(b)
        ok = ok and fact is not None
        col_b, row_b = fact
        q_b = row_b[0] * col_b[0] + row_b[1] * col_b[1]
        str_a = ConjClass.of(alg.scalar(2 * lam) + q_a)
        str_b = ConjClass.of(alg.scalar(2 * mu) + q_b)
        ok = ok and str_a == str_b
    dt = time.perf_counter() - start
    return CriterionResult(
        "supertrace-well-defined", ok, f"{count} double decompositions agree", dt
    )


def criterion_rational_diag_zero(seed: int, quick: bool) -> CriterionResult:
    """Rational nonscalar trace-zero matrices get verified zero-diagonal forms."""
    alg = hamilton_algebra()
    rng = random.Random(seed ^ 0xC9)
    count = 20 if quick else 200
    start = time.perf_counter()
    ok = True
    done = 0
    while done < count:
        n = rng.randint(2, 6)
        entries = [
            [alg.scalar(Fraction(rng.randint(-5, 5))) for _ in range(n)] for _ in range(n)
        ]
        m = QMatrix(entries)
        shift = reduced_trace(m) / 2
        entries[n - 1][n - 1] = entries[n - 1][n - 1] - alg.scalar(shift)
        m = QMatrix(entries)
        if m.rational_scalar_value() is not None:
            continue
        w = field_diag_zero(m)
        out = conjugate_by(m, w)
        ok = ok and out.has_zero_diagonal() and out.is_rational()
        done += 1
    dt = time.perf_counter() - start
    return CriterionResult(
        "rational-diag-zero", ok, f"{count} zero-diagonal similarities verified (n=2..6)", dt
    )


def criterion_brute_force_soundness(seed: int, quick: bool) -> CriterionResult:
    """Refused 2x2 matrices over a finite entry pool admit no square-zero pair.

    One-sided consistency check: the summand search is exhaustive over the
    finite pool only, not over the whole algebra.
    """
    alg = hamilton_algebra()
    one, i, j, k = alg.basis()
    pool = [alg.zero(), one, -one, i, -i, j, -j, k, -k]
    if quick:
        pool = [alg.zero(), one, -one, i, -i]
    start = time.perf_counter()
    matrices = [
        QMatrix([[a, b], [c, d]])
        for a, b, c, d in itertools.product(pool, repeat=4)
    ]
    square_zero = [m for m in matrices if (m * m).is_zero()]
    zero_set = set(square_zero)
    rejected = 0
    searched = 0
    counterexamples = 0
    for m in matrices:
        if is_sum_of_two_nilpotents(m).answer:
            continue
        rejected += 1
        if reduced_trace(m) != 0:
            continue  # any square-zero pair sums to reduced trace zero
        searched += 1
        for n1 in square_zero:
            if (m - n1) in zero_set:
                counterexamples += 1
                break
    ok = counterexamples == 0
    dt = time.perf_counter() - start
    return CriterionResult(
        "brute-force-no-soundness",
        ok,
        f"{len(matrices)} matrices, {rejected} refused, {searched} trace-zero refusals exhaustively searched",
        dt,
        limit=60.0,
    )


def criterion_triangular_eigenvalues(seed: int, quick: bool) -> CriterionResult:
    """Every diagonal entry of a seeded upper-triangular matrix admits an eigenvector."""
    alg = hamilton_algebra()
    rng = random.Random(seed ^ 0xCB)
    count = 10 if quick else 100
    start = time.perf_counter()
    ok = True
    for _ in range(count):
        n = rng.randint(1, 4)
        rows = []
        for r in range(n):
            rows.append(
                [alg.zero()] * r + [_quaternion(rng, alg, 3) for _ in range(n - r)]
            )
        t_mat = QMatrix(rows)
        for s in range(n):
            lead = t_mat.submatrix(range(s), range(s)) if s else None
            x0 = QVector([t_mat[r, s] for r in range(s)]) if s else None
            y = triangular_eigenvector(lead, x0, t_mat[s, s])
            padded = QVector(list(y.entries) + [alg.zero()] * (n - s - 1))
            ok = ok and not padded.is_zero()
            ok = ok and t_mat.apply(padded) == padded.scale_right(t_mat[s, s])
    dt = time.perf_counter() - start
    return CriterionResult(
        "triangular-eigenvalues", ok, f"{count} triangular matrices, all diagonal entries realized", dt
    )


ACCEPTANCE_CRITERIA: list[tuple[str, Callable[[int, bool], CriterionResult]]] = [
    ("quadratic-identity", criterion_quadratic_identity),
    ("conjugacy-witnesses", criterion_conjugacy_witnesses),
    ("commutator-diagonalization", criterion_commutator_diagonalization),
    ("completion-2x2", criterion_completion),
    ("special-type-non-examples", criterion_special_type_non_examples),
    ("dimension-three-boundary", criterion_dimension_three_boundary),
    ("master-round-trip", criterion_master_round_trip),
    ("supertrace-well-defined", criterion_supertrace_well_defined),
    ("rational-diag-zero", criterion_rational_diag_zero),
    ("brute-force-no-soundness", criterion_brute_force_soundness),
    ("triangular-eigenvalues", criterion_triangular_eigenvalues),
]


def run_selftest(quick: bool = False, seed: int = 0, emit=print) -> int:
    """Run every criterion, print one line each; return the number of failures."""
    failures = 0
    for name, func in ACCEPTANCE_CRITERIA:
        result = func(seed, quick)
        emit(result.line())
        if not (result.passed and result.within_limit):
            failures += 1
    return failures
