"""Differential tests of the one Gauss–Jordan routine, over several algebras.

`ratlin.rref` serves both rational and quaternion systems; these tests check
its quaternion wrappers against their defining identities, its rational
results against the same matrices lifted to central quaternions, and the
pivot-based column selection against the greedy definition with one rank
test per candidate.
"""

import random
from fractions import Fraction

import pytest

from quatnil import ratlin
from quatnil.qcore import AlgebraParams
from quatnil.qlinalg import (
    QMatrix,
    QVector,
    independent_subfamily,
    invert,
    kernel_basis,
    rank,
    row_reduce,
)

from conftest import random_quaternion, random_rational

ALGEBRAS = [(-1, -1), (-1, -7), (2, -5)]


def _algebra(ab):
    return AlgebraParams(Fraction(ab[0]), Fraction(ab[1]))


def _low_rank(rng, rows, cols, k, entry):
    """rows x cols product of a rows x k and a k x cols factor, so rank <= k."""
    left = [[entry() for _ in range(k)] for _ in range(rows)]
    right = [[entry() for _ in range(cols)] for _ in range(k)]
    out = []
    for r in range(rows):
        row = []
        for c in range(cols):
            acc = 0 * left[r][0]
            for s in range(k):
                acc = acc + left[r][s] * right[s][c]
            row.append(acc)
        out.append(row)
    return out


def _quaternion_matrices(ab, seed, count=12):
    alg = _algebra(ab)
    rng = random.Random(seed)
    for _ in range(count):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        k = rng.randint(1, min(rows, cols))
        yield QMatrix(_low_rank(rng, rows, cols, k, lambda: random_quaternion(rng, alg, 3)))


def _is_reduced(e: QMatrix, rk: int) -> bool:
    """Reduced row echelon form with `rk` nonzero rows on top."""
    pivots = []
    for r in range(e.rows):
        lead = next((c for c in range(e.cols) if not e[r, c].is_zero()), None)
        if r >= rk:
            if lead is not None:
                return False
            continue
        if lead is None or e[r, lead] != e.algebra.one() or (pivots and lead <= pivots[-1]):
            return False
        pivots.append(lead)
    return all(e[s, p].is_zero() for r, p in enumerate(pivots) for s in range(e.rows) if s != r)


def _greedy_reference(vectors):
    """The greedy definition: keep a vector when it raises the rank of those kept."""
    picked = []
    for v in vectors:
        if rank(QMatrix.from_columns(picked + [v])) == len(picked) + 1:
            picked.append(v)
    return picked


@pytest.mark.parametrize("ab", ALGEBRAS)
def test_row_reduce_transform_and_echelon(ab):
    for m in _quaternion_matrices(ab, seed=101):
        echelon, transform, rk = row_reduce(m)
        assert transform * m == echelon
        assert _is_reduced(echelon, rk)
        assert invert(transform) is not None


@pytest.mark.parametrize("ab", ALGEBRAS)
def test_kernel_dimension_and_annihilation(ab):
    for m in _quaternion_matrices(ab, seed=202):
        basis = kernel_basis(m)
        assert len(basis) == m.cols - rank(m)
        assert all(m.apply(v).is_zero() for v in basis)


@pytest.mark.parametrize("ab", ALGEBRAS)
def test_solve_right_consistent_and_inconsistent(ab):
    alg = _algebra(ab)
    rng = random.Random(303)
    for m in _quaternion_matrices(ab, seed=303):
        x0 = QVector([random_quaternion(rng, alg, 3) for _ in range(m.cols)])
        b = m.apply(x0)
        x = ratlin.solve(m.entries, b.entries)
        assert x is not None and m.apply(QVector(x)) == b
        _, transform, rk = row_reduce(m)
        if rk < m.rows:
            # T b = e_last has a nonzero entry below the rank: no solution
            off = invert(transform).apply(QVector.unit(m.rows, m.rows - 1, alg))
            assert ratlin.solve(m.entries, off.entries) is None


@pytest.mark.parametrize("ab", ALGEBRAS)
def test_rational_results_agree_with_central_lift(ab):
    alg = _algebra(ab)
    rng = random.Random(404)
    for _ in range(12):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        k = rng.randint(1, min(rows, cols))
        a = _low_rank(rng, rows, cols, k, lambda: random_rational(rng, 4))
        rhs = [random_rational(rng, 4) for _ in range(rows)]

        def lift(vec):
            return [alg.scalar(x) for x in vec]

        red, pivots = ratlin.rref(a)
        red_q, pivots_q = ratlin.rref([lift(row) for row in a])
        assert pivots_q == pivots and red_q == [lift(row) for row in red]
        assert ratlin.kernel([lift(row) for row in a]) == [lift(v) for v in ratlin.kernel(a)]
        sol = ratlin.solve(a, rhs)
        sol_q = ratlin.solve([lift(row) for row in a], lift(rhs))
        assert (sol_q is None) == (sol is None)
        if sol is not None:
            assert sol_q == lift(sol)


@pytest.mark.parametrize("ab", ALGEBRAS)
def test_independent_subfamily_is_the_greedy_choice(ab):
    alg = _algebra(ab)
    rng = random.Random(505)
    for m in _quaternion_matrices(ab, seed=505):
        vectors = m.columns()
        # repeats, zero vectors and right multiples are never picked again
        vectors.insert(rng.randrange(len(vectors) + 1), QVector.zero(m.rows, alg))
        vectors.append(vectors[0].scale_right(random_quaternion(rng, alg, 3)))
        picked = independent_subfamily(vectors)
        assert picked == _greedy_reference(vectors)
        assert len(picked) == rank(m)
    assert independent_subfamily([]) == []
