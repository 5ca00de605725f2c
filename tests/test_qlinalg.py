import random

import pytest

from quatnil import qlinalg, ratlin
from quatnil.errors import CertificateError, DimensionMismatchError, PreconditionError
from quatnil.qlinalg import (
    QMatrix,
    QVector,
    SimilarityWitness,
    conjugate_by,
    independent_subfamily,
    invert,
    is_nilpotent,
    kernel_basis,
    outer,
    rank,
    rank1_factor,
    reduced_trace,
    row_reduce,
    strict_split,
)

from conftest import random_quaternion


def random_matrix(rng, algebra, n, h=4):
    return QMatrix([[random_quaternion(rng, algebra, h) for _ in range(n)] for _ in range(n)])


def random_invertible(rng, algebra, n, h=3):
    while True:
        p = random_matrix(rng, algebra, n, h)
        if invert(p) is not None:
            return p


class TestArithmetic:
    def test_basic_product(self, H):
        z, i, one = H.zero(), H.i(), H.one()
        a = QMatrix([[z, i], [z, z]])
        b = QMatrix([[z, z], [one, z]])
        assert a * b == QMatrix([[i, z], [z, z]])

    def test_identity_neutral(self, H):
        rng = random.Random(3)
        m = random_matrix(rng, H, 3)
        assert m * QMatrix.identity(3, H) == m
        assert QMatrix.identity(3, H) * m == m

    def test_apply_diagonal(self, H):
        m = QMatrix.diagonal([H.i(), H.j()])
        x = QVector([H.one(), H.one()])
        assert m.apply(x) == QVector([H.i(), H.j()])

    def test_right_scalar_equivariance(self, H):
        rng = random.Random(5)
        for _ in range(20):
            m = random_matrix(rng, H, 3)
            x = QVector([random_quaternion(rng, H) for _ in range(3)])
            q = random_quaternion(rng, H)
            assert m.apply(x.scale_right(q)) == m.apply(x).scale_right(q)

    def test_associativity_of_product(self, H):
        rng = random.Random(7)
        a, b, c = (random_matrix(rng, H, 3, 3) for _ in range(3))
        assert (a * b) * c == a * (b * c)

    def test_shape_errors(self, H):
        with pytest.raises(DimensionMismatchError):
            QMatrix.identity(2, H) * QMatrix.identity(3, H)
        with pytest.raises(DimensionMismatchError):
            QMatrix.identity(2, H) + QMatrix.identity(3, H)


class TestRowReduce:
    def test_diag_rank(self, H):
        m = QMatrix.diagonal([H.i(), H.zero()])
        assert rank(m) == 1

    def test_dependent_rows(self, H):
        row = [H.i(), H.j()]
        factor = H.quat(1, 0, 0, -1)  # 1 - k
        m = QMatrix([row, [factor * e for e in row]])
        assert rank(m) == 1

    def test_zero_rank(self, H):
        assert rank(QMatrix.zeros(3, 3, H)) == 0

    def test_transform_identity(self, H):
        rng = random.Random(11)
        for n in (2, 3, 4):
            m = random_matrix(rng, H, n)
            echelon, transform, rk = row_reduce(m)
            assert transform * m == echelon
            assert 0 <= rk <= n

    def test_rank_left_invariant(self, H):
        rng = random.Random(13)
        for _ in range(10):
            m = random_matrix(rng, H, 3)
            p = random_invertible(rng, H, 3)
            assert rank(p * m) == rank(m)

    def test_rank_subadditive(self, H):
        rng = random.Random(17)
        for _ in range(10):
            a = random_matrix(rng, H, 3)
            b = random_matrix(rng, H, 3)
            assert rank(a + b) <= rank(a) + rank(b)


class TestKernelAndSolve:
    def test_kernel_of_diag(self, H):
        m = QMatrix.diagonal([H.i(), H.zero()])
        basis = kernel_basis(m)
        assert basis == [QVector([H.zero(), H.one()])]

    def test_kernel_of_identity(self, H):
        assert kernel_basis(QMatrix.identity(3, H)) == []

    def test_kernel_vectors_annihilate(self, H):
        rng = random.Random(19)
        for _ in range(10):
            m = random_matrix(rng, H, 3)
            low = QMatrix([[H.zero()] * 3, *m.entries[:2]])  # force nontrivial kernel
            basis = kernel_basis(low * m)
            assert len(basis) == 3 - rank(low * m)
            for v in basis:
                assert (low * m).apply(v).is_zero()
            assert independent_subfamily(basis) == basis

    def test_solve_single(self, H):
        m = QMatrix([[H.i()]])
        x = ratlin.solve(m.entries, [H.j()])
        assert x == [-H.k()]
        assert m.apply(QVector(x)) == QVector([H.j()])

    def test_solve_inconsistent(self, H):
        m = QMatrix([[H.one(), H.zero()], [H.one(), H.zero()]])
        b = QVector([H.zero(), H.one()])
        assert ratlin.solve(m.entries, b.entries) is None

    def test_solve_randomized(self, H):
        rng = random.Random(23)
        for _ in range(15):
            m = random_matrix(rng, H, 3)
            x0 = QVector([random_quaternion(rng, H) for _ in range(3)])
            b = m.apply(x0)
            x = ratlin.solve(m.entries, b.entries)
            assert x is not None and m.apply(QVector(x)) == b


class TestInvert:
    def test_identity(self, H):
        ident = QMatrix.identity(3, H)
        assert invert(ident) == ident

    def test_diagonal(self, H):
        m = QMatrix.diagonal([H.i(), H.j()])
        assert invert(m) == QMatrix.diagonal([-H.i(), -H.j()])

    def test_singular(self, H):
        m = QMatrix([[H.zero(), H.one()], [H.zero(), H.zero()]])
        assert invert(m) is None

    def test_randomized_roundtrip(self, H):
        rng = random.Random(29)
        for n in (2, 3):
            m = random_invertible(rng, H, n)
            minv = invert(m)
            assert m * minv == QMatrix.identity(n, H)


class TestConjugateBy:
    def test_identity_witness(self, H):
        rng = random.Random(31)
        m = random_matrix(rng, H, 3)
        w = SimilarityWitness.identity(3, H)
        assert conjugate_by(m, w) == m

    def test_commutator_diagonalization(self, H):
        # For T = [[1,c],[0,1]] and M = [[a,[a,c]],[0,a]]: T M T^-1 = Diag(a,a).
        rng = random.Random(37)
        for _ in range(10):
            a = random_quaternion(rng, H)
            c = random_quaternion(rng, H)
            comm = a * c - c * a
            m = QMatrix([[a, comm], [H.zero(), a]])
            t = QMatrix([[H.one(), c], [H.zero(), H.one()]])
            w = SimilarityWitness(t, invert(t))
            assert conjugate_by(m, w) == QMatrix.diagonal([a, a])

    def test_roundtrip(self, H):
        rng = random.Random(41)
        m = random_matrix(rng, H, 3)
        p = random_invertible(rng, H, 3)
        w = SimilarityWitness(p, invert(p))
        assert conjugate_by(conjugate_by(m, w), w.inverse()) == m

    def test_witness_validation(self, H):
        with pytest.raises(PreconditionError):
            SimilarityWitness(QMatrix.identity(2, H), QMatrix.diagonal([H.i(), H.one()]))

    def test_witness_must_be_square(self, H):
        # P*Pinv = I_1 while Pinv*P is not I_2: only the squareness test rejects this
        one, zero = H.one(), H.zero()
        p, pinv = QMatrix([[one, zero]]), QMatrix([[one], [zero]])
        assert p * pinv == QMatrix.identity(1, H)
        with pytest.raises(PreconditionError):
            SimilarityWitness(p, pinv)
        with pytest.raises(PreconditionError):
            SimilarityWitness(QMatrix.identity(2, H), QMatrix.identity(3, H))


class TestNilpotency:
    def test_strict_upper(self, H):
        m = QMatrix([[H.zero(), H.i()], [H.zero(), H.zero()]])
        assert is_nilpotent(m)

    def test_diagonal_not(self, H):
        assert not is_nilpotent(QMatrix.diagonal([H.i(), H.zero()]))

    def test_square_zero_block(self, H):
        one = H.one()
        m = QMatrix([[H.i(), -one], [-one, -H.i()]])
        assert (m * m).is_zero()
        assert is_nilpotent(m)
        # flipping the lower-left sign gives a non-nilpotent matrix
        m2 = QMatrix([[H.i(), -one], [one, -H.i()]])
        assert m2 * m2 == QMatrix.scalar(2, -2, H)
        assert not is_nilpotent(m2)

    def test_nilpotent_trace_zero(self, H):
        rng = random.Random(43)
        for _ in range(10):
            u = QMatrix(
                [
                    [H.zero(), random_quaternion(rng, H), random_quaternion(rng, H)],
                    [H.zero(), H.zero(), random_quaternion(rng, H)],
                    [H.zero()] * 3,
                ]
            )
            p = random_invertible(rng, H, 3)
            w = SimilarityWitness(p, invert(p))
            m = conjugate_by(u, w)
            assert is_nilpotent(m)
            assert reduced_trace(m) == 0


class TestReducedTrace:
    def test_examples(self, H):
        assert reduced_trace(QMatrix.diagonal([H.i(), H.zero()])) == 0
        assert reduced_trace(QMatrix.identity(2, H)) == 4
        assert reduced_trace(QMatrix.diagonal([H.quat(1, 1), H.scalar(-1)])) == 0

    def test_trace_of_products_commute(self, H):
        rng = random.Random(47)
        for _ in range(10):
            a = random_matrix(rng, H, 3)
            b = random_matrix(rng, H, 3)
            assert reduced_trace(a * b) == reduced_trace(b * a)

    def test_similarity_invariant(self, H):
        rng = random.Random(53)
        for _ in range(10):
            m = random_matrix(rng, H, 3)
            p = random_invertible(rng, H, 3)
            w = SimilarityWitness(p, invert(p))
            assert reduced_trace(conjugate_by(m, w)) == reduced_trace(m)


class TestStrictSplit:
    def test_two_by_two(self, H):
        q = H.quat(1, 2, 3, 4)
        m = QMatrix([[H.zero(), q], [H.one(), H.zero()]])
        upper, lower = strict_split(m)
        assert upper == QMatrix([[H.zero(), q], [H.zero(), H.zero()]])
        assert lower == QMatrix([[H.zero(), H.zero()], [H.one(), H.zero()]])

    def test_zero(self, H):
        upper, lower = strict_split(QMatrix.zeros(3, 3, H))
        assert upper.is_zero() and lower.is_zero()

    def test_three_by_three_and_properties(self, H):
        rng = random.Random(59)
        for _ in range(10):
            m = random_matrix(rng, H, 3)
            m = QMatrix(
                [
                    [H.zero() if r == c else m[r, c] for c in range(3)]
                    for r in range(3)
                ]
            )
            upper, lower = strict_split(m)
            assert upper + lower == m
            assert is_nilpotent(upper) and is_nilpotent(lower)

    def test_nonzero_diagonal_rejected(self, H):
        with pytest.raises(PreconditionError):
            strict_split(QMatrix.identity(2, H))

    def test_strictly_triangular(self, H):
        upper = QMatrix([[H.zero(), H.i()], [H.zero(), H.zero()]])
        assert upper.is_strictly_upper() and not upper.is_strictly_lower()
        assert QMatrix.zeros(2, 2, H).is_strictly_upper()
        assert not QMatrix.diagonal([H.zero(), H.j()]).is_strictly_upper()
        assert not QMatrix.diagonal([H.zero(), H.j()]).is_strictly_lower()


class TestRank1Factor:
    def test_diag_example(self, H):
        m = QMatrix.diagonal([H.i(), H.zero()])
        got = rank1_factor(m)
        assert got is not None
        c, r = got
        assert c == QVector([H.one(), H.zero()])
        assert r == QVector([H.i(), H.zero()])

    def test_zero_and_identity(self, H):
        assert rank1_factor(QMatrix.zeros(2, 2, H)) is None
        assert rank1_factor(QMatrix.identity(2, H)) is None

    def test_rejects_a_wrong_factorization(self, H, monkeypatch):
        # a rank-two matrix that a wrong rank lets through has no outer-product form
        monkeypatch.setattr(qlinalg, "rank", lambda m: 1)
        with pytest.raises(CertificateError):
            rank1_factor(QMatrix.identity(2, H))

    def test_randomized_roundtrip(self, H):
        rng = random.Random(61)
        for _ in range(15):
            c = QVector([random_quaternion(rng, H) for _ in range(3)])
            r = QVector([random_quaternion(rng, H) for _ in range(3)])
            if c.is_zero() or r.is_zero():
                continue
            m = outer(c, r)
            got = rank1_factor(m)
            assert got is not None
            assert outer(*got) == m

    def test_rank1_sum_lemma(self, H):
        # Rank-1 maps with distinct images and distinct kernels sum to rank > 1.
        rng = random.Random(67)
        checked = 0
        while checked < 10:
            c1 = QVector([random_quaternion(rng, H, 3) for _ in range(3)])
            c2 = QVector([random_quaternion(rng, H, 3) for _ in range(3)])
            r1 = QVector([random_quaternion(rng, H, 3) for _ in range(3)])
            r2 = QVector([random_quaternion(rng, H, 3) for _ in range(3)])
            if independent_subfamily([c1, c2]) != [c1, c2]:
                continue
            a, b = outer(c1, r1), outer(c2, r2)
            if rank(a) != 1 or rank(b) != 1:
                continue
            if kernel_basis(a) == kernel_basis(b):
                continue
            assert rank(a + b) > 1
            checked += 1
