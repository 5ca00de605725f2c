import random
from fractions import Fraction

import pytest

from quatnil import ratlin
from quatnil.errors import CertificateError
from quatnil.qcore import are_conjugate
from quatnil.qlinalg import (
    QMatrix,
    QVector,
    SimilarityWitness,
    conjugate_by,
    invert,
)
from quatnil.spectral import (
    QuadraticRelation,
    diagonalize_2x2_jordanlike,
    eigenvectors_for,
    quadratic_relation,
    triangular_eigenvector,
    unispectral_diagonalizable,
)

from conftest import random_quaternion


def upper_triangular(rng, algebra, n, h=3):
    rows = []
    for r in range(n):
        rows.append(
            [algebra.zero()] * r
            + [random_quaternion(rng, algebra, h) for _ in range(n - r)]
        )
    return QMatrix(rows)


class TestEigenvectorsFor:
    def test_companion_rotation(self, H):
        m = QMatrix([[H.zero(), -H.one()], [H.one(), H.zero()]])
        sol = eigenvectors_for(m, H.i())
        x = QVector([H.one(), -H.i()])
        assert m.apply(x) == x.scale_right(H.i())
        assert len(sol.basis) == 4
        for v in sol.basis:
            assert m.apply(v) == v.scale_right(H.i())

    def test_diag_i_j(self, H):
        m = QMatrix.diagonal([H.i(), H.j()])
        sol = eigenvectors_for(m, H.i())
        assert len(sol.basis) == 4
        e1 = QVector([H.one(), H.zero()])
        assert m.apply(e1) == e1.scale_right(H.i())

    def test_identity_full_space(self, H):
        sol = eigenvectors_for(QMatrix.identity(2, H), H.one())
        assert len(sol.basis) == 8

    def test_solution_set_is_rational_subspace(self, H):
        rng = random.Random(3)
        m = upper_triangular(rng, H, 2)
        sol = eigenvectors_for(m, m[0, 0])
        for v in sol.basis:
            for w in sol.basis:
                combo = v + w.scale_right(Fraction(3, 2))
                assert m.apply(combo) == combo.scale_right(sol.eigenvalue)

    def test_scaling_moves_eigenvalue_through_class(self, H):
        rng = random.Random(5)
        for _ in range(10):
            m = upper_triangular(rng, H, 3)
            q = m[2, 2]
            sol = eigenvectors_for(m, q)
            g = random_quaternion(rng, H, 4)
            if g.is_zero():
                continue
            for v in sol.basis[:2]:
                scaled = v.scale_right(g)
                moved = g.inverse() * q * g
                assert m.apply(scaled) == scaled.scale_right(moved)


class TestTriangularEigenvector:
    def test_case_two_solves_shift(self, H):
        y = triangular_eigenvector(QMatrix([[H.i()]]), QVector([H.one()]), H.quat(0, 2))
        assert y == QVector([-H.i(), H.one()])

    def test_case_one_existing_eigenvector(self, H):
        y = triangular_eigenvector(QMatrix([[H.i()]]), QVector([H.one()]), H.j())
        assert y == QVector([H.i() + H.j(), H.zero()])
        assert H.i() * (H.i() + H.j()) == (H.i() + H.j()) * H.j()

    def test_degenerate_base(self, H):
        y = triangular_eigenvector(QMatrix([[H.zero()]]), QVector([H.zero()]), H.zero())
        assert y == QVector([H.one(), H.zero()])
        assert triangular_eigenvector(None, None, H.i()) == QVector([H.one()])

    def test_case_two_rejects_a_wrong_solution(self, H, monkeypatch):
        s, x0, t = QMatrix([[H.i()]]), QVector([H.one()]), H.quat(0, 2)
        for wrong in ([Fraction(0)] * 4, None):
            monkeypatch.setattr(ratlin, "solve", lambda rows, rhs: wrong)
            with pytest.raises(CertificateError):
                triangular_eigenvector(s, x0, t)

    def test_every_diagonal_entry_is_eigenvalue(self, H):
        # Corollary-style property on random upper triangular matrices.
        rng = random.Random(7)
        for _ in range(10):
            n = rng.randint(1, 4)
            t = upper_triangular(rng, H, n)
            for s in range(n):
                lead = t.submatrix(range(s), range(s)) if s else None
                x0 = QVector([t[r, s] for r in range(s)]) if s else None
                y = triangular_eigenvector(lead, x0, t[s, s])
                padded = QVector(list(y.entries) + [H.zero()] * (n - s - 1))
                assert t.apply(padded) == padded.scale_right(t[s, s])
                assert not padded.is_zero()


class TestQuadraticRelation:
    def test_diag_ii(self, H):
        assert quadratic_relation(QMatrix.diagonal([H.i(), H.i()])) == QuadraticRelation(
            Fraction(0), Fraction(1)
        )

    def test_rotation(self, H):
        m = QMatrix([[H.zero(), -H.one()], [H.one(), H.zero()]])
        assert quadratic_relation(m) == QuadraticRelation(Fraction(0), Fraction(1))

    def test_nilpotent_jordan_cell(self, H):
        m = QMatrix([[H.zero(), H.one()], [H.zero(), H.zero()]])
        assert quadratic_relation(m) == QuadraticRelation(Fraction(0), Fraction(0))

    def test_no_relation(self, H):
        assert quadratic_relation(QMatrix.diagonal([H.i(), H.one()])) is None

    def test_relation_holds_when_found(self, H):
        rng = random.Random(11)
        for _ in range(10):
            q = random_quaternion(rng, H, 4)
            m = QMatrix.diagonal([q, q, q])
            rel = quadratic_relation(m)
            assert rel is not None
            assert rel.trace == q.reduced_trace() or m.rational_scalar_value() is not None


class TestDiagonalize2x2:
    def test_commutator_case(self, H):
        w = diagonalize_2x2_jordanlike(H.i(), H.j())
        assert w is not None
        half_k = H.quat(0, 0, 0, Fraction(-1, 2))
        assert w.P == QMatrix([[H.one(), half_k], [H.zero(), H.one()]])

    def test_noncommutator_case(self, H):
        assert diagonalize_2x2_jordanlike(H.i(), H.one()) is None

    def test_zero_b(self, H):
        rng = random.Random(13)
        a = random_quaternion(rng, H)
        w = diagonalize_2x2_jordanlike(a, H.zero())
        assert w is not None and w.P == QMatrix.identity(2, H)

    def test_randomized_roundtrip(self, H):
        rng = random.Random(17)
        for _ in range(20):
            a = random_quaternion(rng, H, 5)
            c = random_quaternion(rng, H, 5)
            b = a * c - c * a
            w = diagonalize_2x2_jordanlike(a, b)
            assert w is not None
            m = QMatrix([[a, b], [H.zero(), a]])
            assert conjugate_by(m, w) == QMatrix.diagonal([a, a])


class TestUnispectralDiagonalizable:
    def _assert_valid(self, m, cert):
        n = m.rows
        assert conjugate_by(m, cert.witness) == QMatrix.diagonal([cert.eigenvalue] * n)

    def test_diag_i_j_k(self, H):
        m = QMatrix.diagonal([H.i(), H.j(), H.k()])
        cert = unispectral_diagonalizable(m)
        assert cert is not None
        self._assert_valid(m, cert)
        assert are_conjugate(cert.eigenvalue, H.i())

    def test_jordan_like_diagonalizable(self, H):
        m = QMatrix([[H.i(), H.j()], [H.zero(), H.i()]])
        cert = unispectral_diagonalizable(m)
        assert cert is not None
        self._assert_valid(m, cert)
        assert are_conjugate(cert.eigenvalue, H.i())

    def test_jordan_cell_not_diagonalizable(self, H):
        assert unispectral_diagonalizable(QMatrix([[H.i(), H.one()], [H.zero(), H.i()]])) is None

    def test_rational_scalar(self, H):
        m = QMatrix.scalar(3, Fraction(-5, 2), H)
        cert = unispectral_diagonalizable(m)
        assert cert is not None and cert.eigenvalue == H.scalar(Fraction(-5, 2))
        self._assert_valid(m, cert)

    def test_two_classes_fail(self, H):
        assert unispectral_diagonalizable(QMatrix.diagonal([H.i(), H.one()])) is None

    def test_rational_square_disc_fails(self, H):
        assert unispectral_diagonalizable(QMatrix.diagonal([H.i(), H.zero()])) is None

    def test_one_by_one(self, H):
        m = QMatrix([[H.quat(1, 2, 0, 1)]])
        cert = unispectral_diagonalizable(m)
        assert cert is not None
        self._assert_valid(m, cert)

    def test_conjugated_constant_diagonal(self, H):
        rng = random.Random(19)
        for _ in range(5):
            q = random_quaternion(rng, H, 3)
            if q.is_central():
                continue
            d = QMatrix.diagonal([q, q])
            while True:
                p = QMatrix(
                    [[random_quaternion(rng, H, 2) for _ in range(2)] for _ in range(2)]
                )
                if invert(p) is not None:
                    break
            m = conjugate_by(d, SimilarityWitness(p, invert(p)))
            cert = unispectral_diagonalizable(m)
            assert cert is not None
            self._assert_valid(m, cert)
            assert are_conjugate(cert.eigenvalue, q)

    def test_induced_blocks_still_diagonalizable(self, H):
        # Invariant leading spans of the eigenbasis induce diagonalizable blocks.
        m = QMatrix.diagonal([H.i(), H.j(), H.k()])
        cert = unispectral_diagonalizable(m)
        d = conjugate_by(m, cert.witness)
        for k in (1, 2, 3):
            block = d.submatrix(range(k), range(k))
            sub = unispectral_diagonalizable(block)
            assert sub is not None
            assert are_conjugate(sub.eigenvalue, cert.eigenvalue)
