import random
from fractions import Fraction

from quatnil.qcore import AlgebraParams, ConjClass, are_conjugate
from quatnil.qlinalg import QMatrix, QVector, conjugate_by, outer, rank, reduced_trace
from quatnil.classify import (
    Decision,
    Reason,
    Verdict,
    classify,
    detect_type_I,
    detect_type_II,
    detect_type_III,
    is_sum_of_two_nilpotents,
)

from conftest import random_quaternion


def diag(H, *qs):
    return QMatrix.diagonal(list(qs))


class TestDetectTypeI:
    def test_scalar(self, H):
        assert detect_type_I(QMatrix.scalar(3, 3, H)) == 3

    def test_noncentral_diagonal(self, H):
        assert detect_type_I(QMatrix.diagonal([H.i()] * 3)) is None

    def test_zero(self, H):
        assert detect_type_I(QMatrix.zeros(3, 3, H)) is None


class TestDetectTypeII:
    def test_diag_i_zero_zero(self, H):
        data = detect_type_II(diag(H, H.i(), H.zero(), H.zero()))
        assert data is not None
        assert data.lam == 0
        assert data.rank_one == diag(H, H.i(), H.zero(), H.zero())
        assert data.supertrace == ConjClass.of(H.i())
        assert not data.supertrace.is_zero()

    def test_jordan_shift(self, H):
        m = QMatrix(
            [[H.scalar(2), H.one()], [H.zero(), H.scalar(2)]]
        )
        data = detect_type_II(m)
        assert data is not None
        assert data.lam == 2
        assert data.image_eigenvalue == H.zero()
        assert data.supertrace == ConjClass.of(H.scalar(4))

    def test_identity_is_not_type_ii(self, H):
        assert detect_type_II(QMatrix.identity(3, H)) is None

    def test_reconstruction_randomized(self, H):
        rng = random.Random(3)
        hits = 0
        while hits < 25:
            n = rng.randint(2, 4)
            lam = Fraction(rng.randint(-4, 4))
            c = QVector([random_quaternion(rng, H, 3) for _ in range(n)])
            r = QVector([random_quaternion(rng, H, 3) for _ in range(n)])
            a = outer(c, r)
            if a.is_zero():
                continue
            m = QMatrix.scalar(n, lam, H) + a
            data = detect_type_II(m)
            assert data is not None
            assert QMatrix.scalar(n, data.lam, H) + data.rank_one == m
            assert rank(data.rank_one) == 1
            # supertrace well-definedness: computed class matches the built one
            q_a = H.zero()
            for rt, ct in zip(r, c):
                q_a = q_a + rt * ct
            assert data.supertrace == ConjClass.of(H.scalar(n * lam) + q_a)
            hits += 1

    def test_generic_rejected(self, H):
        rng = random.Random(5)
        rejected = 0
        while rejected < 10:
            n = rng.randint(2, 4)
            m = QMatrix([[random_quaternion(rng, H, 3) for _ in range(n)] for _ in range(n)])
            data = detect_type_II(m)
            if data is None:
                rejected += 1
            else:
                assert QMatrix.scalar(n, data.lam, H) + data.rank_one == m

    def test_diagonal_two_by_two(self, H):
        data = detect_type_II(diag(H, H.scalar(2), H.i()))
        assert data is not None and data.lam == 2
        assert detect_type_II(diag(H, H.i(), H.j())) is None
        assert detect_type_II(diag(H, H.i(), H.i())) is None


class TestDetectTypeIII:
    def test_constant_diagonal(self, H):
        cert = detect_type_III(diag(H, H.i(), H.i(), H.i()))
        assert cert is not None
        m = diag(H, H.i(), H.i(), H.i())
        assert conjugate_by(m, cert.witness) == QMatrix.diagonal([cert.eigenvalue] * 3)

    def test_conjugate_entries(self, H):
        cert = detect_type_III(diag(H, H.i(), H.j(), H.k()))
        assert cert is not None

    def test_two_classes(self, H):
        assert detect_type_III(diag(H, H.i(), H.i(), H.one())) is None

    def test_zero_and_wrong_size(self, H):
        assert detect_type_III(QMatrix.zeros(3, 3, H)) is None
        assert detect_type_III(QMatrix.diagonal([H.i()] * 4)) is None


class TestClassify:
    def test_priority_examples(self, H):
        assert classify(diag(H, H.i(), H.zero(), H.zero())).verdict == Verdict.TYPE_II
        assert classify(QMatrix.scalar(4, 5, H)).verdict == Verdict.TYPE_I
        assert classify(QMatrix.zeros(2, 2, H)).verdict == Verdict.ZERO
        m = QMatrix(
            [
                [H.zero(), H.i(), H.zero()],
                [H.zero(), H.zero(), H.j()],
                [H.one(), H.zero(), H.zero()],
            ]
        )
        assert classify(m).verdict == Verdict.GENERIC

    def test_type_iii_priority(self, H):
        assert classify(diag(H, H.i(), H.i(), H.i())).verdict == Verdict.TYPE_III


class TestDecision:
    def test_one_by_one(self, H):
        assert is_sum_of_two_nilpotents(QMatrix([[H.zero()]])).answer
        d = is_sum_of_two_nilpotents(QMatrix([[H.i()]]))
        assert not d.answer and d.reason == Reason.N1_NONZERO
        d = is_sum_of_two_nilpotents(QMatrix([[H.quat(1, 1)]]))
        assert not d.answer and d.reason == Reason.TRACE_NONZERO
        d = is_sum_of_two_nilpotents(QMatrix([[H.scalar(5)]]))
        assert not d.answer and d.reason == Reason.TYPE_I

    def test_diag_i_zero(self, H):
        d = is_sum_of_two_nilpotents(diag(H, H.i(), H.zero()))
        assert not d.answer and d.reason == Reason.N2_SPECTRAL_OBSTRUCTION

    def test_diag_i_zero_zero(self, H):
        m = diag(H, H.i(), H.zero(), H.zero())
        d = is_sum_of_two_nilpotents(m)
        assert not d.answer and d.reason == Reason.TYPE_II_SUPERTRACE_NONZERO
        # the embedded obstruction reconstructs the matrix independently
        assert d.type_ii is not None
        assert QMatrix.scalar(3, d.type_ii.lam, H) + d.type_ii.rank_one == m
        assert rank(d.type_ii.rank_one) == 1
        assert not d.type_ii.supertrace.is_zero()

    def test_type_iii_blocks(self, H):
        d = is_sum_of_two_nilpotents(diag(H, H.i(), H.i(), H.i()))
        assert not d.answer and d.reason == Reason.TYPE_III

    def test_type_iii_root_of_large_height(self):
        # the eigenvalue class of q = 1001i + 997k over (-11,-13) needs a pure
        # square root of -153165298 with coordinates far above height 64
        alg = AlgebraParams(Fraction(-11), Fraction(-13))
        q = alg.quat(0, 1001, 0, 997)
        m = QMatrix.diagonal([q] * 3)
        d = is_sum_of_two_nilpotents(m)
        assert not d.answer and d.reason == Reason.TYPE_III
        assert d.classification.verdict == Verdict.TYPE_III
        cert = d.type_iii
        assert are_conjugate(cert.eigenvalue, q)
        assert conjugate_by(m, cert.witness) == QMatrix.diagonal([cert.eigenvalue] * 3)

    def test_n4_constant_diagonal_yes(self, H):
        d = is_sum_of_two_nilpotents(QMatrix.diagonal([H.i()] * 4))
        assert d.answer

    def test_zero_any_size(self, H):
        for n in (1, 2, 3, 5):
            assert is_sum_of_two_nilpotents(QMatrix.zeros(n, n, H)).answer

    def test_diag_ii_is_yes(self, H):
        # Diag(i,i): unispectral diagonalizable with noncentral pure eigenvalue.
        assert is_sum_of_two_nilpotents(diag(H, H.i(), H.i())).answer

    def test_jordan_cell_no(self, H):
        d = is_sum_of_two_nilpotents(QMatrix([[H.i(), H.one()], [H.zero(), H.i()]]))
        assert not d.answer and d.reason == Reason.N2_SPECTRAL_OBSTRUCTION

    def test_scalar_matrices_no(self, H):
        for n in (2, 3, 4, 5):
            d = is_sum_of_two_nilpotents(QMatrix.scalar(n, 5, H))
            assert not d.answer and d.reason == Reason.TYPE_I

    def test_trace_nonzero_generic(self, H):
        rng = random.Random(7)
        found = 0
        while found < 5:
            m = QMatrix([[random_quaternion(rng, H, 3) for _ in range(3)] for _ in range(3)])
            if reduced_trace(m) == 0 or classify(m).verdict != Verdict.GENERIC:
                continue
            d = is_sum_of_two_nilpotents(m)
            assert not d.answer and d.reason == Reason.TRACE_NONZERO
            found += 1

    def test_type_ii_zero_supertrace_yes(self, H):
        # lam = 1, image eigenvalue forced to -n*lam: supertrace vanishes.
        rng = random.Random(11)
        for n in (2, 3, 4):
            lam = Fraction(1)
            target = H.scalar(-n * lam)
            c = QVector([H.one()] + [random_quaternion(rng, H, 2) for _ in range(n - 1)])
            rest = [random_quaternion(rng, H, 2) for _ in range(n - 1)]
            head = target - sum((rt * ct for rt, ct in zip(rest, c.entries[1:])), H.zero())
            r = QVector([head] + rest)
            m = QMatrix.scalar(n, lam, H) + outer(c, r)
            assert reduced_trace(m) == 0
            d = is_sum_of_two_nilpotents(m)
            assert d.answer, f"n={n} should be yes"
            if n >= 3:
                assert d.type_ii is not None and d.type_ii.supertrace.is_zero()

    def test_supertrace_nonzero_implies_no(self, H):
        rng = random.Random(13)
        hits = 0
        while hits < 10:
            n = rng.randint(3, 4)
            lam = Fraction(rng.randint(-2, 2))
            c = QVector([H.one()] + [random_quaternion(rng, H, 2) for _ in range(n - 1)])
            r = QVector([random_quaternion(rng, H, 2) for _ in range(n)])
            a = outer(c, r)
            if a.is_zero():
                continue
            m = QMatrix.scalar(n, lam, H) + a
            data = detect_type_II(m)
            if data is None or data.supertrace.is_zero():
                continue
            d = is_sum_of_two_nilpotents(m)
            assert not d.answer and d.reason == Reason.TYPE_II_SUPERTRACE_NONZERO
            hits += 1
