import importlib
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from quatnil.errors import CertificateError, PreconditionError, SearchBudgetExceeded
from quatnil.qlinalg import (
    QMatrix,
    QVector,
    SimilarityWitness,
    conjugate_by,
    outer,
    reduced_trace,
)
from quatnil.classify import is_sum_of_two_nilpotents
from quatnil.gen import InstanceSpec, generate
from quatnil.qcore import AlgebraParams
from quatnil.decompose import (
    completion_2x2,
    decompose_two_nilpotents,
    diag_zero_form,
    field_diag_zero,
    verify_certificate,
    verify_decomposition,
)

from conftest import random_quaternion

classify_module = importlib.import_module("quatnil.classify")
decompose_module = importlib.import_module("quatnil.decompose")
spectral_module = importlib.import_module("quatnil.spectral")


def rational_matrix(rng, H, n, h=4):
    return QMatrix([[H.scalar(Fraction(rng.randint(-h, h))) for _ in range(n)] for _ in range(n)])


def assert_both_checks_pass(m, dec):
    """The witness-free check and the certificate check agree on a built decomposition."""
    assert verify_decomposition(m, dec.n1, dec.n2)
    assert verify_certificate(m, dec.n1, dec.n2, dec.witness)


class TestVerifyDecomposition:
    def test_valid(self, H):
        m = QMatrix([[H.zero(), H.i()], [H.i(), H.zero()]])
        dec = decompose_two_nilpotents(m)
        assert_both_checks_pass(m, dec)

    def test_non_nilpotent_summand(self, H):
        m = QMatrix.diagonal([H.i(), H.j()])
        zero = QMatrix.zeros(2, 2, H)
        assert not verify_decomposition(m, m, zero)

    def test_wrong_sum(self, H):
        m = QMatrix([[H.zero(), H.i()], [H.i(), H.zero()]])
        dec = decompose_two_nilpotents(m)
        assert not verify_decomposition(m, dec.n1, dec.n1)

    def test_shape_mismatch(self, H):
        m = QMatrix.zeros(2, 2, H)
        assert not verify_decomposition(m, QMatrix.zeros(3, 3, H), QMatrix.zeros(2, 2, H))


class TestVerifyCertificate:
    @pytest.fixture
    def built(self, H):
        m = QMatrix([[H.zero(), H.i()], [H.i(), H.zero()]])
        return m, decompose_two_nilpotents(m)

    def test_witness_that_does_not_triangularize(self, H, built):
        # swapped summands: both nilpotent with sum M, so the witness-free
        # check passes, but P*N1*Pinv is strictly lower
        m, dec = built
        assert verify_decomposition(m, dec.n2, dec.n1)
        assert not verify_certificate(m, dec.n2, dec.n1, dec.witness)
        swap = QMatrix([[H.zero(), H.one()], [H.one(), H.zero()]])
        assert not verify_certificate(m, dec.n1, dec.n2, SimilarityWitness(swap, swap))

    def test_moved_diagonal_entry(self, H, built):
        # N2[0][0] -> N1[0][0]: the sum still holds, the summands are not nilpotent
        m, dec = built
        bump = QMatrix([[H.one(), H.zero()], [H.zero(), H.zero()]])
        n1, n2 = dec.n1 + bump, dec.n2 - bump
        assert n1 + n2 == m
        assert not verify_decomposition(m, n1, n2)
        assert not verify_certificate(m, n1, n2, dec.witness)

    def test_wrong_sum(self, built):
        m, dec = built
        assert not verify_certificate(m, dec.n1, dec.n1, dec.witness)

    def test_witness_not_inverse(self, built):
        m, dec = built
        bad = SimilarityWitness._trusted(dec.witness.P.scale_right(2), dec.witness.Pinv)
        assert not verify_certificate(m, dec.n1, dec.n2, bad)

    def test_shape_mismatch(self, H):
        m = QMatrix.zeros(2, 2, H)
        assert not verify_certificate(m, m, m, SimilarityWitness.identity(3, H))
        z3 = QMatrix.zeros(3, 3, H)
        assert not verify_certificate(m, z3, m, SimilarityWitness.identity(2, H))


class TestFieldDiagZero:
    def test_diag_plus_minus_one(self, H):
        m = QMatrix.diagonal([H.one(), -H.one()])
        w = field_diag_zero(m)
        assert conjugate_by(m, w) == QMatrix([[H.zero(), H.one()], [H.one(), H.zero()]])

    def test_zero(self, H):
        w = field_diag_zero(QMatrix.zeros(3, 3, H))
        assert w.P == QMatrix.identity(3, H)

    def test_three_by_three(self, H):
        m = QMatrix.diagonal([H.scalar(2), -H.one(), -H.one()])
        w = field_diag_zero(m)
        out = conjugate_by(m, w)
        assert out.has_zero_diagonal() and out.is_rational()

    def test_seeded_rational_matrices(self, H):
        rng = random.Random(3)
        done = 0
        while done < 20:
            n = rng.randint(2, 6)
            m = rational_matrix(rng, H, n)
            entries = [list(r) for r in m.entries]
            entries[n - 1][n - 1] = entries[n - 1][n - 1] - H.scalar(reduced_trace(m) / 2)
            m = QMatrix(entries)
            if m.rational_scalar_value() not in (None, Fraction(0)):
                continue
            w = field_diag_zero(m)
            assert conjugate_by(m, w).has_zero_diagonal()
            done += 1

    def test_scalar_rejected(self, H):
        with pytest.raises(PreconditionError):
            field_diag_zero(QMatrix.scalar(3, 2, H))

    def test_nonzero_trace_rejected(self, H):
        with pytest.raises(PreconditionError):
            field_diag_zero(QMatrix.diagonal([H.one(), H.one()]))

    def test_quaternionic_entries_rejected(self, H):
        with pytest.raises(PreconditionError):
            field_diag_zero(QMatrix.diagonal([H.i(), -H.i()]))


class TestCompletion2x2:
    def test_worked_instance(self, H):
        cert = completion_2x2(H.i(), -H.i())
        one = H.one()
        assert cert.delta == -one
        assert cert.q == H.zero() and cert.g == one and cert.s == H.i()
        assert cert.summands[0] == QMatrix([[H.i(), -one], [-one, -H.i()]])
        assert cert.summands[1] == QMatrix([[H.zero(), H.zero()], [H.scalar(2), H.zero()]])
        assert cert.target == QMatrix([[H.i(), -one], [one, -H.i()]])

    def test_zero_pair(self, H):
        cert = completion_2x2(H.zero(), H.zero())
        assert cert.delta == H.zero()
        assert cert.target == QMatrix([[H.zero(), H.zero()], [H.one(), H.zero()]])

    def test_zero_and_i(self, H):
        cert = completion_2x2(H.zero(), H.i())
        assert cert.target == QMatrix([[H.zero(), cert.delta], [H.one(), H.i()]])
        for s in cert.summands:
            assert (s * s).is_zero()
        assert cert.summands[0] + cert.summands[1] == cert.target

    def test_seeded_pairs(self, H):
        rng = random.Random(5)
        for _ in range(30):
            a = random_quaternion(rng, H, 4)
            b = random_quaternion(rng, H, 4)
            b = b - H.scalar(b.w + a.w)  # force t(a+b) = 0
            cert = completion_2x2(a, b)
            assert cert.target == QMatrix([[a, cert.delta], [H.one(), b]])
            assert cert.summands[0] + cert.summands[1] == cert.target
            for s in cert.summands:
                assert (s * s).is_zero()
            # conjugation data consistency
            assert cert.s == cert.g * (-b + cert.q) * cert.g.inverse() or a == -b

    def test_trace_precondition(self, H):
        with pytest.raises(PreconditionError):
            completion_2x2(H.one(), H.one())


class TestDiagZeroForm:
    def test_two_by_two_worked(self, H):
        m = QMatrix([[H.zero(), H.i()], [H.i(), H.zero()]])
        w = diag_zero_form(m)
        assert w.P == QMatrix([[H.one(), H.zero()], [H.zero(), -H.i()]])
        assert conjugate_by(m, w) == QMatrix([[H.zero(), -H.one()], [H.one(), H.zero()]])

    def test_rejects_decision_no(self, H):
        with pytest.raises(PreconditionError):
            diag_zero_form(QMatrix.diagonal([H.i(), H.zero(), H.zero()]))

    def test_zero(self, H):
        w = diag_zero_form(QMatrix.zeros(3, 3, H))
        assert w.P == QMatrix.identity(3, H)

    def test_diag_ii(self, H):
        m = QMatrix.diagonal([H.i(), H.i()])
        w = diag_zero_form(m)
        assert conjugate_by(m, w).has_zero_diagonal()

    def test_trace_conserved(self, H):
        m = QMatrix([[H.zero(), H.i()], [H.i(), H.zero()]])
        w = diag_zero_form(m)
        assert reduced_trace(conjugate_by(m, w)) == 0 == reduced_trace(m)


class TestDecompose:
    def test_two_by_two_worked(self, H):
        m = QMatrix([[H.zero(), H.i()], [H.i(), H.zero()]])
        dec = decompose_two_nilpotents(m)
        assert dec.n1 == QMatrix([[H.zero(), H.i()], [H.zero(), H.zero()]])
        assert dec.n2 == QMatrix([[H.zero(), H.zero()], [H.i(), H.zero()]])

    def test_zero(self, H):
        dec = decompose_two_nilpotents(QMatrix.zeros(2, 2, H))
        assert dec.n1.is_zero() and dec.n2.is_zero()

    def test_constant_diagonal_n4(self, H):
        m = QMatrix.diagonal([H.i()] * 4)
        dec = decompose_two_nilpotents(m)
        assert_both_checks_pass(m, dec)

    def test_rejects_decision_no(self, H):
        with pytest.raises(PreconditionError):
            decompose_two_nilpotents(QMatrix.diagonal([H.i()] * 3))

    def test_deterministic(self, H):
        m = QMatrix.diagonal([H.i()] * 4)
        d1 = decompose_two_nilpotents(m)
        d2 = decompose_two_nilpotents(m)
        assert d1.n1 == d2.n1 and d1.n2 == d2.n2 and d1.witness.P == d2.witness.P

    def test_failed_check_raises_under_optimize(self):
        # python -O strips asserts; the certificate check must not be one
        src = Path(__file__).resolve().parents[1] / "src"
        script = textwrap.dedent(
            """
            import quatnil.decompose as d
            from quatnil.errors import CertificateError
            from quatnil.qcore import hamilton_algebra
            from quatnil.qlinalg import QMatrix

            if __debug__:
                raise SystemExit("not running under -O")
            d.verify_certificate = lambda *args: False
            H = hamilton_algebra()
            try:
                d.decompose_two_nilpotents(QMatrix([[H.zero(), H.i()], [H.i(), H.zero()]]))
            except CertificateError:
                print("raised")
            """
        )
        out = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env={"PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "raised"

    def test_candidate_lists_are_fixed_and_structured(self, H):
        # units, then e_s + e_t*u for s != t (s < t when u = ±1), then
        # e_s + e_t*u + e_r*v for s < t < r
        for n in (2, 3, 4):
            vectors = list(decompose_module._vector_candidates(n, H))
            expected = n + 7 * n * (n - 1) + 64 * (n * (n - 1) * (n - 2) // 6)
            assert len(vectors) == expected
            assert vectors[:n] == [QVector.unit(n, s, H) for s in range(n)]
            seen = set()
            for v in vectors:
                assert v not in seen and -v not in seen
                seen.add(v)
        # the zero list, then one unit in one slot, then units in two slots
        for k in (1, 2, 3):
            lists = list(decompose_module._perturbation_lists(k, H))
            assert len(lists) == len(set(lists)) == 1 + 8 * k + 64 * (k * (k - 1) // 2)
            assert lists[0] == (H.zero(),) * k

    def test_trial_decision_cap_raises(self, H, monkeypatch):
        # J_2(i) + 0 needs ten corner bases before a trailing block is accepted
        monkeypatch.setattr(decompose_module, "MAX_TRIAL_DECISIONS", 3)
        z = H.zero()
        m = QMatrix([[H.i(), H.one(), z, z], [z, H.i(), z, z], [z] * 4, [z] * 4])
        with pytest.raises(SearchBudgetExceeded, match="3 decisions"):
            decompose_two_nilpotents(m)

    @pytest.mark.parametrize(
        "ab, n",
        [(None, 3)] + [(ab, n) for ab in ((-1, -1), (-1, -7), (2, -5)) for n in (4, 5, 6, 7)],
        ids=lambda v: "fixed" if v is None else str(v),
    )
    def test_decides_once_and_never_classifies_again(self, H, ab, n, monkeypatch):
        # a generic matrix at every n >= 3 is reduced in one companion basis,
        # with no trial decision of a trailing block
        if ab is None:
            m = QMatrix([[H.zero(), H.i(), H.j()], [H.i(), H.zero(), H.k()], [H.one(), H.j(), H.zero()]])
        else:
            alg = AlgebraParams(Fraction(ab[0]), Fraction(ab[1]))
            m = generate(InstanceSpec(alg, n, "generic-trace-zero", seed=n))
        calls = []
        original = classify_module.classify

        def counted(m, *args, **kwargs):
            calls.append(m)
            return original(m, *args, **kwargs)

        monkeypatch.setattr(classify_module, "classify", counted)
        dec = decompose_two_nilpotents(m)
        assert_both_checks_pass(m, dec)
        assert calls == [m]

    def test_2x2_certifies_the_square_once(self, H, monkeypatch):
        calls = []
        original = spectral_module.unispectral_diagonalizable

        def counted(m, *args, **kwargs):
            calls.append(m)
            return original(m, *args, **kwargs)

        # wherever the name is bound, so a second call site cannot hide
        for module in (classify_module, decompose_module):
            monkeypatch.setattr(module, "unispectral_diagonalizable", counted, raising=False)
        # M*M central (-I) and noncentral (Diag(k, -k))
        for m in (
            QMatrix([[H.zero(), H.i()], [H.i(), H.zero()]]),
            QMatrix([[H.zero(), H.i()], [H.j(), H.zero()]]),
        ):
            calls.clear()
            dec = decompose_two_nilpotents(m)
            assert_both_checks_pass(m, dec)
            # M*M alone decides: M itself is never analysed
            assert calls == [m * m]

    @pytest.mark.parametrize("ab", [(-1, -1), (-1, -7)], ids=str)
    def test_2x2_steps_of_the_candidate_list(self, ab):
        # M*M is central for each, so its eigenbasis (p1, p2) is (e1, e2);
        # Diag(1, -1) takes p1 + p2, and Diag(mu, mu) with mu pure fails
        # p1, p2 and p1 + p2 and takes the unit that does not commute with mu
        alg = AlgebraParams(Fraction(ab[0]), Fraction(ab[1]))
        one, i, j, _ = alg.basis()
        for diagonal, second in (([one, -one], one), ([j, j], i), ([i, i], j)):
            m = QMatrix.diagonal(diagonal)
            dec = decompose_two_nilpotents(m)
            assert_both_checks_pass(m, dec)
            assert dec.witness.Pinv.columns()[0] == QVector([one, second])

    def test_2x2_list_that_runs_out_is_a_certificate_error(self, H, monkeypatch):
        # the proof says it cannot; if it did, that is a defect, not a search budget
        monkeypatch.setattr(decompose_module, "independent_subfamily", lambda family: family[:1])
        with pytest.raises(CertificateError, match="every candidate"):
            decompose_two_nilpotents(QMatrix([[H.zero(), H.i()], [H.i(), H.zero()]]))

    def test_2x2_solves_the_square_eigen_system_once(self, H, monkeypatch):
        calls = []
        original = spectral_module.eigenvectors_for

        def counted(m, q):
            calls.append(m)
            return original(m, q)

        for module in (spectral_module, decompose_module):
            monkeypatch.setattr(module, "eigenvectors_for", counted, raising=False)
        # M*M = Diag(k, -k) is noncentral: the reduction reads the eigenvectors
        # of the square off the decision's certificate
        m = QMatrix([[H.zero(), H.i()], [H.j(), H.zero()]])
        dec = decompose_two_nilpotents(m)
        assert_both_checks_pass(m, dec)
        assert calls == [m * m]

    def test_witness_and_form_fields(self, H):
        m = QMatrix([[H.zero(), H.i()], [H.i(), H.zero()]])
        dec = decompose_two_nilpotents(m)
        assert conjugate_by(m, dec.witness) == dec.diag_zero
        assert dec.diag_zero.has_zero_diagonal()

    def test_type_ii_zero_supertrace_path(self, H):
        # lam = 1 at n = 3: the rank-one part must contribute eigenvalue -3.
        rng = random.Random(9)
        lam = Fraction(1)
        c = QVector([H.one(), random_quaternion(rng, H, 2), random_quaternion(rng, H, 2)])
        rest = [random_quaternion(rng, H, 2) for _ in range(2)]
        head = H.scalar(-3)
        for rt, ct in zip(rest, c.entries[1:]):
            head = head - rt * ct
        m = QMatrix.scalar(3, lam, H) + outer(c, QVector([head] + rest))
        dec = decompose_two_nilpotents(m)
        assert_both_checks_pass(m, dec)

    def test_type_ii_nilpotent_image_path(self, H):
        # lam = 0 with the rank-one part annihilating its own image.
        c = QVector([H.one(), H.i(), H.zero()])
        row = QVector([H.i(), H.one(), H.j()])  # row . c = i + i*... adjusted below
        q_a = H.zero()
        for rt, ct in zip(row, c):
            q_a = q_a + rt * ct
        row = QVector([row[0] - q_a * c[0].inverse(), row[1], row[2]])
        m = outer(c, row)
        dec = decompose_two_nilpotents(m)
        assert_both_checks_pass(m, dec)

    @pytest.mark.parametrize("ab", [(-1, -1), (-1, -7), (2, -5)], ids=str)
    def test_type_ii_closed_form_basis(self, ab, monkeypatch):
        # one basis change gives lam*(I - J), or E_12 when lam = 0, with no field
        # recursion; it and the companion basis are each inverted once
        alg = AlgebraParams(Fraction(ab[0]), Fraction(ab[1]))
        sizes, field_calls = [], []
        invert, field = decompose_module.invert, decompose_module._field_diag_zero_inner
        monkeypatch.setattr(decompose_module, "invert", lambda mat: sizes.append(mat.rows) or invert(mat))
        monkeypatch.setattr(
            decompose_module, "_field_diag_zero_inner", lambda mat: field_calls.append(mat) or field(mat)
        )
        for n in range(3, 8):
            # the companion basis: one n x n inversion, beside the 2x2 completion's
            m = generate(InstanceSpec(alg, n, "generic-trace-zero", seed=n))
            sizes.clear()
            dec = decompose_two_nilpotents(m)
            assert sizes.count(n) == 1 and set(sizes) <= {2, n}, (n, sizes)
            assert verify_decomposition(m, dec.n1, dec.n2)
            for lam in (-2, 0, 1):
                m = generate(InstanceSpec(alg, n, "type-II", seed=n, lam=Fraction(lam)))
                if lam:
                    want = [[alg.scalar(0 if s == t else -lam) for t in range(n)] for s in range(n)]
                else:
                    want = [[alg.zero()] * n for _ in range(n)]
                    want[0][1] = alg.one()
                sizes.clear()
                dec = decompose_two_nilpotents(m)
                assert dec.diag_zero == QMatrix(want), (n, lam)
                assert sizes == [n] and not field_calls, (n, lam)
                assert verify_decomposition(m, dec.n1, dec.n2)

    @pytest.mark.parametrize("kind", ["generic-trace-zero", "type-II"])
    def test_singular_basis_is_a_certificate_error(self, H, kind, monkeypatch):
        # the one inversion at the boundary reports a singular basis, not an AttributeError
        original = decompose_module.invert
        monkeypatch.setattr(decompose_module, "invert", lambda mat: None if mat.rows > 2 else original(mat))
        extra = {"lam": Fraction(1)} if kind == "type-II" else {}
        m = generate(InstanceSpec(H, 4, kind, seed=4, **extra))
        with pytest.raises(CertificateError, match="singular"):
            decompose_two_nilpotents(m)

    def test_round_trip_small_sizes(self, H):
        rng = random.Random(7)
        from quatnil.classify import Verdict, classify

        done = {2: 0, 3: 0, 4: 0}
        while any(v < 3 for v in done.values()):
            n = rng.choice([k for k, v in done.items() if v < 3])
            m = QMatrix(
                [[random_quaternion(rng, H, 2) for _ in range(n)] for _ in range(n)]
            )
            entries = [list(r) for r in m.entries]
            entries[n - 1][n - 1] = entries[n - 1][n - 1] - H.scalar(reduced_trace(m) / 2)
            m = QMatrix(entries)
            d = is_sum_of_two_nilpotents(m)
            if not d.answer:
                continue
            dec = decompose_two_nilpotents(m)
            assert_both_checks_pass(m, dec)
            done[n] += 1
