import itertools
import random
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from quatnil import qcore, ratlin
from quatnil.errors import (
    AlgebraMismatchError,
    CertificateError,
    NotDivisionAlgebraError,
    ObstructionError,
    ParameterError,
    PreconditionError,
)
from quatnil.qcore import (
    AlgebraParams,
    ConjClass,
    are_conjugate,
    conjugator,
    hilbert_symbol,
    is_division,
    is_square_in_Qv,
    polar_form,
    quadratic_identity_check,
    sqrt_pure,
    sylvester_solve,
    translate_conjugate,
)

from conftest import random_noncentral_quaternion, random_quaternion


def oracle_mul(p, q):
    """Table-driven product oracle: expand on basis pairs, independent of __mul__."""
    alg = p.algebra
    a, b = alg.a, alg.b
    one, i, j, k = alg.basis()
    table = {
        (0, 0): one, (0, 1): i, (0, 2): j, (0, 3): k,
        (1, 0): i, (1, 1): alg.scalar(a), (1, 2): k, (1, 3): j * 0 + alg.quat(0, 0, a, 0),
        (2, 0): j, (2, 1): -k, (2, 2): alg.scalar(b), (2, 3): alg.quat(0, -b, 0, 0),
        (3, 0): k, (3, 1): alg.quat(0, 0, -a, 0), (3, 2): alg.quat(0, b, 0, 0),
        (3, 3): alg.scalar(-a * b),
    }
    out = alg.zero()
    for s, ps in enumerate(p.coords()):
        for t, qt in enumerate(q.coords()):
            out = out + table[(s, t)] * (ps * qt)
    return out


class TestQuaternionArithmetic:
    def test_defining_relations(self, H):
        one, i, j, k = H.basis()
        assert i * j == k
        assert j * i == -k
        assert i * i == H.scalar(-1)
        assert j * j == H.scalar(-1)
        assert k * k == H.scalar(-1)

    def test_one_plus_i_squared(self, H):
        q = H.quat(1, 1)
        assert q * q == H.quat(0, 2)

    def test_identity_element(self, H):
        rng = random.Random(7)
        for _ in range(20):
            q = random_quaternion(rng, H)
            assert q * H.one() == q
            assert H.one() * q == q

    def test_mul_against_table_oracle(self, H):
        rng = random.Random(11)
        algebras = [H, AlgebraParams(Fraction(-2), Fraction(5))]
        for alg in algebras:
            for _ in range(50):
                p = random_quaternion(rng, alg, 6)
                q = random_quaternion(rng, alg, 6)
                assert p * q == oracle_mul(p, q)

    def test_associativity_sampled(self, H):
        rng = random.Random(13)
        for _ in range(30):
            p, q, r = (random_quaternion(rng, H, 5) for _ in range(3))
            assert (p * q) * r == p * (q * r)

    def test_algebra_mismatch_rejected(self, H):
        other = AlgebraParams(Fraction(-1), Fraction(-2))
        with pytest.raises(AlgebraMismatchError):
            H.i() * other.i()

    def test_mul_matrices_match_products(self, H):
        from quatnil.qcore import left_mul_matrix, right_mul_matrix

        rng = random.Random(97)
        for alg in (H, AlgebraParams(Fraction(2), Fraction(-5))):
            for _ in range(25):
                p = random_quaternion(rng, alg, 5)
                v = random_quaternion(rng, alg, 5)
                lm = left_mul_matrix(p)
                rm = right_mul_matrix(p)
                vc = v.coords()
                left = tuple(sum(row[c] * vc[c] for c in range(4)) for row in lm)
                right = tuple(sum(row[c] * vc[c] for c in range(4)) for row in rm)
                assert left == (p * v).coords()
                assert right == (v * p).coords()


class TestConjNormTraceInv:
    def test_norm_trace_of_i(self, H):
        assert H.i().norm() == 1
        assert H.i().reduced_trace() == 0

    def test_conj_and_norm_coordinates(self, H):
        q = H.quat(1, 2)
        assert q.conjugate() == H.quat(1, -2)
        assert q.norm() == 5

    def test_inverse_of_i(self, H):
        assert H.i().inverse() == -H.i()

    def test_inverse_postcondition(self, H):
        rng = random.Random(17)
        for _ in range(30):
            q = random_quaternion(rng, H)
            if q.is_zero():
                continue
            assert q * q.inverse() == H.one()
            assert q.inverse() * q == H.one()

    def test_zero_inverse_raises(self, H):
        with pytest.raises(ZeroDivisionError):
            H.zero().inverse()

    def test_norm_multiplicative_and_conj_antihomomorphism(self, H):
        rng = random.Random(19)
        for _ in range(30):
            p = random_quaternion(rng, H, 6)
            q = random_quaternion(rng, H, 6)
            assert (p * q).norm() == p.norm() * q.norm()
            assert (p * q).conjugate() == q.conjugate() * p.conjugate()

    def test_norm_zero_iff_zero(self, H):
        rng = random.Random(23)
        for _ in range(50):
            q = random_quaternion(rng, H)
            assert (q.norm() == 0) == q.is_zero()


class TestQuadraticIdentity:
    def test_one_plus_i(self, H):
        assert quadratic_identity_check(H.quat(1, 1))

    def test_zero(self, H):
        assert quadratic_identity_check(H.zero())

    def test_j(self, H):
        j = H.j()
        assert j * j == H.scalar(-1)
        assert quadratic_identity_check(j)

    def test_randomized(self, H):
        rng = random.Random(29)
        for _ in range(200):
            assert quadratic_identity_check(random_quaternion(rng, H))


class TestPolarForm:
    def test_examples(self, H):
        assert polar_form(H.i(), H.i()) == 2
        assert polar_form(H.i(), H.j()) == 0
        rng = random.Random(31)
        q = random_quaternion(rng, H)
        assert polar_form(q, H.zero()) == 0

    def test_symmetric_bilinear_and_norm_link(self, H):
        rng = random.Random(37)
        for _ in range(30):
            p = random_quaternion(rng, H)
            q = random_quaternion(rng, H)
            assert polar_form(p, q) == polar_form(q, p)
            assert polar_form(q, q) == 2 * q.norm()

    def test_nondegenerate(self, H):
        rng = random.Random(41)
        for _ in range(30):
            q = random_quaternion(rng, H)
            if q.is_zero():
                continue
            assert any(polar_form(q, e) != 0 for e in H.basis())

    def test_trace_central(self, H):
        rng = random.Random(43)
        for _ in range(30):
            x = random_quaternion(rng, H)
            y = random_quaternion(rng, H)
            assert (x * y).reduced_trace() == (y * x).reduced_trace()


class TestIsDivision:
    def test_hamilton_is_division(self):
        assert is_division(-1, -1)

    def test_square_parameter_splits(self):
        for b in (-1, 2, 5, Fraction(7, 3)):
            assert not is_division(1, b)

    def test_minus_one_two_splits(self):
        # Isotropy oracle: the norm form w^2 + x^2 - 2y^2 - 2z^2 vanishes at (0,2,1,1).
        assert 0 + 4 - 2 * 1 - 2 * 1 == 0
        assert not is_division(-1, 2)

    def test_more_division_algebras(self):
        # (-1,-3): ramified at 2? and 3; (2,-5), (-2,-5): spot-checked via symbols.
        assert is_division(-1, -3)
        assert is_division(Fraction(-1, 4), -1)  # square class of -1/4 is -1

    def test_zero_parameter_rejected(self):
        with pytest.raises(ParameterError):
            is_division(0, -1)

    def test_split_algebra_construction_rejected(self):
        with pytest.raises(NotDivisionAlgebraError):
            AlgebraParams(Fraction(1), Fraction(-1))

    def test_hilbert_symbol_bilinearity_spot(self):
        # (a, b)_v * (a, b')_v == (a, b*b')_v on a sample grid.
        vals = [-5, -2, -1, 2, 3, 7, 10]
        for a in vals:
            for b in vals:
                for b2 in vals:
                    for place in ("inf", 2, 3, 5, 7):
                        lhs = hilbert_symbol(a, b, place) * hilbert_symbol(a, b2, place)
                        assert lhs == hilbert_symbol(a, b * b2, place)

    def test_hilbert_reciprocity_spot(self):
        def odd_prime_divisors(n):
            out, m, p = set(), abs(n), 3
            while m % 2 == 0:
                m //= 2
            while p * p <= m:
                while m % p == 0:
                    out.add(p)
                    m //= p
                p += 2
            if m > 1:
                out.add(m)
            return out

        vals = [-6, -5, -3, -2, -1, 2, 3, 5, 15]
        for a in vals:
            for b in vals:
                places = {"inf", 2} | odd_prime_divisors(a) | odd_prime_divisors(b)
                prod = 1
                for v in places:
                    prod *= hilbert_symbol(a, b, v)
                assert prod == 1


class TestLocalSquares:
    def test_real_place(self):
        assert is_square_in_Qv(Fraction(2), "inf")
        assert not is_square_in_Qv(Fraction(-2), "inf")

    def test_p_adic(self):
        assert is_square_in_Qv(Fraction(4), 2)
        assert not is_square_in_Qv(Fraction(2), 2)
        assert is_square_in_Qv(Fraction(17), 2)  # 17 = 1 mod 8
        assert is_square_in_Qv(Fraction(1, 4), 2)
        assert is_square_in_Qv(Fraction(7), 3)  # 7 = 1 mod 3, QR
        assert not is_square_in_Qv(Fraction(5), 3)
        assert not is_square_in_Qv(Fraction(3), 3)

    def test_squarefree_part(self):
        s, t, primes = qcore._squarefree_model(Fraction(18))
        assert s == 2 and t == 3 and s * t * t == 18 and primes == [2]
        s, t, primes = qcore._squarefree_model(Fraction(-9, 2))
        assert s * t * t == Fraction(-9, 2) and s == -2 and primes == [2]


class TestConjugacy:
    def test_i_conjugate_j(self, H):
        assert are_conjugate(H.i(), H.j())

    def test_different_traces(self, H):
        assert not are_conjugate(H.i(), H.quat(1, 1))

    def test_central_cases(self, H):
        assert are_conjugate(H.scalar(3), H.scalar(3))
        assert not are_conjugate(H.scalar(3), H.scalar(-3))

    def test_central_never_matches_noncentral_with_same_invariants(self, H):
        # t=2, N=1 for both 1 and any unipotent-like noncentral? 1 is central;
        # 1 + pure with norm 1... N(1+p)=1 forces N(p)=0, p=0, so fabricate via
        # distinct invariants instead: centrality must dominate the test.
        assert not are_conjugate(H.scalar(1), H.quat(1, 2))

    def test_conjugator_i_j(self, H):
        g = conjugator(H.i(), H.j())
        assert g == H.quat(0, 1, 1, 0)  # canonical kernel vector; i+j works
        assert g * H.j() == H.i() * g

    def test_conjugator_central_identity(self, H):
        q = H.scalar(Fraction(5, 2))
        assert conjugator(q, q) == H.one()

    def test_conjugator_self_noncentral(self, H):
        g = conjugator(H.i(), H.i())
        assert not g.is_zero()
        assert g * H.i() == H.i() * g

    def test_conjugator_obstruction(self, H):
        with pytest.raises(ObstructionError):
            conjugator(H.i(), H.quat(1, 1))

    def test_conjugator_randomized(self, H):
        rng = random.Random(47)
        for _ in range(50):
            q = random_quaternion(rng, H, 6)
            g = random_quaternion(rng, H, 6)
            if g.is_zero():
                continue
            p = g * q * g.inverse()
            assert are_conjugate(p, q)
            w = conjugator(p, q)
            assert w * q * w.inverse() == p

    def test_equivalence_transitivity_sampled(self, H):
        rng = random.Random(53)
        for _ in range(20):
            q = random_noncentral_quaternion(rng, H, 5)
            g1 = random_quaternion(rng, H, 4)
            g2 = random_quaternion(rng, H, 4)
            if g1.is_zero() or g2.is_zero():
                continue
            p1 = g1 * q * g1.inverse()
            p2 = g2 * q * g2.inverse()
            assert are_conjugate(p1, q) and are_conjugate(q, p2) and are_conjugate(p1, p2)


class TestSylvester:
    def test_commutator_image_of_i(self, H):
        # Oracle: [i, w+xi+yj+zk] = 2y*k - 2z*j, so [i, -k/2] = j.
        rng = random.Random(59)
        for _ in range(10):
            c = random_quaternion(rng, H, 5)
            lhs = H.i() * c - c * H.i()
            assert lhs == H.quat(0, 0, -2 * c.z, 2 * c.y)

    def test_solve_for_j(self, H):
        c = sylvester_solve(H.i(), H.i(), H.j())
        assert c == H.quat(0, 0, 0, Fraction(-1, 2))
        assert H.i() * c - c * H.i() == H.j()

    def test_unsolvable_for_one(self, H):
        assert sylvester_solve(H.i(), H.i(), H.one()) is None

    def test_zero_rhs(self, H):
        rng = random.Random(61)
        p = random_quaternion(rng, H)
        q = random_quaternion(rng, H)
        assert sylvester_solve(p, q, H.zero()) == H.zero()

    def test_randomized_consistency(self, H):
        rng = random.Random(67)
        for _ in range(40):
            p = random_quaternion(rng, H, 5)
            q = random_quaternion(rng, H, 5)
            c0 = random_quaternion(rng, H, 5)
            d = p * c0 - c0 * q
            c = sylvester_solve(p, q, d)
            assert c is not None
            assert p * c - c * q == d


class TestTranslateConjugate:
    def test_equal_inputs(self, H):
        rng = random.Random(71)
        q = random_quaternion(rng, H)
        assert translate_conjugate(q, q) == H.zero()

    def test_opposite_i(self, H):
        r = translate_conjugate(H.i(), -H.i())
        assert are_conjugate(H.i() + r, -H.i() + r)
        assert not (H.i() + r).is_central() and not (-H.i() + r).is_central()

    def test_two_i_and_zero(self, H):
        r = translate_conjugate(H.quat(0, 2), H.zero())
        assert r == -H.i()
        assert are_conjugate(H.quat(0, 2) + r, r)

    def test_trace_mismatch_rejected(self, H):
        with pytest.raises(PreconditionError):
            translate_conjugate(H.one(), H.i())

    def test_randomized(self, H):
        rng = random.Random(73)
        for _ in range(40):
            p = random_quaternion(rng, H, 5)
            q = random_quaternion(rng, H, 5)
            q = q + H.scalar(p.w - q.w)  # match traces
            r = translate_conjugate(p, q)
            assert are_conjugate(p + r, q + r)

    @staticmethod
    def by_height(p, q):
        """The reference: the least translation in an enumeration of rational tuples by height."""

        def height(r):
            return max(abs(r.numerator), r.denominator) if r else 0

        def tuples(k):
            pool = [Fraction(0)]
            for h in itertools.count(1):
                pool += [Fraction(s * n, d) for d in range(1, h + 1) for n in range(1, h + 1)
                         if max(n, d) == h and gcd(n, d) == 1 for s in (1, -1)]
                shell = itertools.product(pool, repeat=k)
                yield from (t for t in shell if max(map(height, t)) == h)

        if p == q:
            return p.algebra.zero()
        row = [polar_form(q - p, e) for e in p.algebra.basis()]
        base = ratlin.solve([row], [p.norm() - q.norm()])
        directions = ratlin.kernel([row])
        for coeffs in itertools.chain([(Fraction(0),) * len(directions)], tuples(len(directions))):
            r = p.algebra.quat(*(v + sum(c * d[i] for c, d in zip(coeffs, directions))
                                 for i, v in enumerate(base)))
            if not (p + r).is_central() and not (q + r).is_central():
                return r

    def test_matches_the_height_enumeration(self):
        rng = random.Random(79)
        for ab in ((-1, -1), (-1, -7), (2, -5)):
            alg = AlgebraParams(Fraction(ab[0]), Fraction(ab[1]))
            for _ in range(30):
                p = random_quaternion(rng, alg, 5)
                pure = random_quaternion(rng, alg, 2).pure_part()
                # a random partner, p's own scalar (central), p's conjugate, and p moved a little
                for q in (random_quaternion(rng, alg, 5), alg.scalar(p.w), p.conjugate(), p + pure):
                    q = q + (p.w - q.w)
                    assert translate_conjugate(p, q) == self.by_height(p, q), (ab, p, q)


class TestSqrtPure:
    def test_minus_two(self, H):
        s = sqrt_pure(Fraction(-2), H)
        assert s is not None and s.is_pure()
        assert s * s == H.scalar(-2)

    def test_positive_has_none(self, H):
        assert sqrt_pure(Fraction(2), H) is None
        assert sqrt_pure(Fraction(4), H) is None

    def test_zero(self, H):
        assert sqrt_pure(Fraction(0), H) == H.zero()

    def test_rational_square_has_none(self, H):
        assert sqrt_pure(Fraction(9, 4), H) is None

    def test_fractional_values(self, H):
        for e in (Fraction(-1, 2), Fraction(-5), Fraction(-9, 4)):
            s = sqrt_pure(e, H)
            assert s is not None and s * s == H.scalar(e)

    def test_indefinite_algebra(self):
        alg = AlgebraParams(Fraction(2), Fraction(-5))
        # i*i = 2, so sqrt_pure(2) must exist here.
        s = sqrt_pure(Fraction(2), alg)
        assert s is not None and s * s == alg.scalar(2)
        # ramified places of (2,-5): decision matches search on a small sweep.
        for e in range(-8, 9):
            if e == 0:
                continue
            s = sqrt_pure(Fraction(e), alg)
            if s is not None:
                assert s * s == alg.scalar(e) and s.is_pure()


    def test_descent_roots(self):
        # None exactly when the local test refuses, else a pure root; the
        # named values defeated the former height-64 shell search
        named = [
            ((-11, -13), Fraction(-153165298)),
            ((2, -5), Fraction(-798694395)),
            ((-1, -7), Fraction(-3664806413396, 110889)),
            ((-1, -7), Fraction(-44720162951, 774400)),
            ((2, -5), Fraction(5560227897693, 135424)),
            ((-11, -13), Fraction(-18767413079243409191, 1371961600)),
        ]
        # the values the n = 2 decisions of the roundtrip-hamilton benchmark
        # workload ask for at its seeds 1 and 9001
        named += [
            ((-1, -1), Fraction(e))
            for e in (
                "-8682091/1600", "-19373365941/547600", "-224499/64", "-449364457/125000",
                "-148362689/40000", "-50450975/16128", "-284124193/96800", "-27217/18",
                "-14015/192", "-246523/26", "-469836149/156816", "-100161/25",
                "-77853355/12168", "-40430/9", "-98437/50", "-71058267/57800",
            )
        ]
        rng = random.Random(61)
        cases = [(ab, e, True) for ab, e in named]
        for ab in ((-1, -7), (2, -5), (-11, -13), (-3, -5), (-1, -1)):
            for _ in range(100):
                square = rng.choice((1, 1, 4, 9, 49, 169, 25 * 121))
                top = 2 ** rng.choice((4, 16, 32, 48, 64)) // square
                num = rng.randrange(1, max(2, top)) * square
                den = rng.randrange(1, 2 ** rng.choice((1, 8, 16, 32)) + 1)
                cases.append((ab, Fraction(rng.choice((1, -1)) * num, den), False))
        for ab, e, must_exist in cases:
            alg = AlgebraParams(Fraction(ab[0]), Fraction(ab[1]))
            s = sqrt_pure(e, alg)
            refused = any(is_square_in_Qv(e, v) for v in alg.ramified)
            assert (s is None) == refused and not (must_exist and refused), (ab, e)
            if s is not None:
                assert s.is_pure() and s * s == alg.scalar(e), (ab, e)


class TestFactorize:
    @staticmethod
    def trial_division(n):
        """The reference: factorization by trial division alone."""
        factors, d = {}, 2
        while d * d <= n:
            while n % d == 0:
                factors[d] = factors.get(d, 0) + 1
                n //= d
            d += 1 if d == 2 else 2
        if n > 1:
            factors[n] = factors.get(n, 0) + 1
        return factors

    def test_matches_trial_division(self):
        rng = random.Random(67)
        cases = [1, 2, 17, 37, 997 * 997, 1009 * 1013, 1009**2, 999983 * 1000003, (2**20 + 7) ** 2]
        cases += [rng.randrange(1, 2 ** rng.randrange(1, 41)) for _ in range(400)]
        for n in cases:
            assert list(qcore._factorize(n).items()) == sorted(self.trial_division(n).items()), n

    def test_is_prime(self):
        assert [p for p in range(2, 1000) if qcore._is_prime(p)] == qcore._SMALL_PRIMES
        # the least strong pseudoprimes to the first 1, 2, 3, 4, 5, 6, 7, 9 and 12 primes
        pseudoprimes = (
            2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
            341550071728321, 3825123056546413051, 318665857834031151167461,
        )
        assert not any(qcore._is_prime(n) for n in pseudoprimes)
        assert all(qcore._is_prime(p) for p in (1009, 999983, 2**31 - 1, 2**61 - 1, 2**89 - 1))

    def test_sqrt_pure_does_not_factor_the_parameters(self, monkeypatch):
        # a = -5(2^61 - 1): 64 bits, within the parameter limit
        alg = AlgebraParams(Fraction(-5 * (2**61 - 1)), Fraction(-1))
        factored = []

        def counting(n):
            factored.append(n)
            return original(n)

        original = qcore._factorize
        monkeypatch.setattr(qcore, "_factorize", counting)
        for e in (-2, -3, Fraction(-2, 9)):
            s = sqrt_pure(e, alg)
            assert s is None or s * s == alg.scalar(e)
        assert factored and not {abs(alg.a_sf), abs(alg.b_sf)} & set(factored)

    def test_local_model_is_not_compared_or_shown(self):
        alg = AlgebraParams(Fraction(-1), Fraction(-7))
        scaled = AlgebraParams(Fraction(-4), Fraction(-7))
        model = (alg.a_sf, alg.a_scale, alg.b_sf, alg.primes, alg.ramified)
        assert model == (-1, 1, -7, (7,), ("inf", 7))
        assert (scaled.a_sf, scaled.a_scale) == (-1, 2) and scaled != alg
        assert alg == AlgebraParams(Fraction(-1), Fraction(-7))
        assert hash(alg) == hash((Fraction(-1), Fraction(-7)))
        assert repr(alg) == "AlgebraParams(a=Fraction(-1, 1), b=Fraction(-7, 1))"

    def test_large_factors_return(self):
        # trial division alone would take of the order of 10^9 steps on each
        start = time.perf_counter()
        assert dict(qcore._factorize((2**61 - 1) * (2**31 - 1))) == {2**31 - 1: 1, 2**61 - 1: 1}
        assert is_division(-(2**31 - 1) * 2147483629, -1)
        # a 92-bit parameter exceeds the 64-bit limit and is not factored
        with pytest.raises(ParameterError, match="64 bits"):
            is_division(-(2**61 - 1) * (2**31 - 1), -1)
        H = qcore.hamilton_algebra()
        e = Fraction(-3, (2**31 - 1) * 2147483629)
        s = sqrt_pure(e, H)
        assert s is not None and s * s == H.scalar(e)
        assert time.perf_counter() - start < 10


class TestConjClass:
    def test_equality_semantics(self, H):
        ci = ConjClass.of(H.i())
        cj = ConjClass.of(H.j())
        assert ci == cj  # same (t, N) = (0, 1), both noncentral
        assert ConjClass.of(H.scalar(3)) != ConjClass.of(H.scalar(-3))
        assert ConjClass.of(H.scalar(3)) == ConjClass.of(H.scalar(3))
        assert ci != ConjClass.of(H.quat(1, 1))

    def test_central_vs_noncentral(self, H):
        assert ConjClass.of(H.scalar(1)) != ConjClass.of(H.quat(1, 2))

    def test_zero_class(self, H):
        assert ConjClass.of(H.zero()).is_zero()
        assert not ConjClass.of(H.i()).is_zero()

    def test_invariants_match_representative(self, H):
        rng = random.Random(83)
        for _ in range(20):
            q = random_quaternion(rng, H)
            c = ConjClass.of(q)
            assert c.trace == q.reduced_trace() and c.norm == q.norm()
            assert c.central == q.is_central()


class TestWitnessChecks:
    """Each returned witness is checked by an explicit raise, never an assert."""

    def test_conjugator_rejects_a_wrong_kernel_vector(self, H, monkeypatch):
        monkeypatch.setattr(ratlin, "kernel", lambda rows: [[Fraction(1)] + [Fraction(0)] * 3])
        with pytest.raises(CertificateError):
            conjugator(H.i(), H.j())

    def test_sylvester_rejects_a_wrong_solution(self, H, monkeypatch):
        monkeypatch.setattr(ratlin, "solve", lambda rows, rhs: [Fraction(1)] + [Fraction(0)] * 3)
        with pytest.raises(CertificateError):
            sylvester_solve(H.i(), H.i(), H.j())

    def test_translate_rejects_a_wrong_hyperplane(self, H, monkeypatch):
        for wrong in ([Fraction(0)] * 4, None):
            monkeypatch.setattr(ratlin, "solve", lambda rows, rhs: wrong)
            with pytest.raises(CertificateError):
                translate_conjugate(H.quat(0, 2), H.zero())

    def test_conjugator_check_survives_optimize(self):
        # python -O strips asserts; the witness check must not be one
        src = Path(__file__).resolve().parents[1] / "src"
        script = textwrap.dedent(
            """
            from fractions import Fraction

            from quatnil import qcore, ratlin
            from quatnil.errors import CertificateError

            if __debug__:
                raise SystemExit("not running under -O")
            ratlin.kernel = lambda rows: [[Fraction(1)] + [Fraction(0)] * 3]
            H = qcore.hamilton_algebra()
            try:
                qcore.conjugator(H.i(), H.j())
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

    def test_sqrt_pure_rejects_a_wrong_root(self, H, monkeypatch):
        # a wrong conic solution gives a wrong root, over (-1,-1) as elsewhere
        monkeypatch.setattr(qcore, "_conic", lambda *args: (1, 0, 1))
        for e, alg in ((-3, H), (-11, AlgebraParams(Fraction(-1), Fraction(-7)))):
            with pytest.raises(CertificateError):
                sqrt_pure(e, alg)

    def test_result_checks_survive_optimize(self):
        # python -O strips asserts; none of these checks of a returned value may be one
        src = Path(__file__).resolve().parents[1] / "src"
        script = textwrap.dedent(
            """
            from fractions import Fraction

            from quatnil import qcore, qlinalg, ratlin, spectral
            from quatnil.errors import CertificateError

            if __debug__:
                raise SystemExit("not running under -O")
            H = qcore.hamilton_algebra()
            cases = [
                (qcore, "_conic", lambda *args: (1, 0, 1), lambda: qcore.sqrt_pure(-3, H)),
                (
                    qcore,
                    "_conic",
                    lambda *args: (1, 0, 1),
                    lambda: qcore.sqrt_pure(-11, qcore.AlgebraParams(Fraction(-1), Fraction(-7))),
                ),
                (
                    ratlin,
                    "solve",
                    lambda rows, rhs: [Fraction(0)] * 4,
                    lambda: spectral.triangular_eigenvector(
                        qlinalg.QMatrix([[H.i()]]), qlinalg.QVector([H.one()]), H.quat(0, 2)
                    ),
                ),
                (
                    qlinalg,
                    "rank",
                    lambda m: 1,
                    lambda: qlinalg.rank1_factor(qlinalg.QMatrix.identity(2, H)),
                ),
            ]
            for module, name, fake, call in cases:
                original = getattr(module, name)
                setattr(module, name, fake)
                try:
                    call()
                except CertificateError:
                    print("raised")
                finally:
                    setattr(module, name, original)
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
        assert out.stdout.split() == ["raised"] * 4
