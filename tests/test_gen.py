"""Generated instances carry their labels: each kind classifies as requested."""

from fractions import Fraction

import pytest

from quatnil.classify import Verdict, classify
from quatnil.gen import InstanceSpec, generate
from quatnil.qcore import AlgebraParams, ConjClass

ALGEBRAS = [(-1, -1), (-1, -7), (2, -5), (-11, -13)]


@pytest.mark.parametrize("ab", ALGEBRAS)
def test_kinds_classify_as_labelled(ab):
    alg = AlgebraParams(Fraction(ab[0]), Fraction(ab[1]))
    rep = alg.quat(0, 1, 1, 0)
    for seed in range(3):
        for kind, n, verdict in (
            ("type-I", 2, Verdict.TYPE_I),
            ("type-II", 3, Verdict.TYPE_II),
            ("type-III", 3, Verdict.TYPE_III),
            ("generic-trace-zero", 3, Verdict.GENERIC),
            ("generic-trace-zero", 4, Verdict.GENERIC),
        ):
            cls = classify(generate(InstanceSpec(alg, n, kind, seed=seed)))
            assert cls.verdict == verdict, (kind, n, seed)
            if kind == "type-II":
                # the image eigenvalue defaults to -n*lam: zero supertrace
                assert cls.type_ii.supertrace.is_zero()
        # a prescribed image eigenvalue fixes the supertrace class n*lam + rep
        for n in (2, 4):
            m = generate(InstanceSpec(alg, n, "type-II", seed=seed, lam=Fraction(1), rep=rep))
            cls = classify(m)
            assert cls.verdict == Verdict.TYPE_II
            assert cls.type_ii.supertrace == ConjClass.of(alg.scalar(n) + rep)
