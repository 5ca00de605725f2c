"""The three workloads: instance generation, one closed-loop instance, and the
checks on every output.

Library calls go through module attributes (`_classify.is_sum_of_two_nilpotents`)
so that a traced run sees the wrappers installed in those modules.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

from quatnil import cli, gen, jsonio
from quatnil.errors import SearchBudgetExceeded
from quatnil.gen import InstanceSpec
from quatnil.qcore import AlgebraParams, hamilton_algebra
from quatnil.qlinalg import QMatrix, conjugate_by, outer

from stats import Outcome

_classify = importlib.import_module("quatnil.classify")
_decompose = importlib.import_module("quatnil.decompose")
Reason = _classify.Reason

HEIGHT = 2  # entry height of every generated instance
REPS = 5  # timings of a short call in an untraced run; see `upper_quartile`
REPEAT_BELOW_MS = 200  # a call at least this slow is timed once


class GateError(Exception):
    """A wrong answer, an invalid certificate or a wrong check verdict: the run fails."""


@dataclass
class Instance:
    label: str
    matrix: QMatrix
    expect: Optional[bool]  # the generator's label; None where the generator gives none
    reason: Optional[object] = None  # the refusal Reason a "no" label requires
    files: Optional[tuple[str, str]] = None  # matrix and decomposition JSON (check-large)


def _ms(start: float) -> float:
    return (time.perf_counter() - start) * 1e3


def _bits(m: QMatrix) -> int:
    return max(
        c.numerator.bit_length() + c.denominator.bit_length()
        for row in m.entries
        for q in row
        for c in q.coords()
    )


def cert_bits(dec) -> dict:
    return {"P": _bits(dec.witness.P), "Pinv": _bits(dec.witness.Pinv), "N1": _bits(dec.n1), "N2": _bits(dec.n2)}


def _canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _write_json(path: Path, doc) -> None:
    # the layout `quatnil decompose -o` writes
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# output checks (outside the timed region)
# ---------------------------------------------------------------------------


def check_refusal(inst: Instance, decision) -> None:
    """The refusal matches the label and its evidence holds exactly."""
    m = inst.matrix
    n, alg = m.rows, m.algebra
    if inst.reason is not None and decision.reason != inst.reason:
        raise GateError(f"{inst.label}: refused with {decision.reason}, expected {inst.reason}")
    if decision.reason == Reason.TYPE_I:
        ok = m == QMatrix.scalar(n, decision.type_i_scalar, alg)
    elif decision.reason == Reason.TYPE_II_SUPERTRACE_NONZERO:
        data = decision.type_ii
        ok = (
            m == QMatrix.scalar(n, data.lam, alg) + outer(data.column, data.row)
            and not data.supertrace.is_zero()
        )
    elif decision.reason == Reason.TYPE_III:
        w, q = decision.type_iii.witness, decision.type_iii.eigenvalue
        ok = w.P * w.Pinv == QMatrix.identity(n, alg) and conjugate_by(m, w) == QMatrix.diagonal([q] * n)
    else:
        ok = decision.reason in (Reason.N2_SPECTRAL_OBSTRUCTION, Reason.TRACE_NONZERO)
    if not ok:
        raise GateError(f"{inst.label}: refusal evidence for {decision.reason} does not hold")


def run_check(matrix_path, decomposition_path) -> tuple[int, str]:
    """`quatnil check` in-process: (exit code, printed verdict)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["check", str(matrix_path), str(decomposition_path)])
    return code, out.getvalue().strip()


def check_pair(matrix: QMatrix, cert_doc: dict, outdir: Path) -> None:
    """The certificate passes `check`; a tampered copy fails it.

    The tampered copy moves 1 from N2[0][0] to N1[0][0]: the sum still equals
    M, so only the nilpotency checks can catch it.
    """
    m_path, ok_path, bad_path = outdir / "pair-matrix.json", outdir / "pair-ok.json", outdir / "pair-bad.json"
    _write_json(m_path, jsonio.matrix_to_json(matrix))
    _write_json(ok_path, cert_doc)
    bad = json.loads(json.dumps(cert_doc))
    for key, delta in (("N1", 1), ("N2", -1)):
        entry = bad[key]["entries"][0][0]
        entry[0] = str(Fraction(entry[0]) + delta)
    _write_json(bad_path, bad)
    if run_check(m_path, ok_path) != (0, "OK"):
        raise GateError("check did not print OK with exit code 0 on a valid certificate")
    if run_check(m_path, bad_path) != (1, "INVALID"):
        raise GateError("check did not print INVALID with exit code 1 on a tampered certificate")


# ---------------------------------------------------------------------------
# decide -> decompose -> verify -> JSON
# ---------------------------------------------------------------------------


def _decide(m: QMatrix, classify_first: bool):
    if classify_first:
        _classify.classify(m)
    return _classify.is_sum_of_two_nilpotents(m)


def _attempt(m: QMatrix, classify_first: bool, times: dict):
    """Decide, and on a yes decompose, verify and serialise.

    Returns (decision, decomposition, verified, JSON document). `times` gets
    the decide and verify times as soon as each is known, so an attempt that
    raises keeps them.
    """
    t = time.perf_counter()
    decision = _decide(m, classify_first)
    times["decide"] = _ms(t)
    dec = good = doc = None
    if decision.answer:
        dec = _decompose.decompose_two_nilpotents(m)
        t = time.perf_counter()
        good = _decompose.verify_decomposition(m, dec.n1, dec.n2)
        times["verify"] = _ms(t)
        doc = jsonio.decomposition_to_json(dec)
    return decision, dec, good, doc


def _timed(fn) -> float:
    t = time.perf_counter()
    fn()
    return _ms(t)


def upper_quartile(times: list[float]) -> float:
    """The time three quarters of the way up: with 5 timings, the second slowest."""
    return sorted(times)[len(times) * 3 // 4]


def timed_again(first_ms: float, reps: int, fn) -> float:
    """`upper_quartile` of `first_ms` and `reps` - 1 more timings of `fn()`.

    Only a call faster than REPEAT_BELOW_MS is timed again (see `_retime`).
    """
    if first_ms >= REPEAT_BELOW_MS:
        return first_ms
    return upper_quartile([first_ms] + [_timed(fn) for _ in range(reps - 1)])


def _retime(out: Outcome, m: QMatrix, classify_first: bool, reps: int) -> None:
    """Time a finished instance `reps` - 1 more times; keep each time's upper quartile.

    The machine runs at two speeds 1.7x apart. It spends most of its time at
    the slow one, with bursts at the fast one whose share of a run varies
    from a few per cent to over half. One run of a short call, or the median
    of five, lands on either speed depending on that share. The second
    slowest of five lands on the slow speed unless four of the five fall in
    a burst, and unlike the slowest it passes over one stray stall. An
    instance slower than REPEAT_BELOW_MS spans many bursts and runs once,
    but its decision, usually a few ms, is timed again on its own. The extra
    runs come after the instance and are not outcomes of their own.
    """
    if out.ms >= REPEAT_BELOW_MS:
        out.decide_ms = timed_again(out.decide_ms, reps, lambda: _decide(m, classify_first))
        return
    runs = [(out.ms, out.decide_ms, out.verify_ms)]
    for _ in range(reps - 1):
        times: dict = {}
        ms = _timed(lambda: _attempt(m, classify_first, times))
        runs.append((ms, times["decide"], times.get("verify")))
    out.ms = upper_quartile([r[0] for r in runs])
    out.decide_ms = upper_quartile([r[1] for r in runs])
    if out.verify_ms is not None:
        out.verify_ms = upper_quartile([r[2] for r in runs])


def solve(inst: Instance, classify_first: bool, reps: int = 1) -> Outcome:
    """One closed-loop instance: decide, and on a yes decompose, verify and serialise.

    With `reps` > 1 a successful instance's times come from several runs
    (see `_retime`).
    """
    m = inst.matrix
    out = Outcome(inst.label, 0.0)
    times: dict = {}
    start = time.perf_counter()
    try:
        decision, dec, good, doc = _attempt(m, classify_first, times)
    except SearchBudgetExceeded as exc:
        out.ms = _ms(start)
        out.decide_ms = times.get("decide", out.ms)
        out.error = f"SearchBudgetExceeded: {exc}"
        out.cert_text = "SearchBudgetExceeded"
        return out
    out.ms = _ms(start)
    out.decide_ms, out.verify_ms = times["decide"], times.get("verify")
    if reps > 1:
        _retime(out, m, classify_first, reps)
    out.answer = decision.answer
    if inst.expect is not None and decision.answer != inst.expect:
        raise GateError(f"{inst.label}: answered {decision.answer}, label says {inst.expect}")
    if decision.answer:
        if not good:
            raise GateError(f"{inst.label}: certificate fails verify_decomposition")
        out.cert_bits = cert_bits(dec)
        out.cert_text = _canonical(doc)
    else:
        check_refusal(inst, decision)
        out.cert_text = _canonical(jsonio.decision_to_json(decision))
    return out


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------


class Workload:
    name = ""
    why = ""
    cycles = 1  # distinct cycles of instances made in setup; the loop wraps around
    kinds = 1  # instances per cycle, one per kind, so the sorted samples form `kinds` modes
    min_cycles = 1  # the loop runs at least this many cycles; it fixes the tail percentile

    def generate(self, seed: int) -> list[list[Instance]]:
        raise NotImplementedError

    def build(self, cycles: list[list[Instance]], outdir: Path) -> list[Outcome]:
        """Extra set-up work; returns outcomes that carry verify samples."""
        return []

    def run(self, inst: Instance, reps: int = 1) -> Outcome:
        raise NotImplementedError


def _lam(c: int, n: int) -> Fraction:
    """The scalar part of a type-II instance, taken in turn rather than at random.

    Its value changes the reduction's cost several-fold, so a run of a few
    cycles sees each value about equally often whatever the seed.
    """
    return Fraction((c + n) % (2 * HEIGHT + 1) - HEIGHT)


def _type_ii(rng, alg, n, lam):
    return gen.type_ii_matrix(rng, alg, n, HEIGHT, lam, alg.scalar(-n * lam))


class RoundtripHamilton(Workload):
    name = "roundtrip-hamilton"
    why = "the main user path decide, decompose, verify, JSON at n=2..6 over (-1,-1); all four reduction paths"
    cycles = 8
    kinds = 10
    min_cycles = 4  # 40 samples: the tail is p75, the centre of the 8th of 10 modes

    def generate(self, seed):
        alg = hamilton_algebra()
        cycles = []
        for c in range(self.cycles):
            rng = random.Random(seed * 1009 + c)
            cycle = []
            for n in (2, 3, 4, 5, 6):
                if n == 2:
                    m = gen.two_square_zero_sum(rng, alg, 2, HEIGHT)
                else:
                    m = gen.generic_trace_zero_matrix(rng, alg, n, HEIGHT)
                cycle.append(Instance(f"n{n}-generic", m, True))
                cycle.append(Instance(f"n{n}-type-II", _type_ii(rng, alg, n, _lam(c, n)), True))
            cycles.append(cycle)
        return cycles

    def run(self, inst, reps=1):
        return solve(inst, classify_first=False, reps=reps)


MIXED_ALGEBRAS = ((-1, -7), (2, -5), (-11, -13))


class MixedAlgebras(Workload):
    name = "mixed-algebras"
    why = "labelled yes/no cycle over three non-Hamilton algebras: classify, spectral, sqrt_pure search, refusals"
    # One distinct cycle per algebra. A run goes round them more than once,
    # so every run attempts the same 2x2 instances and its failure share is
    # the seed's, not the luck of which extra cycles it reached.
    cycles = len(MIXED_ALGEBRAS)
    kinds = 8
    min_cycles = 4  # 32 samples: the tail is p68.75, below the failure mode (top 12.5%)

    def generate(self, seed):
        cycles = []
        for c in range(self.cycles):
            a, b = MIXED_ALGEBRAS[c % len(MIXED_ALGEBRAS)]
            alg = AlgebraParams(Fraction(a), Fraction(b))
            rng = random.Random(seed * 1013 + c)

            def spec(n, kind, **kw):
                return gen.generate(InstanceSpec(alg, n, kind, seed=rng.randrange(2**31), height=HEIGHT, **kw))

            lam = _lam(c, 4)
            cycles.append([
                Instance("n2-two-square-zero", gen.two_square_zero_sum(rng, alg, 2, HEIGHT), True),
                Instance("n2-generic", gen.generic_trace_zero_matrix(rng, alg, 2, HEIGHT), None),
                Instance("n3-type-III", spec(3, "type-III"), False, Reason.TYPE_III),
                Instance("n3-type-I", spec(3, "type-I"), False, Reason.TYPE_I),
                Instance(
                    "n4-type-II-nonzero",
                    spec(4, "type-II", lam=lam, rep=alg.scalar(-4 * lam + rng.choice((-2, -1, 1, 2)))),
                    False,
                    Reason.TYPE_II_SUPERTRACE_NONZERO,
                ),
                Instance("n4-type-II-zero", spec(4, "type-II", lam=_lam(c, 0)), True),
                Instance("n3-generic", spec(3, "generic-trace-zero"), True),
                Instance("n5-generic", spec(5, "generic-trace-zero"), True),
            ])
        return cycles

    def run(self, inst, reps=1):
        # what `quatnil classify` runs, then decompose and verify on a yes
        return solve(inst, classify_first=True, reps=reps)


class CheckLarge(Workload):
    name = "check-large"
    why = "the independent checker: quatnil check parses and verifies large certificates at n=6..8"
    cycles = 1
    kinds = 6
    min_cycles = 4  # 24 samples: the tail is p58.3

    def generate(self, seed):
        alg = hamilton_algebra()
        rng = random.Random(seed * 1019)
        cycle = []
        for n in (6, 7, 8):
            cycle.append(Instance(f"n{n}-generic", gen.generic_trace_zero_matrix(rng, alg, n, HEIGHT), True))
            # λ is fixed per size, so that every seed checks the same mix of reductions
            cycle.append(Instance(f"n{n}-type-II", _type_ii(rng, alg, n, _lam(0, n)), True))
        return [cycle]

    def build(self, cycles, outdir):
        """Decide, decompose and verify each matrix, then write both JSON files."""
        built = []
        for inst in cycles[0]:
            m = inst.matrix
            if not _classify.is_sum_of_two_nilpotents(m).answer:
                raise GateError(f"{inst.label}: refused, label says yes")
            dec = _decompose.decompose_two_nilpotents(m)
            t = time.perf_counter()
            good = _decompose.verify_decomposition(m, dec.n1, dec.n2)
            verify_ms = _ms(t)
            if not good:
                raise GateError(f"{inst.label}: certificate fails verify_decomposition")
            doc = jsonio.decomposition_to_json(dec)
            m_path, d_path = outdir / f"{inst.label}-matrix.json", outdir / f"{inst.label}-decomposition.json"
            _write_json(m_path, jsonio.matrix_to_json(m))
            _write_json(d_path, doc)
            inst.files = (str(m_path), str(d_path))
            # The timed loop makes no verify call of its own, so verify_ms
            # comes from these set-up calls.
            out = Outcome(inst.label, 0.0, verify_ms=verify_ms, answer=True)
            out.cert_bits = cert_bits(dec)
            out.cert_text = _canonical(doc)
            built.append(out)
        return built

    def run(self, inst, reps=1):
        start = time.perf_counter()
        code, verdict = run_check(*inst.files)
        ms = _ms(start)
        if (code, verdict) != (0, "OK"):
            raise GateError(f"{inst.label}: check gave exit {code} and {verdict!r}, expected 0 and 'OK'")
        ms = timed_again(ms, reps, lambda: run_check(*inst.files))
        # The checker's decision is its verdict on the certificate, so the
        # check call is also the decide_ms sample.
        return Outcome(inst.label, ms, decide_ms=ms, answer=True)


WORKLOADS = {w.name: w for w in (RoundtripHamilton(), MixedAlgebras(), CheckLarge())}
