"""Tests of the benchmark itself: the tail rule, failure accounting, and that
the traced run leaves no wrapper behind for the untraced timings."""

from __future__ import annotations

import importlib
import math
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
from quatnil.errors import SearchBudgetExceeded  # noqa: E402
from quatnil.qcore import Quaternion, hamilton_algebra  # noqa: E402
from quatnil.qlinalg import QMatrix  # noqa: E402

classify_mod = importlib.import_module("quatnil.classify")
decompose_mod = importlib.import_module("quatnil.decompose")
# captured before any tracer exists
ORIGINAL_QMUL = Quaternion.__mul__
ORIGINAL_DECIDE = classify_mod.is_sum_of_two_nilpotents

import bench  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, assert_untraced  # noqa: E402


def _two_by_two() -> QMatrix:
    alg = hamilton_algebra()
    return QMatrix([[alg.zero(), alg.i()], [alg.i(), alg.zero()]])


# -- the tail percentile ------------------------------------------------------


def test_tail_percentile_leaves_ten_samples_beyond():
    centres = stats.mode_centres(10)
    assert stats.tail_percentile(40, centres) == 75
    assert stats.tail_percentile(39, centres) == 65
    assert stats.tail_percentile(10, centres) is None
    for n in range(11, 300):
        pct = stats.tail_percentile(n, centres)
        assert n - math.ceil(pct * n / 100) >= stats.TAIL_MIN_BEYOND
        higher = [c for c in centres if c > pct]
        assert all(n - math.ceil(c * n / 100) < stats.TAIL_MIN_BEYOND for c in higher)


def test_tail_percentile_sits_inside_a_mode():
    # 8 kinds x 3 cycles: the sorted samples form 8 blocks of 3
    pct = stats.tail_percentile(24, stats.mode_centres(8))
    assert pct == 56.25
    rank = math.ceil(pct * 24 / 100)
    assert (rank - 1) % 3 == 1  # the middle sample of its block, never a block edge


def test_tail_percentile_is_fixed_by_the_design_count():
    _, label = stats.tail(list(range(400)), 10, design_n=40)
    assert label == "p75 of n=400"
    assert stats.tail([3.0, 1.0, 2.0], 10, design_n=40) == (3.0, "max of n=3")


def test_tail_stays_inside_its_mode():
    # four kinds ten times each, a tenfold step between kinds: the tail is p62.5,
    # the centre of the third mode, and takes nothing from the fourth
    values = [1.0] * 10 + [10.0] * 10 + [100.0] * 10 + [1000.0] * 10
    assert stats.tail(values, 4, design_n=40) == (100.0, "p62.5 of n=40")
    # the block of one kind around the percentile
    assert stats.mode_mean([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 50, 3) == 3.5
    assert stats.mode_mean([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 100 * 5 / 6, 3) == 5.5


def test_harrell_davis_percentile():
    assert stats.percentile(list(range(1, 10)), 50) == pytest.approx(5)
    assert stats.percentile([7.0] * 5, 90) == pytest.approx(7)
    values = [float(v) for v in range(100)]
    assert stats.percentile(values, 25) < stats.percentile(values, 50) < stats.percentile(values, 75)
    assert stats.percentile(values, 75) == pytest.approx(74.25, abs=0.5)


# -- failure accounting --------------------------------------------------------


def test_failed_instance_keeps_its_time():
    outcomes = [
        stats.Outcome("a", 5.0, decide_ms=1.0, verify_ms=0.5),
        stats.Outcome("b", 7400.0, decide_ms=7400.0, error="SearchBudgetExceeded: budget"),
        stats.Outcome("c", 3.0, decide_ms=0.5),
    ]
    acc = stats.account(outcomes)
    assert (acc.attempted, acc.failed, acc.ok) == (3, 1, 2)
    assert acc.failed_frac == pytest.approx(1 / 3)
    assert 7400.0 in acc.instance_ms and 7400.0 in acc.decide_ms
    assert acc.verify_ms == [0.5]


def test_budget_failure_is_counted_not_dropped(monkeypatch):
    calls = []

    def exhausted(m, sqrt_budget=64):
        calls.append(m)
        time.sleep(0.02)
        raise SearchBudgetExceeded("no solution within budget")

    monkeypatch.setattr(classify_mod, "is_sum_of_two_nilpotents", exhausted)
    inst = workloads.Instance("n2", _two_by_two(), True)
    out = workloads.solve(inst, classify_first=False, reps=5)
    assert out.failed and out.answer is None
    assert out.ms >= 20 and out.decide_ms == out.ms
    assert len(calls) == 1  # a failed instance is never run again


def test_short_instance_is_timed_again_but_attempted_once(monkeypatch):
    calls = []

    def counted(m, *args, **kwargs):
        calls.append(m)
        return ORIGINAL_DECIDE(m, *args, **kwargs)

    monkeypatch.setattr(classify_mod, "is_sum_of_two_nilpotents", counted)
    inst = workloads.Instance("n2", _two_by_two(), True)
    out = workloads.solve(inst, classify_first=False, reps=5)
    assert out.answer and not out.failed
    assert out.ms < workloads.REPEAT_BELOW_MS
    assert len(calls) == 5  # the benchmark's own decision, once per run
    assert out.decide_ms <= out.ms and out.verify_ms <= out.ms
    assert stats.account([out]).attempted == 1


def test_upper_quartile_passes_over_one_stall():
    assert workloads.upper_quartile([5.0, 10.0, 6.0, 40.0, 9.0]) == 10.0
    assert workloads.upper_quartile([7.0]) == 7.0


def test_wrong_answer_fails_the_run():
    inst = workloads.Instance("n2", _two_by_two(), False)
    with pytest.raises(workloads.GateError):
        workloads.solve(inst, classify_first=False)


# -- tracing -------------------------------------------------------------------


def test_tracer_wraps_every_namespace_and_restores():
    m = _two_by_two()
    with Tracer() as t:
        assert Quaternion.__mul__ is not ORIGINAL_QMUL
        assert decompose_mod.is_sum_of_two_nilpotents is classify_mod.is_sum_of_two_nilpotents
        assert classify_mod.is_sum_of_two_nilpotents is not ORIGINAL_DECIDE
        decompose_mod.decompose_two_nilpotents(m)
    assert Quaternion.__mul__ is ORIGINAL_QMUL
    assert classify_mod.is_sum_of_two_nilpotents is ORIGINAL_DECIDE
    assert decompose_mod.is_sum_of_two_nilpotents is ORIGINAL_DECIDE
    assert_untraced()
    assert t.calls["qcore.qmul"] > 0
    assert t.calls["decompose.path.2x2"] == 1
    # decompose_two_nilpotents decides once itself, through the name it imported
    assert t.calls["classify.decide"] == 1


def test_self_time_excludes_child_spans():
    with Tracer() as t:
        decompose_mod.decompose_two_nilpotents(_two_by_two())
    spans = t.spans
    child_ns = [0] * len(spans)
    for _name, start, end, parent, _inst in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals = {}
    for (name, start, end, _parent, _inst), children in zip(spans, child_ns):
        totals[name] = totals.get(name, 0) + (end - start) - children
    assert totals == dict(t.self_ns)


def test_tracer_restores_after_an_error():
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    assert Quaternion.__mul__ is ORIGINAL_QMUL
    assert_untraced()


def test_untraced_timing_refuses_a_leftover_wrapper():
    tracer = Tracer().__enter__()
    try:
        with pytest.raises(RuntimeError):
            bench.run_cycle(workloads.WORKLOADS["roundtrip-hamilton"], [])
    finally:
        tracer.restore()
    assert Quaternion.__mul__ is ORIGINAL_QMUL
