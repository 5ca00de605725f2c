"""Kernel replays: quaternion multiply, matrix multiply and row reduction on
operands of a fixed bit-height, drawn from a fixed seed.

The operands never depend on the workload seed, so a change in these times
is a change in the kernel. Each result carries the operands' actual bit
height (largest numerator-plus-denominator bit length of any coordinate).
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

from quatnil.qcore import Quaternion, hamilton_algebra
from quatnil.qlinalg import QMatrix, row_reduce

REPLAY_SEED = 20250827
REPEATS = 3


def _rational(rng: random.Random, bits: int) -> Fraction:
    half = bits // 2
    num = rng.getrandbits(half) | (1 << (half - 1))
    den = rng.getrandbits(half) | (1 << (half - 1)) | 1
    return Fraction(num if rng.random() < 0.5 else -num, den)


def _quaternion(rng, alg, bits) -> Quaternion:
    return alg.quat(*(_rational(rng, bits) for _ in range(4)))


def _height(quats) -> int:
    return max(c.numerator.bit_length() + c.denominator.bit_length() for q in quats for c in q.coords())


def _matrix(rng, alg, n, bits) -> QMatrix:
    return QMatrix([[_quaternion(rng, alg, bits) for _ in range(n)] for _ in range(n)])


def _median_time(fn, repeats=REPEATS) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - start)
    return statistics.median(times)


def replay_qmul(bits: int, pairs: int = 200) -> tuple[float, int]:
    """(ns per product, operand bit height)."""
    rng = random.Random(REPLAY_SEED + bits)
    alg = hamilton_algebra()
    ops = [(_quaternion(rng, alg, bits), _quaternion(rng, alg, bits)) for _ in range(pairs)]

    def run():
        for p, q in ops:
            p * q

    return _median_time(run) / pairs, _height(q for pair in ops for q in pair)


def replay_matmul(n: int, bits: int) -> tuple[float, int]:
    """(ms per n x n product, operand bit height)."""
    rng = random.Random(REPLAY_SEED + 7 * bits + n)
    alg = hamilton_algebra()
    a, b = _matrix(rng, alg, n, bits), _matrix(rng, alg, n, bits)
    height = _height(e for m in (a, b) for row in m.entries for e in row)
    return _median_time(lambda: a * b) / 1e6, height


def replay_row_reduce(n: int, bits: int) -> tuple[float, int]:
    """(ms per reduction of an n x n matrix, operand bit height)."""
    rng = random.Random(REPLAY_SEED + 11 * bits + n)
    alg = hamilton_algebra()
    a = _matrix(rng, alg, n, bits)
    height = _height(e for row in a.entries for e in row)
    return _median_time(lambda: row_reduce(a)) / 1e6, height


def replays() -> dict[str, tuple[float, int]]:
    """Every replay metric name -> (value, operand bit height)."""
    return {
        "qcore.qmul.ns_b64": replay_qmul(64),
        "qcore.qmul.ns_b1024": replay_qmul(1024),
        "qlinalg.matmul.ms_n6_b64": replay_matmul(6, 64),
        "qlinalg.matmul.ms_n6_b1024": replay_matmul(6, 1024),
        "qlinalg.row_reduce.ms_n6_b64": replay_row_reduce(6, 64),
    }
