"""Percentiles, the tail rule and failure accounting for one workload run."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

#: A tail percentile needs at least this many samples above it.
TAIL_MIN_BEYOND = 10


def _betacf(x: float, a: float, b: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 500):
        for aa in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def beta_cdf(x: float, a: float, b: float) -> float:
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0:
        return 0.0
    if x >= 1:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1) / (a + b + 2):
        return front * _betacf(x, a, b) / a
    return 1.0 - front * _betacf(1 - x, b, a) / b


def percentile(values: list[float], pct: float) -> float:
    """Harrell-Davis estimate of a percentile: a Beta-weighted mean of all order statistics.

    Workload samples come from a few size modes of equal weight, so the
    sample median often falls in the gap between two modes and jumps with
    the seed; the Harrell-Davis estimate moves smoothly instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    p = pct / 100
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [beta_cdf(i / n, a, b) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * v for i, v in enumerate(ordered))


def mode_mean(values: list[float], pct: float, kinds: int) -> float:
    """Mean of the block of order statistics that one kind fills, around `pct`.

    The samples of `kinds` equally frequent kinds sort into `kinds` blocks of
    equal size. At the centre of a mode this is the mean of that mode's
    block, so no value from a neighbouring mode, which may be ten times
    slower, enters the estimate.
    """
    ordered = sorted(values)
    size = max(1, round(len(ordered) / kinds))
    lo = min(max(0, round(len(ordered) * pct / 100 - size / 2)), len(ordered) - size)
    return sum(ordered[lo : lo + size]) / size


def mode_centres(kinds: int) -> list[float]:
    """Percentiles at the centre of each of `kinds` equally frequent size modes.

    A workload cycles through `kinds` instance kinds in equal counts, so the
    sorted samples fall into `kinds` blocks of equal size; the centre of a
    block never sits on the boundary between two modes.
    """
    return [100 * (2 * i + 1) / (2 * kinds) for i in range(kinds)]


def tail_percentile(n: int, candidates: list[float]) -> Optional[float]:
    """Highest candidate percentile with at least TAIL_MIN_BEYOND samples beyond it."""
    best = None
    for pct in candidates:
        beyond = n - max(1, math.ceil(pct * n / 100 - 1e-9))
        if beyond >= TAIL_MIN_BEYOND and (best is None or pct > best):
            best = pct
    return best


def tail(values: list[float], kinds: int, design_n: int) -> tuple[float, str]:
    """(value, label) of the tail.

    The percentile is fixed by the workload's guaranteed sample count
    `design_n`, not by how many samples this run happened to get, so runs
    of a faster or slower program report the same percentile. It is the
    centre of one of the `kinds` modes, and its value is that mode's mean
    (see `mode_mean`). With too few samples for any percentile, the tail is
    the maximum.
    """
    pct = tail_percentile(min(len(values), design_n), mode_centres(kinds))
    if pct is None:
        return max(values), f"max of n={len(values)}"
    return mode_mean(values, pct, kinds), f"p{pct:.4g} of n={len(values)}"


@dataclass
class Outcome:
    """One attempted instance. A failed instance keeps the time it took to fail."""

    label: str
    ms: float
    decide_ms: Optional[float] = None
    verify_ms: Optional[float] = None
    error: Optional[str] = None
    answer: Optional[bool] = None
    cert_text: Optional[str] = None
    cert_bits: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass
class Accounting:
    attempted: int
    failed: int
    instance_ms: list[float]
    decide_ms: list[float]
    verify_ms: list[float]

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted

    @property
    def ok(self) -> int:
        return self.attempted - self.failed


def account(outcomes: list[Outcome]) -> Accounting:
    """Counts and samples; every attempted instance is counted, failed ones too."""
    return Accounting(
        attempted=len(outcomes),
        failed=sum(o.failed for o in outcomes),
        instance_ms=[o.ms for o in outcomes],
        decide_ms=[o.decide_ms for o in outcomes if o.decide_ms is not None],
        verify_ms=[o.verify_ms for o in outcomes if o.verify_ms is not None],
    )


def median(values: list[float]) -> float:
    return percentile(values, 50)
