"""The benchmark's own statistics: quartiles, tails, failure counts,
metric-name syntax.  Self-tested by ``perfbench/test_stats.py``."""

from __future__ import annotations

import math
import re
import statistics
from dataclasses import dataclass, field

#: A metric name: starts with a letter or digit, at most 64 of
#: letters, digits, ``_``, ``.`` and ``-``.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
#: A unit: 1 to 16 of letters, digits, ``_``, ``/``, ``%``, ``.``, ``-``.
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND_TAIL = 10


def valid_name(name: str) -> bool:
    return bool(NAME_RE.fullmatch(name))


def valid_unit(unit: str) -> bool:
    return bool(UNIT_RE.fullmatch(unit))


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``
    gives them (one value: all three equal it)."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf


def tail_percentile(samples, pct: float) -> float | None:
    """Nearest-rank ``pct`` percentile, or None unless at least
    :data:`MIN_BEYOND_TAIL` samples lie beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return None
    rank = max(1, math.ceil(pct / 100.0 * n))
    if n - rank < MIN_BEYOND_TAIL:
        return None
    return ordered[rank - 1]


@dataclass
class OpCount:
    """Operations attempted and failed, with the reasons of failures."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def ok(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.reasons.append(reason)
