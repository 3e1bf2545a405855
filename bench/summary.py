"""Summary statistics and the two-set comparison rule.

Standard library only, so the parent process and the tests need neither
numpy nor the package under test.
"""

from __future__ import annotations

import math
import statistics

# percentiles a tail is read at; the highest one that leaves at least
# TAIL_BEYOND samples above it is reported
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10
# fewer pairs of runs than this cannot show a gain or a loss
MIN_PAIRS = 10


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float]:
    """First and third quartile as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        return float(values[0]), float(values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def spread(values) -> float:
    """Interquartile range as a share of the median (0 when all values agree)."""
    q1, q3 = quartiles(values)
    if q3 == q1:
        return 0.0
    mid = median(values)
    return (q3 - q1) / abs(mid) if mid else math.inf


def tail(values):
    """``(percentile, value)`` of the highest percentile with ten samples beyond it.

    The value is the nearest-rank percentile of the sorted samples.  Returns
    None when there are too few samples for even the median to qualify.
    """
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for pct in TAIL_PERCENTILES:
        rank = max(1, math.ceil(round(pct * n / 100.0, 9)))
        if n - rank >= TAIL_BEYOND:
            best = (pct, float(ordered[rank - 1]))
    return best


def summarize(values, unit: str) -> dict:
    """Median, sample count and tail of one metric's samples."""
    pct = tail(values)
    return {
        "value": median(values),
        "unit": unit,
        "samples": len(values),
        "tail": None if pct is None else {"percentile": pct[0], "value": pct[1]},
    }


def verdict(old, new, better: str, bound: float | None) -> str:
    """Classify NEW against OLD, one value per run, runs paired in order.

    ``improved``: NEW wins at least 9 of 10 pairs (ties count for neither)
    and the medians differ by more than OLD's interquartile range.
    ``regressed``: NEW's median is worse than OLD's by more than `bound`, a
    share of OLD's median; for a metric without a bound, the mirror image
    of ``improved``.  ``unresolved``: neither, but either side's spread is
    wider than the bound and not every NEW run beats every OLD run.
    ``unchanged`` otherwise.  With fewer than `MIN_PAIRS` pairs the verdict
    is ``unchanged`` when both medians are equal and ``unresolved`` if not.
    """
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be higher or lower, not {better!r}")
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(old, new))
    if not pairs:
        raise ValueError("need at least one run on each side")
    if len(pairs) < MIN_PAIRS:
        return "unchanged" if median(new) == median(old) else "unresolved"
    wins = sum(sign * (n - o) > 0 for o, n in pairs)
    losses = sum(sign * (n - o) < 0 for o, n in pairs)
    gap = sign * (median(new) - median(old))
    q1, q3 = quartiles(old)
    iqr = q3 - q1
    if wins >= 0.9 * len(pairs) and gap > iqr:
        return "improved"
    if bound is None:
        if losses >= 0.9 * len(pairs) and -gap > iqr:
            return "regressed"
        return "unchanged"
    if -gap > bound * abs(median(old)):
        return "regressed"
    all_better = min(sign * n for n in new) > max(sign * o for o in old)
    if (spread(old) > bound or spread(new) > bound) and not all_better:
        return "unresolved"
    return "unchanged"
