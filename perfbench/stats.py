"""Summaries of repeated measurements and the verdict rules of a comparison."""

from __future__ import annotations

import statistics


def summary(values):
    """Median, first and third quartile and sample count of ``values``."""
    values = [float(v) for v in values]
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def spread(values):
    """Quartile distance as a share of the median (0 for a zero median)."""
    s = summary(values)
    return (s["q3"] - s["q1"]) / abs(s["median"]) if s["median"] else 0.0


def verdict(base, change, better, bound=None):
    """Verdict on one metric from the runs of the base and of the change.

    Runs are paired in order. ``better`` is ``"lower"`` or ``"higher"``.

    * better: the change wins at least nine tenths of the pairs, ties
      counting for neither, and the medians differ by more than the base's
      quartile distance;
    * worse: the change's median is worse than the base's by more than
      ``bound`` (a share of the base median), or, for a metric without a
      bound, the mirror image of the better rule holds;
    * unresolved: not better, the base's own spread is wider than the bound
      and not every run of the change beats every run of the base; for a
      metric without a bound, any other difference in medians;
    * unchanged: otherwise.
    """
    sign = 1.0 if better == "higher" else -1.0
    b, c = summary(base), summary(change)
    pairs = list(zip(base, change))
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    losses = sum(sign * (y - x) < 0 for x, y in pairs)
    gain = sign * (c["median"] - b["median"])
    base_iqr = b["q3"] - b["q1"]
    if pairs and wins >= 0.9 * len(pairs) and gain > base_iqr:
        return "better"
    if better == "higher":
        all_beat = min(change) > max(base)
    else:
        all_beat = max(change) < min(base)
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and -gain > base_iqr:
            return "worse"
        return "unchanged" if gain == 0 else "unresolved"
    if -gain > bound * abs(b["median"]):
        return "worse"
    if spread(base) > bound and not all_beat:
        return "unresolved"
    return "unchanged"
