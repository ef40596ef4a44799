"""Fleet risk outputs: per-cluster loading thresholds, impact ranking, and
maximum service counts by temperature limit and by life-loss budget.

Cluster 24-hour profiles (kVA per service) are scaled to a transformer
load, simulated with the thermal model, and screened against the
temperature limits or converted to aging figures. Both run in batches,
each one :func:`txrisk.thermal.simulate_day` call over a whole
``(…, 24)`` array: each step of the threshold search bisects every
cluster at once, and one :class:`ServiceGrid` holds every cluster's
simulated day at every service count for both service-count studies and
their report tables.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import aging, thermal
from .clustering import ClusterModel
from .errors import (
    ConfigError,
    NoFeasibleScaleError,
    NonMonotoneError,
    ParseError,
    ZeroPeakProfileError,
)
from .ingest import write_table

SCALE_MAX_DEFAULT = 16.0  # p.u. peak, bisection upper bound
SCALE_TOL_DEFAULT = 0.005  # p.u.
# Slack for rounding when checking that grid values never fall with N.
MONOTONE_SLACK = 1e-9

MONTH_LABELS = ("Jan", "Feb", "Mar", "Apr", "May", "June", "July", "Aug",
                "Sep", "Oct", "Nov", "Dec")


@dataclass(frozen=True)
class ThresholdResult:
    """Largest tolerable loading for one cluster's day shape."""

    cluster_id: int
    max_avg_load_pu: float
    max_peak_load_pu: float
    binding_limit: str  # "top_oil" | "hotspot"
    impact_rank: int | None = None


@dataclass(frozen=True)
class ServiceGrid:
    """Every cluster's simulated day at every studied service count N.

    The arrays are indexed (cluster, N) in cluster-id order and that of
    ``n_values``: the day's maximum top-oil and hotspot temperatures (°C)
    and its life loss in days per day (the daily equivalent aging factor).
    ``member_counts`` holds each cluster's member days.
    """

    n_values: tuple[int, ...]
    member_counts: np.ndarray
    max_top_oil: np.ndarray
    max_hotspot: np.ndarray
    daily_loss: np.ndarray


class LifeLoss(NamedTuple):
    """Fleet life loss at each studied service count over the evaluation
    window, as arrays in the order of the grid's ``n_values``."""

    total_days: np.ndarray
    annual_days: np.ndarray
    economic_loss: np.ndarray  # currency per year


def rank_impact(results) -> list[ThresholdResult]:
    """Fill impact ranks: 1 = lowest tolerable peak loading (most
    restrictive), ties broken by cluster id. Returned in cluster-id order."""
    by_peak = sorted(results, key=lambda r: (r.max_peak_load_pu, r.cluster_id))
    ranked = [replace(r, impact_rank=i + 1) for i, r in enumerate(by_peak)]
    return sorted(ranked, key=lambda r: r.cluster_id)


def cluster_thresholds(spec: thermal.TransformerSpec, model: ClusterModel,
                       *, scale_max: float = SCALE_MAX_DEFAULT,
                       tolerance: float = SCALE_TOL_DEFAULT) -> list[ThresholdResult]:
    """Largest peak loading (p.u.) of each cluster's day shape whose
    simulated day stays within limits, with impact ranks.

    Each profile is reduced to its peak-normalized shape, so the bisection
    scale *is* the 24-hour peak per-unit load; the 24-hour average at the
    binding scale is reported alongside. Bisection is valid because the
    steady-state temperatures are monotone in the load scale. Every
    cluster is bisected at once, yet gets exactly the halvings, and so the
    result, of a bisection of its own: it stops halving once its interval
    is within ``tolerance``. Each returned scale is certified: it passes
    the limits while ``scale + tolerance`` violates at least one of them.

    Raises (for the first failing cluster in model order):
        ConfigError: the model has no profiles, ``scale_max`` still passes
            the limits or is above ``thermal.MAX_LOAD_PU``.
        ZeroPeakProfileError: a profile has no load at any hour.
        NoFeasibleScaleError: ambient alone violates a limit (scale 0 fails).
    """
    _require_profiles(model)
    if not scale_max <= thermal.MAX_LOAD_PU:
        raise ConfigError(f"scale_max={scale_max:g} p.u. is above the "
                          f"{thermal.MAX_LOAD_PU:g} p.u. load ceiling")
    kva, ambient = model.profiles
    peak = kva.max(axis=1)
    shape = kva / np.where(peak > 0, peak, 1.0)[:, None]

    def within(scale):
        trace = thermal.simulate_day(spec, ambient, scale[:, None] * shape)
        top = trace.top_oil.max(axis=-1)
        return ((top <= spec.top_oil_limit)
                & (trace.hotspot.max(axis=-1) <= spec.hotspot_limit)), top

    lo = np.zeros(model.k)
    hi = np.full(model.k, float(scale_max))
    at_zero, _ = within(lo)
    at_max, _ = within(hi)
    for i in range(model.k):
        if not peak[i] > 0:
            raise ZeroPeakProfileError(
                f"cluster {i + 1}: profile has zero peak load, so no loading "
                "threshold")
        if not at_zero[i]:
            raise NoFeasibleScaleError(
                f"cluster {i + 1}: ambient profile violates a temperature "
                "limit even at zero load")
        if at_max[i]:
            raise ConfigError(
                f"cluster {i + 1}: limits not reached at scale_max="
                f"{scale_max} p.u.; raise the threshold search bound")

    active = hi - lo > tolerance
    while active.any():
        mid = 0.5 * (lo + hi)
        # Adjacent floats have no midpoint between them, however small
        # the tolerance.
        active &= (lo < mid) & (mid < hi)
        ok, _ = within(mid)
        lo = np.where(active & ok, mid, lo)
        hi = np.where(active & ~ok, mid, hi)
        active = hi - lo > tolerance

    _, probe_top = within(lo + tolerance)
    shape_sum = sum(shape[:, h] for h in range(thermal.HOURS))
    avg = lo * shape_sum / 24.0
    return rank_impact(
        ThresholdResult(
            cluster_id=cid,
            max_avg_load_pu=a,
            max_peak_load_pu=peak_pu,
            binding_limit="top_oil" if top > spec.top_oil_limit else "hotspot",
        )
        for cid, a, peak_pu, top in zip(range(1, model.k + 1), avg.tolist(),
                                        lo.tolist(), probe_top.tolist()))


def _require_profiles(model: ClusterModel):
    if model.profiles is None:
        raise ConfigError("cluster model carries no 24-hour profiles; "
                          "retrain with profile extraction")


def _check_monotone(values, what):
    falls = values[:, 1:] < values[:, :-1] - MONOTONE_SLACK
    for cid, fell in enumerate(falls.any(axis=1).tolist(), start=1):
        if fell:
            raise NonMonotoneError(
                f"{what} not non-decreasing in N for cluster {cid}")


def service_grid(spec: thermal.TransformerSpec, model: ClusterModel,
                 n_range) -> ServiceGrid:
    """Simulate every cluster's day at every service count of ``n_range``,
    a sequence of ascending counts.

    The transformer load at N services is N times the cluster's
    per-service profile over the rating. All (cluster, N) days are solved
    as one batch, per-unit loads ``(k, N, 24)`` against ambients
    ``(k, 1, 24)``; the grid keeps each day's maxima and its daily
    equivalent aging. The first count over the load ceiling is found by
    bisection before any per-count array is made.

    Raises:
        ConfigError: ``n_range`` is empty, the model has no profiles, or a
            service count loads a cluster above ``thermal.MAX_LOAD_PU``.
        ParseError: one service alone loads a cluster above that ceiling:
            a profile's ``load_kva`` or the ``rated_kva`` is implausible.
        NonMonotoneError: a cluster's temperature or life loss falls as N
            rises.
    """
    if not n_range:
        raise ConfigError("n_range is empty")
    _require_profiles(model)
    kva, ambient = model.profiles
    with np.errstate(over="ignore"):  # an overflow is inf, refused below
        one_service = kva.max(axis=1) / spec.rated_kva
    for cid, pu in enumerate(one_service.tolist(), start=1):
        if not pu <= thermal.MAX_LOAD_PU:
            raise ParseError(
                f"cluster {cid}: one service's peak load is {pu:.3g} "
                f"p.u. of rated_kva {spec.rated_kva:g}, above the "
                f"{thermal.MAX_LOAD_PU:g} p.u. load ceiling")
    peak_kva = float(kva.max())

    def peak_pu(count):  # the most loaded cluster's, as rounding is monotone
        try:
            return float(count) * peak_kva / spec.rated_kva
        except OverflowError:  # a count past any float
            return math.inf

    over = bisect.bisect_left(n_range, True, key=lambda count: not peak_pu(
        count) <= thermal.MAX_LOAD_PU)
    if over < len(n_range):
        raise ConfigError(f"{n_range[over]} services load a cluster to "
                          f"{peak_pu(n_range[over]):.3g} p.u., above the "
                          f"{thermal.MAX_LOAD_PU:g} p.u. load ceiling")
    n_values = tuple(n_range)
    trace = thermal.simulate_day(spec, ambient[:, None, :], np.array(
        n_values, float)[None, :, None] * kva[:, None, :] / spec.rated_kva)
    grid = ServiceGrid(
        n_values=n_values,
        member_counts=model.member_counts,
        max_top_oil=trace.top_oil.max(axis=-1),
        max_hotspot=trace.hotspot.max(axis=-1),
        daily_loss=aging.equivalent_aging(
            aging.aging_acceleration(trace.hotspot)),
    )
    _check_monotone(grid.max_top_oil, "max top-oil temperature")
    _check_monotone(grid.max_hotspot, "max hotspot temperature")
    _check_monotone(grid.daily_loss, "daily life loss")
    return grid


def _largest(n_values, feasible) -> int | None:
    """The largest service count whose ``feasible`` entry is true, or None."""
    counts = [n for n, ok in zip(n_values, feasible.tolist()) if ok]
    return max(counts) if counts else None


def max_services_by_temperature(spec: thermal.TransformerSpec,
                                grid: ServiceGrid) -> int | None:
    """Largest service count whose worst-cluster day stays within both
    temperature limits, or None."""
    return _largest(grid.n_values,
                    (grid.max_top_oil.max(axis=0) <= spec.top_oil_limit)
                    & (grid.max_hotspot.max(axis=0) <= spec.hotspot_limit))


def life_loss_by_n(spec: thermal.TransformerSpec, grid: ServiceGrid,
                   years: float) -> LifeLoss:
    """Fleet life loss at each service count of the grid.

    Per-cluster daily life loss is weighted by member-day counts, summed
    over the window cluster by cluster, annualized over ``years`` and
    converted to currency.
    """
    total, annual = aging.accumulate_life_loss(grid.daily_loss,
                                               grid.member_counts, years)
    return LifeLoss(total, annual,
                    aging.economic_loss(annual, spec.replacement_cost))


def max_services_by_life(n_values, economic_loss, annual_budget: float) -> int | None:
    """Largest of the service counts ``n_values`` whose yearly economic
    loss (the matching entry of ``economic_loss``, e.g.
    :attr:`LifeLoss.economic_loss`) stays within the budget, or None."""
    return _largest(n_values, np.asarray(economic_loss) <= annual_budget)


# ---------------------------------------------------------------------------
# Report files


def write_thresholds_csv(results, path) -> None:
    """Threshold and impact-ranking table, one row per cluster."""
    write_table(path, ["cluster_id", "max_avg_load_pu", "max_peak_load_pu",
                       "binding_limit", "impact_rank"], ["".join(
        "%s,%.2f,%.2f,%s,%s\n" % (r.cluster_id, r.max_avg_load_pu,
                                  r.max_peak_load_pu, r.binding_limit,
                                  r.impact_rank)
        for r in sorted(results, key=lambda r: r.cluster_id))])


def _rank_order(ranked_results):
    """Cluster ids ordered by impact rank 1..k."""
    return [r.cluster_id for r in sorted(ranked_results,
                                         key=lambda r: r.impact_rank)]


def _table_rows(row, labels, rows):
    """The text of ``row % (label, *values)`` per label and its ``rows`` entry."""
    return "".join(row % (label, *values) for label, values in zip(labels, rows))


def write_month_matrix_csv(matrix, ranked_results, path) -> None:
    """Month-by-cluster member-day counts, columns ordered by impact rank.

    The first data row maps each impact column back to its cluster id; the
    footer row sums each column (equal to the cluster member counts).
    """
    order = _rank_order(ranked_results)
    by_rank = matrix[:, [cid - 1 for cid in order]]
    write_table(path, ["month"] + [f"imp_{i + 1}" for i in range(len(order))],
                [_table_rows("%s" + ",%d" * len(order) + "\n",
                             ("cluster_id", *MONTH_LABELS, "Sum"),
                             [order, *by_rank.tolist(),
                              by_rank.sum(axis=0).tolist()])])


def write_temperature_grid_csv(grid: ServiceGrid, path) -> None:
    """Max top-oil temperature (°C, rounded) per cluster and service count,
    with a Max footer row over clusters."""
    top = grid.max_top_oil
    write_table(path, ["cluster_id"] + [f"N={n}" for n in grid.n_values],
                [_table_rows("%s" + ",%d" * len(grid.n_values) + "\n",
                             [*range(1, len(top) + 1), "Max"],
                             [list(map(round, row)) for row
                              in [*top.tolist(), top.max(axis=0).tolist()]])])


def write_life_loss_csv(grid: ServiceGrid, losses: LifeLoss, years: float,
                        path) -> None:
    """Life-loss grid with member-day counts and total/annual/economic
    footer rows; ``losses`` is :func:`life_loss_by_n` of the grid over
    ``years``."""
    footers = {f"{years:g}-Year Total Loss of Life (Days)": losses.total_days,
               "Average annual Loss of Life (Days)": losses.annual_days,
               "Economic Loss ($/year)": losses.economic_loss}
    rows = [[*row, count] for row, count in zip(grid.daily_loss.tolist(),
                                                grid.member_counts.tolist())]
    rows += [[*values.tolist(), "-"] for values in footers.values()]
    write_table(path, ["cluster_id"] + [f"N={n}" for n in grid.n_values]
                + ["num_days"],
                [_table_rows("%s" + ",%.1f" * len(grid.n_values) + ",%s\n",
                             [*range(1, len(grid.member_counts) + 1), *footers],
                             rows)])


_SVG_PALETTE = ("#4477aa", "#66ccee", "#228833", "#ccbb44", "#ee6677",
                "#aa3377", "#bbbbbb", "#222255", "#225555", "#552200")


def write_month_distribution_svg(matrix, ranked_results, path) -> None:
    """Grouped bar chart of member days per month per cluster (impact order).

    Hand-rolled SVG so repeated runs are byte-identical.
    """
    order = _rank_order(ranked_results)
    k = len(order)
    top = max(1, int(matrix.max()))

    width, height = 980, 420
    left, right, bottom, upper = 55, 160, 40, 20
    plot_w = width - left - right
    plot_h = height - upper - bottom
    group_w = plot_w / 12.0
    bar_w = group_w / (k + 1)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{upper + plot_h}" x2="{left + plot_w}" '
        f'y2="{upper + plot_h}" stroke="black"/>',
        f'<line x1="{left}" y1="{upper}" x2="{left}" y2="{upper + plot_h}" '
        'stroke="black"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = upper + plot_h * (1.0 - frac)
        parts.append(f'<text x="{left - 8:.1f}" y="{y + 4:.1f}" '
                     'font-size="11" text-anchor="end" '
                     f'font-family="sans-serif">{round(top * frac)}</text>')
        parts.append(f'<line x1="{left - 4}" y1="{y:.1f}" x2="{left}" '
                     f'y2="{y:.1f}" stroke="black"/>')
    for m, label in enumerate(MONTH_LABELS):
        gx = left + m * group_w
        parts.append(f'<text x="{gx + group_w / 2:.1f}" '
                     f'y="{upper + plot_h + 16:.1f}" font-size="11" '
                     f'text-anchor="middle" font-family="sans-serif">{label}</text>')
        for j, cid in enumerate(order):
            count = int(matrix[m, cid - 1])
            h = plot_h * count / top
            x = gx + (j + 0.5) * bar_w
            y = upper + plot_h - h
            color = _SVG_PALETTE[j % len(_SVG_PALETTE)]
            parts.append(f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_w:.1f}" '
                         f'height="{h:.1f}" fill="{color}"/>')
    for j, cid in enumerate(order):
        color = _SVG_PALETTE[j % len(_SVG_PALETTE)]
        ly = upper + 14 * (j + 1)
        parts.append(f'<rect x="{left + plot_w + 16}" y="{ly - 9}" width="10" '
                     f'height="10" fill="{color}"/>')
        parts.append(f'<text x="{left + plot_w + 30}" y="{ly}" font-size="11" '
                     f'font-family="sans-serif">Imp {j + 1} (cluster {cid})</text>')
    parts.append('<text x="14" y="16" font-size="12" '
                 'font-family="sans-serif">Member days per month by cluster '
                 'impact level</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8",
                          newline="\n")
