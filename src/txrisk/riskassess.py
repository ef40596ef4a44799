"""Fleet risk outputs: per-cluster loading thresholds, impact ranking, and
maximum service counts by temperature limit and by life-loss budget.

Cluster 24-hour profiles (kVA per service) are scaled to a transformer
load, simulated with the thermal model, and screened against the
temperature limits or converted to aging figures. Both run in batches: the
threshold search bisects every cluster at once, and one
:class:`ServiceGrid` holds every cluster's simulated day at every service
count for both service-count studies and their report tables.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import aging, thermal
from .clustering import ClusterModel, ClusterProfile
from .errors import (
    ConfigError,
    NoFeasibleScaleError,
    NonMonotoneError,
    ParseError,
    ZeroPeakProfileError,
)

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

    The arrays are indexed (cluster, N) in the order of ``cluster_ids`` and
    ``n_values``: the day's maximum top-oil and hotspot temperatures (°C)
    and its life loss in days per day (the daily equivalent aging factor).
    ``member_day_counts`` maps each cluster id to its member days.
    """

    n_values: tuple[int, ...]
    cluster_ids: tuple[int, ...]
    member_day_counts: dict[int, int]
    max_top_oil: np.ndarray
    max_hotspot: np.ndarray
    daily_loss: np.ndarray


class LifeLoss(NamedTuple):
    """Fleet life loss at one service count over the evaluation window."""

    total_days: float
    annual_days: float
    economic_loss: float  # currency per year


def _day_maxima(spec, ambient, load_pu):
    """Maximum top-oil and hotspot temperature of each day in a batch."""
    top = hot = None
    for top_h, hot_h, _, _ in thermal.steady_state_hours(spec, ambient, load_pu):
        top = top_h if top is None else np.maximum(top, top_h)
        hot = hot_h if hot is None else np.maximum(hot, hot_h)
    return top, hot


def _thresholds(spec, profiles, cluster_ids, scale_max, tolerance):
    """Bisect the loading thresholds of several profiles together.

    Each profile gets exactly the halvings, and so the result, of a
    bisection of its own: a profile stops halving once its interval is
    within ``tolerance``, and errors are raised for the first failing
    profile in the given order.
    """
    if not scale_max <= thermal.MAX_LOAD_PU:
        raise ConfigError(f"scale_max={scale_max:g} p.u. is above the "
                          f"{thermal.MAX_LOAD_PU:g} p.u. load ceiling")
    kva = np.array([p.load_kva for p in profiles], dtype=float)
    ambient = np.array([p.ambient_c for p in profiles], dtype=float)
    peak = kva.max(axis=1)
    shape = kva / np.where(peak > 0, peak, 1.0)[:, None]

    def within(scale):
        top, hot = _day_maxima(spec, ambient, scale[:, None] * shape)
        return (top <= spec.top_oil_limit) & (hot <= spec.hotspot_limit), top

    lo = np.zeros(len(profiles))
    hi = np.full(len(profiles), float(scale_max))
    at_zero, _ = within(lo)
    at_max, _ = within(hi)
    for i, cid in enumerate(cluster_ids):
        if not peak[i] > 0:
            raise ZeroPeakProfileError(
                f"cluster {cid}: profile has zero peak load, so no loading "
                "threshold")
        if not at_zero[i]:
            raise NoFeasibleScaleError(
                f"cluster {cid}: ambient profile violates a temperature "
                "limit even at zero load")
        if at_max[i]:
            raise ConfigError(
                f"cluster {cid}: limits not reached at scale_max="
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
    return [
        ThresholdResult(
            cluster_id=cid,
            max_avg_load_pu=a,
            max_peak_load_pu=peak_pu,
            binding_limit="top_oil" if top > spec.top_oil_limit else "hotspot",
        )
        for cid, a, peak_pu, top in zip(cluster_ids, avg.tolist(), lo.tolist(),
                                        probe_top.tolist())
    ]


def loading_threshold(spec: thermal.TransformerSpec, profile: ClusterProfile,
                      cluster_id: int = 0, *, scale_max: float = SCALE_MAX_DEFAULT,
                      tolerance: float = SCALE_TOL_DEFAULT) -> ThresholdResult:
    """Largest peak loading (p.u.) whose simulated day stays within limits.

    The profile is reduced to its peak-normalized shape, so the bisection
    scale *is* the 24-hour peak per-unit load; the 24-hour average at the
    binding scale is reported alongside. Bisection is valid because the
    steady-state temperatures are monotone in the load scale. The returned
    scale is certified: it passes the limits while ``scale + tolerance``
    violates at least one of them.

    Raises:
        ZeroPeakProfileError: the profile has no load at any hour.
        NoFeasibleScaleError: ambient alone violates a limit (scale 0 fails).
        ConfigError: ``scale_max`` still passes the limits, or is above
            ``thermal.MAX_LOAD_PU``.
    """
    return _thresholds(spec, [profile], [cluster_id], scale_max, tolerance)[0]


def rank_impact(results) -> list[ThresholdResult]:
    """Fill impact ranks: 1 = lowest tolerable peak loading (most
    restrictive), ties broken by cluster id. Returned in cluster-id order."""
    by_peak = sorted(results, key=lambda r: (r.max_peak_load_pu, r.cluster_id))
    ranked = [replace(r, impact_rank=i + 1) for i, r in enumerate(by_peak)]
    return sorted(ranked, key=lambda r: r.cluster_id)


def cluster_thresholds(spec: thermal.TransformerSpec, model: ClusterModel,
                       *, scale_max: float = SCALE_MAX_DEFAULT,
                       tolerance: float = SCALE_TOL_DEFAULT) -> list[ThresholdResult]:
    """Ranked loading thresholds for every cluster in the model, bisected
    together; each equals :func:`loading_threshold` of its profile. The
    first failing cluster in model order raises its error."""
    _require_profiles(model)
    return rank_impact(_thresholds(
        spec, [model.profiles[c.id] for c in model.clusters],
        [c.id for c in model.clusters], scale_max, tolerance))


def _require_profiles(model: ClusterModel):
    if not model.profiles:
        raise ConfigError("cluster model carries no 24-hour profiles; "
                          "retrain with profile extraction")


def _check_monotone(values, grid: ServiceGrid, what):
    falls = values[:, 1:] < values[:, :-1] - MONOTONE_SLACK
    for cid, fell in zip(grid.cluster_ids, falls.any(axis=1).tolist()):
        if fell:
            raise NonMonotoneError(
                f"{what} not non-decreasing in N for cluster {cid}")


def _cluster_days(spec, model: ClusterModel, n_values):
    """Ambient ``(k, 1, 24)`` and per-unit load ``(k, N, 24)`` arrays of
    every cluster's day at every service count: N times the cluster's
    per-service profile over the rating.

    Raises:
        ConfigError: the model has no profiles, or a service count loads a
            cluster above ``thermal.MAX_LOAD_PU``.
        ParseError: one service alone loads a cluster above that ceiling:
            a profile's ``load_kva`` or the ``rated_kva`` is implausible.
    """
    _require_profiles(model)
    profiles = [model.profiles[c.id] for c in model.clusters]
    kva = np.array([p.load_kva for p in profiles], dtype=float)
    ambient = np.array([p.ambient_c for p in profiles], dtype=float)
    n = np.array(n_values, dtype=float)
    with np.errstate(over="ignore"):  # an overflow is inf, refused below
        one_service = kva.max(axis=1) / spec.rated_kva
        load_pu = n[None, :, None] * kva[:, None, :] / spec.rated_kva
    for cluster, pu in zip(model.clusters, one_service.tolist()):
        if not pu <= thermal.MAX_LOAD_PU:
            raise ParseError(
                f"cluster {cluster.id}: one service's peak load is {pu:.3g} "
                f"p.u. of rated_kva {spec.rated_kva:g}, above the "
                f"{thermal.MAX_LOAD_PU:g} p.u. load ceiling")
    for count, pu in zip(n_values, load_pu.max(axis=(0, 2)).tolist()):
        if not pu <= thermal.MAX_LOAD_PU:
            raise ConfigError(f"{count} services load a cluster to {pu:.3g} "
                              f"p.u., above the {thermal.MAX_LOAD_PU:g} p.u. "
                              "load ceiling")
    return ambient[:, None, :], load_pu


def service_grid(spec: thermal.TransformerSpec, model: ClusterModel,
                 n_range) -> ServiceGrid:
    """Simulate every cluster's day at every service count of ``n_range``.

    The transformer load at N services is N times the cluster's
    per-service profile over the rating. All (cluster, N) days are solved
    as one batch, hour by hour, keeping only each day's maxima and its
    hourly aging factors.

    Raises:
        ConfigError: ``n_range`` is empty, the model has no profiles, or a
            service count loads a cluster above ``thermal.MAX_LOAD_PU``.
        ParseError: one service alone loads a cluster above that ceiling.
        NonMonotoneError: a cluster's temperature or life loss falls as N
            rises.
    """
    n_values = tuple(n_range)
    if not n_values:
        raise ConfigError("n_range is empty")
    ambient, load_pu = _cluster_days(spec, model, n_values)

    max_top_oil = max_hotspot = None
    factors = []
    for top_oil, hotspot, _, _ in thermal.steady_state_hours(
            spec, ambient, load_pu):
        max_top_oil = (top_oil if max_top_oil is None
                       else np.maximum(max_top_oil, top_oil))
        max_hotspot = (hotspot if max_hotspot is None
                       else np.maximum(max_hotspot, hotspot))
        factors.append(aging.aging_acceleration(hotspot))

    grid = ServiceGrid(
        n_values=n_values,
        cluster_ids=tuple(c.id for c in model.clusters),
        member_day_counts=model.member_day_counts(),
        max_top_oil=max_top_oil,
        max_hotspot=max_hotspot,
        daily_loss=aging.equivalent_aging(factors),
    )
    _check_monotone(grid.max_top_oil, grid, "max top-oil temperature")
    _check_monotone(grid.max_hotspot, grid, "max hotspot temperature")
    _check_monotone(grid.daily_loss, grid, "daily life loss")
    return grid


def max_services_by_temperature(spec: thermal.TransformerSpec,
                                grid: ServiceGrid) -> int | None:
    """Largest service count whose worst-cluster day stays within both
    temperature limits, or None."""
    within = ((grid.max_top_oil.max(axis=0) <= spec.top_oil_limit)
              & (grid.max_hotspot.max(axis=0) <= spec.hotspot_limit))
    feasible = [n for n, ok in zip(grid.n_values, within.tolist()) if ok]
    return max(feasible) if feasible else None


def life_loss_by_n(spec: thermal.TransformerSpec, grid: ServiceGrid,
                   years: float) -> dict[int, LifeLoss]:
    """Fleet life loss per service count.

    Per-cluster daily life loss is weighted by member-day counts, summed
    over the window, annualized over ``years`` and converted to currency.
    """
    out = {}
    for j, n in enumerate(grid.n_values):
        per_cluster = dict(zip(grid.cluster_ids, grid.daily_loss[:, j].tolist()))
        total, annual = aging.accumulate_life_loss(
            per_cluster, grid.member_day_counts, years)
        out[n] = LifeLoss(total, annual,
                          aging.economic_loss(annual, spec.replacement_cost))
    return out


def max_services_by_life(spec: thermal.TransformerSpec, grid: ServiceGrid,
                         annual_budget: float, years: float) -> int | None:
    """Largest service count whose yearly equivalent economic loss stays
    within the budget, or None."""
    losses = life_loss_by_n(spec, grid, years)
    return select_max_services(
        {n: loss.economic_loss for n, loss in losses.items()}, annual_budget)


def select_max_services(economic_loss_by_n: dict, budget: float) -> int | None:
    """Largest N whose yearly economic loss is within the budget."""
    feasible = [n for n, el in economic_loss_by_n.items() if el <= budget]
    return max(feasible) if feasible else None


# ---------------------------------------------------------------------------
# Report files


def write_thresholds_csv(results, path) -> None:
    """Threshold and impact-ranking table, one row per cluster."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["cluster_id", "max_avg_load_pu", "max_peak_load_pu",
                         "binding_limit", "impact_rank"])
        for r in sorted(results, key=lambda r: r.cluster_id):
            writer.writerow([r.cluster_id, f"{r.max_avg_load_pu:.2f}",
                             f"{r.max_peak_load_pu:.2f}", r.binding_limit,
                             r.impact_rank])


def _rank_order(ranked_results):
    """Cluster ids ordered by impact rank 1..k."""
    return [r.cluster_id for r in sorted(ranked_results,
                                         key=lambda r: r.impact_rank)]


def write_month_matrix_csv(matrix, model: ClusterModel, ranked_results, path) -> None:
    """Month-by-cluster member-day counts, columns ordered by impact rank.

    The first data row maps each impact column back to its cluster id; the
    footer row sums each column (equal to the cluster member counts).
    """
    order = _rank_order(ranked_results)
    col_of = {c.id: i for i, c in enumerate(model.clusters)}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["month"] + [f"imp_{i + 1}" for i in range(len(order))])
        writer.writerow(["cluster_id"] + [cid for cid in order])
        for m, label in enumerate(MONTH_LABELS):
            writer.writerow([label] + [int(matrix[m, col_of[cid]])
                                       for cid in order])
        writer.writerow(["Sum"] + [int(matrix[:, col_of[cid]].sum())
                                   for cid in order])


def write_temperature_grid_csv(grid: ServiceGrid, path) -> None:
    """Max top-oil temperature (°C, rounded) per cluster and service count,
    with a Max footer row over clusters."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["cluster_id"] + [f"N={n}" for n in grid.n_values])
        for cid, row in zip(grid.cluster_ids, grid.max_top_oil.tolist()):
            writer.writerow([cid] + [round(v) for v in row])
        writer.writerow(["Max"] + [round(v) for v
                                   in grid.max_top_oil.max(axis=0).tolist()])


def write_life_loss_csv(grid: ServiceGrid, spec, years: float, path) -> None:
    """Life-loss grid with member-day counts and total/annual/economic
    footer rows."""
    losses = list(life_loss_by_n(spec, grid, years).values())
    years_label = f"{years:g}-Year Total Loss of Life (Days)"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["cluster_id"] + [f"N={n}" for n in grid.n_values]
                        + ["num_days"])
        for cid, row in zip(grid.cluster_ids, grid.daily_loss.tolist()):
            writer.writerow([cid] + [f"{v:.1f}" for v in row]
                            + [grid.member_day_counts[cid]])
        writer.writerow([years_label] + [f"{loss.total_days:.1f}"
                                         for loss in losses] + ["-"])
        writer.writerow(["Average annual Loss of Life (Days)"]
                        + [f"{loss.annual_days:.1f}" for loss in losses] + ["-"])
        writer.writerow(["Economic Loss ($/year)"]
                        + [f"{loss.economic_loss:.1f}" for loss in losses]
                        + ["-"])


_SVG_PALETTE = ("#4477aa", "#66ccee", "#228833", "#ccbb44", "#ee6677",
                "#aa3377", "#bbbbbb", "#222255", "#225555", "#552200")


def write_month_distribution_svg(matrix, model: ClusterModel, ranked_results,
                                 path) -> None:
    """Grouped bar chart of member days per month per cluster (impact order).

    Hand-rolled SVG so repeated runs are byte-identical.
    """
    order = _rank_order(ranked_results)
    col_of = {c.id: i for i, c in enumerate(model.clusters)}
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
            count = int(matrix[m, col_of[cid]])
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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts))
        fh.write("\n")
