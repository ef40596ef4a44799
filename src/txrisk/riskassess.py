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
from dataclasses import dataclass
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

# The threshold search's first upper bound (p.u. peak) and its
# resolution, the one thresholds.csv prints at.
SCALE_START = 16.0
SCALE_TOL = 0.005
# Slack for rounding when checking that grid values never fall with N.
MONOTONE_SLACK = 1e-9

MONTH_LABELS = ("Jan", "Feb", "Mar", "Apr", "May", "June", "July", "Aug",
                "Sep", "Oct", "Nov", "Dec")


@dataclass(frozen=True)
class Thresholds:
    """Each cluster's largest tolerable loading, as ``(k,)`` arrays with
    cluster ``c + 1`` at index ``c``: the 24-hour peak (p.u.) and average
    load of its certified day, the limit that a peak ``SCALE_TOL`` higher
    violates (``"top_oil"`` or ``"hotspot"``), and the impact rank, 1 for
    the lowest peak (most restrictive), equal peaks ranked by cluster id."""

    max_avg_load_pu: np.ndarray
    max_peak_load_pu: np.ndarray
    binding_limit: np.ndarray
    impact_rank: np.ndarray


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


def cluster_thresholds(spec: thermal.TransformerSpec,
                       model: ClusterModel) -> Thresholds:
    """Largest peak loading (p.u.) of each cluster's day shape whose
    simulated day stays within limits, with impact ranks.

    Each profile is reduced to its peak-normalized shape, so the bisection
    scale *is* the 24-hour peak per-unit load; the 24-hour average at the
    binding scale is reported alongside. Bisection is valid because the
    steady-state temperatures are monotone in the load scale. A cluster is
    searched below ``SCALE_START``; while its limits still pass at its
    bound, the bound doubles, up to ``thermal.MAX_LOAD_PU``. Every cluster
    is bisected at once, yet gets exactly the halvings, and so the result,
    of a bisection of its own: it stops halving once its interval is within
    ``SCALE_TOL``. Each returned scale is certified: it passes the limits
    while ``scale + SCALE_TOL``, or the load ceiling if that is lower,
    violates at least one of them.

    Raises (for the first failing cluster in model order, the ParseError
    only after the other checks pass for every cluster):
        ConfigError: the model has no profiles.
        ZeroPeakProfileError: a profile has no load at any hour.
        NoFeasibleScaleError: ambient alone violates a limit (scale 0 fails).
        ParseError: the limits still pass at ``thermal.MAX_LOAD_PU``: the
            spec's limits are implausible.
    """
    _require_profiles(model)
    kva, ambient = model.profiles
    peak = kva.max(axis=1)
    shape = kva / np.where(peak > 0, peak, 1.0)[:, None]

    def within(scale):
        trace = thermal.simulate_day(spec, ambient, scale[:, None] * shape)
        top = trace.top_oil.max(axis=-1)
        return ((top <= spec.top_oil_limit)
                & (trace.hotspot.max(axis=-1) <= spec.hotspot_limit)), top

    lo = np.zeros(model.k)
    hi = np.full(model.k, SCALE_START)
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
    while at_max.any():
        stuck = at_max & (hi == thermal.MAX_LOAD_PU)
        if stuck.any():
            raise ParseError(
                f"cluster {int(stuck.argmax()) + 1}: limits not reached at "
                f"the {thermal.MAX_LOAD_PU:g} p.u. load ceiling")
        hi = np.where(at_max, np.minimum(2 * hi, thermal.MAX_LOAD_PU), hi)
        at_max &= within(hi)[0]

    active = hi - lo > SCALE_TOL
    while active.any():
        mid = 0.5 * (lo + hi)
        # Adjacent floats have no midpoint between them, however small
        # the tolerance.
        active &= (lo < mid) & (mid < hi)
        ok, _ = within(mid)
        lo = np.where(active & ok, mid, lo)
        hi = np.where(active & ~ok, mid, hi)
        active = hi - lo > SCALE_TOL

    _, probe_top = within(np.minimum(lo + SCALE_TOL, thermal.MAX_LOAD_PU))
    shape_sum = sum(shape[:, h] for h in range(thermal.HOURS))
    rank = np.empty(model.k, np.int64)
    rank[np.argsort(lo, kind="stable")] = np.arange(1, model.k + 1)
    return Thresholds(
        max_avg_load_pu=lo * shape_sum / 24.0,
        max_peak_load_pu=lo,
        binding_limit=np.where(probe_top > spec.top_oil_limit, "top_oil",
                               "hotspot"),
        impact_rank=rank,
    )


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


def write_thresholds_csv(thresholds: Thresholds, path) -> None:
    """Threshold and impact-ranking table, one row per cluster."""
    write_table(path, ["cluster_id", "max_avg_load_pu", "max_peak_load_pu",
                       "binding_limit", "impact_rank"], [[
        np.arange(1, len(thresholds.impact_rank) + 1),
        (np.stack([thresholds.max_avg_load_pu, thresholds.max_peak_load_pu],
                  axis=1), 2),
        thresholds.binding_limit, thresholds.impact_rank]])


def write_month_matrix_csv(matrix, thresholds: Thresholds, path) -> None:
    """Month-by-cluster member-day counts, columns ordered by impact rank.

    The first data row maps each impact column back to its cluster id; the
    footer row sums each column (equal to the cluster member counts).
    """
    # A stable sort, the kernel that ranked the clusters: the default one
    # pages in another 0.2 MB of numpy's code.
    order = np.argsort(thresholds.impact_rank, kind="stable")
    by_rank = matrix[:, order]
    write_table(path, ["month"] + [f"imp_{i + 1}" for i in range(len(order))],
                [[["cluster_id", *MONTH_LABELS, "Sum"],
                  np.vstack([order + 1, by_rank, by_rank.sum(axis=0)])]])


def write_temperature_grid_csv(grid: ServiceGrid, path) -> None:
    """Max top-oil temperature (°C, rounded half to even) per cluster and
    service count, with a Max footer row over clusters."""
    top = grid.max_top_oil
    rounded = np.rint(np.vstack([top, top.max(axis=0)])).astype(np.int64)
    write_table(path, ["cluster_id"] + [f"N={n}" for n in grid.n_values],
                [[[*map(str, range(1, len(top) + 1)), "Max"], rounded]])


def write_life_loss_csv(grid: ServiceGrid, losses: LifeLoss, years: float,
                        path) -> None:
    """Life-loss grid with member-day counts and total/annual/economic
    footer rows; ``losses`` is :func:`life_loss_by_n` of the grid over
    ``years``."""
    footers = [f"{years:g}-Year Total Loss of Life (Days)",
               "Average annual Loss of Life (Days)", "Economic Loss ($/year)"]
    k = len(grid.member_counts)
    write_table(path, ["cluster_id"] + [f"N={n}" for n in grid.n_values]
                + ["num_days"], [[
                    [*map(str, range(1, k + 1)), *footers],
                    (np.vstack([grid.daily_loss, losses.total_days,
                                losses.annual_days, losses.economic_loss]), 1),
                    [*map(str, grid.member_counts.tolist())]
                    + ["-"] * len(footers)]])


_SVG_PALETTE = ("#4477aa", "#66ccee", "#228833", "#ccbb44", "#ee6677",
                "#aa3377", "#bbbbbb", "#222255", "#225555", "#552200")


def write_month_distribution_svg(matrix, thresholds: Thresholds,
                                 path) -> None:
    """Grouped bar chart of member days per month per cluster (impact order).

    Hand-rolled SVG so repeated runs are byte-identical.
    """
    order = (np.argsort(thresholds.impact_rank, kind="stable") + 1).tolist()
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
