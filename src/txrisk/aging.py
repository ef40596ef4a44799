"""Insulation aging: hourly acceleration factors, daily equivalent aging,
accumulated life loss, and the equivalent yearly economic loss."""

from __future__ import annotations

import math

import numpy as np

# Reference hottest-spot temperature at which insulation ages at unit rate.
REFERENCE_HOTSPOT_K = 383.0  # 110 °C
AGING_RATE_CONSTANT = 15000.0
# Normal insulation life required by the loading standard (20.55 years).
NORMAL_LIFE_DAYS = 7500.0


def aging_acceleration(hotspot_c):
    """Aging acceleration factor at a hottest-spot temperature in °C.

    Equals 1 at 110 °C and grows exponentially with temperature.
    ``hotspot_c`` may be a float or an array; for an array ``exp`` is
    taken elementwise through ``math``, streamed into the result, so the
    factors do not depend on the numpy build.
    """
    exponent = (AGING_RATE_CONSTANT / REFERENCE_HOTSPOT_K
                - AGING_RATE_CONSTANT / (hotspot_c + 273.0))
    if isinstance(exponent, np.ndarray):
        flat = exponent.ravel()
        return np.fromiter(map(math.exp, memoryview(flat)), float,
                           flat.size).reshape(exponent.shape)
    return math.exp(exponent)


def equivalent_aging(hourly_faa):
    """Daily equivalent aging factor: the mean of the 24 hourly factors.

    ``hourly_faa`` is an array with the 24 hourly factors of each day on
    its last axis; the result has one factor per day, the hours added in
    hour order from hour 0.

    Raises:
        ValueError: the last axis is not 24 hours long, or a factor is not
            positive.
    """
    faa = np.asarray(hourly_faa, dtype=float)
    if faa.shape[-1:] != (24,):
        raise ValueError("equivalent_aging expects 24 hourly factors per day")
    if not np.all(faa > 0):
        raise ValueError("hourly aging factors must be > 0")
    total = faa[..., 0]
    for h in range(1, 24):
        total = total + faa[..., h]
    return total / 24.0


def accumulate_life_loss(daily_loss, member_counts, years: float):
    """Accumulate per-cluster daily life loss over an evaluation window.

    Args:
        daily_loss: life loss in days per day of each cluster, a ``(k,)``
            array, or ``(k, M)`` for M cases at once.
        member_counts: the ``(k,)`` member days of each cluster in the
            window.
        years: window length in years.

    Returns:
        (total life loss in days, average annual life loss in days/year),
        floats or ``(M,)`` arrays. The total adds cluster by cluster in
        row order.

    Raises:
        ValueError: ``years`` is not positive, or the arrays cover
            different numbers of clusters.
    """
    if years <= 0:
        raise ValueError("years must be > 0")
    daily_loss = np.asarray(daily_loss, dtype=float)
    if len(daily_loss) != len(member_counts):
        raise ValueError(f"daily loss of {len(daily_loss)} clusters against "
                         f"member days of {len(member_counts)}")
    total = sum(loss * count for loss, count
                in zip(daily_loss, np.asarray(member_counts).tolist()))
    return total, total / years


def economic_loss(annual_loss_days, replacement_cost: float):
    """Equivalent economic loss in currency per year, for a float or an
    array of annual life losses.

    One full normal life (``NORMAL_LIFE_DAYS``) consumed per year costs
    one replacement transformer per year.
    """
    if np.any(annual_loss_days < 0):
        raise ValueError("annual_loss_days must be >= 0")
    if replacement_cost < 0:
        raise ValueError("replacement_cost must be >= 0")
    return annual_loss_days / NORMAL_LIFE_DAYS * replacement_cost
