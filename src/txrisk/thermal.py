"""Oil-immersed transformer thermal model.

Top-oil and winding hottest-spot temperatures for a 24-hour day follow the
IEEE C57.91 exponential-response loading equations (ONAN exponents
n = m = 0.8 by default). Each hour a rise x steps toward the ultimate rise
u_h of that hour's load, x_h = b·x_{h-1} + a·u_h with a = 1 - e^(-1/tau)
and b = 1 - a, and the day repeats: hour 1 starts from hour 24's rise. That
periodic steady state has a closed form,

    x_23 = a · sum_i b^(23-i) · u_i / (1 - b^24),

evaluated, divided through by a, by Horner passes over the hours; one
forward pass of the exponential step from x_23 then gives every hour.
``simulate_day`` solves one day or a whole batch of days at once: the
ultimate rises of every hour of every day in one pass over the load
array, then each pass of the closed form over the hours of all days.

The results depend on the inputs alone, not on the numpy build: numpy does
only elementwise IEEE arithmetic here, the powers in the ultimate rises go
through the C library's ``pow`` one element at a time, and every pass over
the hours runs in hour order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import ParseError, json_number, read_json

HOURS = 24

DEFAULT_EXPONENT_N = 0.8
DEFAULT_EXPONENT_M = 0.8
DEFAULT_TOP_OIL_LIMIT = 120.0  # °C
DEFAULT_HOTSPOT_LIMIT = 200.0  # °C
# Per-unit load ceiling: a thousand times the rating, far past any
# transformer day (a bolted fault draws some 10-25 times rated current).
# Below it every power of the load in the thermal model is finite; a load
# above it is an input error, refused before any ``**`` can overflow.
MAX_LOAD_PU = 1000.0
# Ceilings on the rated rises (°C) and the loss ratio, far past any real
# transformer (rises of some 40-80 °C, loss ratios of 2-20). At them and
# at MAX_LOAD_PU every power in the thermal model stays finite (no ultimate
# rise exceeds 1e9 °C); a spec above them is an input error.
MAX_RATED_RISE_C = 1000.0
MAX_LOSS_RATIO = 1000.0


@dataclass(frozen=True)
class TransformerSpec:
    """Nameplate and thermal constants of one transformer.

    Attributes:
        rated_kva: apparent power rating, kVA.
        top_oil_rise_rated: top-oil rise over ambient at rated load, °C.
        hotspot_differential: rated hotspot rise over top-oil, °C.
        loss_ratio: rated load loss / no-load loss, dimensionless.
        oil_time_constant: oil thermal time constant, hours.
        winding_time_constant: winding thermal time constant, hours.
        exponent_n: top-oil loading exponent (0.8 for ONAN).
        exponent_m: winding loading exponent (0.8 for ONAN).
        top_oil_limit: top-oil operating limit, °C.
        hotspot_limit: hottest-spot operating limit, °C.
        replacement_cost: purchase + installation cost, currency units.
    """

    rated_kva: float
    top_oil_rise_rated: float
    hotspot_differential: float
    loss_ratio: float
    oil_time_constant: float
    winding_time_constant: float
    exponent_n: float = DEFAULT_EXPONENT_N
    exponent_m: float = DEFAULT_EXPONENT_M
    top_oil_limit: float = DEFAULT_TOP_OIL_LIMIT
    hotspot_limit: float = DEFAULT_HOTSPOT_LIMIT
    replacement_cost: float = 0.0

    def __post_init__(self):
        if self.rated_kva <= 0:
            raise ValueError("rated_kva must be > 0")
        for name, ceiling in (("top_oil_rise_rated", MAX_RATED_RISE_C),
                              ("hotspot_differential", MAX_RATED_RISE_C),
                              ("loss_ratio", MAX_LOSS_RATIO)):
            if not 0 < getattr(self, name) <= ceiling:
                raise ValueError(f"{name} must lie in (0, {ceiling:g}]")
        if self.oil_time_constant <= 0 or self.winding_time_constant <= 0:
            raise ValueError("time constants must be > 0")
        if not 0 < self.exponent_n <= 1 or not 0 < self.exponent_m <= 1:
            raise ValueError("exponents must lie in (0, 1]")
        if self.top_oil_limit >= self.hotspot_limit:
            raise ValueError("top_oil_limit must be below hotspot_limit")
        if self.replacement_cost < 0:
            raise ValueError("replacement_cost must be >= 0")


@dataclass(frozen=True)
class ThermalTrace:
    """Periodic steady-state temperatures of one day or a batch of days:
    arrays with the 24 hours on the last axis.

    ``top_oil = ambient + top_oil_rise`` and
    ``hotspot = top_oil + hotspot_rise`` hold exactly.
    """

    top_oil: np.ndarray
    hotspot: np.ndarray
    top_oil_rise: np.ndarray
    hotspot_rise: np.ndarray
    # Solver sweeps per day: always 1, as the closed form takes one pass.
    iterations = 1


def _pow(x, exponent):
    """``x ** exponent`` for a float, or elementwise for a numpy array or
    scalar through the C library ``pow`` (numpy's own may round differently),
    streamed into the result with no list of the elements."""
    if isinstance(x, (np.ndarray, np.generic)):
        flat = np.ascontiguousarray(x, dtype=float).ravel()
        return np.fromiter(map(pow, memoryview(flat), repeat(exponent)),
                           float, flat.size).reshape(np.shape(x))
    return x ** exponent


def ultimate_top_oil_rise(spec: TransformerSpec, k_u):
    """Steady-state top-oil rise over ambient at load ratio ``k_u`` (p.u.,
    a float or an array)."""
    r = spec.loss_ratio
    return spec.top_oil_rise_rated * _pow((k_u * k_u * r + 1.0) / (r + 1.0),
                                          spec.exponent_n)


def ultimate_hotspot_rise(spec: TransformerSpec, k_u):
    """Steady-state hottest-spot rise over top-oil at load ratio ``k_u``
    (a float or an array)."""
    return spec.hotspot_differential * _pow(k_u, 2.0 * spec.exponent_m)


def exponential_step(initial_rise, ultimate_rise, time_constant: float):
    """One hour's exponential transient step from ``initial_rise`` toward
    ``ultimate_rise``.

    Shared by the top-oil and hottest-spot transients; ``time_constant`` is
    in hours. The rises may be floats or arrays.
    """
    return (ultimate_rise - initial_rise) * (1.0 - math.exp(-1.0 / time_constant)) + initial_rise


def _periodic_rises(ultimate, time_constant):
    """Rises of every hour of the periodic steady state of one-hour steps
    toward the ultimate rises ``ultimate`` (24 hours on the last axis).

    Divided through by ``a``, the closed form of the hour-24 rise is a
    weighted mean of the hourly ultimate rises,
    ``x_23 = sum_i b^(23-i) u_i / sum_j b^j``, which no cancellation spoils
    however long the time constant. Both sums are Horner passes in hour
    order; ``b`` is one minus the step's own coefficient. A forward pass of
    :func:`exponential_step` from ``x_23`` then fills hours 0..23.
    """
    b = 1.0 - (1.0 - math.exp(-1.0 / time_constant))
    num = ultimate[..., 0]
    den = 1.0
    for h in range(1, HOURS):
        num = num * b + ultimate[..., h]
        den = den * b + 1.0
    rise = num / den
    rises = np.empty_like(ultimate)
    for h in range(HOURS):
        rise = exponential_step(rise, ultimate[..., h], time_constant)
        rises[..., h] = rise
    return rises


def simulate_day(spec: TransformerSpec, ambient, load_pu) -> ThermalTrace:
    """Periodic steady-state trace of each day: the trace whose hour-24
    rises are the rises hour 1 starts from.

    ``ambient`` (°C) and ``load_pu`` are arrays with the 24 hours on their
    last axis: one ``(24,)`` day, two ``(B, 24)`` batches, or any shapes
    whose other axes broadcast against each other, one day per element.
    Each day is solved on its own, so row ``i`` of a batch equals the day
    of row ``i`` solved alone, bit for bit.

    Raises:
        ValueError: an input lacks the 24-hour last axis, or a load is
            negative, NaN or above ``MAX_LOAD_PU``.
    """
    ambient = np.asarray(ambient, dtype=float)
    load_pu = np.asarray(load_pu, dtype=float)
    if ambient.shape[-1:] != (HOURS,) or load_pu.shape[-1:] != (HOURS,):
        raise ValueError("ambient and load_pu need 24 hours on their last axis")
    if not np.all((load_pu >= 0) & (load_pu <= MAX_LOAD_PU)):
        raise ValueError(f"load_pu entries must lie in [0, {MAX_LOAD_PU:g}]")
    oil = _periodic_rises(ultimate_top_oil_rise(spec, load_pu),
                          spec.oil_time_constant)
    hot = _periodic_rises(ultimate_hotspot_rise(spec, load_pu),
                          spec.winding_time_constant)
    top_oil = ambient + oil
    return ThermalTrace(top_oil, top_oil + hot, oil, hot)


# The spec file's keys in the order they are written, each with its
# TransformerSpec field and whether the file must give it (the exponents
# and limits take their defaults when absent).
_SPEC_KEYS = (
    ("rated_kva", "rated_kva", True),
    ("top_oil_rise_rated_c", "top_oil_rise_rated", True),
    ("hotspot_differential_c", "hotspot_differential", True),
    ("loss_ratio", "loss_ratio", True),
    ("oil_time_constant_h", "oil_time_constant", True),
    ("winding_time_constant_h", "winding_time_constant", True),
    ("exponent_n", "exponent_n", False),
    ("exponent_m", "exponent_m", False),
    ("top_oil_limit_c", "top_oil_limit", False),
    ("hotspot_limit_c", "hotspot_limit", False),
    ("replacement_cost", "replacement_cost", True),
)


def load_transformer_spec(path) -> TransformerSpec:
    """Load a TransformerSpec from its JSON file format: an object of the
    ``_SPEC_KEYS``, each a number (:func:`txrisk.errors.json_number`).
    Anything else, or a spec :class:`TransformerSpec` refuses, is a
    ParseError."""
    raw = read_json(path, ParseError, "transformer spec")
    if not isinstance(raw, dict):
        raise ParseError("transformer spec must be a JSON object", path=path)
    for key, _, required in _SPEC_KEYS:
        if required and key not in raw:
            raise ParseError(f"missing required field {key!r}", path=path)
    try:
        return TransformerSpec(**{
            attr: json_number(raw[key], f"field {key!r}")
            for key, attr, _ in _SPEC_KEYS if key in raw})
    except (TypeError, ValueError) as exc:
        raise ParseError(f"invalid transformer spec: {exc}", path=path) from exc


def save_transformer_spec(spec: TransformerSpec, path) -> None:
    """Write a TransformerSpec in its JSON file format."""
    doc = {key: getattr(spec, attr) for key, attr, _ in _SPEC_KEYS}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
