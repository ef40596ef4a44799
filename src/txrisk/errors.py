"""Exception and warning types shared across the package, and the one
reader and value rules of every JSON input (config, feature schema, model
and spec): :func:`read_json`, :func:`json_number` and :func:`json_integer`.

Every error carries an ``exit_code`` so the command-line layer can map
failures to distinct process exit codes (documented in ``txrisk --help``).
"""

import json
import sys

# The largest finite float: a JSON number past it has no float value.
_FLOAT_MAX = sys.float_info.max


class TxRiskError(Exception):
    """Base class for all txrisk errors."""

    exit_code = 1


class ConfigError(TxRiskError):
    """Bad run configuration or command usage (missing path, empty range...)."""

    exit_code = 2


class ParseError(TxRiskError):
    """An input file failed to parse."""

    exit_code = 3

    def __init__(self, message, *, path=None, row=None, column=None):
        ctx = []
        if path is not None:
            ctx.append(str(path))
        if row is not None:
            ctx.append(f"row {row}")
        if column is not None:
            ctx.append(f"column {column!r}")
        if ctx:
            message = f"{message} ({', '.join(ctx)})"
        super().__init__(message)
        self.path = path
        self.row = row
        self.column = column


class EmptyIntersectionError(TxRiskError):
    """Weather, meter, and calendar files share no common coverage."""

    exit_code = 5


class TooFewPointsError(TxRiskError):
    """Asked for more clusters than there are data points."""

    exit_code = 6


class NoFeasibleScaleError(TxRiskError):
    """Even zero loading violates a temperature limit (ambient above limit)."""

    exit_code = 8


class FarFromAllClustersError(TxRiskError):
    """Strict-mode estimation refused a query outside the model's support."""

    exit_code = 9


class SchemaMismatchError(TxRiskError):
    """A vector does not line up with the feature schema it is used under."""

    exit_code = 11


class EmptyDatasetError(TxRiskError):
    """An operation that needs at least one record received none."""

    exit_code = 12


class MissingProfileError(TxRiskError):
    """The meter file holds daily energy only, no 24-hour profiles."""

    exit_code = 13


class ZeroServicesError(TxRiskError):
    """Energy-to-load conversion requires at least one service."""

    exit_code = 14


class OutOfRangeError(TxRiskError):
    """An ordinal status order fell outside [1, N]."""

    exit_code = 15


class ZeroPeakProfileError(TxRiskError):
    """A cluster profile has no load at any hour, so it has no loading
    threshold."""

    exit_code = 17


class NonMonotoneError(TxRiskError):
    """A simulated temperature or life loss fell as the service count rose
    (a broken invariant of the thermal and aging models)."""

    exit_code = 18


class EmptyClusterWarning(UserWarning):
    """A cluster lost all members and its centroid was reseeded."""


class DegenerateFeatureWarning(UserWarning):
    """A numeric feature is constant over the dataset (Min == Max)."""


class DataGapWarning(UserWarning):
    """An hourly file had duplicate readings, or days interpolated or
    dropped for missing readings: one warning per file and kind."""


class FarQueryWarning(UserWarning):
    """A lenient-mode estimation query is outside the model's support."""


class MissingFeatureWarning(UserWarning):
    """A query lacks schema features; distance used the available subset."""


class ShortCoverageWarning(UserWarning):
    """The dataset spans less than two years; results may not be
    statistically representative."""


def read_json(path, error, what):
    """The JSON document in the UTF-8 file ``path``. A file that cannot be
    opened, decoded or parsed (or nests too deep to parse) raises
    ``error``, a :class:`TxRiskError` class, with ``what`` naming the
    file's role and ``path``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, RecursionError, ValueError) as exc:  # also JSON, UTF-8
        raise error(f"cannot read {what} {path}: {exc}") from exc


def json_number(value, what: str) -> float:
    """``value``, a JSON number (not true/false or text) finite within the
    float range, as a float. Anything else raises an error that ``what``
    names: a TypeError if it is no number, else a ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{what} must be a number, got {value!r}")
    if not abs(value) <= _FLOAT_MAX:
        got = (repr(value) if isinstance(value, float)
               else f"a {value.bit_length()}-bit integer")
        raise ValueError(f"{what} must be finite and within "
                         f"±{_FLOAT_MAX:.4g}, got {got}")
    return float(value)


def json_integer(value, what: str, minimum: int = 0) -> int:
    """``value``, a JSON integer (not a float, true/false or text) of at
    least ``minimum`` and within the float range; anything else raises a
    ValueError that ``what`` names."""
    if isinstance(value, int) and not isinstance(value, bool):
        json_number(value, what)  # refuses an integer past the float range
        if value >= minimum:
            return value
    raise ValueError(f"{what} must be an integer >= {minimum}, got {value!r}")
