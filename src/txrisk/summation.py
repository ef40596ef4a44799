"""Correctly rounded means of the columns of a table's row groups, by
error-free extraction: the stored centroids and profiles of
:mod:`txrisk.clustering` (:func:`member_means`). Kept apart from it: each
CLI run compiles its modules unless bytecode is cached, and one module as
large as both peaks higher while it compiles.
"""

from __future__ import annotations

import math

import numpy as np

# member_means extracts this many members at a time: a block of 24 hourly
# values and its high part are about 200 KB each.
_MEAN_ROWS = 1024


def member_means(values, member_rows, counts) -> np.ndarray:
    """``(k, d)`` means of ``values[member_rows]`` split by the ``(k,)``
    ``counts``, NaN for an empty cluster: each column's correctly rounded
    sum (``math.fsum``) over the count, whatever the order or hardware.

    The sums are taken by error-free extraction (Rump, Ogita and Oishi,
    "Accurate floating-point summation, part I", SIAM J. Sci. Comput.
    2008), one cluster at a time, ``_MEAN_ROWS`` members at a time. Let t
    be a column's largest magnitude in all of ``values`` (from its max and
    -min) and n the cluster's member count. For a power of two
    sigma >= (n + 2) t, each value v splits into q = ((sigma + v) - sigma)
    and v - q, both exact: q is a multiple of u sigma (u = 2 ** -53) and
    |v - q| <= u sigma. Every partial sum of the n values q is then a
    multiple of u sigma of magnitude at most n (t + u sigma) <= sigma
    (n below 2 ** 26), so it is a double: the column's q add up exactly in
    any order, as numpy adds them. The remainders are split again at
    sigma' >= (n + 2) u sigma, again exactly. The exact sum is the two
    level totals plus the remainders of that second level, of which only
    the nonzero ones are kept (a value far below t leaves one); ``fsum``
    of those few terms is the correctly rounded exact sum, the bits of
    ``fsum`` over the values themselves, and so is each mean divided by n.
    A column whose t is not finite, or whose sigma would pass the float
    range, is summed by ``fsum`` over its values, which raises where it
    overflows."""
    means = np.full((len(counts), values.shape[1]), np.nan)
    # The largest magnitude in each column, with no copy of the grid.
    top = np.maximum(values.max(axis=0, initial=0.0),
                     -values.min(axis=0, initial=0.0))
    _, top_exp = np.frexp(top)  # 2 ** top_exp > top
    end = 0
    for c, n in enumerate(counts.tolist()):
        rows, end = member_rows[end:end + n], end + n
        if n:
            means[c] = _exact_sums(values, rows, top, top_exp) / n
    return means


def _exact_sums(values, rows, top, top_exp):
    """The correctly rounded sum of each column of ``values[rows]``, as
    :func:`member_means` takes it, from each column's largest magnitude
    ``top`` in ``values`` and its exponent ``top_exp``."""
    # 2 ** scale is the least power of two of at least n + 2.
    scale = (len(rows) + 1).bit_length()
    totals = np.zeros((2, values.shape[1]))
    rest = [[] for _ in range(values.shape[1])]  # nonzero remainders
    with np.errstate(invalid="ignore", over="ignore"):  # fallback columns
        sigmas = (np.ldexp(1.0, top_exp + scale),
                  np.ldexp(1.0, top_exp + 2 * scale - 53))
        fallback = ~(np.isfinite(top) & np.isfinite(sigmas[0]))
        for sigma in sigmas:
            sigma[fallback] = 1.0
        for start in range(0, len(rows), _MEAN_ROWS):
            block = values[rows[start:start + _MEAN_ROWS]]
            high = np.empty_like(block)
            for total, sigma in zip(totals, sigmas):
                np.add(block, sigma, out=high)
                high -= sigma
                block -= high
                total += high.sum(axis=0)
            left = block != 0
            left[:, fallback] = False
            for j in np.flatnonzero(left.any(axis=0)).tolist():
                rest[j] += block[left[:, j], j].tolist()
    sums = [math.fsum([high, low, *extra])
            for high, low, extra in zip(*totals.tolist(), rest)]
    for j in np.flatnonzero(fallback).tolist():
        sums[j] = math.fsum(values[rows, j].tolist())
    return np.array(sums)
