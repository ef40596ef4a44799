"""The seeded draw of k-means' initial points, in Python integers alone.

:class:`Sampler` draws exactly what numpy's
``default_rng(seed).choice(n, size=k, replace=False)`` draws: NumPy's
``SeedSequence`` (pool of 4) seeds a PCG64 generator (128-bit LCG, XSL-RR
output), bounded integers are Lemire's rejection draws, and ``choice``
without replacement is Floyd's algorithm followed by a shuffle, or a
partial shuffle of ``arange(n)`` for large samples of large populations.
Calls to :meth:`Sampler.choice` continue one stream, as calls to one
``Generator`` do.

The package owns this stream because NumPy's policy (NEP 19) does not
keep ``Generator`` streams the same across releases, and because
importing ``numpy.random`` maps OpenSSL and numpy's random extensions,
about 5 MB resident, for a handful of integers.
"""

from __future__ import annotations

import operator

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
# SeedSequence's hash constants.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
# PCG's default 128-bit multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_state(seed):
    """``SeedSequence(seed).generate_state(4, uint64)`` as Python ints.

    Raises:
        ValueError: ``seed`` is negative.
    """
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed & _MASK32]  # little-endian 32-bit words
    while seed := seed >> 32:
        entropy.append(seed & _MASK32)
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0)
            for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    words = []
    for i in range(2 * _POOL):
        value = pool[i % _POOL] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ value >> 16)
    return [words[i] | words[i + 1] << 32 for i in range(0, 2 * _POOL, 2)]


class Sampler:
    """The PCG64 stream of ``numpy.random.default_rng(seed)``.

    Raises:
        TypeError: ``seed`` is not an integer.
        ValueError: ``seed`` is negative.
    """

    def __init__(self, seed: int):
        s_hi, s_lo, i_hi, i_lo = _seed_state(operator.index(seed))
        self._inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        # From state 0: one step (to the increment), the seed added, and
        # one more step.
        self._state = (self._inc + (s_hi << 64 | s_lo)) & _MASK128
        self._next64()
        self._half = None  # the high half of a 64-bit output, for next32

    def _next64(self):
        self._state = state = (self._state * _PCG_MULT + self._inc) & _MASK128
        x = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        return (x >> rot | x << (64 - rot)) & _MASK64

    def _next32(self):
        """The low half of a 64-bit output, then its high half."""
        if self._half is not None:
            half, self._half = self._half, None
            return half
        x = self._next64()
        self._half = x >> 32
        return x & _MASK32

    def _bounded(self, top):
        """A draw from ``0..top`` (numpy's ``random_bounded_uint64`` by
        Lemire's method): none for 0, from 32-bit outputs below
        ``2 ** 32``, else from 64-bit ones. (Python's integers do not
        overflow, so the full range needs no case of its own.)"""
        if top == 0:
            return 0
        bits, draw = (32, self._next32) if top <= _MASK32 else (64, self._next64)
        span, mask = top + 1, (1 << bits) - 1
        threshold = (1 << bits) % span
        m = draw() * span
        while m & mask < threshold:
            m = draw() * span
        return m >> bits

    def choice(self, n: int, k: int) -> list[int]:
        """``k`` distinct integers of ``0..n-1`` in the order that
        ``Generator.choice(n, size=k, replace=False)`` gives them."""
        if n > 10000 and k > n // 50:
            # arange(n) shuffled from n - 1 down to n - k; only the
            # positions swapped are held.
            moved = {}
            for i in range(n - 1, max(n - k, 1) - 1, -1):
                j = self._bounded(i)
                moved[i], moved[j] = moved.get(j, j), moved.get(i, i)
            return [moved.get(i, i) for i in range(n - k, n)]
        # Floyd's algorithm; a set answers numpy's probe table's question.
        picks, seen = [], set()
        for j in range(n - k, n):
            value = self._bounded(j)
            value = j if value in seen else value
            seen.add(value)
            picks.append(value)
        for i in range(k - 1, 0, -1):
            j = self._bounded(i)
            picks[i], picks[j] = picks[j], picks[i]
        return picks
