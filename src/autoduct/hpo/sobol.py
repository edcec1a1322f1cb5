"""Sobol low-discrepancy sequence from published direction numbers.

Construction: for each dimension, 32 direction integers v_1..v_32 are
built from the primitive-polynomial parameters (s, a, m_1..m_s) of Joe &
Kuo's D(6) table,

    v_k = m_k << (32 - k)                          for k <= s
    v_k = v_{k-s} ^ (v_{k-s} >> s) ^ XOR of v_{k-i}
          over the set bits i of a                 for k > s,

with the first dimension using the van der Corput numbers m_k = 1. The
points follow the Gray-code ordering x_n = x_{n-1} ^ v_{ctz(n)} (ctz =
index of the lowest set bit of n), computed as one running XOR
(np.bitwise_xor.accumulate) over rows of a uint64 table of all v_k; the
sequence starts at x_1 = (0.5, ..., 0.5), skipping the all-zeros point.

Optional scrambling is a per-dimension digital shift: every point's
32-bit integer form is XORed with a fixed random word drawn from the
shift seed. Shift 0 means unscrambled, which is bit-reproducible.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..errors import DimensionOverflow
from ..rng import SplitMix64
from .space import SearchSpace, TrialConfig, decode

_BITS = 32
_MAX_POINTS = 2**31

# (s, a, m) per dimension, from the Joe-Kuo D(6) primitive-polynomial
# table; dimension 1 (van der Corput) is handled separately.
_DIRECTION_PARAMS = (
    (1, 0, (1,)),
    (2, 1, (1, 3)),
    (3, 1, (1, 3, 1)),
    (3, 2, (1, 1, 1)),
    (4, 1, (1, 1, 3, 3)),
    (4, 4, (1, 3, 5, 13)),
    (5, 2, (1, 1, 5, 5, 17)),
    (5, 4, (1, 1, 5, 5, 5)),
    (5, 7, (1, 1, 7, 11, 19)),
    (5, 11, (1, 1, 5, 1, 1)),
    (5, 13, (1, 1, 1, 3, 11)),
    (5, 14, (1, 3, 5, 5, 31)),
    (6, 1, (1, 3, 3, 9, 7, 49)),
    (6, 13, (1, 1, 1, 15, 21, 21)),
    (6, 16, (1, 3, 1, 13, 27, 49)),
    (6, 19, (1, 1, 1, 15, 7, 5)),
    (6, 22, (1, 3, 1, 15, 13, 25)),
    (6, 25, (1, 1, 5, 5, 19, 61)),
    (7, 1, (1, 3, 7, 11, 23, 15, 103)),
    (7, 4, (1, 3, 7, 13, 13, 15, 69)),
)

MAX_DIM = 1 + len(_DIRECTION_PARAMS)


def _direction_integers(dim_index: int) -> list[int]:
    """v_1..v_32 for one dimension (0 = van der Corput)."""
    if dim_index == 0:
        return [1 << (_BITS - k) for k in range(1, _BITS + 1)]
    s, a, m = _DIRECTION_PARAMS[dim_index - 1]
    v = [0] * (_BITS + 1)
    for k in range(1, s + 1):
        v[k] = m[k - 1] << (_BITS - k)
    for k in range(s + 1, _BITS + 1):
        word = v[k - s] ^ (v[k - s] >> s)
        for i in range(1, s):
            if (a >> (s - 1 - i)) & 1:
                word ^= v[k - i]
        v[k] = word
    return v[1:]


# _DIRECTIONS[k, j] = v_{k+1} of dimension j
_DIRECTIONS = np.array([_direction_integers(j) for j in range(MAX_DIM)], np.uint64).T


def sobol_points(dim: int, n: int, shift_seed: int = 0) -> np.ndarray:
    """First n points (skipping the all-zeros one) in [0, 1)^dim.

    shift_seed != 0 applies the digital shift described in the module
    docstring; 0 returns the plain sequence.
    """
    if dim < 1 or dim > MAX_DIM:
        raise DimensionOverflow(f"dimension must be in [1, {MAX_DIM}], got {dim}")
    if n < 0 or n > _MAX_POINTS:
        raise DimensionOverflow(f"point count must be in [0, {_MAX_POINTS}], got {n}")

    shifts = (SplitMix64(shift_seed).block(dim) >> np.uint64(64 - _BITS) if shift_seed != 0
              else np.zeros(dim, np.uint64))

    # ctz(i) for i = 1..n: frexp gives the exact exponent of the lowest set bit
    index = np.arange(1, n + 1, dtype=np.int64)
    ctz = np.frexp((index & -index).astype(np.float64))[1] - 1
    states = np.bitwise_xor.accumulate(_DIRECTIONS[ctz, :dim], axis=0)
    return (states ^ shifts) / 2.0**_BITS


def sample_sobol(space: SearchSpace, n: int, shift_seed: int = 0) -> list[TrialConfig]:
    """Quasi-random configurations: cube points mapped through decode.

    Trial ids number the points 0..n-1; callers that merge stages assign
    their own ids.
    """
    if n < 1:
        raise ValueError("need at least one point")
    points = sobol_points(space.encoded_dim, n, shift_seed)
    return [replace(decode(point, space), trial_id=i, origin="sobol")
            for i, point in enumerate(points)]
