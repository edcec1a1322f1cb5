"""Scalar reference forms of the SplitMix64 draws and their callers.

`ScalarSplitMix64` is `autoduct.rng.SplitMix64` as it was before its
streams were drawn as uint64 arrays: one Python integer per output, with
the uniform, Box-Muller normal, rejection-sampled bounded integer and
Fisher-Yates shuffle each built on it. `generate_synthetic` and
`split_order` are the synthetic generator and the split's row order
written on those scalar draws. They are the oracles the array forms are
held to bit for bit.
"""

import math

import numpy as np

from autoduct.dataset import (FEATURE_NAMES, REFERENCE_ENVELOPE, TARGET_NAME, Dataset,
                              synthetic_noise_std, synthetic_oracle)

_MASK64 = (1 << 64) - 1


class ScalarSplitMix64:
    """64-bit generator with a single word of state, one draw at a time."""

    def __init__(self, seed):
        self.state = seed & _MASK64

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def random(self):
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def below(self, n):
        """Unbiased integer in [0, n) via rejection sampling."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            d = self.next_u64()
            if d < limit:
                return d % n

    def shuffle(self, items):
        """In-place Fisher-Yates shuffle, descending index order."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def normal(self):
        """Standard normal via Box-Muller; the sine partner is discarded."""
        u1 = ((self.next_u64() >> 11) + 0.5) * 2.0**-53
        u2 = (self.next_u64() >> 11) * 2.0**-53
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def generate_synthetic(n, noise_scale=1.0, seed=0):
    """The synthetic table drawn one value at a time: features column by
    column, then one normal per row."""
    gen = ScalarSplitMix64(seed)
    rows = np.empty((n, len(FEATURE_NAMES)))
    for j, name in enumerate(FEATURE_NAMES):
        lo, hi = REFERENCE_ENVELOPE[name]
        for i in range(n):
            u = gen.random()
            if name in ("P", "G"):
                rows[i, j] = lo * (hi / lo) ** u
            else:
                rows[i, j] = lo + u * (hi - lo)
    oracle = synthetic_oracle(rows)
    sigma = synthetic_noise_std(rows, noise_scale)
    noise = np.array([gen.normal() for _ in range(n)])
    lo, hi = REFERENCE_ENVELOPE[TARGET_NAME]
    return Dataset(rows, np.clip(oracle + sigma * noise, lo, hi))


def split_order(n, seed):
    """The row order `dataset.split` cuts: a scalar Fisher-Yates shuffle
    of range(n)."""
    indices = list(range(n))
    ScalarSplitMix64(seed).shuffle(indices)
    return np.array(indices, dtype=np.intp)
