"""Deterministic 64-bit pseudo-random generator (SplitMix64).

Used wherever reproducibility must hold bit-for-bit across platforms and
library versions: dataset splitting, synthetic data generation, and
quasi-random scrambling. Heavier vectorized sampling inside training loops
uses numpy generators instead, which are deterministic per seed but not
pinned by this module.

Algorithm: SplitMix64 (Steele, Lea, Flood 2014), the reference 64-bit
state-increment mixer. Stream version 1; any change to the update or
output function must bump STREAM_VERSION.

Output i mixes the state s + i*gamma: `SplitMix64.block` draws k outputs
as one uint64 array expression (`np.uint64` constants, numpy 1 and 2
alike) with the bits of k single draws. Logs, cosines and powers stay on
libm, per element over memoryviews; numpy's SIMD forms vary by CPU.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

STREAM_VERSION = 1

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S11, _S27, _S30, _S31 = (np.uint64(s) for s in (11, 27, 30, 31))


class SplitMix64:
    """64-bit generator with a single word of state."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def block(self, k: int) -> np.ndarray:
        """The next k outputs as a uint64 array."""
        z = np.arange(1, k + 1, dtype=np.uint64) * np.uint64(_GOLDEN) + np.uint64(self.state)
        self.state = (self.state + k * _GOLDEN) & _MASK64
        for shift, mix in ((_S30, _MIX1), (_S27, _MIX2)):
            z ^= z >> shift
            z *= mix
        return z ^ (z >> _S31)

    def uniforms(self, k: int) -> np.ndarray:
        """k uniform doubles in [0, 1) from the top 53 bits of each draw."""
        return (self.block(k) >> _S11) * 2.0**-53

    def normals(self, k: int) -> np.ndarray:
        """k standard normals via Box-Muller; each sine partner is discarded."""
        top = self.block(2 * k) >> _S11
        # offset keeps u1 strictly inside (0, 1) so log() is finite
        pairs = zip(memoryview((top[0::2] + 0.5) * 2.0**-53), memoryview(top[1::2] * 2.0**-53))
        return np.fromiter((math.sqrt(-2.0 * math.log(a)) * math.cos(2.0 * math.pi * b)
                            for a, b in pairs), np.float64, k)

    def below(self, bounds) -> np.ndarray:
        """Unbiased integers in [0, b) for each bound b; a rejected draw
        rewinds the state to just after it and the rest are drawn again."""
        b = np.asarray(bounds, dtype=np.uint64)
        if not b.all():
            raise ValueError("bounds must be positive")
        parts = []
        while True:
            start, z = self.state, self.block(len(b))
            rejected = np.flatnonzero(z > ~(-b % b))    # z >= 2^64 - (2^64 mod b)
            if not len(rejected):
                return np.concatenate(parts + [z % b])
            k = int(rejected[0])
            parts.append(z[:k] % b[:k])
            self.state, b = (start + (k + 1) * _GOLDEN) & _MASK64, b[k:]

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates shuffle of range(n), descending index order."""
        swaps = memoryview(self.below(np.arange(n, 1, -1, dtype=np.uint64)))
        items = list(range(n))
        for i, j in zip(range(n - 1, 0, -1), swaps):
            items[i], items[j] = items[j], items[i]
        return np.array(items, dtype=np.intp)


def derive_seed(root: int, label: str) -> int:
    """Stable sub-stream seed for (root, label), independent of hash
    randomization."""
    digest = hashlib.sha256(f"{root}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")
