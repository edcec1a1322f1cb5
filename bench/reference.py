"""A fixed computation that measures how fast the machine is right now.

The benchmark's host is a shared machine whose speed drifts by a quarter
or more over minutes, and a whole run can fall inside a slow stretch.
Timing this computation next to every pass and dividing the pass time by
it cancels that drift: the ratio moves when autoduct gets faster or
slower, not when the machine does. It mixes the kinds of work a pass
does: small dense linear algebra (the GP surrogate), a small matmul with
an activation (MLP training and inference), dict updates and float
formatting (CSV and JSON writing). Nothing in it calls autoduct, so no
change to the program moves it.
"""

from __future__ import annotations

import time

import numpy as np


def reference_task() -> int:
    rng = np.random.default_rng(0)
    a = rng.random((24, 21))
    for _ in range(360):
        d = ((a[:, None, :] - a[None, :, :]) ** 2).sum(-1)
        k = np.exp(-np.sqrt(d)) + 1e-3 * np.eye(24)
        np.linalg.solve(np.linalg.cholesky(k), a)
    x = rng.random((64, 64))
    w = rng.random((64, 16))
    for _ in range(1200):
        h = np.tanh(x @ w)
        x.T @ h
    counts: dict[int, int] = {}
    for i in range(120_000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return len(",".join(f"{v:.9g}" for v in rng.random(60_000)))


def time_reference() -> float:
    """Wall time of one reference_task() call."""
    t0 = time.perf_counter()
    reference_task()
    return time.perf_counter() - t0
