"""Per-row reference network for the gradient checks, and the analytic
gradient they check.

An independent oracle for `neural_net`: one input row at a time, in plain
Python loops over units, with every activation formula written out here
rather than taken from the library. Only the parameter layout
(`Parameters` views) and `VAR_FLOOR` are shared with the code under test.

`backward` is the other side of each check: the library's analytic
gradient of one batch, through the private passes training runs.
"""

import math

import numpy as np

from autoduct.errors import DimensionMismatch, LengthMismatch
from autoduct.neural_net import (VAR_FLOOR, Parameters, _backward_batch,
                                 _forward_batch, _nll_arrays, _Workspace)


def _softplus(v):
    return max(v, 0.0) + math.log1p(math.exp(-abs(v)))


# activation values by name, with each unit's published constants
_ACT = {
    "relu": lambda v: v if v > 0 else 0.0,
    "leaky_relu": lambda v: v if v > 0 else 0.01 * v,
    "gelu": lambda v: 0.5 * v * (1.0 + math.tanh(math.sqrt(2.0 / math.pi)
                                                 * (v + 0.044715 * v ** 3))),
    "selu": lambda v: 1.0507009873554805 * (v if v > 0
                                            else 1.6732632423543772 * math.expm1(v)),
    "elu": lambda v: v if v > 0 else math.expm1(v),
    "softplus": _softplus,
}


def forward_row(p, cfg, x):
    """(mu, var) of one normalized input row, without dropout."""
    act = _ACT[cfg.activation.value]
    h = [float(v) for v in x]
    for w, b in zip(p.hidden_w, p.hidden_b):
        w, b = w.tolist(), b.tolist()
        h = [act(sum(w_ji * h_i for w_ji, h_i in zip(w_j, h)) + b_j)
             for w_j, b_j in zip(w, b)]
    head_w, head_b = p.head_w.tolist(), p.head_b.tolist()
    mu = sum(w_i * h_i for w_i, h_i in zip(head_w[0], h)) + head_b[0]
    raw = sum(w_i * h_i for w_i, h_i in zip(head_w[1], h)) + head_b[1]
    return mu, _softplus(raw) + VAR_FLOOR


def nll(p, cfg, x, y):
    """Mean Gaussian negative log-likelihood over the rows, constant
    term omitted."""
    total = 0.0
    for row, target in zip(x, y):
        mu, var = forward_row(p, cfg, row)
        total += (target - mu) ** 2 / (2.0 * var) + 0.5 * math.log(var)
    return total / len(y)


def fd_gradient(p, cfg, x, y, h=1e-6):
    """Central differences of `nll` over every parameter entry, as one
    array per `p.arrays()` entry. Perturbs `p` in place through ravel
    views and restores each entry."""
    grads = []
    for arr in p.arrays():
        flat = arr.ravel()
        g = np.empty_like(flat)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            hi = nll(p, cfg, x, y)
            flat[j] = orig - h
            lo = nll(p, cfg, x, y)
            flat[j] = orig
            g[j] = (hi - lo) / (2.0 * h)
        grads.append(g.reshape(arr.shape))
    return grads


def backward(p, cfg, batch):
    """Analytic gradient of the mean NLL over a (features, targets) batch,
    without dropout or weight decay: training applies its own masks and
    decays the weights in the AdamW update."""
    x, y = batch
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != cfg.input_dim:
        raise DimensionMismatch(f"expected batch of shape (n, {cfg.input_dim})")
    if x.shape[0] == 0:
        raise LengthMismatch("batch must be non-empty")
    n = x.shape[0]
    ws = _Workspace(cfg, p.flat.shape[:-1], n, n)
    mu, var = _forward_batch(p, cfg, x, None, ws, grad=True)
    _nll_arrays(mu, var, y, ws.at(n))
    grads = Parameters(cfg, np.empty_like(p.flat))
    _backward_batch(p, cfg, x, y, None, ws, grads)
    return grads
