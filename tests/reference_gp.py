"""Reference forms of the GP marginal likelihood and its ascent.

`nlml_and_grad` is the NLML and gradient of
`autoduct.hpo.gp._likelihood(diff2, z)(theta, grad=...)` as they were
before the squared distances and the length-scale gradients became
matrix products: the same stacked Cholesky, jitter ladder and GPML eq.
5.9 gradient, with both contractions over the (d, n, n) tensor written as einsums. The two
forms sum in different orders, so they agree to rounding, not bit for bit.
With `matmul=True` it is the matrix-product form itself, as one call that
rebuilds every per-fit constant and always forms the NLML.

`fit_gp` is `autoduct.hpo.gp.fit_gp` as it was before the ascent became
gradient-only with an in-place Adam update: each step evaluates the full
likelihood in its matrix-product form and the update allocates. It is the
oracle the fit is held to bit for bit.
"""

import contextlib
import math

import numpy as np

from autoduct.errors import SingularCovariance
from autoduct.hpo.gp import (_JITTERS, _LOG_BOUNDS, _OPT_LR, _OPT_STEPS, _SQRT5,
                             _START_LENGTHSCALES, _START_NOISE_VARS, GPSurrogate,
                             _chol_with_ladder, _kernel)


def nlml_and_grad(diff2, z, theta, matmul=False):
    """Negative log marginal likelihood (s,) and gradient (s, d + 2) for
    each row of theta; rows that no jitter level factorizes get nlml = inf
    and a zero gradient."""
    d, n, _ = diff2.shape
    ls = np.exp(theta[:, :d])
    sf2 = np.exp(theta[:, d])[:, None, None]
    sn2 = np.exp(theta[:, d + 1])
    flat2 = diff2.reshape(d, n * n)
    if matmul:
        r = np.sqrt((ls**-2 @ flat2).reshape(-1, n, n))
    else:
        r = np.sqrt(np.einsum("ijk,si->sjk", diff2, ls**-2))
    e = np.exp(-_SQRT5 * r)
    k_signal = sf2 * ((1.0 + _SQRT5 * r + (5.0 / 3.0) * r**2) * e)
    k = k_signal + sn2[:, None, None] * np.eye(n)
    try:
        chol, ok = np.linalg.cholesky(k + _JITTERS[0] * np.eye(n)), np.ones(len(k), bool)
    except np.linalg.LinAlgError:
        chol, ok = np.array([np.eye(n)] * len(k)), np.zeros(len(k), bool)
        for i, row in enumerate(k):
            with contextlib.suppress(SingularCovariance):
                chol[i], ok[i] = _chol_with_ladder(row)[0], True
    chol_inv = np.linalg.inv(chol)
    w = chol_inv @ z
    alpha = (w[:, None, :] @ chol_inv)[:, 0]
    nlml = np.where(ok, 0.5 * np.einsum("si,si->s", w, w)
                    + np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
                    + 0.5 * n * math.log(2.0 * math.pi), np.inf)
    inner = alpha[:, :, None] * alpha[:, None, :] - np.swapaxes(chol_inv, 1, 2) @ chol_inv
    gradient = np.empty_like(theta)
    common = sf2 * (5.0 / 3.0) * (1.0 + _SQRT5 * r) * e
    if matmul:
        gradient[:, :d] = -0.5 * ((inner * common).reshape(-1, n * n) @ flat2.T) / ls**2
    else:
        gradient[:, :d] = -0.5 * np.einsum("ijk,sjk->si", diff2, inner * common) / ls**2
    gradient[:, d] = -0.5 * (inner * k_signal).sum(axis=(1, 2))
    gradient[:, d + 1] = -0.5 * sn2 * np.trace(inner, axis1=1, axis2=2)
    return nlml, np.where(ok[:, None], gradient, 0.0)


def fit_gp(x, y):
    """The surrogate of encoded inputs x (n, d) and objectives y (n,):
    every start takes 60 allocating Adam steps on the full likelihood."""
    x = np.array(x, dtype=np.float64)
    y = np.array(y, dtype=np.float64)
    n, d = x.shape
    y_mean = float(y.mean())
    y_std = float(y.std())
    if y_std < 1e-12:
        y_std = 1.0
    z = (y - y_mean) / y_std
    diff2 = (x.T[:, :, None] - x.T[:, None, :]) ** 2
    lo, hi = np.array([_LOG_BOUNDS[0]] * d + list(_LOG_BOUNDS[1:])).T
    theta = np.array([[math.log(ls0)] * d + [math.log(1.0), math.log(sn0)]
                      for ls0 in _START_LENGTHSCALES for sn0 in _START_NOISE_VARS])
    alive = np.ones(len(theta), dtype=bool)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for step in range(1, _OPT_STEPS + 1):
        nlml, grad = nlml_and_grad(diff2, z, theta, matmul=True)
        alive &= np.isfinite(nlml)
        m = 0.9 * m + 0.1 * grad
        v = 0.999 * v + 0.001 * grad**2
        m_hat = m / (1.0 - 0.9**step)
        v_hat = v / (1.0 - 0.999**step)
        theta = np.clip(theta - _OPT_LR * m_hat / (np.sqrt(v_hat) + 1e-8), lo, hi)
    nlml, _ = nlml_and_grad(diff2, z, theta, matmul=True)
    nlml = np.where(alive & np.isfinite(nlml), nlml, np.inf)
    if not np.isfinite(nlml).any():
        raise SingularCovariance("covariance failed to factorize at every jitter level")
    best_theta = theta[int(np.argmin(nlml))]

    log_ls, log_sf2, log_sn2 = best_theta[:d], float(best_theta[d]), float(best_theta[d + 1])
    k = _kernel(x, x, log_ls, log_sf2) + math.exp(log_sn2) * np.eye(n)
    chol, jitter = _chol_with_ladder(k)
    alpha = np.linalg.solve(chol.T, np.linalg.solve(chol, z))
    return GPSurrogate(x=x, y_mean=y_mean, y_std=y_std, log_lengthscales=log_ls,
                       log_signal_var=log_sf2, log_noise_var=log_sn2,
                       chol=chol, alpha=alpha, jitter=jitter)
