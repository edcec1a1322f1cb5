"""Reference forms of the GP marginal likelihood, its ascent and proposals.

`nlml_and_grad` is the NLML and gradient of
`autoduct.hpo.gp._likelihood(diff2, z)(theta, grad=...)` as they were
before the squared distances and the length-scale gradients became
matrix products, and before K^-1 came from one bordered factorization:
both contractions over the (d, n, n) tensor are einsums, and each row's
factor is a stacked Cholesky (or its jitter ladder) with L^-1 from
`np.linalg.inv`; the kernel and its derivative are formed as
`_likelihood` forms them. The two forms sum in different orders, so they
agree to rounding, not bit for bit. With `matmul=True` it is the matrix-product
form itself on `autoduct.hpo.gp._factor`, as one call that rebuilds every
per-fit constant and always forms the NLML.

`fit_gp` is `autoduct.hpo.gp.fit_gp` as it was before the ascent became
gradient-only with an in-place Adam update: each step evaluates the full
likelihood in its matrix-product form and the update allocates. It is the
oracle the fit is held to bit for bit. With `matmul=False` it ascends on
the einsum form and factorizes the chosen covariance by Cholesky, with
alpha from two general solves, as the fit did before the bordered
factorization; `propose_by_solve` proposes from that fit with the
posterior's triangular system solved by `np.linalg.solve`.
"""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from autoduct.errors import SingularCovariance
from autoduct.hpo.gp import (_JITTERS, _LOG_BOUNDS, _OPT_LR, _OPT_STEPS, _SQRT5,
                             _START_LENGTHSCALES, _START_NOISE_VARS, GPSurrogate,
                             _bordered, _ei_arrays, _factor, _kernel, incumbent_value)
from autoduct.hpo.sobol import sobol_points
from autoduct.hpo.space import ENCODED_DIM, canonicalize, decode
from autoduct.rng import derive_seed


def chol_with_ladder(k):
    """Cholesky factor of k + jitter I at the first rung of the ladder that
    factorizes, and that rung."""
    for jitter in _JITTERS:
        try:
            return np.linalg.cholesky(k + jitter * np.eye(k.shape[0])), jitter
        except np.linalg.LinAlgError:
            continue
    raise SingularCovariance("covariance failed to factorize at every jitter level")


def chol_and_inv(k):
    """L and L^-1 of each covariance in a stack k (s, n, n) at the first
    jitter rung, or row by row up the ladder, and which rows factorized;
    a row that none does gets L = L^-1 = I."""
    n = k.shape[-1]
    try:
        chol, ok = np.linalg.cholesky(k + _JITTERS[0] * np.eye(n)), np.ones(len(k), bool)
    except np.linalg.LinAlgError:
        chol, ok = np.array([np.eye(n)] * len(k)), np.zeros(len(k), bool)
        for i, row in enumerate(k):
            try:
                chol[i], ok[i] = chol_with_ladder(row)[0], True
            except SingularCovariance:
                continue
    return chol, np.linalg.inv(chol), ok


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
    scaled_e = sf2 * np.exp(-(_SQRT5 * r))
    k_signal = (1.0 + _SQRT5 * r + (5.0 / 3.0) * r**2) * scaled_e
    if matmul:
        chol, chol_inv, rungs = _factor(_bordered(len(theta), n), k_signal, sn2)
        ok = np.ones(len(theta), bool) if rungs is None else ~np.isnan(rungs)
    else:
        chol, chol_inv, ok = chol_and_inv(k_signal + sn2[:, None, None] * np.eye(n))
    w = chol_inv @ z
    alpha = (w[:, None, :] @ chol_inv)[:, 0]
    nlml = np.where(ok, 0.5 * np.einsum("si,si->s", w, w)
                    + np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
                    + 0.5 * n * math.log(2.0 * math.pi), np.inf)
    inner = alpha[:, :, None] * alpha[:, None, :] - np.swapaxes(chol_inv, 1, 2) @ chol_inv
    gradient = np.empty_like(theta)
    common = (1.0 + _SQRT5 * r) * scaled_e
    if matmul:
        gradient[:, :d] = (-5.0 / 6.0) * ((inner * common).reshape(-1, n * n) @ flat2.T) / ls**2
    else:
        gradient[:, :d] = (-5.0 / 6.0) * np.einsum("ijk,sjk->si", diff2, inner * common) / ls**2
    gradient[:, d] = -0.5 * (inner * k_signal).sum(axis=(1, 2))
    gradient[:, d + 1] = -0.5 * sn2 * np.trace(inner, axis1=1, axis2=2)
    return nlml, np.where(ok[:, None], gradient, 0.0)


def fit_gp(x, y, matmul=True):
    """The surrogate of encoded inputs x (n, d) and objectives y (n,):
    every start takes 60 allocating Adam steps on the full likelihood.
    With matmul=False, a namespace of the surrogate's fields with `chol`
    (L) in place of `chol_inv`."""
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
        nlml, grad = nlml_and_grad(diff2, z, theta, matmul)
        alive &= np.isfinite(nlml)
        m = 0.9 * m + 0.1 * grad
        v = 0.999 * v + 0.001 * grad**2
        m_hat = m / (1.0 - 0.9**step)
        v_hat = v / (1.0 - 0.999**step)
        theta = np.clip(theta - _OPT_LR * m_hat / (np.sqrt(v_hat) + 1e-8), lo, hi)
    nlml, _ = nlml_and_grad(diff2, z, theta, matmul)
    nlml = np.where(alive & np.isfinite(nlml), nlml, np.inf)
    if not np.isfinite(nlml).any():
        raise SingularCovariance("covariance failed to factorize at every jitter level")
    best_theta = theta[int(np.argmin(nlml))]

    log_ls, log_sf2, log_sn2 = best_theta[:d], float(best_theta[d]), float(best_theta[d + 1])
    k_signal = _kernel(x, x, log_ls, log_sf2)
    fields = dict(x=x, y_mean=y_mean, y_std=y_std, log_lengthscales=log_ls,
                  log_signal_var=log_sf2, log_noise_var=log_sn2)
    if not matmul:
        chol, jitter = chol_with_ladder(k_signal + math.exp(log_sn2) * np.eye(n))
        alpha = np.linalg.solve(chol.T, np.linalg.solve(chol, z))
        return SimpleNamespace(**fields, chol=chol, alpha=alpha, jitter=jitter)
    _, chol_inv, rungs = _factor(_bordered(1, n), k_signal[None], np.array([math.exp(log_sn2)]))
    jitter = _JITTERS[0] if rungs is None else float(rungs[0])
    if math.isnan(jitter):
        raise SingularCovariance("covariance failed to factorize at every jitter level")
    chol_inv = chol_inv[0]
    alpha = chol_inv.T @ (chol_inv @ z)
    return GPSurrogate(**fields, chol_inv=chol_inv, alpha=alpha, jitter=jitter)


def propose_by_solve(fit, candidate_count=2048, seed=0):
    """`autoduct.hpo.gp.propose_next` on a `fit_gp(x, y, matmul=False)`
    fit, with the posterior's L w = k* solved by `np.linalg.solve`."""
    raw = sobol_points(ENCODED_DIM, candidate_count,
                       shift_seed=derive_seed(seed, "propose-candidates"))
    k_star = _kernel(canonicalize(raw), fit.x, fit.log_lengthscales, fit.log_signal_var)
    w = np.linalg.solve(fit.chol, k_star.T)
    var = np.maximum(math.exp(fit.log_signal_var) - (w**2).sum(axis=0), 0.0)
    mu, var = fit.y_mean + fit.y_std * (k_star @ fit.alpha), fit.y_std**2 * var
    ei = _ei_arrays(mu, var, incumbent_value(fit))
    return replace(decode(raw[int(np.argmax(ei))]), origin="bo")
