"""Gaussian-process surrogate and expected-improvement acquisition.

The surrogate is a zero-mean GP over the encoded unit cube with a
Matern-5/2 kernel and per-dimension length scales (automatic relevance
determination) plus Gaussian observation noise:

    k(x, x') = sf2 * (1 + sqrt(5) r + 5 r^2 / 3) exp(-sqrt(5) r),
    r^2 = sum_i (x_i - x'_i)^2 / ell_i^2.

fit_gp takes a run's observations as two arrays: encoded inputs x (n, d)
and objectives y (n,), diverged trials already penalized by run_bo.
Kernel hyperparameters are chosen by maximizing the log marginal
likelihood of the standardized objectives with a small multi-start
first-order scheme (adaptive moment steps on the log parameters; start
grid: length scale {0.5, 1.5, 3.0} x noise variance {1e-4, 1e-2}).
All starts ascend as one stack; the gradient is GPML eq. 5.9
(Rasmussen & Williams 2006). A (d, n, n) tensor of squared coordinate
differences is built once per fit, and viewed as a (d, n * n) matrix it
turns both the scaled distances of every start and every length-scale
gradient, (alpha alpha^T - L^-T L^-1) against it, into one matrix
product each.

Every factorization, in the ascent and of the fitted surrogate, is one
Cholesky factorization of the bordered matrix

    [[K_r, I], [I, c I]],  K_r = K + (noise + jitter) I,
    c = 4 / (noise + jitter),

whose factor is [[L, 0], [L^-T, M]]: L and L^-1 at once, where numpy
offers no triangular solve. M M^T = c I - K_r^-1 is positive definite,
because the Matern kernel is positive semi-definite, so the smallest
eigenvalue of K_r is at least noise + jitter and the largest of K_r^-1
at most c / 4. The jitter climbs a ladder 1e-10 .. 1e-4 before a
factorization gives up; all starts take the first rung in one stacked
call, and each climbs on its own only when that call is refused.

Each of the 60 ascent steps computes, for all six starts at once, the
kernel, L and L^-1, alpha = K^-1 z, the gradient, and which starts
factorized at some jitter rung; then one Adam update in place. The
NLML itself (0.5 z^T K^-1 z + sum log diag L + n/2 log 2pi) is formed
only once, after the last step, to pick the best live start.

Acquisition is the plug-in form of noisy expected improvement for
minimization: the incumbent is the minimum posterior mean over the
observed inputs, and EI uses the noise-free posterior at the candidate
(its variance sf2 - |L^-1 k*|^2 takes one matrix product),

    EI = (inc - mu) Phi(z) + sigma phi(z),  z = (inc - mu) / sigma
    (Snoek et al. 2012, arXiv:1206.2944).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..errors import SingularCovariance
from ..rng import derive_seed
from ..stats import standard_normal_cdf_pdf
from .sobol import sobol_points
from .space import ENCODED_DIM, TrialConfig, canonicalize, decode

_SQRT5 = math.sqrt(5.0)
_JITTERS = (1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4)
_NOISE_FLOOR = 1e-8

# multi-start grid and step schedule for the marginal-likelihood ascent
_START_LENGTHSCALES = (0.5, 1.5, 3.0)
_START_NOISE_VARS = (1e-4, 1e-2)
_OPT_STEPS = 60
_OPT_LR = 0.08
# (lo, hi) of each log length scale, the log signal and the log noise variance
_LOG_BOUNDS = ((math.log(0.05), math.log(20.0)), (math.log(1e-3), math.log(1e3)),
               (math.log(_NOISE_FLOOR), math.log(10.0)))


@dataclass(frozen=True)
class GPSurrogate:
    x: np.ndarray               # (n, d) encoded inputs
    y_mean: float               # standardization of raw objectives
    y_std: float
    log_lengthscales: np.ndarray
    log_signal_var: float
    log_noise_var: float
    chol_inv: np.ndarray        # L^-1, with L L^T = K(x, x) + noise + jitter
    alpha: np.ndarray           # K^{-1} z for standardized objectives z
    jitter: float


def _matern52(r: np.ndarray) -> np.ndarray:
    return (1.0 + _SQRT5 * r + (5.0 / 3.0) * r**2) * np.exp(-_SQRT5 * r)


def _kernel(a: np.ndarray, b: np.ndarray, log_ls: np.ndarray,
            log_sf2: float) -> np.ndarray:
    lengthscales = np.exp(log_ls)
    sa, sb = a / lengthscales, b / lengthscales
    d2 = (sa**2).sum(axis=1)[:, None] + (sb**2).sum(axis=1)[None, :] - 2.0 * sa @ sb.T
    return math.exp(log_sf2) * _matern52(np.sqrt(np.maximum(d2, 0.0)))


def _bordered(s: int, n: int) -> np.ndarray:
    """A stack of s (2n, 2n) zero matrices whose off-diagonal blocks hold
    I: the constant part of _factor's bordered matrices."""
    bordered = np.zeros((s, 2 * n, 2 * n))
    bordered[:, n:, :n] = bordered[:, :n, n:] = np.eye(n)
    return bordered


def _factor(bordered: np.ndarray, k_signal: np.ndarray, noise: np.ndarray):
    """L and L^-1 with L L^T = K_r = k_signal + (noise + jitter) I, for a
    stack of signal covariances k_signal (s, n, n) and noise variances
    noise (s,), from one Cholesky factor of [[K_r, I], [I, c I]] with
    c = 4 / (noise + jitter): its top-left block is L and its bottom-left
    block L^-T. `bordered` comes from _bordered(s, n) and is overwritten.

    Every row takes the first jitter rung in one stacked call; only when
    that call is refused does each row climb the ladder on its own.
    Returns (chol, chol_inv, rungs): rungs is None when every row
    factorized at the first rung, else each row's rung, NaN for a row that
    none factorizes (its L and L^-1 are I)."""
    s, n, _ = k_signal.shape
    bordered[:, :n, :n] = k_signal
    diag = bordered.reshape(s, -1)[:, ::2 * n + 1]
    top, bottom = diag[:, :n], diag[:, n:]      # the diagonals of K_r and c I
    top += noise[:, None]
    try:    # one stacked call when every row factorizes at the first rung
        top += _JITTERS[0]
        bottom[...] = (4.0 / (noise + _JITTERS[0]))[:, None]
        factor, rungs = np.linalg.cholesky(bordered), None
    except np.linalg.LinAlgError:
        kernel_diag = np.diagonal(k_signal, axis1=1, axis2=2) + noise[:, None]
        # [[I, 0], [I, I]]: L = L^-T = I for a row that no rung factorizes
        factor = np.array([np.eye(2 * n) + np.eye(2 * n, k=-n)] * s)
        rungs = np.full(s, np.nan)
        for i in range(s):
            for jitter in _JITTERS:
                np.add(kernel_diag[i], jitter, out=top[i])
                bottom[i] = 4.0 / (noise[i] + jitter)
                try:
                    factor[i] = np.linalg.cholesky(bordered[i])
                except np.linalg.LinAlgError:
                    continue
                rungs[i] = jitter
                break
    # L^-1 contiguous: with cond(K) near 1e8, K^-1 = L^-T L^-1 formed from
    # strided views sums differently enough to move the gradient by 1e-9
    return factor[:, :n, :n], np.ascontiguousarray(np.swapaxes(factor[:, n:, :n], 1, 2)), rungs


def _likelihood(diff2: np.ndarray, z: np.ndarray):
    """The negative log marginal likelihood of one fit's standardized
    objectives z (n,), as `evaluate(theta, value=True, grad=True)` over a
    stack of rows theta (s, d + 2): log length scales, log signal and log
    noise variance. diff2[i, j, k] = (x[j, i] - x[k, i])^2 for inputs x
    (n, d). What every call shares is built here, once per fit.

    `evaluate` returns (nlml (s,) or None, gradient (s, d + 2) or None,
    ok): each is formed only when asked for. `ok` flags the rows that
    factorized at some jitter rung, or is None when all did at the first;
    the others get nlml = inf and a zero gradient."""
    d, n, _ = diff2.shape
    # squared distances and length-scale gradients as BLAS matmuls over
    # the (d, n * n) view of diff2
    flat2 = diff2.reshape(d, n * n)
    flat2_t = flat2.T
    half_n_log_2pi = 0.5 * n * math.log(2.0 * math.pi)
    bordered = {}      # _factor's (s, 2n, 2n) buffer for a stack of s rows

    def evaluate(theta: np.ndarray, value: bool = True, grad: bool = True):
        s = len(theta)
        if s not in bordered:
            bordered[s] = _bordered(s, n)
        ls = np.exp(theta[:, :d])
        sf2 = np.exp(theta[:, d])[:, None, None]
        sn2 = np.exp(theta[:, d + 1])
        r = np.sqrt((ls**-2 @ flat2).reshape(-1, n, n))
        root5_r = _SQRT5 * r
        # sf2 exp(-sqrt5 r) and 1 + sqrt5 r are shared by the kernel and
        # its length-scale derivative
        scaled_e = sf2 * np.exp(-root5_r)
        linear = 1.0 + root5_r
        k_signal = (linear + (5.0 / 3.0) * r**2) * scaled_e
        chol, chol_inv, rungs = _factor(bordered[s], k_signal, sn2)
        ok = None if rungs is None else ~np.isnan(rungs)
        w = chol_inv @ z
        nlml = gradient = None
        if value:
            nlml = (0.5 * np.einsum("si,si->s", w, w)
                    + np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
                    + half_n_log_2pi)
            if ok is not None:
                nlml = np.where(ok, nlml, np.inf)
        if grad:
            alpha = (w[:, None, :] @ chol_inv)[:, 0]
            # d(LML)/dK = inner / 2
            inner = alpha[:, :, None] * alpha[:, None, :] - np.swapaxes(chol_inv, 1, 2) @ chol_inv
            gradient = np.empty_like(theta)
            # dK/d(log ell_i) = (5/3)(1 + sqrt5 r) sf2 exp(-sqrt5 r) * d_ij^2 / ell_i^2
            gradient[:, :d] = (-5.0 / 6.0) * ((inner * (linear * scaled_e)).reshape(-1, n * n)
                                              @ flat2_t) / ls**2
            gradient[:, d] = -0.5 * (inner * k_signal).sum(axis=(1, 2))
            gradient[:, d + 1] = -0.5 * sn2 * np.trace(inner, axis1=1, axis2=2)
            if ok is not None:
                gradient = np.where(ok[:, None], gradient, 0.0)
        return nlml, gradient, ok

    return evaluate


def fit_gp(x: np.ndarray, y: np.ndarray) -> GPSurrogate:
    """Fit kernel hyperparameters by marginal likelihood to encoded
    inputs x (n, d) and objectives y (n,), and factorize the training
    covariance. Both are copied. Deterministic: the start grid is fixed
    and each start runs the same number of steps."""
    x = np.array(x, dtype=np.float64)
    y = np.array(y, dtype=np.float64)
    if x.ndim != 2 or y.shape != (len(x),):
        raise ValueError(f"need inputs (n, d) and objectives (n,), got {x.shape} and {y.shape}")
    if len(x) < 2:
        raise ValueError("need at least two observations to fit a surrogate")
    if not np.all(np.isfinite(y)):
        raise ValueError("objectives must be finite")
    n, d = x.shape
    y_mean = float(y.mean())
    y_std = float(y.std())
    if y_std < 1e-12:
        y_std = 1.0
    z = (y - y_mean) / y_std
    evaluate = _likelihood((x.T[:, :, None] - x.T[:, None, :]) ** 2, z)
    lo, hi = np.array([_LOG_BOUNDS[0]] * d + list(_LOG_BOUNDS[1:])).T

    # one row per start; a start whose covariance ever fails to factorize is dropped
    theta = np.array([[math.log(ls0)] * d + [math.log(1.0), math.log(sn0)]
                      for ls0 in _START_LENGTHSCALES for sn0 in _START_NOISE_VARS])
    alive = np.ones(len(theta), dtype=bool)
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    update, denom = np.empty_like(theta), np.empty_like(theta)
    for step in range(1, _OPT_STEPS + 1):
        _, grad, ok = evaluate(theta, value=False)
        if ok is not None:
            alive &= ok
        # Adam in place: m = 0.9 m + 0.1 g, v = 0.999 v + 0.001 g^2, then
        # theta -= lr m_hat / (sqrt(v_hat) + 1e-8), bounded to [lo, hi]
        m *= 0.9
        m += np.multiply(grad, 0.1, out=update)
        v *= 0.999
        np.square(grad, out=update)
        v += np.multiply(update, 0.001, out=update)
        np.divide(m, 1.0 - 0.9**step, out=update)
        update *= _OPT_LR
        np.divide(v, 1.0 - 0.999**step, out=denom)
        np.sqrt(denom, out=denom)
        denom += 1e-8
        update /= denom
        theta -= update
        np.maximum(theta, lo, out=theta)
        np.minimum(theta, hi, out=theta)
    nlml, _, _ = evaluate(theta, grad=False)
    nlml = np.where(alive & np.isfinite(nlml), nlml, np.inf)
    if not np.isfinite(nlml).any():
        raise SingularCovariance("covariance failed to factorize at every jitter level")
    best_theta = theta[int(np.argmin(nlml))]

    log_ls, log_sf2, log_sn2 = best_theta[:d], float(best_theta[d]), float(best_theta[d + 1])
    _, chol_inv, rungs = _factor(_bordered(1, n), _kernel(x, x, log_ls, log_sf2)[None],
                                 np.array([math.exp(log_sn2)]))
    jitter = _JITTERS[0] if rungs is None else float(rungs[0])
    if math.isnan(jitter):
        raise SingularCovariance("covariance failed to factorize at every jitter level")
    chol_inv = chol_inv[0]
    alpha = chol_inv.T @ (chol_inv @ z)
    return GPSurrogate(x=x, y_mean=y_mean, y_std=y_std, log_lengthscales=log_ls,
                       log_signal_var=log_sf2, log_noise_var=log_sn2,
                       chol_inv=chol_inv, alpha=alpha, jitter=jitter)


def posterior(gp: GPSurrogate, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Noise-free posterior mean and variance, in raw objective units,
    at encoded coordinates of shape (m, d)."""
    k_star = _kernel(points, gp.x, gp.log_lengthscales, gp.log_signal_var)
    mu = k_star @ gp.alpha
    w = gp.chol_inv @ k_star.T
    var = math.exp(gp.log_signal_var) - (w**2).sum(axis=0)
    var = np.maximum(var, 0.0)
    return gp.y_mean + gp.y_std * mu, gp.y_std**2 * var


def incumbent_value(gp: GPSurrogate) -> float:
    """Minimum posterior mean over the observed inputs (the noisy-EI
    plug-in incumbent)."""
    mu = _kernel(gp.x, gp.x, gp.log_lengthscales, gp.log_signal_var) @ gp.alpha
    return float((gp.y_mean + gp.y_std * mu).min())


def _ei_arrays(mu: np.ndarray, var: np.ndarray, incumbent: float) -> np.ndarray:
    sigma = np.sqrt(var)
    improve = incumbent - mu
    out = np.maximum(improve, 0.0)
    live = sigma > 0.0
    cdf, pdf = standard_normal_cdf_pdf(improve[live] / sigma[live])
    out[live] = improve[live] * cdf + sigma[live] * pdf
    return np.maximum(out, 0.0)


def propose_next(gp: GPSurrogate, candidate_count: int = 2048, seed: int = 0) -> TrialConfig:
    """Argmax of EI over a shifted quasi-random candidate set.

    Candidates are canonicalized (decode then encode, as one array) so
    the surrogate sees the same one-hot corners it was trained on; ties
    break toward the lowest candidate index via strict argmax.
    """
    if candidate_count < 1:
        raise ValueError("need at least one candidate")
    raw = sobol_points(ENCODED_DIM, candidate_count,
                       shift_seed=derive_seed(seed, "propose-candidates"))
    mu, var = posterior(gp, canonicalize(raw))
    ei = _ei_arrays(mu, var, incumbent_value(gp))
    return replace(decode(raw[int(np.argmax(ei))]), origin="bo")
