"""Gaussian-process surrogate and expected-improvement acquisition.

The surrogate is a zero-mean GP over the encoded unit cube with a
Matern-5/2 kernel and per-dimension length scales (automatic relevance
determination) plus Gaussian observation noise:

    k(x, x') = sf2 * (1 + sqrt(5) r + 5 r^2 / 3) exp(-sqrt(5) r),
    r^2 = sum_i (x_i - x'_i)^2 / ell_i^2.

Kernel hyperparameters are chosen by maximizing the log marginal
likelihood of the standardized objectives with a small multi-start
first-order scheme (adaptive moment steps on the log parameters; start
grid: length scale {0.5, 1.5, 3.0} x noise variance {1e-4, 1e-2}).
Cholesky factorizations climb a jitter ladder 1e-10 .. 1e-4 before
giving up. All starts ascend as one stack; the gradient is GPML eq. 5.9
(Rasmussen & Williams 2006) as one einsum of alpha alpha^T - L^-T L^-1
against a (d, n, n) tensor of squared coordinate differences, built once
per fit.

Acquisition is the plug-in form of noisy expected improvement for
minimization: the incumbent is the minimum posterior mean over the
observed inputs, and EI uses the noise-free posterior at the candidate,

    EI = (inc - mu) Phi(z) + sigma phi(z),  z = (inc - mu) / sigma
    (Snoek et al. 2012, arXiv:1206.2944).
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from ..errors import SingularCovariance
from ..rng import derive_seed
from ..stats import standard_normal_cdf_pdf
from .sobol import sobol_points
from .space import EncodedPoint, SearchSpace, TrialConfig, canonicalize, decode

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
    chol: np.ndarray            # L with L L^T = K(x, x) + noise + jitter
    alpha: np.ndarray           # K^{-1} z for standardized objectives z
    jitter: float

    @property
    def noise_var(self) -> float:
        return math.exp(self.log_noise_var)


def _matern52(r: np.ndarray) -> np.ndarray:
    return (1.0 + _SQRT5 * r + (5.0 / 3.0) * r**2) * np.exp(-_SQRT5 * r)


def _kernel(a: np.ndarray, b: np.ndarray, log_ls: np.ndarray,
            log_sf2: float) -> np.ndarray:
    lengthscales = np.exp(log_ls)
    sa, sb = a / lengthscales, b / lengthscales
    d2 = (sa**2).sum(axis=1)[:, None] + (sb**2).sum(axis=1)[None, :] - 2.0 * sa @ sb.T
    return math.exp(log_sf2) * _matern52(np.sqrt(np.maximum(d2, 0.0)))


def _chol_with_ladder(k: np.ndarray) -> tuple[np.ndarray, float]:
    for jitter in _JITTERS:
        try:
            return np.linalg.cholesky(k + jitter * np.eye(k.shape[0])), jitter
        except np.linalg.LinAlgError:
            continue
    raise SingularCovariance("covariance failed to factorize at every jitter level")


def _nlml_and_grad(diff2: np.ndarray, z: np.ndarray,
                   theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Negative log marginal likelihood (s,) and gradient (s, d + 2) for
    each row of theta (s, d + 2): log length scales, log signal and log
    noise variance. diff2[i, j, k] = (x[j, i] - x[k, i])^2 for inputs x
    (n, d). Rows that no jitter level factorizes get nlml = inf and a zero
    gradient."""
    d, n, _ = diff2.shape
    ls = np.exp(theta[:, :d])
    sf2 = np.exp(theta[:, d])[:, None, None]
    sn2 = np.exp(theta[:, d + 1])
    r = np.sqrt(np.einsum("ijk,si->sjk", diff2, ls**-2))
    k_signal = sf2 * _matern52(r)
    k = k_signal + sn2[:, None, None] * np.eye(n)
    try:    # one stacked call when every row factorizes at the first rung
        chol, ok = np.linalg.cholesky(k + _JITTERS[0] * np.eye(n)), np.ones(len(k), bool)
    except np.linalg.LinAlgError:
        chol, ok = np.array([np.eye(n)] * len(k)), np.zeros(len(k), bool)
        for i, row in enumerate(k):
            with contextlib.suppress(SingularCovariance):
                chol[i], ok[i] = _chol_with_ladder(row)[0], True
    chol_inv = np.linalg.inv(chol)
    w = chol_inv @ z
    alpha = (w[:, None, :] @ chol_inv)[:, 0]
    nlml = (0.5 * np.einsum("si,si->s", w, w)
            + np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
            + 0.5 * n * math.log(2.0 * math.pi))

    # d(LML)/dK = inner / 2
    inner = alpha[:, :, None] * alpha[:, None, :] - np.swapaxes(chol_inv, 1, 2) @ chol_inv
    grad = np.empty_like(theta)
    # dK/d(log ell_i) = sf2 * (5/3)(1 + sqrt5 r) exp(-sqrt5 r) * d_ij^2 / ell_i^2
    common = sf2 * (5.0 / 3.0) * (1.0 + _SQRT5 * r) * np.exp(-_SQRT5 * r)
    grad[:, :d] = -0.5 * np.einsum("ijk,sjk->si", diff2, inner * common) / ls**2
    grad[:, d] = -0.5 * (inner * k_signal).sum(axis=(1, 2))
    grad[:, d + 1] = -0.5 * sn2 * np.trace(inner, axis1=1, axis2=2)
    return np.where(ok, nlml, np.inf), np.where(ok[:, None], grad, 0.0)


def fit_gp(observations: list[tuple[EncodedPoint, float]]) -> GPSurrogate:
    """Fit kernel hyperparameters by marginal likelihood and factorize
    the training covariance. Deterministic: the start grid is fixed and
    each start runs the same number of steps."""
    if len(observations) < 2:
        raise ValueError("need at least two observations to fit a surrogate")
    x = np.array([p.coords for p, _ in observations])
    y = np.array([obj for _, obj in observations], dtype=np.float64)
    if not np.all(np.isfinite(y)):
        raise ValueError("objectives must be finite")
    n, d = x.shape
    y_mean = float(y.mean())
    y_std = float(y.std())
    if y_std < 1e-12:
        y_std = 1.0
    z = (y - y_mean) / y_std
    diff2 = (x.T[:, :, None] - x.T[:, None, :]) ** 2
    lo, hi = np.array([_LOG_BOUNDS[0]] * d + list(_LOG_BOUNDS[1:])).T

    # one row per start; a start whose covariance ever fails to factorize is dropped
    theta = np.array([[math.log(ls0)] * d + [math.log(1.0), math.log(sn0)]
                      for ls0 in _START_LENGTHSCALES for sn0 in _START_NOISE_VARS])
    alive = np.ones(len(theta), dtype=bool)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for step in range(1, _OPT_STEPS + 1):
        nlml, grad = _nlml_and_grad(diff2, z, theta)
        alive &= np.isfinite(nlml)
        m = 0.9 * m + 0.1 * grad
        v = 0.999 * v + 0.001 * grad**2
        m_hat = m / (1.0 - 0.9**step)
        v_hat = v / (1.0 - 0.999**step)
        theta = np.clip(theta - _OPT_LR * m_hat / (np.sqrt(v_hat) + 1e-8), lo, hi)
    nlml, _ = _nlml_and_grad(diff2, z, theta)
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


def posterior(gp: GPSurrogate, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Noise-free posterior mean and variance, in raw objective units,
    at encoded coordinates of shape (m, d)."""
    k_star = _kernel(points, gp.x, gp.log_lengthscales, gp.log_signal_var)
    mu = k_star @ gp.alpha
    w = np.linalg.solve(gp.chol, k_star.T)
    var = math.exp(gp.log_signal_var) - (w**2).sum(axis=0)
    var = np.maximum(var, 0.0)
    return gp.y_mean + gp.y_std * mu, gp.y_std**2 * var


def incumbent_value(gp: GPSurrogate) -> float:
    """Minimum posterior mean over the observed inputs (the noisy-EI
    plug-in incumbent)."""
    mu, _ = posterior(gp, gp.x)
    return float(mu.min())


def expected_improvement(gp: GPSurrogate, p: EncodedPoint, incumbent: float) -> float:
    """Closed-form EI for minimization at one encoded point."""
    mu, var = posterior(gp, p.coords[None, :])
    return float(_ei_arrays(mu, var, incumbent)[0])


def _ei_arrays(mu: np.ndarray, var: np.ndarray, incumbent: float) -> np.ndarray:
    sigma = np.sqrt(var)
    improve = incumbent - mu
    out = np.maximum(improve, 0.0)
    live = sigma > 0.0
    cdf, pdf = standard_normal_cdf_pdf(improve[live] / sigma[live])
    out[live] = improve[live] * cdf + sigma[live] * pdf
    return np.maximum(out, 0.0)


def propose_next(gp: GPSurrogate, space: SearchSpace,
                 candidate_count: int = 2048, seed: int = 0) -> TrialConfig:
    """Argmax of EI over a shifted quasi-random candidate set.

    Candidates are canonicalized (decode then encode, as one array) so
    the surrogate sees the same one-hot corners it was trained on; ties
    break toward the lowest candidate index via strict argmax.
    """
    if candidate_count < 1:
        raise ValueError("need at least one candidate")
    raw = sobol_points(space.encoded_dim, candidate_count,
                       shift_seed=derive_seed(seed, "propose-candidates"))
    mu, var = posterior(gp, canonicalize(raw, space))
    ei = _ei_arrays(mu, var, incumbent_value(gp))
    chosen = decode(raw[int(np.argmax(ei))], space)
    return TrialConfig(*chosen.assignment(), origin="bo")
