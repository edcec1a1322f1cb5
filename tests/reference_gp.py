"""Einsum reference for the GP marginal likelihood.

`nlml_and_grad` is `autoduct.hpo.gp._nlml_and_grad` as it was before the
squared distances and the length-scale gradients became matrix products:
the same stacked Cholesky, jitter ladder and GPML eq. 5.9 gradient, with
both contractions over the (d, n, n) tensor written as einsums. The two
forms sum in different orders, so they agree to rounding, not bit for bit.
"""

import contextlib
import math

import numpy as np

from autoduct.errors import SingularCovariance
from autoduct.hpo.gp import _JITTERS, _SQRT5, _chol_with_ladder, _matern52


def nlml_and_grad(diff2, z, theta):
    """Negative log marginal likelihood (s,) and gradient (s, d + 2) for
    each row of theta; rows that no jitter level factorizes get nlml = inf
    and a zero gradient."""
    d, n, _ = diff2.shape
    ls = np.exp(theta[:, :d])
    sf2 = np.exp(theta[:, d])[:, None, None]
    sn2 = np.exp(theta[:, d + 1])
    r = np.sqrt(np.einsum("ijk,si->sjk", diff2, ls**-2))
    e = np.exp(-_SQRT5 * r)
    k_signal = sf2 * _matern52(r, e)
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
    gradient[:, :d] = -0.5 * np.einsum("ijk,sjk->si", diff2, inner * common) / ls**2
    gradient[:, d] = -0.5 * (inner * k_signal).sum(axis=(1, 2))
    gradient[:, d + 1] = -0.5 * sn2 * np.trace(inner, axis1=1, axis2=2)
    return nlml, np.where(ok[:, None], gradient, 0.0)
