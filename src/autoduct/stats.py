"""Normal-distribution helpers: scalar functions plus one array form of
the standard normal CDF and density.

The quantile uses Acklam's rational approximation followed by one Halley
correction step, giving absolute error far below the 1e-8 documented
accuracy of the plain approximation. Kept dependency-free on purpose so the
core package needs no scipy.
"""

from __future__ import annotations

import math

import numpy as np

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)

# Acklam (2003) inverse normal CDF coefficients.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425


def normal_pdf(x: float, mu: float = 0.0, var: float = 1.0) -> float:
    if var <= 0.0:
        raise ValueError("variance must be positive")
    z = (x - mu) / math.sqrt(var)
    return math.exp(-0.5 * z * z) / (math.sqrt(var) * _SQRT2PI)


def normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / _SQRT2)


# numpy has no erfc, and its exp can differ from the C library's in the last
# bit; the C functions applied as ufuncs keep the array forms bit-identical
# to normal_cdf and normal_pdf
_erfc = np.frompyfunc(math.erfc, 1, 1)
_exp = np.frompyfunc(math.exp, 1, 1)


def standard_normal_cdf_pdf(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Phi(z) and phi(z) elementwise, equal to normal_cdf(z) and
    normal_pdf(z, 0, 1)."""
    z = np.asarray(z, dtype=np.float64)
    cdf = 0.5 * np.asarray(_erfc(-z / _SQRT2), dtype=np.float64)
    return cdf, np.asarray(_exp(-0.5 * z * z), dtype=np.float64) / _SQRT2PI


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF for p in (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")

    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        x = (((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]) / \
            ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0)
    elif p <= 1.0 - _P_LOW:
        q = p - 0.5
        r = q * q
        x = (((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q / \
            (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0)
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        x = -(((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]) / \
            ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0)

    # one Halley step against the exact CDF
    e = normal_cdf(x) - p
    u = e * _SQRT2PI * math.exp(0.5 * x * x)
    return x - u / (1.0 + 0.5 * x * u)


def central_interval_z(level: float) -> float:
    """Half-width multiplier z such that P(|Z| <= z) = level."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie strictly between 0 and 1")
    return normal_quantile(0.5 * (1.0 + level))
