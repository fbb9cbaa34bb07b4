"""The radial kernel coefficients as they were formed before they were
computed in place: the same formulas, one new array per operation, and
Horner's rule started from a zero polynomial.  ``RadialKernel`` must
reproduce them bit for bit.
"""

import numpy as np

from vecpum.kernels import _M4_F, _M4_S, _check_radius


def _polyval(coeffs, t):
    out = np.zeros_like(t)
    for c in reversed(coeffs):
        out = out * t + c
    return out


def phi_d1_over_r(kernel, r):
    r = _check_radius(r)
    t = kernel.epsilon * r
    e2 = kernel.epsilon * kernel.epsilon
    if kernel.family == "imq":
        return -e2 * (1.0 + t * t) ** -1.5
    return -e2 * np.exp(-t) * _polyval(_M4_F, t)


def hessian_coeffs(kernel, r):
    r = _check_radius(r)
    t = kernel.epsilon * r
    e2 = kernel.epsilon * kernel.epsilon
    e4 = e2 * e2
    if kernel.family == "imq":
        u = 1.0 + t * t
        return -e2 * u**-1.5, 3.0 * e4 * u**-2.5
    decay = np.exp(-t)
    return -e2 * decay * _polyval(_M4_F, t), e4 * decay * _polyval(_M4_S, t)
