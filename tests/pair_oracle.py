"""Dense evaluation of one local fit at a batch of points.

This is the arithmetic ``LocalFit`` used before the pair kernel
(``FitTable.pair_sums``): one (points, nodes, d) difference array per fit,
a pairwise row sum for the potential and an ordered sum over the node axis
for the field.  The kernel must reproduce it bit for bit.
"""

import numpy as np


def _terms(fit, points):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    diff = points[:, None, :] - fit.nodes[None, :, :]
    r = np.sqrt((diff * diff).sum(-1))
    evec = np.ascontiguousarray(fit.eval_vectors)
    proj = (diff * evec[None, :, :]).sum(-1)
    return diff, r, evec, proj


def potential(fit, points):
    """The fit's scalar potential at the points."""
    _, r, _, proj = _terms(fit, points)
    f = fit.kernel.phi_d1_over_r(r)
    return fit.sign * (f * proj).sum(-1)


def field_potential(fit, points):
    """(potential, unprojected field) of the fit at the points."""
    diff, r, evec, proj = _terms(fit, points)
    f, s = fit.kernel.hessian_coeffs(r)
    pot = fit.sign * (f * proj).sum(-1)
    raw = fit.sign * (f[:, :, None] * evec[None, :, :] +
                      (s * proj)[:, :, None] * diff).sum(axis=1)
    return pot, raw


def same_bits(a, b):
    """True when two arrays agree in dtype, shape and every bit."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())
