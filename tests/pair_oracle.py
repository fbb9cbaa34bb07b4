"""Dense evaluation of one local fit at a batch of points, and the fit's
coefficients read back from its eval vectors.

The evaluation is the arithmetic ``LocalFit`` used before the pair kernel
(``FitTable.pair_sums``): one (points, nodes, d) difference array per fit,
a pairwise row sum for the potential and an ordered sum over the node axis
for the field.  The kernel must reproduce it bit for bit.  A fit reads the
first d coordinates, d the number of rows of its eval vectors: two on the
plane, whose fits are flat and whose raw fields get z = 0.
"""

import numpy as np


def eval_vectors(fit):
    """The fit's eval vectors, one row per node: a view of its table's
    columns."""
    offsets = fit.table.cover.offsets
    cols = slice(offsets[fit.patch], offsets[fit.patch + 1])
    return fit.table.eval_vectors[:, cols].T


def _terms(fit, points):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    d = len(fit.table.eval_vectors)
    diff = points[:, None, :d] - fit.nodes[None, :, :d]
    r = np.sqrt((diff * diff).sum(-1))
    evec = np.ascontiguousarray(eval_vectors(fit))
    proj = (diff * evec[None, :, :]).sum(-1)
    return diff, r, evec, proj


def potential(fit, points):
    """The fit's scalar potential at the points."""
    _, r, _, proj = _terms(fit, points)
    f = fit.table.kernel.phi_d1_over_r(r)
    return fit.table.sign * (f * proj).sum(-1)


def field_potential(fit, points):
    """(potential, unprojected field) of the fit at the points."""
    diff, r, evec, proj = _terms(fit, points)
    f, s = fit.table.kernel.hessian_coeffs(r)
    sign = fit.table.sign
    pot = sign * (f * proj).sum(-1)
    raw = np.zeros((len(diff), fit.nodes.shape[1]))
    raw[:, :diff.shape[-1]] = (f[:, :, None] * evec[None, :, :] +
                               (s * proj)[:, :, None] * diff).sum(axis=1)
    return pot, sign * raw


def coef_vectors(fit):
    """The fit's expansion coefficients c_j in the fit's coordinates: its
    eval vectors, or for div-free fits c_j = (n_j x c_j) x n_j of the
    tangent c_j, in R^3."""
    evec = eval_vectors(fit)
    if fit.table.mode != "div_surface":
        return evec
    padded = np.zeros((len(evec), 3))
    padded[:, :evec.shape[1]] = evec
    return np.cross(padded, fit.table.cover.surface.normals(fit.nodes))


def alpha_beta(fit):
    """The coefficients' components in the surface's tangent frames at the
    fit's nodes; None in flat space."""
    if fit.table.mode == "curl_euclidean":
        return None
    d, e, _ = fit.table.cover.surface.tangent_frames(fit.nodes)
    coef = coef_vectors(fit)
    return np.stack([(coef * d).sum(-1), (coef * e).sum(-1)], axis=1)


def per_row_bincounts(index, rows, n):
    """``localfit.bin_rows`` as one ``bincount`` per row: the (n, k) sums
    of the rows of a (k, T) array by bin ``index``."""
    return np.stack([np.bincount(index, row, minlength=n) for row in rows],
                    axis=1)


def same_bits(a, b):
    """True when two arrays agree in dtype, shape and every bit."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())
