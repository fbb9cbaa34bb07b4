"""The local system as it was formed before every mode shared one path.

``assemble_system`` and ``fit_patch`` keep the two bodies the library used
when flat R^d had its own branch: an (m, n, d) difference tensor read with
stride d and written negated, next to the matmul-shaped surface body with
its own left and right bases.  Every body closes with ``0.5 * (a + a.T)``,
and ``_solve_spd`` factors through ``cho_factor``'s own Fortran copy and
solves with ``cho_solve``.  The shared path must reproduce them bit for
bit, at the same BLAS thread count.  ``_solve_spd`` is also the dense
reference the sparse LU of the shift system is held to, within rounding.
"""

import numpy as np
from scipy import linalg as sla

from vecpum.errors import PatchFitError
from vecpum.localfit import _ASSEMBLY_BLOCK


def _solve_spd(a, rhs):
    factor = sla.cho_factor(a, lower=False, check_finite=False)
    return sla.cho_solve(factor, rhs, check_finite=False)


def _solve_patch(a, rhs, patch_id):
    try:
        return _solve_spd(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise PatchFitError(patch_id, float(np.linalg.cond(a))) from exc


def _surface_bases(mode, frames):
    d, e, n = frames
    if mode == "div_surface":
        # Rows pick out [d_i e_i]^T Q_i = [-(n_i x d_i), -(n_i x e_i)]^T and
        # columns Q_j [d_j e_j]; valid for any orthonormal frame.
        right = np.stack([np.cross(n, d), np.cross(n, e)], axis=1)
        return -right, right, 1.0
    left = np.stack([d, e], axis=1)
    return left, left, -1.0


def assemble_system(kernel, surface, nodes, mode, frames=None):
    """Dense interpolation matrix for the given mode (symmetrized)."""
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    n = len(nodes)
    if mode == "curl_euclidean":
        d = nodes.shape[1]
        a = np.empty((d * n, d * n))
        for i0 in range(0, n, _ASSEMBLY_BLOCK):
            i1 = min(i0 + _ASSEMBLY_BLOCK, n)
            diff = nodes[i0:i1, None, :] - nodes[None, :, :]
            r = np.sqrt((diff * diff).sum(-1))
            f, s = kernel.hessian_coeffs(r)
            for p in range(d):
                for q in range(d):
                    blk = s * diff[:, :, p] * diff[:, :, q]
                    if p == q:
                        blk = blk + f
                    a[d * i0 + p:d * i1 + p:d, q::d] = -blk
        return 0.5 * (a + a.T)
    if frames is None:
        frames = surface.tangent_frames(nodes)
    left, right, sign = _surface_bases(mode, frames)
    # Row 2i+p of the flattened bases is L_ip (R_ip).  As L_ip.(x_i - x_j)
    # = L_ip.x_i - L_ip.x_j, one product with the node coordinates gives
    # every frame contraction with the difference vectors.
    left = left.reshape(-1, 3)
    right = right.reshape(-1, 3)
    node_rows = np.repeat(nodes, 2, axis=0)
    r_x = right @ nodes.T
    r_self = (right * node_rows).sum(-1)
    a = np.empty((2 * n, 2 * n))
    for i0 in range(0, n, _ASSEMBLY_BLOCK):
        i1 = min(i0 + _ASSEMBLY_BLOCK, n)
        m = i1 - i0
        r2 = sum((nodes[i0:i1, None, c] - nodes[None, :, c]) ** 2
                 for c in range(3))
        f, s = kernel.hessian_coeffs(np.sqrt(r2))
        lb = left[2 * i0:2 * i1]
        ld = (lb * node_rows[2 * i0:2 * i1]).sum(-1)[:, None] - lb @ nodes.T
        rd = r_x[:, i0:i1].T - r_self
        blk = a[2 * i0:2 * i1].reshape(m, 2, n, 2)
        np.multiply((sign * s)[:, None, :, None] * ld.reshape(m, 2, n, 1),
                    rd.reshape(m, 1, n, 2), out=blk)
        blk += ((sign * f)[:, None, :, None] *
                (lb @ right.T).reshape(m, 2, n, 2))
    return 0.5 * (a + a.T)


def fit_patch(nodes, values, kernel, surface, mode, patch_id=None):
    """Solve the local system on samples that passed ``check_samples``.

    Returns the patch's eval vectors as a row-major (d, n) array and its
    fit residual, the relative max-norm residual of the solved system.
    """
    n = len(nodes)
    if mode == "curl_euclidean":
        a = assemble_system(kernel, surface, nodes, mode)
        rhs = values.reshape(-1)
        sol = _solve_patch(a, rhs, patch_id)
        evec = sol.reshape(n, nodes.shape[1])
    else:
        frames = surface.tangent_frames(nodes)
        d, e, normal = frames
        a = assemble_system(kernel, surface, nodes, mode, frames=frames)
        rhs = (np.stack([d, e], axis=1) * values[:, None, :]).sum(-1).ravel()
        sol = _solve_patch(a, rhs, patch_id)
        alpha_beta = sol.reshape(n, 2)
        coef = alpha_beta[:, 0:1] * d + alpha_beta[:, 1:2] * e
        evec = np.cross(normal, coef) if mode == "div_surface" else coef
    # The solved system's residual, one row per node; in the orthonormal
    # frame basis its norm equals the tangent residual in R^3.
    miss = (a @ sol - rhs).reshape(n, -1)
    scale = float(np.sqrt((values * values).sum(-1)).max())
    worst = float(np.sqrt((miss * miss).sum(-1)).max())
    residual = worst / scale if scale > 0 else worst
    return np.ascontiguousarray(evec.T), residual
