"""Per-patch div/curl-free kernel interpolation: assembly, solve, evaluation.

For nodes x_j with tangent frames {d_j, e_j, n_j}, the surface systems are
2n-by-2n with 2x2 blocks  [d_i e_i]^T Phi(x_i, x_j) [d_j e_j], where
Phi_div = Q_x H Q_y and Phi_curl = -P_x H P_y for the scalar-kernel Hessian
H = F*I + S*rr^T.  In flat R^d the curl-free system is the dn-by-dn
block matrix of -H.  All systems are symmetric positive definite for the
shipped kernels and are solved by Cholesky factorization; failures surface
as PatchFitError rather than being regularized away.

Evaluation avoids BLAS reductions on purpose: sums run over the trailing
axes of C-contiguous arrays so a point evaluated alone is bit-identical to
the same point inside a batch.
"""

from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla
from scipy.spatial import cKDTree

from . import geometry
from .errors import GlobalFitSizeError, PatchFitError
from .kernels import RadialKernel

GLOBAL_FIT_GUARD = 5000
TANGENCY_TOL = 1e-10
_ASSEMBLY_BLOCK = 256


def check_samples(nodes, values, surface, mode):
    """The samples as float arrays; ValueError unless the mode is one of
    ``surface.modes``, the nodes pass ``surface.check``, and the samples
    are a non-empty, finite, same-shaped set of distinct nodes whose values
    (surface modes) have no normal component above
    ``TANGENCY_TOL * max(1, max|v|)`` over the whole set."""
    if mode not in geometry.MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode not in surface.modes:
        raise ValueError(f"mode {mode!r} does not fit {surface.kind} "
                         f"geometry")
    nodes = surface.check(nodes)
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if nodes.size == 0:
        raise ValueError("sample set is empty")
    if nodes.shape != values.shape:
        raise ValueError("nodes and values must have matching shapes")
    if not np.isfinite(values).all():
        raise ValueError("sample values must be finite")
    if len(nodes) > 1:
        dist, _ = cKDTree(nodes).query(nodes, k=2)
        if dist[:, 1].min() == 0.0:
            raise ValueError("sample nodes must be pairwise distinct")
    if mode != "curl_euclidean":
        scale = max(1.0, float(np.abs(values).max()))
        off = np.abs((surface.normals(nodes) * values).sum(-1)).max()
        if off > TANGENCY_TOL * scale:
            raise ValueError(
                f"sample values are not tangent to the surface "
                f"(max normal component {off:.3e})")
    return nodes, values


def _hessian_block(kernel, xi, xj):
    rvec = np.asarray(xi, dtype=float) - np.asarray(xj, dtype=float)
    f, s = kernel.hessian_coeffs(np.sqrt((rvec * rvec).sum()))
    return f * np.eye(len(rvec)) + s * np.outer(rvec, rvec)


def phi_div_block(kernel, surface, xi, xj):
    """The 3x3 div-free matrix kernel Q_xi (F I + S rr^T) Q_xj."""
    h = _hessian_block(kernel, xi, xj)
    qi = geometry.q_matrix(surface.normals(xi)[0])
    qj = geometry.q_matrix(surface.normals(xj)[0])
    return qi @ h @ qj


def phi_curl_block(kernel, surface, xi, xj):
    """The curl-free matrix kernel: -P H P on a surface, -H in flat R^d."""
    h = _hessian_block(kernel, xi, xj)
    if surface.kind == "euclidean":
        return -h
    pi = geometry.p_matrix(surface.normals(xi)[0])
    pj = geometry.p_matrix(surface.normals(xj)[0])
    return -(pi @ h @ pj)


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


@dataclass
class LocalFit:
    """A solved interpolation system on one node set.

    ``coef_vectors`` are the expansion coefficients c_j (tangent at the
    nodes for surface modes); ``eval_vectors`` carry the precomputed
    Q_j c_j (div-free) or c_j (curl-free) used by evaluation; ``sign`` is
    +1 for div-free and -1 for curl-free expansions.
    """

    mode: str
    kernel: RadialKernel
    surface: geometry.Surface
    nodes: np.ndarray
    coef_vectors: np.ndarray
    eval_vectors: np.ndarray
    sign: float
    alpha_beta: np.ndarray = None
    fit_residual: float = 0.0

    def potential_at(self, points):
        """Scalar potential of the interpolant at the given points."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        diff = points[:, None, :] - self.nodes[None, :, :]
        r = np.sqrt((diff * diff).sum(-1))
        f = self.kernel.phi_d1_over_r(r)
        proj = (diff * self.eval_vectors[None, :, :]).sum(-1)
        return self.sign * (f * proj).sum(-1)

    def field_at(self, points):
        """Vector interpolant at the given points (tangent on surfaces)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return geometry.tangent_operator(self.mode, self.surface, points,
                                         self.field_potential_at(points)[1])

    def field_potential_at(self, points):
        """(potential, unprojected field) sharing one pass over the node
        pairs; ``tangent_operator`` of the second output is ``field_at``."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        diff = points[:, None, :] - self.nodes[None, :, :]
        r = np.sqrt((diff * diff).sum(-1))
        f, s = self.kernel.hessian_coeffs(r)
        proj = (diff * self.eval_vectors[None, :, :]).sum(-1)
        pot = self.sign * (f * proj).sum(-1)
        raw = self.sign * (f[:, :, None] * self.eval_vectors[None, :, :] +
                           (s * proj)[:, :, None] * diff).sum(axis=1)
        return pot, raw


def _solve_spd(a, rhs, patch_id):
    try:
        factor = sla.cho_factor(a, lower=False, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise PatchFitError(patch_id, float(np.linalg.cond(a))) from exc
    return sla.cho_solve(factor, rhs, check_finite=False)


def fit_patch(nodes, values, kernel, surface, mode, frames=None,
              patch_id=None):
    """Solve the local system on samples that passed ``check_samples``.

    ``frames`` overrides the surface's tangent frames (any orthonormal
    frame yields the same interpolant; only the coefficient parametrization
    changes).
    """
    n = len(nodes)
    alpha_beta = None
    if mode == "curl_euclidean":
        a = assemble_system(kernel, surface, nodes, mode)
        rhs = values.reshape(-1)
        sol = _solve_spd(a, rhs, patch_id)
        coef = evec = sol.reshape(n, nodes.shape[1])
        sign = -1.0
    else:
        if frames is None:
            frames = surface.tangent_frames(nodes)
        d, e, normal = frames
        a = assemble_system(kernel, surface, nodes, mode, frames=frames)
        rhs = (np.stack([d, e], axis=1) * values[:, None, :]).sum(-1).ravel()
        sol = _solve_spd(a, rhs, patch_id)
        alpha_beta = sol.reshape(n, 2)
        coef = alpha_beta[:, 0:1] * d + alpha_beta[:, 1:2] * e
        if mode == "div_surface":
            evec, sign = np.cross(normal, coef), 1.0
        else:
            evec, sign = coef, -1.0
    # The solved system's residual, one row per node; in the orthonormal
    # frame basis its norm equals the tangent residual in R^3.
    miss = (a @ sol - rhs).reshape(n, -1)
    scale = float(np.sqrt((values * values).sum(-1)).max())
    worst = float(np.sqrt((miss * miss).sum(-1)).max())
    return LocalFit(mode=mode, kernel=kernel, surface=surface, nodes=nodes,
                    coef_vectors=coef, eval_vectors=evec, sign=sign,
                    alpha_beta=alpha_beta,
                    fit_residual=worst / scale if scale > 0 else worst)


def fit_global(nodes, values, kernel, surface, mode, guard=GLOBAL_FIT_GUARD):
    """One dense fit over all samples; the O(N^3) oracle the blended
    approximant is compared against.  Refuses node counts above ``guard``."""
    if len(nodes) > guard:
        raise GlobalFitSizeError(
            f"global dense fit limited to {guard} nodes, got {len(nodes)}")
    nodes, values = check_samples(nodes, values, surface, mode)
    return fit_patch(nodes, values, kernel, surface, mode, patch_id="global")
