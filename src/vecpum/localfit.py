"""Per-patch div/curl-free kernel interpolation: assembly, solve, evaluation.

For nodes x_j with tangent frames {d_j, e_j, n_j}, the surface systems are
2n-by-2n with 2x2 blocks  [d_i e_i]^T Phi(x_i, x_j) [d_j e_j], where
Phi_div = Q_x H Q_y and Phi_curl = -P_x H P_y for the scalar-kernel Hessian
H = F*I + S*rr^T.  In flat R^d the curl-free system is the dn-by-dn
block matrix of -H.  All systems are symmetric positive definite for the
shipped kernels and are solved by Cholesky factorization; failures surface
as PatchFitError rather than being regularized away.

``fit_table`` solves every patch (``fit_patch`` solves one) straight into
one ``FitTable``: the eval vectors of all patches in one (d, T) table, patch
after patch with no padding, and node coordinates read through a flat
member index.  Its pair kernel ``pair_sums`` is the one evaluator: it forms
each (point, patch) pair's node terms in chunks of at most ``PAIR_CHUNK``
terms and sums them without BLAS.  Field sums are ``bincount``s, which
add in term order from 0.0; potential sums are ``reduceat`` segments led by
an explicit 0.0, which reproduce numpy's pairwise row sum.  These are the
sums a dense evaluation of one fit at a batch of points forms, so a pair's
bits depend only on its own terms: a point evaluated alone is bit-identical
to the same point inside a batch, whatever the chunking.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import linalg as sla
from scipy.spatial import cKDTree

from . import geometry
from .errors import GlobalFitSizeError, PatchFitError
from .kernels import RadialKernel

GLOBAL_FIT_GUARD = 5000
TANGENCY_TOL = 1e-10
_ASSEMBLY_BLOCK = 256
# Node terms per chunk of pair evaluation, which bounds its working set.
# Smaller chunks cost throughput in per-chunk numpy calls.
PAIR_CHUNK = 8192


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


@dataclass(frozen=True, eq=False)
class FitTable:
    """Solved expansions of a list of patches, stored patch after patch.

    Patch l owns the table columns ``offsets[l]:offsets[l + 1]``: its nodes
    are the rows ``members[cols]`` of ``nodes`` and its eval vectors are
    ``eval_vectors[:, cols]``, Q_j c_j (div-free) or c_j (curl-free) for the
    expansion coefficients c_j.  ``sign[l]`` is +1 for div-free and -1 for
    curl-free expansions.  ``table[l]`` is patch l's ``LocalFit`` view.
    The arrays the table owns (all but ``nodes`` and ``members``, which may
    be a cover's) are read-only.
    """

    mode: str
    kernel: RadialKernel
    surface: geometry.Surface
    nodes: np.ndarray
    members: np.ndarray
    offsets: np.ndarray
    eval_vectors: np.ndarray
    sign: np.ndarray
    fit_residual: np.ndarray

    def __post_init__(self):
        for owned in (self.offsets, self.eval_vectors, self.sign,
                      self.fit_residual):
            owned.flags.writeable = False

    def __len__(self):
        return len(self.sign)

    def __getitem__(self, l):
        return LocalFit(self, range(len(self))[l])

    def pair_sums(self, points, patch, with_field=True):
        """(potential, unprojected field) of fit ``patch[i]`` at
        ``points[i]``; the field is None unless ``with_field``.

        Pairs are taken in chunks of at most ``PAIR_CHUNK`` terms (a pair
        with more terms is a chunk of its own).  Every term is formed as in
        one fit's dense (points, nodes) evaluation: ``dx = x - node``,
        ``r = sqrt(sum dx_c^2)``, ``proj = sum dx_c ev_c``, the potential
        term ``F proj`` and the field term ``F ev_c + (S proj) dx_c``.  The
        field sums are ``bincount``s, which add in term order from 0.0 as
        the dense sum over nodes does.  Each potential sum is one
        ``reduceat`` segment led by an explicit 0.0, since ``reduceat``
        adds the first element to the pairwise sum of the rest and the
        dense row sum adds 0.0 to the pairwise sum of the whole row.  A
        pair's bits therefore depend on its own terms only, whatever pairs
        and chunks surround it.
        """
        points = np.asarray(points, dtype=float)
        patch = np.asarray(patch, dtype=np.intp)
        first = self.offsets[patch]
        count = self.offsets[patch + 1] - first
        ends = np.cumsum(count)
        pot = np.empty(len(patch))
        raw = np.empty(points.shape) if with_field else None
        lo = 0
        while lo < len(patch):
            cap = ends[lo] - count[lo] + PAIR_CHUNK
            hi = max(lo + 1, int(np.searchsorted(ends, cap, side="right")))
            self._chunk(points[lo:hi], first[lo:hi], count[lo:hi],
                        pot[lo:hi], None if raw is None else raw[lo:hi])
            lo = hi
        sign = self.sign[patch]
        pot *= sign
        if with_field:
            raw *= sign[:, None]
        return pot, raw

    def _chunk(self, points, first, count, pot, raw):
        n_pair, dim = points.shape
        n_term = int(count.sum())
        owner = np.repeat(np.arange(n_pair), count)
        start = np.cumsum(count) - count
        cols = np.arange(n_term) + np.repeat(first - start, count)
        # (dim, n_term) rows: the pair's point minus the term's node, and
        # the term's eval vector.
        dx = np.repeat(points.T, count, axis=1)
        dx -= np.take(self.nodes, np.take(self.members, cols), axis=0).T
        ev = np.take(self.eval_vectors, cols, axis=1)
        del cols
        tmp = np.empty(n_term)
        r = np.multiply(dx[0], dx[0])
        proj = np.multiply(dx[0], ev[0])
        proj += 0.0  # a dense sum starts at 0.0, turning -0.0 into +0.0
        for c in range(1, dim):
            r += np.multiply(dx[c], dx[c], out=tmp)
            proj += np.multiply(dx[c], ev[c], out=tmp)
        np.sqrt(r, out=r)
        if raw is None:
            f = self.kernel.phi_d1_over_r(r)
        else:
            f, s = self.kernel.hessian_coeffs(r)
            s *= proj
            for c in range(dim):
                ev[c] *= f
                ev[c] += np.multiply(s, dx[c], out=tmp)
                raw[:, c] = np.bincount(owner, ev[c], minlength=n_pair)
            del s
        del dx, ev, r, tmp
        f *= proj
        # Each pair's potential terms follow one zero slot.
        lead = start + np.arange(n_pair)
        slots = np.ones(n_term + n_pair, dtype=bool)
        slots[lead] = False
        terms = np.zeros(n_term + n_pair)
        terms[slots] = f
        pot[:] = np.add.reduceat(terms, lead)


@dataclass(frozen=True)
class LocalFit:
    """A solved interpolation system on one node set: patch ``patch`` of
    ``table``, whose rows its properties read."""

    table: FitTable = field(repr=False)
    patch: int

    @property
    def _cols(self):
        return slice(self.table.offsets[self.patch],
                     self.table.offsets[self.patch + 1])

    @property
    def mode(self):
        return self.table.mode

    @property
    def kernel(self):
        return self.table.kernel

    @property
    def surface(self):
        return self.table.surface

    @property
    def nodes(self):
        return self.table.nodes[self.table.members[self._cols]]

    @property
    def eval_vectors(self):
        return self.table.eval_vectors[:, self._cols].T

    @property
    def sign(self):
        return float(self.table.sign[self.patch])

    @property
    def fit_residual(self):
        return float(self.table.fit_residual[self.patch])

    def _at(self, points, with_field):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return self.table.pair_sums(points, np.full(len(points), self.patch),
                                    with_field)

    def potential_at(self, points):
        """Scalar potential of the interpolant at the given points."""
        return self._at(points, False)[0]

    def field_at(self, points):
        """Vector interpolant at the given points (tangent on surfaces)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return geometry.tangent_operator(self.mode, self.surface, points,
                                         self.field_potential_at(points)[1])

    def field_potential_at(self, points):
        """(potential, unprojected field) sharing one pass over the node
        pairs; ``tangent_operator`` of the second output is ``field_at``."""
        return self._at(points, True)


def _solve_spd(a, rhs, patch_id):
    try:
        factor = sla.cho_factor(a, lower=False, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise PatchFitError(patch_id, float(np.linalg.cond(a))) from exc
    return sla.cho_solve(factor, rhs, check_finite=False)


def fit_patch(nodes, values, kernel, surface, mode, patch_id=None):
    """Solve the local system on samples that passed ``check_samples``.

    Returns the patch's eval vectors as a row-major (d, n) array, its sign
    and its fit residual, the relative max-norm residual of the solved
    system.
    """
    n = len(nodes)
    if mode == "curl_euclidean":
        a = assemble_system(kernel, surface, nodes, mode)
        rhs = values.reshape(-1)
        sol = _solve_spd(a, rhs, patch_id)
        evec = sol.reshape(n, nodes.shape[1])
        sign = -1.0
    else:
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
    residual = worst / scale if scale > 0 else worst
    return np.ascontiguousarray(evec.T), sign, residual


def fit_table(nodes, values, member_index, counts, kernel, surface, mode):
    """Fit every patch and return the ``FitTable`` of the fits.

    Patch l holds the next ``counts[l]`` entries of ``member_index``, the
    rows of ``nodes`` and ``values`` (samples that passed
    ``check_samples``) it is fit on; the table reads its nodes through
    ``member_index``.  Patches are fit serially, in order.
    """
    offsets = np.concatenate(([0], np.cumsum(counts)))
    solved = [fit_patch(nodes[idx], values[idx], kernel, surface, mode,
                        patch_id=l)
              for l, idx in enumerate(np.split(member_index, offsets[1:-1]))]
    evecs, sign, residual = zip(*solved)
    return FitTable(mode=mode, kernel=kernel, surface=surface, nodes=nodes,
                    members=member_index, offsets=offsets,
                    eval_vectors=np.concatenate(evecs, axis=1),
                    sign=np.array(sign), fit_residual=np.array(residual))


def fit_global(nodes, values, kernel, surface, mode, guard=GLOBAL_FIT_GUARD):
    """One dense fit over all samples; the O(N^3) oracle the blended
    approximant is compared against.  Refuses node counts above ``guard``."""
    if len(nodes) > guard:
        raise GlobalFitSizeError(
            f"global dense fit limited to {guard} nodes, got {len(nodes)}")
    nodes, values = check_samples(nodes, values, surface, mode)
    return fit_table(nodes, values, np.arange(len(nodes)), [len(nodes)],
                     kernel, surface, mode)[0]
