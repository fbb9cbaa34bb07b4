"""Glue points and the potential-shift least-squares system.

Local scalar potentials are each defined only up to a constant.  One glue
point per overlapping patch pair carries the condition
psi_l(x) + b_l = psi_k(x) + b_k, collected into the sparse incidence system
P b = c whose rank is (patch count - 1) on a connected cover.  The shifts b
come from (optionally weighted) graph-Laplacian normal equations with one
anchor shift pinned to zero, solved by a sparse LU (SuperLU) at every
cover size.  The glue graph reads its edges, patch count, member counts
and surface from its cover.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .cover import Cover, component_count, read_only
from .errors import CoverConnectivityError


@dataclass(frozen=True, eq=False)
class GlueGraph:
    """The overlap edges (l < k) of ``cover``, their glue points, and
    per-edge near-center distances used by the least-squares weighting;
    the arrays are read-only."""

    cover: Cover
    points: np.ndarray
    r_near: np.ndarray

    def __post_init__(self):
        for name in ("points", "r_near"):
            object.__setattr__(self, name, read_only(getattr(self, name)))

    @property
    def edges(self):
        return self.cover.edges

    def __len__(self):
        return len(self.edges)


@dataclass(frozen=True, eq=False)
class ShiftSolution:
    """Potential shifts with the anchored index and the system residual,
    in read-only arrays.

    The residual P b - c is kept: it enters the reconstruction error bound
    and its decay under refinement is a correctness diagnostic.
    """

    shifts: np.ndarray
    residual: np.ndarray
    anchor: int

    def __post_init__(self):
        for name in ("shifts", "residual"):
            object.__setattr__(self, name, read_only(getattr(self, name)))


def build_glue_graph(cover):
    """One glue point per overlapping patch pair.

    The point is the radius-weighted center of the overlap,
    (rho_k xi_l + rho_l xi_k) / (rho_k + rho_l), pulled back onto the
    sphere when the cover lives there; it always lies strictly inside both
    patches.  The edges are the cover's, which is connected, so the shift
    system has rank (patch count - 1).
    """
    edges = cover.edges
    xl = cover.centers[edges[:, 0]]
    xk = cover.centers[edges[:, 1]]
    rl = cover.radii[edges[:, 0]][:, None]
    rk = cover.radii[edges[:, 1]][:, None]
    points = (rk * xl + rl * xk) / (rk + rl)
    points = cover.surface.project(points)
    dist_l = np.sqrt(((points - xl) ** 2).sum(-1))
    dist_k = np.sqrt(((points - xk) ** 2).sum(-1))
    return GlueGraph(cover=cover, points=points,
                     r_near=np.minimum(dist_l, dist_k))


def build_shift_system(graph, fits):
    """Assemble the sparse L-by-M system P b = c.

    Row i for edge (l, k) has +1 in column l and -1 in column k, and
    c_i = psi_k(glue_i) - psi_l(glue_i) evaluated with the fitted local
    potentials of ``fits`` (a ``FitTable``), all edge ends in one call.
    """
    n_edges = len(graph.edges)
    m = len(graph.cover)
    rows = np.repeat(np.arange(n_edges), 2)
    cols = graph.edges.reshape(-1)
    data = np.tile([1.0, -1.0], n_edges)
    p = sparse.csr_matrix((data, (rows, cols)), shape=(n_edges, m))
    psi, _ = fits.pair_sums(np.repeat(graph.points, 2, axis=0), cols,
                            with_field=False)
    psi = psi.reshape(n_edges, 2)
    return p, psi[:, 1] - psi[:, 0]


def glue_weights(graph, gamma):
    """Diagonal weights exp(-gamma (1 - r_i/r_min)^2); identity at gamma=0."""
    if not 0 <= gamma < np.inf:
        raise ValueError("gamma must be nonnegative and finite")
    if len(graph.r_near) == 0:
        return np.zeros(0)
    r_min = graph.r_near.min()
    return np.exp(-gamma * (1.0 - graph.r_near / r_min) ** 2)


def solve_shifts(p, c, graph, gamma=4.0, anchor=None):
    """Weighted least squares for the shifts with one anchor pinned to zero.

    The anchor defaults to the patch with the most member nodes (lowest
    index on ties); shifting all b_l by a common constant does not change
    the blended field, so the anchor choice only fixes the gauge.  Unless
    the edges of weight at least sqrt(eps) connect the patch graph (that
    is, the smallest weight on a maximum spanning tree is at least
    sqrt(eps)), the shifts would rest on weights at the rounding level,
    and CoverConnectivityError is raised.
    """
    m = len(graph.cover)
    if anchor is None:
        anchor = int(np.argmax(graph.cover.member_counts()))
    if len(c) == 0:
        return ShiftSolution(shifts=np.zeros(m), residual=np.zeros(0),
                             anchor=anchor)
    w = glue_weights(graph, gamma)
    message = (f"the glue edges with positive weight at gamma={gamma:g} "
               "leave the patch graph disconnected, or nearly so")
    strong = graph.edges[w >= np.sqrt(np.finfo(float).eps)]
    if component_count(m, strong) != 1:
        raise CoverConnectivityError(
            f"{message}: the edges of weight >= sqrt(eps) do not connect it")
    keep = np.arange(m) != anchor
    p_red = p[:, keep]
    wp = p_red.multiply(w[:, None]).tocsr()
    normal = (p_red.T @ wp).tocsc()
    rhs = p_red.T @ (w * c)
    try:
        sol = splu(normal).solve(rhs)
    except RuntimeError as exc:
        raise CoverConnectivityError(message) from exc
    shifts = np.zeros(m)
    shifts[keep] = sol
    return ShiftSolution(shifts=shifts, residual=p @ shifts - c,
                         anchor=anchor)

