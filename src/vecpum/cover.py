"""Overlapping patch covers and Shepard partition-of-unity weights.

A cover is a set of ball-shaped patches (disks in the plane, spherical caps
on the sphere, balls in R^3) whose centers come from a lattice of spacing H
restricted to the domain, with radii proportional to H.  Every sample node
must land strictly inside at least one patch; nodes missed by the initial
radii inflate their nearest patch.  The cover owns patch membership and
its surface, which checks the nodes and every query point; fit tables,
glue graphs and approximants read both from it.  Weights are Shepard
quotients of a C^1 quadratic B-spline bump, with analytic gradients.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .errors import ConfigError, CoverConnectivityError, CoverageError
from .geometry import Surface

# Factor by which an inflated radius overshoots the node distance so that
# strict-inequality membership tests succeed.
INFLATION_MARGIN = 1e-6

# Relative slack on the candidate query radius, so that tree distances
# rounded differently from the strict test never drop a contained pair.
_QUERY_MARGIN = 1e-9
# Points per incidence query; bounds the size of its pair arrays.
QUERY_BLOCK = 2048


def spacing_from_q(q, area, n_nodes, dim):
    """Patch spacing H = q * (area / n_nodes)**(1/dim)."""
    if q <= 0 or area <= 0 or n_nodes <= 0 or dim <= 0:
        raise ValueError("q, area, n_nodes, dim must all be positive")
    return q * (area / n_nodes) ** (1.0 / dim)


def centers_plane(bbox, inside, spacing):
    """Hexagonal-lattice points of the given spacing inside a plane domain.

    The domain is the box ``bbox = ((x0, y0), (x1, y1))`` cut down by the
    vectorized mask ``inside(points)``, or the whole box when ``inside`` is
    None.  Rows run along the x axis, anchored at the bounding-box corner,
    with alternate rows offset by half a spacing.
    """
    (x0, y0), (x1, y1) = bbox
    row_step = spacing * np.sqrt(3.0) / 2.0
    ys = np.arange(y0, y1 + row_step, row_step)
    rows = []
    for k, y in enumerate(ys):
        shift = 0.5 * spacing if k % 2 else 0.0
        xs = np.arange(x0 + shift, x1 + spacing, spacing)
        rows.append(np.stack([xs, np.full_like(xs, y)], axis=1))
    pts = np.concatenate(rows)
    if inside is not None:
        pts = pts[inside(pts)]
    if len(pts) == 0:
        raise ConfigError("no plane patch centers survive the inside test; "
                          "spacing is too large for the domain")
    return pts


def centers_ball(spacing):
    """Cartesian-lattice points of the given spacing in the closed unit ball.

    The lattice contains the origin, so ``spacing >= 1`` still yields at
    least one center.
    """
    kmax = int(np.floor(1.0 / spacing))
    ticks = np.arange(-kmax, kmax + 1) * spacing
    gx, gy, gz = np.meshgrid(ticks, ticks, ticks, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
    pts = pts[(pts * pts).sum(-1) <= 1.0]
    if len(pts) == 0:
        raise ConfigError("no ball patch centers; spacing too large")
    return pts


def centers_sphere(spacing):
    """ceil(4 pi / spacing^2) quasi-uniform unit vectors (Fibonacci spiral)."""
    m = int(np.ceil(4.0 * np.pi / spacing**2))
    k = np.arange(m)
    z = 1.0 - (2.0 * k + 1.0) / m
    theta = np.pi * (3.0 - np.sqrt(5.0)) * k
    rad = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    pts = np.stack([rad * np.cos(theta), rad * np.sin(theta), z], axis=1)
    return pts / np.sqrt((pts * pts).sum(-1))[:, None]


def kappa(r):
    """C^1 quadratic B-spline bump: 1 - 3r^2 on [0, 1/3], 1.5(1-r)^2 on
    [1/3, 1], zero outside."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    lo = r < 1.0 / 3.0
    hi = ~lo & (r < 1.0)
    out[lo] = 1.0 - 3.0 * r[lo] ** 2
    out[hi] = 1.5 * (1.0 - r[hi]) ** 2
    return out


def kappa_prime(r):
    """Derivative of ``kappa``; continuous, with kappa'(1) = 0."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    lo = r < 1.0 / 3.0
    hi = ~lo & (r < 1.0)
    out[lo] = -6.0 * r[lo]
    out[hi] = -3.0 * (1.0 - r[hi])
    return out


def _kappa_prime_over_r(r):
    # kappa'(r)/r with the finite limit -6 at r = 0.
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    lo = r < 1.0 / 3.0
    hi = ~lo & (r < 1.0)
    out[lo] = -6.0
    out[hi] = -3.0 * (1.0 - r[hi]) / r[hi]
    return out


def read_only(a):
    """``a`` as a read-only float array: ``a`` itself if it already is one
    that owns its data, else a copy."""
    a = np.asarray(a, dtype=float)
    if a.flags.writeable or not a.flags.owndata:
        a = a.copy()
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Cover:
    """Immutable patch cover over a node set on ``surface``; the one owner
    of patch membership and of the surface, whose ``check`` the nodes and
    every query point pass.

    ``centers``, ``radii`` and ``nodes`` are ``read_only`` copies of the
    caller's arrays, so nothing computed from them can go stale.
    Membership is held once, in CSR form: patch l's members, the nodes
    strictly inside it, are ``member_index[offsets[l]:offsets[l + 1]]``,
    and ``members[l]`` is that slice as a view.  Both arrays are read-only.
    ``tree`` indexes the patch centers and ``edges`` holds the overlapping
    patch pairs (``patch_graph_edges``).  Construction raises ConfigError
    unless every patch has members and no two centers coincide, and
    CoverConnectivityError on a disconnected patch graph.
    """

    centers: np.ndarray
    radii: np.ndarray
    members: tuple
    nodes: np.ndarray
    surface: Surface
    member_index: np.ndarray = field(init=False, repr=False)
    offsets: np.ndarray = field(init=False, repr=False)
    tree: cKDTree = field(init=False, repr=False)
    edges: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not self.members or not all(len(idx) for idx in self.members):
            raise ConfigError("a cover needs at least one patch and member "
                              "nodes in every patch")
        object.__setattr__(self, "nodes", self.surface.check(self.nodes))
        for name in ("centers", "radii", "nodes"):
            object.__setattr__(self, name, read_only(getattr(self, name)))
        member_index = np.concatenate(self.members)
        offsets = np.concatenate(
            ([0], np.cumsum([len(idx) for idx in self.members])))
        tree = cKDTree(self.centers)
        coincident = coincident_pair(tree)
        if coincident is not None:
            l, k = coincident
            raise ConfigError(f"patches {l} and {k} have the same center")
        edges = patch_graph_edges(self.centers, self.radii, tree)
        for owned in (member_index, offsets, edges):
            owned.flags.writeable = False
        derived = dict(member_index=member_index, offsets=offsets,
                       members=tuple(np.split(member_index, offsets[1:-1])),
                       tree=tree, edges=edges)
        for name, value in derived.items():
            object.__setattr__(self, name, value)
        n_comp = component_count(len(self.centers), edges)
        if n_comp != 1:
            raise CoverConnectivityError(
                f"patch graph has {n_comp} connected components; the "
                f"potential shifts cannot be reconciled across a "
                f"disconnected cover")

    def __len__(self):
        return len(self.centers)

    def member_counts(self):
        return np.diff(self.offsets)

    def incidence(self, points):
        """The (point, patch) pairs of finite points with the point
        strictly inside the patch (``strict_pairs``)."""
        return strict_pairs(points, self.centers, self.radii, self.tree)

    def covers(self, points):
        """Which points, after ``surface.check``, lie in some patch."""
        points = self.surface.check(points)
        mask = np.zeros(len(points), dtype=bool)
        for lo in range(0, len(points), QUERY_BLOCK):
            inc = self.incidence(points[lo:lo + QUERY_BLOCK])
            mask[lo + inc.point] = True
        return mask


@dataclass
class Incidence:
    """Point-patch pairs: ``diff = points[point] - centers[patch]`` and
    ``dist`` its length."""

    point: np.ndarray
    patch: np.ndarray
    diff: np.ndarray
    dist: np.ndarray


def strict_pairs(points, centers, radii, tree):
    """The (point, patch) pairs with ``sqrt(d2) < radius``, from one query.

    ``tree`` indexes ``centers``.  This is the one membership test: it keeps
    exactly the pairs whose Shepard bump is positive (``d2 < radius**2``
    disagrees within an ulp of the boundary).  Pairs are sorted by patch and
    then by point, so a scatter in pair order adds each point's patch terms
    in ascending patch order.
    """
    reach = float(radii.max()) * (1.0 + _QUERY_MARGIN)
    found = cKDTree(points).sparse_distance_matrix(tree, reach,
                                                   output_type="ndarray")
    point, patch = found["i"], found["j"]
    diff = points[point] - centers[patch]
    dist = np.sqrt((diff * diff).sum(-1))
    keep = np.flatnonzero(dist < radii[patch])
    # Each pair occurs once, so its key is unique and any sort gives the
    # one (patch, point) order.
    keep = keep[np.argsort(patch[keep] * len(points) + point[keep])]
    return Incidence(point=point[keep], patch=patch[keep], diff=diff[keep],
                     dist=dist[keep])


def shepard_terms(cover, inc):
    """The bumps kappa_l of the pairs and the gradients of kappa_l with
    respect to the point."""
    rho = cover.radii[inc.patch]
    u = inc.dist / rho
    grad_k = (_kappa_prime_over_r(u) / rho**2)[:, None] * inc.diff
    return kappa(u), grad_k


def _initial_radius(surface, spacing, overlap):
    if surface.intrinsic_dim == 3:
        return (1.0 + overlap) * np.sqrt(3.0) * spacing / 2.0
    return (1.0 + overlap) * spacing / 2.0


def coincident_pair(tree):
    """The lowest pair (l, k), l < k, of points of ``tree`` at distance
    zero, or None when the points are pairwise distinct."""
    return min(tree.query_pairs(0.0), default=None)


def component_count(m, edges):
    """The number of connected components of the graph on ``m`` vertices
    with the (l, k) rows of ``edges`` as its edges."""
    adj = sparse.coo_matrix((np.ones(len(edges)), edges.T), shape=(m, m))
    return connected_components(adj, directed=False)[0]


def patch_graph_edges(centers, radii, tree):
    """Pairs (l, k), l < k, of patches whose balls intersect, sorted;
    ``tree`` indexes ``centers``, and ``query_pairs`` gives l < k."""
    pairs = tree.query_pairs(2.0 * float(np.max(radii)), output_type="ndarray")
    diff = centers[pairs[:, 0]] - centers[pairs[:, 1]]
    dist = np.sqrt((diff * diff).sum(-1))
    keep = dist < radii[pairs[:, 0]] + radii[pairs[:, 1]]
    pairs = pairs[keep]
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    return pairs[order]


def assign_radii_and_inflate(centers, nodes, overlap, surface, spacing):
    """Build a Cover: geometry-rule radii, then inflate for missed nodes.

    Every node not strictly inside any patch enlarges its nearest patch to
    radius ``dist * (1 + INFLATION_MARGIN)``.  The members are the nodes
    ``strict_pairs`` finds inside each inflated patch; patches that end up
    with no member nodes are dropped (they carry no local fit).  Raises
    CoverConnectivityError if the resulting patch graph is disconnected.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    nodes = surface.check(nodes)
    if overlap <= 0:
        raise ConfigError("overlap parameter must be positive")
    radii = np.full(len(centers), _initial_radius(surface, spacing, overlap))

    center_tree = cKDTree(centers)
    inc = strict_pairs(nodes, centers, radii, center_tree)
    miss = np.ones(len(nodes), dtype=bool)
    miss[inc.point] = False
    if miss.any():
        dist, nearest = center_tree.query(nodes[miss], k=1)
        np.maximum.at(radii, nearest, dist * (1.0 + INFLATION_MARGIN))
        inc = strict_pairs(nodes, centers, radii, center_tree)
    keep, starts = np.unique(inc.patch, return_index=True)
    return Cover(centers=centers[keep], radii=radii[keep],
                 members=np.split(inc.point, starts[1:]), nodes=nodes,
                 surface=surface)


def single_patch_cover(nodes, surface, radius=None):
    """A one-patch cover enclosing all nodes (testing aid for the global
    interpolant equivalence)."""
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    mean = nodes.mean(axis=0)
    if surface.kind == "sphere" and not np.any(mean):
        raise ConfigError("the nodes' mean is the sphere's center, which "
                          "has no projection onto the sphere to serve as "
                          "the patch center")
    center = surface.project(mean)
    if radius is None:
        radius = 2.5 * np.sqrt(((nodes - center) ** 2).sum(-1)).max() + 1e-3
    cov = Cover(centers=center[None, :], radii=np.array([float(radius)]),
                members=[np.arange(len(nodes))], nodes=nodes, surface=surface)
    if not cov.covers(nodes).all():
        raise ConfigError("radius does not enclose all nodes")
    return cov


@dataclass
class WeightEval:
    """Shepard weights and gradients of the active patches at one point."""

    indices: np.ndarray
    weights: np.ndarray
    gradients: np.ndarray


def weights_at(cover, x):
    """Evaluate w_l(x) and grad w_l(x) for every patch containing the one
    point x that passes ``surface.check`` (ValueError otherwise).

    The weights are the Shepard quotient kappa_l / sum_j kappa_j with
    kappa_l(x) = kappa(||x - center_l|| / radius_l); gradients come from the
    quotient rule, so they sum to zero across the active patches.
    """
    x = cover.surface.check(x)
    if len(x) != 1:
        raise ValueError(f"weights_at takes one point, got {len(x)}")
    inc = cover.incidence(x)
    k, grad_k = shepard_terms(cover, inc)
    idx = inc.patch
    if len(idx) == 0:
        raise CoverageError(f"point {x[0]} is outside every patch")
    total = k.sum()
    grad_total = grad_k.sum(axis=0)
    w = k / total
    grad_w = grad_k / total - w[:, None] * (grad_total / total)
    return WeightEval(indices=idx, weights=w, gradients=grad_w)

