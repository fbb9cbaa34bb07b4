"""Analytic test fields, domains, and quasi-uniform node generators.

Three benchmark problems: a div-free field on a star-shaped plane domain, a
div-free zonal-jet field on the unit sphere, and a curl-free smoothed-charge
field in the unit ball.  Potentials and fields are exact closed forms; node
sets come from seeded Poisson-disk (dart throwing) sampling, so every seed
yields an independent quasi-uniform draw.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import expit

from . import cover, geometry

# ---------------------------------------------------------------------------
# star domain in the plane

# Bump g(r) = e^r / (1 + e^r)^2 = sech(r/2)^2 / 4, written to survive large r.
def bump(r):
    r = np.asarray(r, dtype=float)
    return 0.25 / np.cosh(np.clip(r, -700.0, 700.0) / 2.0) ** 2


def bump_d1(r):
    """d/dr of ``bump``: -bump(r) * tanh(r/2)."""
    r = np.asarray(r, dtype=float)
    return -bump(r) * np.tanh(np.clip(r, -700.0, 700.0) / 2.0)


STAR_CENTERS = np.stack([
    np.array([np.cos(2.0 * np.pi * j / 5.0 + 0.1),
              np.sin(2.0 * np.pi * j / 5.0 + 0.5)])
    for j in range(5)
])
STAR_LEVEL = -0.1
# Measured once on a fine grid; the bounding box carries a safety margin.
STAR_BBOX = ((-1.6, -1.6), (1.7, 1.7))
STAR_AREA = 5.754


def psi1(points):
    """Star-domain potential: ring plus five off-center wells."""
    p = np.atleast_2d(np.asarray(points, dtype=float))
    s = (p * p).sum(-1)
    val = -2.0 * bump(13.5 * s * s) - 0.5 * bump(27.0 * s)
    for c in STAR_CENTERS:
        d = p - c
        val -= 2.0 * bump(9.0 * (d * d).sum(-1))
    return val


def grad_psi1(points):
    p = np.atleast_2d(np.asarray(points, dtype=float))
    s = (p * p).sum(-1)
    coef = -2.0 * bump_d1(13.5 * s * s) * 54.0 * s - 0.5 * bump_d1(27.0 * s) * 54.0
    out = coef[:, None] * p
    for c in STAR_CENTERS:
        d = p - c
        out += (-36.0 * bump_d1(9.0 * (d * d).sum(-1)))[:, None] * d
    return out


def u1(points):
    """Div-free star field: the plane surface curl (-d/dy, d/dx) of psi1."""
    grad = grad_psi1(points)
    return np.stack([-grad[:, 1], grad[:, 0]], axis=1)


def inside_star(points):
    """True where psi1 <= -1/10 (the star-shaped target domain)."""
    return psi1(points) <= STAR_LEVEL


# ---------------------------------------------------------------------------
# zonal jet with vortices on the unit sphere

_SPHERE_LAMBDA = np.array([0.05, 1.1, 2.12, 3.18, 4.22, 5.26])
_SPHERE_THETA = np.array([0.79, -0.82, 0.76, -0.81, 0.8, -0.77])
SPHERE_VORTEX_CENTERS = np.stack([
    np.cos(_SPHERE_LAMBDA) * np.cos(_SPHERE_THETA),
    np.sin(_SPHERE_LAMBDA) * np.cos(_SPHERE_THETA),
    np.sin(_SPHERE_THETA),
], axis=1)
SPHERE_VORTEX_WIDTHS = 4.0 + 0.5 * np.arange(6)
_JET_OFFSET = 1.0 / np.sqrt(2.0)


def psi2(points):
    """Sphere potential: two logistic jet terms in z plus six alternating
    vortices of increasing sharpness."""
    p = np.atleast_2d(np.asarray(points, dtype=float))
    z = p[:, 2]
    val = -expit(20.0 * (z + _JET_OFFSET)) - expit(20.0 * (z - _JET_OFFSET))
    for j in range(6):
        d = p - SPHERE_VORTEX_CENTERS[j]
        val -= 3.0 * (-1.0) ** j * bump(
            SPHERE_VORTEX_WIDTHS[j] * (d * d).sum(-1))
    return val


def grad_psi2(points):
    p = np.atleast_2d(np.asarray(points, dtype=float))
    z = p[:, 2]
    out = np.zeros_like(p)
    for sign in (1.0, -1.0):
        t = 20.0 * (z + sign * _JET_OFFSET)
        out[:, 2] -= 20.0 * expit(t) * expit(-t)
    for j in range(6):
        d = p - SPHERE_VORTEX_CENTERS[j]
        a = SPHERE_VORTEX_WIDTHS[j]
        out += (-6.0 * (-1.0) ** j * a *
                bump_d1(a * (d * d).sum(-1)))[:, None] * d
    return out


def u2(points):
    """Div-free sphere field: surface curl x cross grad(psi2), tangent by
    construction."""
    p = geometry.sphere2().check(points)
    return geometry.cross(p, grad_psi2(p))


# ---------------------------------------------------------------------------
# smoothed point charges in the unit ball

def _icosahedron_vertices(scale):
    gold = (1.0 + np.sqrt(5.0)) / 2.0
    base = []
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            base.append([0.0, s1, s2 * gold])
            base.append([s1, s2 * gold, 0.0])
            base.append([s2 * gold, 0.0, s1])
    verts = np.array(base)
    return scale * verts / np.sqrt(1.0 + gold * gold)


BALL_CHARGES = _icosahedron_vertices(2.0 / 3.0)


def coulomb(r, a):
    """Smoothed Coulomb profile (a + r^2)**(-1/2)."""
    return 1.0 / np.sqrt(a + np.asarray(r, dtype=float) ** 2)


def psi3(points):
    """Ball potential: central negative charge plus twelve positive charges
    on icosahedron vertices at radius 2/3."""
    p = np.atleast_2d(np.asarray(points, dtype=float))
    r = np.sqrt((p * p).sum(-1))
    val = -0.25 * coulomb(r, 0.1)
    for c in BALL_CHARGES:
        d = p - c
        val += 0.125 * coulomb(np.sqrt((d * d).sum(-1)), 0.04)
    return val


def grad_psi3(points):
    p = np.atleast_2d(np.asarray(points, dtype=float))
    s = (p * p).sum(-1)
    out = 0.25 * ((0.1 + s) ** -1.5)[:, None] * p
    for c in BALL_CHARGES:
        d = p - c
        sd = (d * d).sum(-1)
        out -= 0.125 * ((0.04 + sd) ** -1.5)[:, None] * d
    return out


def u3(points):
    """Curl-free ball field: -grad(psi3)."""
    return -grad_psi3(points)


# ---------------------------------------------------------------------------
# Poisson-disk node generators

# The smallest node count the generators accept.
MIN_NODES = 10


def _accept(cand, forest, min_dist):
    """Mask of the candidates that dart throwing keeps, in order.

    A candidate is kept when its squared distance to every point of the
    static k-d trees in ``forest`` and to every earlier kept candidate is
    at least ``min_dist**2``.  The trees search slightly beyond
    ``min_dist`` and every point they return is re-checked with that exact
    test.  Each tree, in ``forest`` order (largest first, each holding
    more than twice the points of the next), is asked only for the nearest
    point to each candidate still kept; where that point fails the exact
    test, all of the tree's points within reach of that candidate are
    checked.  Candidate pairs are then sought only among the candidates
    the forest kept, since a pair with a rejected end changes no verdict.
    """
    r2 = min_dist * min_dist
    reach = min_dist * (1.0 + 1e-9)
    keep = np.ones(len(cand), dtype=bool)
    for forest_tree in forest:
        alive = np.flatnonzero(keep)
        _, j = forest_tree.query(cand[alive], distance_upper_bound=reach)
        found = j < forest_tree.n
        alive, j = alive[found], j[found]
        close = ((forest_tree.data[j] - cand[alive]) ** 2).sum(-1) < r2
        keep[alive[close]] = False
        unsure = alive[~close]
        if len(unsure):
            near = forest_tree.sparse_distance_matrix(
                cKDTree(cand[unsure]), reach, output_type="ndarray")
            i, j = near["i"], near["j"]
            keep[unsure[j[((forest_tree.data[i] - cand[unsure[j]]) ** 2)
                          .sum(-1) < r2]]] = False
    alive = np.flatnonzero(keep)
    first, later = alive[cKDTree(cand[alive]).query_pairs(
        reach, output_type="ndarray")].T
    close = ((cand[first] - cand[later]) ** 2).sum(-1) < r2
    first, later = first[close], later[close]
    # Sorted by the later candidate, each pair sees the final verdict on
    # its earlier one.
    order = np.argsort(later, kind="stable")
    keep = keep.tolist()
    for a, b in zip(first[order].tolist(), later[order].tolist()):
        if keep[a]:
            keep[b] = False
    return np.array(keep, dtype=bool)


def _poisson_disk(n_target, min_dist, propose, inside, rng):
    """Dart throwing against a logarithmic forest of static k-d trees.

    ``propose(rng, m)`` draws candidate points and ``inside`` filters them.
    Candidates are drawn 4096 at a time and accepted in proposal order, so
    the result is that of testing them one by one.  The accepted points
    live in static trees over consecutive blocks whose sizes form a binary
    counter (Bentley & Saxe's static-to-dynamic transformation): each
    chunk's new points merge with the trailing trees while the last tree
    holds at most twice the merged block, and one tree is built over that
    slice.  After every merge each tree holds more than twice the points
    of the next, so the forest has at most floor(log2 n_target) + 1 trees
    and every point is re-indexed O(log n_target) times.
    Returns up to ``n_target`` (positive) points with pairwise squared
    distance at least ``min_dist**2``.
    """
    pts = None
    forest = []
    count = 0
    attempts = 0
    max_attempts = 400 * n_target + 10000
    while count < n_target and attempts < max_attempts:
        batch = propose(rng, 4096)
        batch = batch[inside(batch)]
        attempts += 4096
        if pts is None:
            pts = np.empty((n_target, batch.shape[1]))
        # Chunks of at most n_target candidates hold about as many close
        # pairs as points, however large min_dist is.
        for lo in range(0, len(batch), n_target):
            cand = batch[lo:lo + n_target]
            new = cand[_accept(cand, forest, min_dist)][:n_target - count]
            if len(new):
                pts[count:count + len(new)] = new
                start = count
                count += len(new)
                while forest and forest[-1].n <= 2 * (count - start):
                    start -= forest.pop().n
                forest.append(cKDTree(pts[start:count]))
            if count == n_target:
                break
    return pts[:count]


def nodes_star(n_target, seed):
    """~n_target Poisson-disk nodes inside the star domain.

    Deterministic per seed; distinct seeds give independent draws (the
    repeat-trial analogue of re-perturbing a base node set).
    """
    if n_target < MIN_NODES:
        raise ValueError(f"n_target must be at least {MIN_NODES}")
    rng = np.random.default_rng(seed)
    (x0, y0), (x1, y1) = STAR_BBOX
    min_dist = 0.70 * np.sqrt(STAR_AREA / n_target)

    def propose(r, m):
        return r.uniform((x0, y0), (x1, y1), size=(m, 2))

    return _poisson_disk(n_target, min_dist, propose, inside_star, rng)


def nodes_sphere(n_target, seed):
    """Exactly n_target Poisson-disk nodes on the unit sphere (chordal
    separation), deterministic per seed."""
    if n_target < MIN_NODES:
        raise ValueError(f"n_target must be at least {MIN_NODES}")
    rng = np.random.default_rng(seed)
    min_dist = 0.72 * np.sqrt(4.0 * np.pi / n_target)

    def propose(r, m):
        v = r.normal(size=(m, 3))
        return v / np.sqrt((v * v).sum(-1))[:, None]

    pts = _poisson_disk(n_target, min_dist, propose,
                        lambda p: np.ones(len(p), dtype=bool), rng)
    return pts / np.sqrt((pts * pts).sum(-1))[:, None]


def nodes_ball(n_target, seed):
    """~n_target Poisson-disk nodes in the closed unit ball, deterministic
    per seed."""
    if n_target < MIN_NODES:
        raise ValueError(f"n_target must be at least {MIN_NODES}")
    rng = np.random.default_rng(seed)
    volume = 4.0 * np.pi / 3.0
    min_dist = 0.70 * (volume / n_target) ** (1.0 / 3.0)

    def propose(r, m):
        return r.uniform(-1.0, 1.0, size=(m, 3))

    return _poisson_disk(n_target, min_dist, propose,
                         lambda p: (p * p).sum(-1) <= 1.0, rng)


# ---------------------------------------------------------------------------
# problem bundles

@dataclass(frozen=True)
class TestProblem:
    """Everything an experiment needs: geometry, analytic truth, and nodes.

    ``potential_sign`` records the orientation convention: the exact field
    equals the mode's differential operator applied to
    ``potential_sign * potential`` (the ball field is minus a gradient).
    All evaluators take and return arrays in the surface's coordinate
    dimension (plane quantities are embedded at z = 0).
    """

    name: str
    surface: geometry.Surface
    mode: str
    area: float
    potential: callable
    field: callable
    potential_sign: float
    nodes: callable
    make_centers: callable


def star_problem():
    def pot3(p):
        return psi1(np.asarray(p)[:, :2])

    def field3(p):
        return geometry.embed_points(u1(np.asarray(p)[:, :2]))

    def nodes3(n, seed):
        return geometry.embed_points(nodes_star(n, seed))

    def centers(h):
        return geometry.embed_points(
            cover.centers_plane(STAR_BBOX, inside_star, h))

    # area=6.0 sets the patch spacing H only; the node spacing comes from
    # STAR_AREA (the measured 5.754).  It stays 6.0 because changing it
    # moves every seeded star output.
    return TestProblem(name="star2d", surface=geometry.plane2d(),
                       mode="div_surface", area=6.0, potential=pot3,
                       field=field3, potential_sign=1.0, nodes=nodes3,
                       make_centers=centers)


def sphere_problem():
    return TestProblem(name="sphere", surface=geometry.sphere2(),
                       mode="div_surface", area=4.0 * np.pi,
                       potential=psi2, field=u2, potential_sign=1.0,
                       nodes=nodes_sphere, make_centers=cover.centers_sphere)


def ball_problem():
    return TestProblem(name="ball", surface=geometry.euclidean(3),
                       mode="curl_euclidean", area=4.0 * np.pi / 3.0,
                       potential=psi3, field=u3, potential_sign=-1.0,
                       nodes=nodes_ball, make_centers=cover.centers_ball)


PROBLEMS = {
    "star2d": star_problem,
    "sphere": sphere_problem,
    "ball": ball_problem,
}


def load_points(path):
    """Read whitespace-separated points, one per line."""
    return np.loadtxt(path, ndmin=2, dtype=float)


def save_points(points, path):
    """Write points/vectors one per line, whitespace-separated, full
    precision."""
    np.savetxt(path, np.atleast_2d(points), fmt="%.17g")
