import sys
from collections import Counter

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.csgraph import minimum_spanning_tree

import assembly_oracle
import pair_oracle
from vecpum import geometry, glue, testbed
from vecpum.cover import (Cover, assign_radii_and_inflate,
                          single_patch_cover, spacing_from_q)
from vecpum.errors import CoverConnectivityError
from vecpum.experiment import default_config, fit_and_glue
from vecpum.kernels import RadialKernel
from vecpum.pum import build_approximant


def make_cover(centers, radii, counts, surface=None):
    """Hand-built cover with synthetic member counts for glue tests, in
    flat space unless ``surface`` is given; its nodes sit at center 0."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    return Cover(centers=centers, radii=np.asarray(radii, dtype=float),
                 members=[np.arange(k) for k in counts],
                 nodes=np.repeat(centers[:1], max(counts), axis=0),
                 surface=surface or geometry.euclidean(centers.shape[1]))


class ConstantPotentials:
    """Stand-in fit table whose patch l has the constant potential
    ``offsets[l]``."""

    def __init__(self, *offsets):
        self.offsets = np.array(offsets, dtype=float)

    def pair_sums(self, points, patch, with_field=True):
        assert len(points) == len(patch) and not with_field
        return self.offsets[patch], None


def chain_cover():
    centers = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    return make_cover(centers, [0.7, 0.7, 0.7], [5, 3, 2])



def test_glue_point_midpoint_for_equal_radii():
    cov = make_cover([[0.0, 0.0], [1.0, 0.0]], [0.7, 0.7], [4, 2])
    graph = glue.build_glue_graph(cov)
    assert len(graph) == 1
    assert np.allclose(graph.points[0], [0.5, 0.0])
    assert graph.r_near[0] == pytest.approx(0.5)


def test_glue_point_weighted_by_radii():
    cov = make_cover([[0.0, 0.0], [2.0, 0.0]], [1.0, 3.0], [4, 2])
    graph = glue.build_glue_graph(cov)
    # (rho_k xi_l + rho_l xi_k) / (rho_k + rho_l) = (3*0 + 1*2)/4
    assert np.allclose(graph.points[0], [0.5, 0.0])
    # the glue point sits strictly inside both patches
    assert np.linalg.norm(graph.points[0] - [0.0, 0.0]) < 1.0
    assert np.linalg.norm(graph.points[0] - [2.0, 0.0]) < 3.0


def test_glue_point_projected_to_sphere():
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.0, 1.0, 0.0])
    cov = make_cover([a, b], [1.2, 1.2], [4, 2], geometry.sphere2())
    graph = glue.build_glue_graph(cov)
    assert np.linalg.norm(graph.points[0]) == pytest.approx(1.0, abs=1e-15)


def test_edges_only_for_overlaps():
    centers = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    cov = make_cover(centers, [0.6, 0.6, 1.5], [1, 1, 1])
    graph = glue.build_glue_graph(cov)
    edges = {tuple(e) for e in graph.edges}
    assert edges == {(0, 1), (1, 2)}


def test_disconnected_graph_raises():
    # the cover checks its own patch graph, so a disconnected one is never
    # built and never reaches the glue stage
    centers = np.array([[0.0, 0.0], [10.0, 0.0]])
    with pytest.raises(CoverConnectivityError):
        make_cover(centers, [0.5, 0.5], [1, 1])


def test_fit_and_glue_builds_the_patch_graph_once(monkeypatch):
    calls = Counter()
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] != "vecpum":
            continue
        for name in ("patch_graph_edges", "component_count",
                     "connected_components"):
            fn = getattr(mod, name, None)
            if fn is None:
                continue

            def counted(*args, _fn=fn, _key=(mod_name, name), **kwargs):
                calls[_key] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(mod, name, counted)
    problem = testbed.star_problem()
    nodes = problem.nodes(1000, np.random.SeedSequence(3))
    fit_and_glue(problem, nodes, problem.field(nodes),
                 default_config("star2d"))
    # The cover builds and checks its patch graph once; the shift solve
    # checks once that the edges of weight >= sqrt(eps) still connect it.
    # Both checks are the cover's one connected_components call.
    assert calls == {("vecpum.cover", "patch_graph_edges"): 1,
                     ("vecpum.cover", "component_count"): 1,
                     ("vecpum.glue", "component_count"): 1,
                     ("vecpum.cover", "connected_components"): 2}


def test_shift_system_identical_potentials():
    cov = chain_cover()
    graph = glue.build_glue_graph(cov)
    fits = ConstantPotentials(2.5, 2.5, 2.5)
    p, c = glue.build_shift_system(graph, fits)
    assert np.abs(c).max() == 0.0
    # constant vectors span the nullspace
    assert np.abs(p @ np.ones(3)).max() == 0.0
    assert p.shape == (2, 3)
    assert (np.asarray((p != 0).sum(axis=1)).ravel() == 2).all()


def test_shift_system_chain_offsets():
    cov = chain_cover()
    graph = glue.build_glue_graph(cov)
    fits = ConstantPotentials(0.0, 1.0, 3.0)
    p, c = glue.build_shift_system(graph, fits)
    # c_i = psi_k - psi_l over edges (0,1) and (1,2)
    assert np.allclose(c, [1.0, 2.0])
    # incidence matrix of a connected cover has rank M-1
    assert np.linalg.matrix_rank(p.toarray()) == len(graph.cover) - 1


def shift_rhs_oracle(graph, fits):
    """c by the original per-patch scan over all edges, each patch's
    potential evaluated densely (``pair_oracle``)."""
    c = np.zeros(len(graph.edges))
    for l in range(len(graph.cover)):
        on_l = np.nonzero(graph.edges[:, 0] == l)[0]
        if len(on_l):
            c[on_l] -= pair_oracle.potential(fits[l], graph.points[on_l])
        on_k = np.nonzero(graph.edges[:, 1] == l)[0]
        if len(on_k):
            c[on_k] += pair_oracle.potential(fits[l], graph.points[on_k])
    return c


@pytest.fixture(scope="module", params=["star2d", "sphere", "ball"])
def glued(request):
    """A fitted approximant of a built-in problem and its glue graph."""
    problem = testbed.PROBLEMS[request.param]()
    nodes = problem.nodes(1500, np.random.SeedSequence(7))
    approx, _ = fit_and_glue(problem, nodes, problem.field(nodes),
                             default_config(request.param))
    return approx, glue.build_glue_graph(approx.cover)


def test_shift_system_matches_per_patch_scan(glued):
    approx, graph = glued
    assert len(graph) > len(approx.cover)
    _, c = glue.build_shift_system(graph, approx.fits)
    assert pair_oracle.same_bits(c, shift_rhs_oracle(graph, approx.fits))


def test_glue_graph_edges_are_the_cover_edges(glued):
    approx, graph = glued
    cov = approx.cover
    assert np.array_equal(graph.edges, cov.edges)
    # every intersecting pair, l < k, by brute force over all pairs
    diff = cov.centers[:, None, :] - cov.centers[None, :, :]
    overlap = (np.sqrt((diff * diff).sum(-1))
               < cov.radii[:, None] + cov.radii[None, :])
    assert np.array_equal(cov.edges, np.argwhere(np.triu(overlap, k=1)))


def test_sparse_shift_solve_matches_dense(glued, monkeypatch):
    # One sparse LU per solve, agreeing to rounding with cho_factor on the
    # same anchored, weighted normal equations formed densely.
    approx, graph = glued
    p, c = glue.build_shift_system(graph, approx.fits)
    factorizations = Counter()
    splu = glue.splu

    def counted_splu(a):
        factorizations["splu"] += 1
        return splu(a)

    monkeypatch.setattr(glue, "splu", counted_splu)
    got = glue.solve_shifts(p, c, graph)
    assert factorizations["splu"] == 1
    keep = np.arange(len(graph.cover)) != got.anchor
    w = glue.glue_weights(graph, 4.0)
    dense = p.toarray()[:, keep]
    want = np.zeros(len(graph.cover))
    want[keep] = assembly_oracle._solve_spd(dense.T @ (w[:, None] * dense),
                                            dense.T @ (w * c))
    scale = np.abs(want).max()
    assert np.abs(got.shifts - want).max() <= 1e-12 * scale
    assert np.abs(got.residual - (p @ want - c)).max() <= 1e-12 * scale


@pytest.mark.parametrize("offset", [1e-3, 1e-12])
def test_underflowing_glue_weights_raise_connectivity_error(offset):
    # A copy of center 0 moved by ``offset`` gives one glue point almost
    # at its patches' centers, so r_min is tiny and every other edge weight
    # exp(-gamma (1 - r/r_min)^2) underflows to zero.  The factorization of
    # the weighted system then failed with a raw RuntimeError (splu).
    problem = testbed.star_problem()
    nodes = problem.nodes(600, 9)
    config = default_config("star2d")
    h = spacing_from_q(config.q, problem.area, len(nodes), 2)
    centers = problem.make_centers(h)
    near = np.concatenate([centers, centers[:1] + [offset, 0.0, 0.0]])
    cov = assign_radii_and_inflate(near, nodes, config.delta,
                                   problem.surface, h)
    with pytest.raises(CoverConnectivityError, match="positive weight"):
        build_approximant(cov, RadialKernel(config.kernel, config.eps),
                          problem.mode, problem.field(nodes))


def test_shift_solve_needs_a_spanning_tree_of_sqrt_eps_weights():
    # solve_shifts refuses exactly the gammas at which the smallest weight
    # on a maximum spanning tree of the glue edges falls below sqrt(eps).
    problem = testbed.star_problem()
    nodes = problem.nodes(2500, 1)
    config = default_config("star2d")
    h = spacing_from_q(config.q, problem.area, len(nodes), 2)
    cov = assign_radii_and_inflate(problem.make_centers(h), nodes,
                                   config.delta, problem.surface, h)
    graph = glue.build_glue_graph(cov)
    p, c = glue.build_shift_system(graph, ConstantPotentials(
        *np.arange(len(cov), dtype=float)))
    refused = {}
    for gamma in (4.0, 1000.0, 3000.0, 5000.0, 7000.0):
        w = glue.glue_weights(graph, gamma)
        # A minimum spanning tree over 2 - w is a maximum one over w.
        tree = minimum_spanning_tree(sparse.coo_matrix(
            (2.0 - w, graph.edges.T), shape=(len(cov), len(cov))))
        bottleneck = 2.0 - tree.data.max()
        try:
            glue.solve_shifts(p, c, graph, gamma=gamma)
            refused[gamma] = False
        except CoverConnectivityError:
            refused[gamma] = True
        assert refused[gamma] == (bottleneck < np.sqrt(np.finfo(float).eps))
    assert not refused[4.0] and refused[7000.0]


def test_solve_shifts_zero_rhs():
    cov = chain_cover()
    graph = glue.build_glue_graph(cov)
    p, c = glue.build_shift_system(graph, ConstantPotentials(0.0, 0.0, 0.0))
    sol = glue.solve_shifts(p, c, graph, gamma=4.0)
    assert np.abs(sol.shifts).max() == 0.0
    assert np.abs(sol.residual).max() == 0.0


def test_solve_shifts_chain_matches_brute_force():
    cov = chain_cover()
    graph = glue.build_glue_graph(cov)
    fits = ConstantPotentials(0.0, 1.0, 3.0)
    p, c = glue.build_shift_system(graph, fits)
    sol = glue.solve_shifts(p, c, graph, gamma=0.0)
    # anchor is the most-populated patch (index 0 here)
    assert sol.anchor == 0
    # brute-force least squares of the anchored 2x2 system
    dense = p.toarray()[:, 1:]
    expect = np.linalg.lstsq(dense, c, rcond=None)[0]
    assert np.allclose(sol.shifts, np.concatenate([[0.0], expect]),
                       atol=1e-12)
    assert np.allclose(sol.shifts, [0.0, -1.0, -3.0], atol=1e-12)
    # reconciliation: shifted potentials agree across the chain
    shifted = fits.offsets + sol.shifts
    assert np.ptp(shifted) < 1e-12
    # a tree graph is exactly determined: zero residual
    assert np.abs(sol.residual).max() < 1e-12


def test_glue_weights():
    cov = chain_cover()
    graph = glue.build_glue_graph(cov)
    w = glue.glue_weights(graph, 4.0)
    assert ((w > 0) & (w <= 1.0)).all()
    assert w[np.argmin(graph.r_near)] == 1.0
    assert np.array_equal(glue.glue_weights(graph, 0.0), np.ones(2))
    with pytest.raises(ValueError):
        glue.glue_weights(graph, -1.0)


@pytest.mark.parametrize("gamma", [np.inf, np.nan])
def test_glue_weights_reject_non_finite_gamma(gamma):
    graph = glue.build_glue_graph(chain_cover())
    with pytest.raises(ValueError, match="finite"):
        glue.glue_weights(graph, gamma)


def test_weighted_solve_on_loop_graph():
    # a 4-cycle with inconsistent c has nonzero residual; weighting tilts it
    centers = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    cov = make_cover(centers, [0.8, 0.8, 0.8, 0.8], [4, 3, 2, 1])
    graph = glue.build_glue_graph(cov)
    assert len(graph) >= 4
    p, _ = glue.build_shift_system(graph, ConstantPotentials(*[0.0] * 4))
    rng = np.random.default_rng(2)
    c = rng.normal(size=len(graph))
    sol0 = glue.solve_shifts(p, c, graph, gamma=0.0)
    # unweighted least squares: residual orthogonal to range(P_reduced)
    dense = p.toarray()[:, 1:]
    assert np.abs(dense.T @ sol0.residual).max() < 1e-10
    expect = np.linalg.lstsq(dense, c, rcond=None)[0]
    assert np.allclose(sol0.shifts[1:], expect, atol=1e-10)


def test_single_patch_no_edges():
    cov = make_cover([[0.0, 0.0]], [1.0], [7])
    graph = glue.build_glue_graph(cov)
    assert len(graph) == 0
    p, c = glue.build_shift_system(graph, ConstantPotentials(4.0))
    sol = glue.solve_shifts(p, c, graph, gamma=4.0)
    assert np.array_equal(sol.shifts, [0.0])
    assert len(sol.residual) == 0


def test_single_patch_build_solves():
    # One patch has no edges: the shift system evaluates no pairs.
    problem = testbed.star_problem()
    nodes = problem.nodes(200, np.random.SeedSequence(3))
    cov = single_patch_cover(nodes, problem.surface)
    approx = build_approximant(
        cov, RadialKernel("imq", 7.0), problem.mode,
        problem.field(nodes))
    graph, sol = glue.build_glue_graph(cov), approx.shifts
    p, c = glue.build_shift_system(graph, approx.fits)
    assert len(graph) == 0 and p.shape == (0, 1) and c.shape == (0,)
    assert np.array_equal(sol.shifts, [0.0])
    assert len(sol.residual) == 0
    pot, fld = approx.batch_eval(nodes[:5])
    assert np.isfinite(pot).all() and np.isfinite(fld).all()

