import contextlib
import dataclasses
import os
import platform
import re
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

import assembly_oracle
import pair_oracle
import vecpum
from vecpum import cover, geometry, glue, localfit, pum, testbed
from vecpum.errors import CoverageError, PatchFitError
from vecpum.experiment import default_config, fit_and_glue
from vecpum.kernels import RadialKernel
from vecpum.localfit import fit_global
from vecpum.pum import PumApproximant, build_approximant

PLANE = geometry.plane2d()


def star_setup(n, seed=23, q=8.0, delta=0.5):
    nodes = geometry.embed_points(testbed.nodes_star(n, seed))
    values = geometry.embed_points(testbed.u1(nodes[:, :2]))
    h = cover.spacing_from_q(q, 6.0, len(nodes), 2)
    centers = geometry.embed_points(
        cover.centers_plane(testbed.STAR_BBOX, testbed.inside_star, h))
    cov = cover.assign_radii_and_inflate(centers, nodes, delta, PLANE, h)
    return nodes, values, cov


def star_points(m, seed):
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < m:
        cand = rng.uniform(-1.6, 1.7, size=(4 * m, 2))
        cand = cand[testbed.inside_star(cand)]
        pts.extend(cand.tolist())
    return geometry.embed_points(np.array(pts[:m]))


@pytest.fixture(scope="module")
def star_approx():
    nodes, values, cov = star_setup(1500, seed=4)
    kernel = RadialKernel("imq", 7.0)
    approx = build_approximant(cov, kernel, "div_surface", values)
    return nodes, values, approx


def test_single_patch_cover_matches_global_fit():
    nodes = geometry.embed_points(testbed.nodes_star(400, 2))
    values = geometry.embed_points(testbed.u1(nodes[:, :2]))
    kernel = RadialKernel("imq", 7.0)
    cov = cover.single_patch_cover(nodes, PLANE, radius=4.0)
    approx = build_approximant(cov, kernel, "div_surface", values)
    oracle = fit_global(nodes, values, kernel, PLANE, "div_surface")
    pts = star_points(200, seed=6)
    pot_p, field_p = approx.batch_eval(pts)
    field_o = oracle.field_at(pts)
    pot_o = oracle.potential_at(pts)
    scale = np.sqrt((field_o**2).sum(-1)).max()
    assert np.abs(field_p - field_o).max() <= 1e-12 * scale
    a = pot_p - pot_p.mean()
    b = pot_o - pot_o.mean()
    assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


def test_common_shift_moves_potential_exactly():
    nodes, values, cov = star_setup(600, seed=9)
    kernel = RadialKernel("imq", 7.0)
    approx = build_approximant(cov, kernel, "div_surface", values)
    pts = star_points(50, seed=10)
    pot0, field0 = approx.batch_eval(pts)
    solution = approx.shifts
    shifted = glue.ShiftSolution(shifts=solution.shifts + 2.75,
                                 residual=solution.residual,
                                 anchor=solution.anchor)
    approx2 = PumApproximant(fits=approx.fits, shifts=shifted)
    pot1, field1 = approx2.batch_eval(pts)
    assert np.abs(pot1 - pot0 - 2.75).max() < 1e-12
    scale = np.sqrt((field0**2).sum(-1)).max()
    # constants are annihilated by the surface curl
    assert np.abs(field1 - field0).max() <= 1e-11 * scale


def test_potential_matches_unpruned_blend(star_approx):
    nodes, values, approx = star_approx
    pts = star_points(40, seed=11)
    pot, _ = approx.batch_eval(pts)
    shifts = approx.shifts.shifts
    for x, got in zip(pts, pot):
        num = 0.0
        den = 0.0
        for l, (center, radius) in enumerate(zip(approx.cover.centers,
                                                 approx.cover.radii)):
            d = np.linalg.norm(x - center)
            k = float(cover.kappa(d / radius)) if d < radius else 0.0
            if k > 0.0:
                num += k * (approx.fits[l].potential_at(x[None])[0]
                            + shifts[l])
                den += k
        assert abs(got - num / den) <= 1e-14 * max(1.0, abs(num / den))


def test_batch_matches_pointwise_bitwise(star_approx):
    _, _, approx = star_approx
    pts = star_points(1000, seed=12)
    pot, field, naive = approx.batch_eval_all(pts)
    for i in (0, 17, 256, 999):
        pot_i, field_i, naive_i = approx.batch_eval_all(pts[i:i + 1])
        assert pot_i[0] == pot[i]
        assert np.array_equal(field_i[0], field[i])
        assert np.array_equal(naive_i[0], naive[i])


def test_empty_input_and_ordering(star_approx):
    _, _, approx = star_approx
    pot, field = approx.batch_eval(np.zeros((0, 3)))
    assert pot.shape == (0,) and field.shape == (0, 3)
    pts = star_points(64, seed=13)
    pot, field = approx.batch_eval(pts)
    perm = np.random.default_rng(0).permutation(len(pts))
    pot2, field2 = approx.batch_eval(pts[perm])
    assert np.array_equal(pot2, pot[perm])
    assert np.array_equal(field2, field[perm])


def test_uncovered_points_error(star_approx):
    _, _, approx = star_approx
    pts = np.array([[50.0, 50.0, 0.0], [0.2, 0.2, 0.0], [60.0, 0.0, 0.0]])
    with pytest.raises(CoverageError) as err:
        approx.batch_eval(pts)
    assert list(err.value.indices) == [0, 2]


def test_covered_mask_agrees_with_evaluation_at_the_boundary():
    # This point's squared distance to the center is below radius**2, yet
    # its distance rounds to the radius, where the Shepard bump is zero.
    nodes = np.random.default_rng(1).uniform(-0.4, 0.4, (60, 2))
    cov = cover.Cover(centers=np.zeros((1, 2)),
                      radii=np.array([0.6732655185893088]),
                      members=[np.arange(60)], nodes=nodes,
                      surface=geometry.euclidean(2))
    approx = build_approximant(cov, RadialKernel("imq", 2.0), "curl_euclidean",
                               -nodes)
    pt = np.array([[float.fromhex("-0x1.c183fdabb7693p-2"),
                    float.fromhex("-0x1.055cc0996653ep-1")]])
    assert not approx.covered_mask(pt)[0]
    with pytest.raises(CoverageError):
        approx.batch_eval(pt)


@pytest.mark.parametrize("name", ["star2d", "sphere", "ball"])
def test_samples_are_checked_once_per_build(name, monkeypatch):
    calls = []
    check = localfit.check_samples

    def counted(*args):
        calls.append(len(args[0]))
        return check(*args)

    # fit_patch would reach the check through localfit, the build through
    # the name pum imported.
    monkeypatch.setattr(pum, "check_samples", counted)
    monkeypatch.setattr(localfit, "check_samples", counted)
    problem = testbed.PROBLEMS[name]()
    nodes = problem.nodes(600, np.random.SeedSequence(3))
    approx, _ = fit_and_glue(problem, nodes, problem.field(nodes),
                             default_config(name))
    assert len(approx.cover) > 1
    assert calls == [len(nodes)]


@pytest.fixture(scope="module")
def ball_approx():
    problem = testbed.ball_problem()
    nodes = problem.nodes(1500, np.random.SeedSequence(8))
    approx, _ = fit_and_glue(problem, nodes, problem.field(nodes),
                             default_config("ball"))
    return approx


@pytest.fixture(scope="module")
def sphere_approx():
    problem = testbed.sphere_problem()
    nodes = problem.nodes(600, np.random.SeedSequence(12))
    approx, _ = fit_and_glue(problem, nodes, problem.field(nodes),
                             default_config("sphere"))
    return approx


@pytest.mark.parametrize("name", ["star", "sphere", "ball"])
def test_fits_live_in_one_table(request, name):
    # One copy of everything per approximant: the fits are views of one
    # table, which reads node coordinates through the cover's member index.
    approx = (request.getfixturevalue("star_approx")[2] if name == "star"
              else request.getfixturevalue(f"{name}_approx"))
    table, cov = approx.fits, approx.cover
    assert isinstance(table, localfit.FitTable)
    assert table.cover is cov
    # The plane's fits are flat, in its two coordinates.
    dim = 2 if name == "star" else cov.nodes.shape[1]
    assert table.eval_vectors.shape == (dim, len(cov.member_index))
    assert len(table) == len(cov)
    for l, (fit, idx) in enumerate(zip(table, cov.members)):
        assert fit.patch == l and fit.table is table
        assert np.shares_memory(pair_oracle.eval_vectors(fit),
                                table.eval_vectors)
        assert np.shares_memory(idx, cov.member_index)
        assert not any(isinstance(v, np.ndarray) for v in vars(fit).values())
        assert np.array_equal(fit.nodes, cov.nodes[idx])
    assert not table.eval_vectors.flags.writeable
    # The node coordinates the pair kernel reads: the cover's own array, or
    # on the plane one read-only copy of its first two columns.
    if name == "star":
        assert pair_oracle.same_bits(table._coords,
                                     np.ascontiguousarray(cov.nodes[:, :2]))
    else:
        assert table._coords.base is cov.nodes
    assert not table._coords.flags.writeable
    # The pair kernel reads the table row by row (one coordinate at a time).
    assert table.eval_vectors.flags.c_contiguous


@pytest.mark.parametrize("name", ["plane", "sphere"])
def test_points_off_the_surface_rejected(request, name):
    # Two points 1e-6 off the surface, inside the cover once put back on it.
    if name == "plane":
        approx = request.getfixturevalue("star_approx")[2]
        pts = star_points(20, seed=31)
    else:
        approx = request.getfixturevalue("sphere_approx")
        pts = testbed.nodes_sphere(20, 32)
    assert approx.covered_mask(pts)[[4, 11]].all()
    if name == "plane":
        pts[[4, 11], 2] = 1e-6
    else:
        pts[[4, 11]] *= 1.0 + 1e-6
    for call in (approx.covered_mask, approx.batch_eval_all):
        with pytest.raises(ValueError,
                           match=rf"off the {name} by up to 1\.000e-06"):
            call(pts)


@pytest.mark.parametrize("name", ["plane", "sphere"])
def test_fit_evaluators_check_points(request, name):
    # Every evaluator of one fit runs the surface's point check: a point off
    # the surface is a ValueError for the potential too, never a number.
    if name == "plane":
        fit = request.getfixturevalue("star_approx")[2].fits[0]
        worst = 2
    else:
        fit = request.getfixturevalue("sphere_approx").fits[0]
        worst = 1
    for call in (fit.potential_at, fit.field_potential_at, fit.field_at):
        with pytest.raises(ValueError,
                           match=rf"off the {name} by up to {worst}\.000e"):
            call([[0.0, 0.0, 2.0]])
        with pytest.raises(ValueError, match="columns"):
            call([[0.0, 1.0]])
    on = fit.nodes[:3]
    assert pair_oracle.same_bits(fit.potential_at(on),
                                 fit.field_potential_at(on)[0])


@pytest.mark.parametrize("name", ["star", "ball"])
def test_empty_and_misshapen_points(request, name):
    approx = (request.getfixturevalue("star_approx")[2] if name == "star"
              else request.getfixturevalue("ball_approx"))
    dim = approx.cover.centers.shape[1]
    for empty in ([], np.zeros(0), np.zeros((0, dim))):
        assert approx.covered_mask(empty).shape == (0,)
        pot, field, naive = approx.batch_eval_all(empty)
        assert pot.shape == (0,)
        assert field.shape == naive.shape == (0, dim)
    for bad in (np.zeros((4, dim - 1)), np.zeros((4, dim + 1)),
                np.zeros((0, dim + 1)), np.zeros((2, 2, dim))):
        for call in (approx.covered_mask, approx.batch_eval_all):
            with pytest.raises(ValueError,
                               match=re.escape(f"shape {bad.shape}")):
                call(bad)


@pytest.mark.parametrize("workers", [0, -1])
def test_workers_below_one_rejected(star_approx, workers):
    _, _, approx = star_approx
    with pytest.raises(ValueError, match="workers must be at least 1"):
        approx.batch_eval_all(star_points(10, seed=27), workers=workers)


@pytest.mark.parametrize("m", [1, 100])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_points_rejected(star_approx, m, bad):
    _, _, approx = star_approx
    pts = star_points(m, seed=14)
    rows = [m - 1] if m == 1 else [3, 70]
    pts[rows, 0] = bad
    for call in (approx.batch_eval_all, approx.cover.covers):
        with pytest.raises(ValueError,
                           match=re.escape(f"not finite (rows {rows})")):
            call(pts)


def test_naive_blend_interpolates_but_field_matches_definition(star_approx):
    nodes, values, approx = star_approx
    pot, field, naive = approx.batch_eval_all(nodes[:300])
    scale = np.sqrt((values[:300] ** 2).sum(-1)).max()
    # each local fit interpolates, so the weighted blend does too
    assert np.sqrt(((naive - values[:300]) ** 2).sum(-1)).max() <= 1e-8 \
        * scale
    # the conservative field differs from the naive one by the correction
    corr = np.zeros_like(naive)
    shifts = approx.shifts.shifts
    for i, x in enumerate(nodes[:300]):
        w = cover.weights_at(approx.cover, x)
        acc = np.zeros(3)
        for l, grad in zip(w.indices, w.gradients):
            psi = approx.fits[l].potential_at(x[None])[0] + shifts[l]
            acc += psi * grad
        corr[i] = np.cross([0.0, 0.0, 1.0], acc)
    # field and naive are O(scale); the two correction routes only agree to
    # rounding on that scale
    assert np.abs(field - naive - corr).max() <= 1e-9 * scale


def test_near_interpolation_bound_at_nodes(star_approx):
    nodes, values, approx = star_approx
    pot, field, naive = approx.batch_eval_all(nodes)
    err = np.sqrt(((field - values) ** 2).sum(-1))
    shifts = approx.shifts.shifts
    scale = np.sqrt((values**2).sum(-1)).max()
    slack = 10 * 1e-8 * scale
    for i, x in enumerate(nodes[:400]):
        w = cover.weights_at(approx.cover, x)
        psis = np.array([approx.fits[l].potential_at(x[None])[0] + shifts[l]
                         for l in w.indices])
        ref = psis[np.argmin(
            np.linalg.norm(x - approx.cover.centers[w.indices], axis=1))]
        bound = (np.abs(psis - ref)
                 * np.sqrt((w.gradients**2).sum(-1))).sum()
        assert err[i] <= bound + slack


def test_identical_potentials_zero_correction():
    nodes, values, cov = star_setup(500, seed=14)
    kernel = RadialKernel("imq", 7.0)
    approx = build_approximant(cov, kernel, "div_surface", values)
    one = fit_global(nodes, values, kernel, PLANE, "div_surface").table
    # L copies of the one fit, on a cover with the patches of ``cov`` whose
    # every patch holds the one fit's members.
    n_patch = len(cov)
    every = cover.Cover(centers=cov.centers, radii=cov.radii,
                        members=[one.cover.member_index] * n_patch,
                        nodes=one.cover.nodes, surface=PLANE)
    copies = dataclasses.replace(
        one, cover=every, eval_vectors=np.tile(one.eval_vectors, n_patch),
        fit_residual=np.repeat(one.fit_residual, n_patch))
    same = PumApproximant(fits=copies,
                          shifts=glue.ShiftSolution(
                              shifts=np.zeros(n_patch),
                              residual=np.zeros(0), anchor=0))
    pts = star_points(60, seed=15)
    pot, field, naive = same.batch_eval_all(pts)
    scale = np.sqrt((field**2).sum(-1)).max()
    # all shifted potentials agree, so sum psi_l grad(w_l) telescopes to 0
    assert np.abs(field - naive).max() <= 1e-10 * scale


def plane_divergence_fd(field_fn, x, step):
    div = 0.0
    for a in range(2):
        e = np.zeros(3)
        e[a] = step
        div += (field_fn((x + e)[None])[0][a]
                - field_fn((x - e)[None])[0][a]) / (2 * step)
    return div


def test_conservation_vs_naive_blend():
    nodes, values, cov = star_setup(2000, seed=16)
    kernel = RadialKernel("imq", 13.0)
    approx = build_approximant(cov, kernel, "div_surface", values)
    pts = star_points(100, seed=17)
    _, field = approx.batch_eval(pts)
    scale = np.sqrt((field**2).sum(-1)).max()
    step = 5e-5

    def field_fn(p):
        return approx.batch_eval(p)[1]

    def naive_fn(p):
        return approx.batch_eval_all(p)[2]

    div_pum = np.array([plane_divergence_fd(field_fn, x, step) for x in pts])
    div_naive = np.array([plane_divergence_fd(naive_fn, x, step)
                          for x in pts])
    assert np.abs(div_pum).max() <= 1e-4 * scale
    ratio = np.abs(div_naive) / np.maximum(np.abs(div_pum), 1e-300)
    assert np.median(ratio) >= 1e4


def check_gradient_of_potential(approx, pts, tangents, geodesic, step=1e-4):
    """Worst |D_t pot - field.t| and |D_t pot - naive.t| over the points,
    for central differences of the blended potential along each tangent
    direction t (along great circles when ``geodesic``)."""
    _, field, naive = approx.batch_eval_all(pts)
    worst = worst_naive = 0.0
    for t in tangents:
        if geodesic:
            ahead = np.cos(step) * pts + np.sin(step) * t
            behind = np.cos(step) * pts - np.sin(step) * t
        else:
            ahead, behind = pts + step * t, pts - step * t
        fd = (approx.batch_eval_all(ahead)[0] -
              approx.batch_eval_all(behind)[0]) / (2 * step)
        worst = max(worst, np.abs(fd - (field * t).sum(-1)).max())
        worst_naive = max(worst_naive, np.abs(fd - (naive * t).sum(-1)).max())
    return worst, worst_naive


def test_flat_curl_free_blend():
    # Flat R^2 curl-free: the corrected field is the gradient of the
    # blended potential, the naive blend is not.
    nodes = testbed._poisson_disk(
        2000, 0.7 * np.sqrt(4.0 / 2000),
        lambda r, m: r.uniform(-1.0, 1.0, size=(m, 2)),
        lambda p: np.ones(len(p), dtype=bool), np.random.default_rng(7))
    surface = geometry.euclidean(2)
    h = cover.spacing_from_q(8.0, 4.0, len(nodes), 2)
    cov = cover.assign_radii_and_inflate(
        cover.centers_plane(((-1, -1), (1, 1)), None, h), nodes, 0.5,
        surface, h)
    approx = build_approximant(cov, RadialKernel("imq", 3.0),
                               "curl_euclidean", testbed.grad_psi1(nodes))
    assert len(approx.cover) == 52
    pts = np.random.default_rng(8).uniform(-0.95, 0.95, (400, 2))
    _, field = approx.batch_eval(pts)
    truth = testbed.grad_psi1(pts)
    scale = np.sqrt((truth * truth).sum(-1)).max()
    # measured: field error 1.1e-2, worst 1.7e-7, worst_naive 1.1e-2, all
    # relative to the scale
    assert np.sqrt(((field - truth) ** 2).sum(-1)).max() < 5e-2 * scale
    worst, worst_naive = check_gradient_of_potential(
        approx, pts[:100], np.eye(2)[:, None, :], geodesic=False)
    assert worst < 1e-5 * scale
    assert worst_naive > 1e-3 * scale


def test_sphere_curl_free_blend():
    # Sphere curl-free: the corrected field is the surface gradient of the
    # blended potential, checked along great circles.
    nodes = testbed.nodes_sphere(3000, 5)

    def tangent_grad_psi2(p):
        g = testbed.grad_psi2(p)
        return g - p * (p * g).sum(-1)[:, None]

    surface = geometry.sphere2()
    h = cover.spacing_from_q(9.0, 4.0 * np.pi, len(nodes), 2)
    cov = cover.assign_radii_and_inflate(cover.centers_sphere(h), nodes,
                                         9.0 / 16.0, surface, h)
    approx = build_approximant(cov, RadialKernel("matern4", 7.5),
                               "curl_surface", tangent_grad_psi2(nodes))
    assert len(approx.cover) == 38
    pts = testbed.nodes_sphere(400, 6)
    _, field = approx.batch_eval(pts)
    truth = tangent_grad_psi2(pts)
    scale = np.sqrt((truth * truth).sum(-1)).max()
    # measured: field error 1.7e-4, worst 1.4e-7, worst_naive 7.6e-5, all
    # relative to the scale
    assert np.sqrt(((field - truth) ** 2).sum(-1)).max() < 2e-3 * scale
    pts = pts[:100]
    d, e, _ = surface.tangent_frames(pts)
    worst, worst_naive = check_gradient_of_potential(approx, pts, (d, e),
                                                     geodesic=True)
    assert worst < 1e-5 * scale
    assert worst_naive > 1e-5 * scale


def test_field_is_derivative_of_potential(star_approx):
    _, values, approx = star_approx
    pts = star_points(40, seed=18)
    _, field = approx.batch_eval(pts)
    scale = np.sqrt((field**2).sum(-1)).max()
    step = 1e-5

    def potential(x):
        return approx.batch_eval_all(x[None])[0][0]

    for x, f in zip(pts, field):
        grad = np.zeros(3)
        for a in range(2):
            e = np.zeros(3)
            e[a] = step
            grad[a] = (potential(x + e) - potential(x - e)) / (2 * step)
        assert np.abs(np.cross([0.0, 0.0, 1.0], grad) - f).max() \
            <= 1e-5 * scale


def test_anchor_invariance_of_reconstruction():
    nodes, values, cov = star_setup(800, seed=21)
    kernel = RadialKernel("imq", 7.0)
    approx = build_approximant(cov, kernel, "div_surface", values)
    from vecpum.glue import build_shift_system, solve_shifts
    graph = glue.build_glue_graph(cov)
    p, c = build_shift_system(graph, approx.fits)
    sol_a = solve_shifts(p, c, graph, gamma=4.0, anchor=0)
    sol_b = solve_shifts(p, c, graph, gamma=4.0, anchor=len(cov) - 1)
    # shifts differ by one global constant only
    diff = sol_a.shifts - sol_b.shifts
    assert np.ptp(diff) < 1e-9 * max(1.0, np.abs(sol_a.shifts).max())
    pts = star_points(80, seed=22)
    pts = pts[cov.covers(pts)][:60]
    fa = PumApproximant(fits=approx.fits, shifts=sol_a).batch_eval(pts)[1]
    fb = PumApproximant(fits=approx.fits, shifts=sol_b).batch_eval(pts)[1]
    scale = np.sqrt((fa**2).sum(-1)).max()
    assert np.abs(fa - fb).max() <= 1e-10 * scale


def test_shift_quality_tracks_field_error():
    # with shifts applied, potential mismatch at glue points stays within
    # 10x the absolute field-error scale of the same run
    prob = testbed.sphere_problem()
    nodes = prob.nodes(2000, 31)
    values = prob.field(nodes)
    from vecpum import cover as cov_mod
    h = cov_mod.spacing_from_q(9.0, prob.area, len(nodes), 2)
    cov = cov_mod.assign_radii_and_inflate(prob.make_centers(h), nodes,
                                           9.0 / 16.0, prob.surface, h)
    kernel = RadialKernel("matern4", 7.5)
    approx = build_approximant(cov, kernel, "div_surface", values)
    eval_pts = prob.nodes(4000, 32)
    _, field = approx.batch_eval(eval_pts)
    err_scale = np.sqrt(((field - prob.field(eval_pts)) ** 2).sum(-1)).max()
    # |psi~_l - psi~_k| at a glue point is exactly the system residual there
    mismatch = np.abs(approx.shifts.residual).max()
    assert mismatch <= 10.0 * err_scale


def test_workers_do_not_change_results():
    nodes, values, cov = star_setup(700, seed=25)
    problem = testbed.star_problem()
    serial, sol1 = fit_and_glue(problem, nodes, values,
                                default_config("star2d", eps=7.0, workers=1))
    threaded, sol2 = fit_and_glue(
        problem, nodes, values, default_config("star2d", eps=7.0, workers=4))
    for a, b in zip(serial.fits, threaded.fits):
        assert np.array_equal(pair_oracle.coef_vectors(a),
                              pair_oracle.coef_vectors(b))
    assert np.array_equal(sol1.shifts, sol2.shifts)
    pts = star_points(400, seed=26)
    pts = pts[cov.covers(pts)]
    p1, f1, n1 = serial.batch_eval_all(pts, workers=1)
    p2, f2, n2 = serial.batch_eval_all(pts, workers=3)
    assert np.array_equal(p1, p2)
    assert np.array_equal(f1, f2)
    assert np.array_equal(n1, n2)


@pytest.mark.parametrize("workers", [2, 64])
def test_threaded_evaluation_leaves_the_caller_waiting(star_approx, workers,
                                                       monkeypatch):
    # Every block runs on a started thread, never on the caller's.
    _, _, approx = star_approx
    pts = star_points(5000, seed=28)
    pts = pts[approx.covered_mask(pts)]
    want = approx.batch_eval_all(pts)
    threads = []
    real_accumulate = PumApproximant._accumulate

    def accumulate(self, points):
        threads.append(threading.get_ident())
        return real_accumulate(self, points)

    monkeypatch.setattr(PumApproximant, "_accumulate", accumulate)
    got = approx.batch_eval_all(pts, workers=workers)
    assert threading.get_ident() not in threads
    assert len(threads) >= 2 and len(set(threads)) <= workers
    for a, b in zip(want, got):
        assert pair_oracle.same_bits(a, b)


def test_evaluation_starts_no_more_threads_than_blocks(star_approx,
                                                       monkeypatch):
    # 3,000 points make two blocks of at most QUERY_BLOCK points; 64
    # workers must not cut them into 64 smaller blocks on 64 threads.
    _, _, approx = star_approx
    pts = star_points(3000, seed=29)
    pts = pts[approx.covered_mask(pts)]
    assert cover.QUERY_BLOCK < len(pts) <= 2 * cover.QUERY_BLOCK
    want = approx.batch_eval_all(pts)
    started = []

    class Thread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Thread)
    got = approx.batch_eval_all(pts, workers=64)
    assert len(started) == 2
    for a, b in zip(want, got):
        assert pair_oracle.same_bits(a, b)


def test_partition_of_unity_consistency_mismatch_raises():
    nodes, values, cov = star_setup(300, seed=19)
    kernel = RadialKernel("imq", 7.0)
    approx = build_approximant(cov, kernel, "div_surface", values)
    one_fit = fit_global(nodes, values, kernel, PLANE, "div_surface").table
    one_shift = glue.ShiftSolution(shifts=np.zeros(1), residual=np.zeros(0),
                                   anchor=0)
    for wrong in ({"fits": one_fit}, {"shifts": one_shift}):
        parts = {"fits": approx.fits, "shifts": approx.shifts}
        with pytest.raises(ValueError, match="disagree"):
            PumApproximant(**(parts | wrong))


def test_mode_and_surface_are_the_tables(star_approx):
    # An approximant keeps no copy of its table's mode and surface, so it
    # cannot be given another mode than its fits were solved in.
    _, _, approx = star_approx
    assert approx.mode is approx.fits.mode == "div_surface"
    assert approx.surface is approx.cover.surface
    for name in ("cover", "fits", "shifts", "mode", "surface"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(approx, name, getattr(approx, name))
    with pytest.raises(TypeError):
        PumApproximant(fits=approx.fits, shifts=approx.shifts,
                       mode="curl_surface")


def test_fits_bring_their_own_cover():
    # Two 600-node star covers of 10 patches each: patch counts cannot tell
    # them apart, so an approximant takes its cover from its fits and can
    # be given no other.
    approxes = []
    for seed in (9, 10):
        _, values, cov = star_setup(600, seed=seed)
        approxes.append(build_approximant(cov, RadialKernel("imq", 7.0),
                                          "div_surface", values))
    a9, a10 = approxes
    assert len(a9.cover) == len(a10.cover) == 10
    mixed = PumApproximant(fits=a10.fits, shifts=a9.shifts)
    assert mixed.cover is a10.cover is a10.fits.cover
    with pytest.raises(TypeError):
        PumApproximant(cover=a9.cover, fits=a10.fits, shifts=a9.shifts)
    pts = star_points(200, seed=33)
    assert np.array_equal(mixed.covered_mask(pts), a10.covered_mask(pts))
    pts = pts[a10.covered_mask(pts)]
    again = PumApproximant(fits=a10.fits, shifts=a10.shifts)
    for got, want in zip(again.batch_eval_all(pts), a10.batch_eval_all(pts)):
        assert pair_oracle.same_bits(got, want)


def test_membership_is_held_once_by_the_cover():
    _, values, cov = star_setup(600, seed=10)
    table = localfit.fit_table(cov, values, RadialKernel("imq", 7.0),
                               "div_surface")
    assert table.cover is cov
    offsets = cov.offsets
    assert not offsets.flags.writeable
    assert not cov.member_index.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        offsets[1] += 1
    assert offsets[0] == 0 and offsets[-1] == len(cov.member_index)
    assert pair_oracle.same_bits(cov.member_counts(), np.diff(offsets))
    for l, idx in enumerate(cov.members):
        assert idx.base is cov.member_index
        assert np.array_equal(idx, cov.member_index[offsets[l]:
                                                    offsets[l + 1]])
    # The table and the approximant hold no membership or surface of their
    # own.
    assert [f.name for f in dataclasses.fields(table)] == [
        "mode", "kernel", "cover", "eval_vectors", "fit_residual"]
    assert [f.name for f in dataclasses.fields(PumApproximant)] == [
        "fits", "shifts"]


def reachable_arrays(obj):
    """Every array reachable from ``obj`` through dataclass fields and
    tuples."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, tuple):
        for item in obj:
            yield from reachable_arrays(item)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from reachable_arrays(getattr(obj, f.name))


def test_nothing_an_approximant_reads_is_writable(star_approx):
    _, _, approx = star_approx
    graph = glue.build_glue_graph(approx.cover)
    arrays = list(reachable_arrays((approx, graph)))
    for want in (approx.fits.eval_vectors, approx.cover.nodes,
                 approx.cover.members[0], approx.shifts.residual,
                 graph.points):
        assert any(a is want for a in arrays)
    assert not any(a.flags.writeable for a in arrays)
    for obj in (approx, approx.fits, approx.cover, approx.shifts, graph):
        with pytest.raises(dataclasses.FrozenInstanceError):
            obj.mode = "curl_surface"


def test_shifts_are_read_only():
    # ``approx.shifts.shifts[3] += 1`` used to move the field by up to 48.
    _, values, cov = star_setup(600, seed=10)
    approx = build_approximant(cov, RadialKernel("imq", 7.0),
                               "div_surface", values)
    with pytest.raises(ValueError, match="read-only"):
        approx.shifts.shifts[3] += 1
    with pytest.raises(ValueError, match="read-only"):
        approx.shifts.residual[0] = 0.0


def test_moving_a_caller_node_leaves_the_field():
    # The cover used to hold the caller's node array: moving one node by
    # 1e-2 after the build moved the field by 0.16.
    nodes, values, cov = star_setup(600, seed=10)
    approx = build_approximant(cov, RadialKernel("imq", 7.0),
                               "div_surface", values)
    pts = star_points(400, seed=12)
    pts = pts[approx.covered_mask(pts)]
    before = approx.batch_eval_all(pts)
    nodes[cov.members[0][0], 0] += 1e-2
    nodes[cov.members[-1]] *= 1.5
    for got, want in zip(approx.batch_eval_all(pts), before):
        assert pair_oracle.same_bits(got, want)


# Each build in a fresh interpreter; the sphere's per-patch systems (about
# 0.8 MB each) sit above glibc's initial mmap threshold.
BUILD_FAULTS = textwrap.dedent("""
    import resource, sys
    import numpy as np
    from vecpum import testbed
    from vecpum.experiment import default_config, fit_and_glue
    problem = testbed.sphere_problem()
    nodes = np.load(sys.argv[1])
    values = problem.field(nodes)
    faults = []
    for _ in range(3):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        fit_and_glue(problem, nodes, values, default_config("sphere"))
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                      - before)
    print(max(faults[1:]))
""")


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="measures glibc malloc's mmap threshold")
def test_repeat_builds_reuse_heap_pages(tmp_path):
    # Nodes read from a file come with no large allocation before the fit;
    # without one, every patch system is a fresh mmap (~28k minor faults
    # per N=2000 build).
    path = tmp_path / "nodes.npy"
    np.save(path, testbed.nodes_sphere(2000, 1))
    assert int(run_script(BUILD_FAULTS, str(path))) <= 5000


def run_script(script, *args, **env):
    """Stdout of ``script`` run in a fresh interpreter that imports this
    vecpum and these tests, with ``env`` added to the environment."""
    src = os.path.dirname(os.path.dirname(vecpum.__file__))
    paths = [src, os.path.dirname(__file__)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)),
               **env)
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=300,
                          check=True).stdout


def ball_build(workers=1):
    """The seeded CLI's ball cover (N=3000, seed 3), built at ``workers``;
    its local systems have 365 rows on average."""
    problem = testbed.ball_problem()
    nodes = testbed.nodes_ball(3000, 3)
    return fit_and_glue(problem, nodes, problem.field(nodes),
                        default_config("ball", workers=workers))


BUILD_HASHES = textwrap.dedent("""
    import hashlib
    import numpy as np
    from test_pum import ball_build
    approx, solution = ball_build()
    print(int(np.median(3 * np.diff(approx.cover.offsets))))
    for bits in (approx.fits.eval_vectors, approx.fits.fit_residual,
                 solution.shifts):
        print(hashlib.sha256(bits.tobytes()).hexdigest())
""")


def test_build_bits_do_not_depend_on_the_blas_thread_count():
    # OpenBLAS dpotrf gives other bits at 1 and 2 threads on systems of
    # ~200 rows and more, so every factorization runs scipy's OpenBLAS at
    # one thread.
    runs = [run_script(BUILD_HASHES, OPENBLAS_NUM_THREADS=threads).split()
            for threads in ("1", "2")]
    assert int(runs[0][0]) >= 200
    assert runs[0] == runs[1]


@pytest.mark.parametrize("workers", [2, 3, 64])
def test_threaded_fits_match_serial_bitwise(workers, monkeypatch):
    serial, sol1 = ball_build()
    threads = set()
    real_fit = localfit.fit_patch

    def fit_patch(*args, **kwargs):
        threads.add(threading.get_ident())
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(localfit, "fit_patch", fit_patch)
    threaded, sol2 = ball_build(workers)
    assert 1 < len(threads) <= workers
    assert threading.get_ident() not in threads
    for a, b in ((serial.fits.eval_vectors, threaded.fits.eval_vectors),
                 (serial.fits.fit_residual, threaded.fits.fit_residual),
                 (sol1.shifts, sol2.shifts), (sol1.residual, sol2.residual)):
        assert pair_oracle.same_bits(a, b)


def test_blend_sums_match_one_bincount_per_column(star_approx, monkeypatch):
    # The blend scatters its 2 + 3d columns with one bincount; one bincount
    # per column must give the same bits.
    _, _, approx = star_approx
    pts = star_points(600, seed=33)
    pts = pts[approx.covered_mask(pts)]
    got = approx.batch_eval_all(pts)
    monkeypatch.setattr(pum, "bin_rows", pair_oracle.per_row_bincounts)
    for a, b in zip(got, approx.batch_eval_all(pts)):
        assert pair_oracle.same_bits(a, b)


@pytest.fixture(scope="module")
def ball_eval():
    """The seeded ball approximant, 2,500 covered points uniform in the
    unit ball and its serial blend at them."""
    approx, _ = ball_build()
    rng = np.random.default_rng(32)
    pts = rng.uniform(-1.0, 1.0, size=(5000, 3))
    pts = pts[(pts * pts).sum(-1) < 1.0][:2500]
    pts = pts[approx.covered_mask(pts)]
    return approx, pts, approx.batch_eval_all(pts)


@pytest.mark.parametrize("chunk", [7, 8192, localfit.PAIR_CHUNK])
def test_blend_bits_depend_on_neither_chunk_nor_workers(ball_eval, chunk,
                                                        monkeypatch):
    # A point's blend depends on its own pairs only, however the pair
    # kernel chunks them and the points are split over threads.  At chunk
    # 7 every pair is a chunk of its own, so a few hundred points in
    # blocks of 64 suffice; at the larger chunks the thirds of the points
    # that three workers take span at least two chunks each.
    approx, pts, want = ball_eval
    monkeypatch.setattr(localfit, "PAIR_CHUNK", chunk)
    if chunk == 7:
        pts = pts[:300]
        monkeypatch.setattr(cover, "QUERY_BLOCK", 64)
    else:
        third = approx.cover.incidence(pts[:len(pts) // 3]).patch
        assert approx.cover.member_counts()[third].sum() > 2 * chunk
    for workers in (1, 2, 3):
        got = approx.batch_eval_all(pts, workers=workers)
        for a, b in zip(want, got):
            assert pair_oracle.same_bits(a[:len(pts)], b)


@pytest.mark.skipif(localfit._LAPACK is None,
                    reason="needs scipy's OpenBLAS thread-count symbols")
@pytest.mark.parametrize("fail", [False, True])
@pytest.mark.parametrize("workers", [1, 2])
def test_build_restores_the_blas_thread_count(workers, fail, monkeypatch):
    # Every patch factorization and solve runs at one thread; the caller's
    # count holds elsewhere in the build, the shift solve included, and
    # comes back after it, also when a factorization fails.
    potrf, get, put = localfit._LAPACK
    nodes, values, cov = star_setup(700, seed=25)
    inside, outside = [], []
    fitting = threading.local()
    real_fit, real_solve = localfit.fit_patch, glue.solve_shifts
    real_potrs = localfit.lapack.dpotrs

    def fit_patch(*args, patch_id, **kwargs):
        # Above one worker another thread may hold the pin here.
        if workers == 1:
            outside.append(get())
        fitting.patch = patch_id
        try:
            return real_fit(*args, patch_id=patch_id, **kwargs)
        finally:
            fitting.patch = None

    def counting_potrf(*args):
        inside.append(get())
        if fail and getattr(fitting, "patch", None) == 5:
            raise np.linalg.LinAlgError("patch 5 fails")
        return potrf(*args)

    def dpotrs(*args, **kwargs):
        inside.append(get())
        return real_potrs(*args, **kwargs)

    def solve_shifts(*args, **kwargs):
        outside.append(get())
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(localfit, "fit_patch", fit_patch)
    monkeypatch.setattr(localfit, "_LAPACK",
                        localfit._LAPACK._replace(potrf=counting_potrf))
    monkeypatch.setattr(localfit.lapack, "dpotrs", dpotrs)
    monkeypatch.setattr(glue, "solve_shifts", solve_shifts)
    before = get()
    put(2)
    try:
        with (pytest.raises(PatchFitError, match="patch 5 ") if fail
              else contextlib.nullcontext()):
            build_approximant(cov, RadialKernel("imq", 7.0), "div_surface",
                              values, workers=workers)
        assert get() == 2
    finally:
        put(before)
    assert inside and set(inside) == {1}
    assert set(outside) <= {2}
    # One factorization and one solve per patch.
    assert fail or len(inside) == 2 * len(cov.members)
    assert len(outside) == (0 if workers > 1 else 6 if fail
                            else len(cov.members)) + (not fail)


# The ball N=12000 cover has 461 patches; its largest patch system has 468
# rows.  The shifts solve against potential differences from a stand-in
# for the fits.
DIRECT_SOLVE_HASHES = textwrap.dedent("""
    import hashlib
    import numpy as np
    from vecpum import cover, glue, localfit, testbed
    from vecpum.experiment import default_config
    from vecpum.kernels import RadialKernel
    problem, config = testbed.ball_problem(), default_config("ball")
    nodes = testbed.nodes_ball(12000, 3)
    h = cover.spacing_from_q(config.q, problem.area, len(nodes), 3)
    cov = cover.assign_radii_and_inflate(problem.make_centers(h), nodes,
                                         config.delta, problem.surface, h)

    class Potentials:
        def pair_sums(self, points, patch, with_field):
            return np.sin((patch + 1) * points.sum(-1)), None

    graph = glue.build_glue_graph(cov)
    p, c = glue.build_shift_system(graph, Potentials())
    shifts = glue.solve_shifts(p, c, graph).shifts
    biggest = cov.members[int(np.argmax(cov.member_counts()))]
    evec, residual = localfit.fit_patch(
        nodes[biggest], problem.field(nodes[biggest]),
        RadialKernel(config.kernel, config.eps), problem.surface,
        problem.mode)
    print(len(cov), 3 * len(biggest))
    for bits in (shifts, evec, np.float64(residual)):
        print(hashlib.sha256(bits.tobytes()).hexdigest())
""")


def test_direct_solves_do_not_depend_on_the_blas_thread_count():
    # Called outside a build, the shift solve (461 patches, a sparse LU at
    # the caller's thread count) and one patch fit give the same bits at
    # one and two OpenBLAS threads.
    runs = [run_script(DIRECT_SOLVE_HASHES,
                       OPENBLAS_NUM_THREADS=threads).split()
            for threads in ("1", "2")]
    assert int(runs[0][0]) >= 400 and int(runs[0][1]) >= 200
    assert runs[0] == runs[1]


