import dataclasses
import os
import platform
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import pair_oracle
import vecpum
from vecpum import cover, geometry, glue, localfit, pum, testbed
from vecpum.errors import CoverageError
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
    approx, graph, solution = build_approximant(cov, kernel, PLANE,
                                                "div_surface", values)
    return nodes, values, approx


def test_single_patch_cover_matches_global_fit():
    nodes = geometry.embed_points(testbed.nodes_star(400, 2))
    values = geometry.embed_points(testbed.u1(nodes[:, :2]))
    kernel = RadialKernel("imq", 7.0)
    cov = cover.single_patch_cover(nodes, PLANE, radius=4.0)
    approx, _, _ = build_approximant(cov, kernel, PLANE, "div_surface",
                                     values)
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
    approx, graph, solution = build_approximant(cov, kernel, PLANE,
                                                "div_surface", values)
    pts = star_points(50, seed=10)
    pot0, field0 = approx.batch_eval(pts)
    shifted = glue.ShiftSolution(shifts=solution.shifts + 2.75,
                                 residual=solution.residual,
                                 anchor=solution.anchor)
    approx2 = PumApproximant(cover=approx.cover, fits=approx.fits,
                             shifts=shifted)
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
                      members=[np.arange(60)], nodes=nodes)
    approx, _, _ = build_approximant(cov, RadialKernel("imq", 2.0),
                                     geometry.euclidean(2), "curl_euclidean",
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
    assert table.nodes is cov.nodes and table.members is cov.member_index
    assert table.eval_vectors.shape == (cov.nodes.shape[1],
                                        len(cov.member_index))
    assert len(table) == len(cov)
    for l, (fit, idx) in enumerate(zip(table, cov.members)):
        assert fit.patch == l and fit.table is table
        assert np.shares_memory(fit.eval_vectors, table.eval_vectors)
        assert np.shares_memory(idx, cov.member_index)
        assert not any(isinstance(v, np.ndarray) for v in vars(fit).values())
        assert np.array_equal(fit.nodes, cov.nodes[idx])
    assert not table.eval_vectors.flags.writeable
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
    approx, graph, solution = build_approximant(cov, kernel, PLANE,
                                                "div_surface", values)
    one = fit_global(nodes, values, kernel, PLANE, "div_surface").table
    # L copies of the one fit, all reading the same nodes.
    n_patch, n_node = len(cov), len(one.members)
    copies = dataclasses.replace(
        one, members=np.tile(one.members, n_patch),
        offsets=n_node * np.arange(n_patch + 1),
        eval_vectors=np.tile(one.eval_vectors, n_patch),
        sign=np.repeat(one.sign, n_patch),
        fit_residual=np.repeat(one.fit_residual, n_patch))
    same = PumApproximant(cover=cov, fits=copies,
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
    approx, _, _ = build_approximant(cov, kernel, PLANE, "div_surface",
                                     values)
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
    approx, _, _ = build_approximant(cov, RadialKernel("imq", 3.0), surface,
                                     "curl_euclidean",
                                     testbed.grad_psi1(nodes))
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
    approx, _, _ = build_approximant(cov, RadialKernel("matern4", 7.5),
                                     surface, "curl_surface",
                                     tangent_grad_psi2(nodes))
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
    approx, graph, _ = build_approximant(cov, kernel, PLANE, "div_surface",
                                         values)
    from vecpum.glue import build_shift_system, solve_shifts
    p, c = build_shift_system(graph, approx.fits)
    sol_a = solve_shifts(p, c, graph, gamma=4.0, anchor=0)
    sol_b = solve_shifts(p, c, graph, gamma=4.0, anchor=len(cov) - 1)
    # shifts differ by one global constant only
    diff = sol_a.shifts - sol_b.shifts
    assert np.ptp(diff) < 1e-9 * max(1.0, np.abs(sol_a.shifts).max())
    pts = star_points(80, seed=22)
    pts = pts[cov.covers(pts)][:60]
    fa = PumApproximant(cover=cov, fits=approx.fits,
                        shifts=sol_a).batch_eval(pts)[1]
    fb = PumApproximant(cover=cov, fits=approx.fits,
                        shifts=sol_b).batch_eval(pts)[1]
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
    approx, graph, solution = build_approximant(cov, kernel, prob.surface,
                                                "div_surface", values)
    eval_pts = prob.nodes(4000, 32)
    _, field = approx.batch_eval(eval_pts)
    err_scale = np.sqrt(((field - prob.field(eval_pts)) ** 2).sum(-1)).max()
    # |psi~_l - psi~_k| at a glue point is exactly the system residual there
    mismatch = np.abs(solution.residual).max()
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


def test_partition_of_unity_consistency_mismatch_raises():
    nodes, values, cov = star_setup(300, seed=19)
    kernel = RadialKernel("imq", 7.0)
    approx, graph, solution = build_approximant(cov, kernel, PLANE,
                                                "div_surface", values)
    one_patch = cover.single_patch_cover(nodes, PLANE)
    one_fit = fit_global(nodes, values, kernel, PLANE, "div_surface").table
    for wrong in ({"cover": one_patch}, {"fits": one_fit}):
        parts = {"cover": cov, "fits": approx.fits, "shifts": solution}
        with pytest.raises(ValueError, match="disagree"):
            PumApproximant(**(parts | wrong))


def test_mode_and_surface_are_the_tables(star_approx):
    # An approximant keeps no copy of its table's mode and surface, so it
    # cannot be given another mode than its fits were solved in.
    _, _, approx = star_approx
    assert approx.mode is approx.fits.mode == "div_surface"
    assert approx.surface is approx.fits.surface
    for name in ("cover", "fits", "shifts", "mode", "surface"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(approx, name, getattr(approx, name))
    with pytest.raises(TypeError):
        PumApproximant(cover=approx.cover, fits=approx.fits,
                       shifts=approx.shifts, mode="curl_surface")


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
    src = os.path.dirname(os.path.dirname(vecpum.__file__))
    paths = [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    out = subprocess.run([sys.executable, "-c", BUILD_FAULTS, str(path)],
                         env=env, capture_output=True, text=True,
                         timeout=300, check=True)
    assert int(out.stdout) <= 5000
