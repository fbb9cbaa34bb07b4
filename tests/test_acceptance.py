"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run as `pytest tests/test_acceptance.py -v -s`.  The three experiment
sweeps (sphere rate, star rate, ball rate) dominate the runtime; each is
bounded by its stated budget and shared across the criteria that consume
it.
"""

import time

import numpy as np
import pytest
from scipy.spatial import cKDTree

from vecpum import cover, experiment, geometry, glue, testbed
from vecpum.experiment import default_config, fit_rate, run_experiment
from vecpum.kernels import RadialKernel
from vecpum.localfit import assemble_system, fit_global
from vecpum.pum import build_approximant

SEED = 2024
RUN_BUDGET_S = 600.0


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[acceptance] criterion {num:2d}: {status} — {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def sphere_result():
    cfg = default_config("sphere", n_values=(2000, 4000, 8000, 16000),
                         trials=5, seed=SEED, eval_n=20000)
    t0 = time.perf_counter()
    res = run_experiment(cfg)
    return res, time.perf_counter() - t0


# The star and ball sweeps run their fits and evaluation on two threads:
# outputs do not depend on ``workers``, bit for bit.  The sphere sweep stays
# serial, as criterion 12 fits a slope to its fit times.
@pytest.fixture(scope="module")
def star_rate_result():
    cfg = default_config("star2d", n_values=(2500, 5000, 10000, 20000),
                         trials=5, seed=SEED, eval_n=20000, workers=2)
    t0 = time.perf_counter()
    res = run_experiment(cfg)
    return res, time.perf_counter() - t0


@pytest.fixture(scope="module")
def ball_result():
    cfg = default_config("ball", n_values=(3000, 6000, 12000),
                         trials=5, seed=SEED, eval_n=20000, workers=2)
    t0 = time.perf_counter()
    res = run_experiment(cfg)
    return res, time.perf_counter() - t0


@pytest.fixture(scope="module")
def star_5000():
    problem = testbed.star_problem()
    nodes = problem.nodes(5000, np.random.SeedSequence((SEED, 5000)))
    values = problem.field(nodes)
    h = cover.spacing_from_q(8.0, problem.area, len(nodes), 2)
    centers = problem.make_centers(h)
    cov = cover.assign_radii_and_inflate(centers, nodes, 0.5,
                                         problem.surface, h)
    approx = build_approximant(cov, RadialKernel("imq", 13.0),
                               "div_surface", values)
    return problem, nodes, values, approx


def _interior_star_points(m, seed):
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < m:
        cand = rng.uniform(-1.6, 1.7, size=(4 * m, 2))
        cand = cand[testbed.inside_star(cand)]
        pts.extend(cand.tolist())
    return geometry.embed_points(np.array(pts[:m]))


def test_criterion_01_kernel_derivative_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    step = 1e-4
    for family in ("imq", "matern4"):
        kernel = RadialKernel(family, 1.0)
        radii = rng.uniform(1e-3, 5.0, size=1000)
        offs = rng.normal(size=(1000, 3))
        offs *= (radii / np.sqrt((offs**2).sum(-1)))[:, None]
        f, s = kernel.hessian_coeffs(radii)
        rebuilt = (f[:, None, None] * np.eye(3)
                   + s[:, None, None] * offs[:, :, None] * offs[:, None, :])
        fd = np.zeros_like(rebuilt)
        for a in range(3):
            for b in range(3):
                ea = np.zeros(3)
                eb = np.zeros(3)
                ea[a] = step
                eb[b] = step
                fd[:, a, b] = (
                    kernel.phi(np.linalg.norm(offs + ea + eb, axis=1))
                    - kernel.phi(np.linalg.norm(offs + ea - eb, axis=1))
                    - kernel.phi(np.linalg.norm(offs - ea + eb, axis=1))
                    + kernel.phi(np.linalg.norm(offs - ea - eb, axis=1))
                ) / (4 * step * step)
        worst = max(worst, float(np.abs(rebuilt - fd).max()))
    elapsed = time.perf_counter() - t0
    _report(1, worst < 1e-6 and elapsed < 5.0,
            f"FD Hessian agreement {worst:.2e} (< 1e-6) in {elapsed:.2f}s")


def test_criterion_02_spd_local_systems():
    rng = np.random.default_rng(SEED + 1)
    plane = geometry.plane2d()
    sphere = geometry.sphere2()
    worst_asym = 0.0
    worst_eig = np.inf
    for _ in range(20):
        plane_pts = geometry.embed_points(rng.uniform(0, 1, size=(30, 2)))
        sph = rng.normal(size=(30, 3))
        sph /= np.sqrt((sph**2).sum(-1))[:, None]
        for kernel in (RadialKernel("imq", 13.0),
                       RadialKernel("matern4", 7.5)):
            for surface, pts in ((plane, plane_pts), (sphere, sph)):
                for mode in ("div_surface", "curl_surface"):
                    a = assemble_system(kernel, surface, pts, mode)
                    worst_asym = max(worst_asym,
                                     float(np.abs(a - a.T).max()))
                    worst_eig = min(worst_eig,
                                    float(np.linalg.eigvalsh(a).min()))
    _report(2, worst_asym <= 1e-12 and worst_eig > 0.0,
            f"asymmetry {worst_asym:.1e} (<=1e-12), "
            f"min eigenvalue {worst_eig:.3e} (> 0) over 160 systems")


def test_criterion_03_interpolation_exactness(sphere_result,
                                              star_rate_result, ball_result,
                                              star_5000):
    worst = max(max(r.max_fit_residual for r in sphere_result[0].records),
                max(r.max_fit_residual for r in star_rate_result[0].records),
                max(r.max_fit_residual for r in ball_result[0].records),
                max(f.fit_residual for f in star_5000[3].fits))
    _report(3, worst <= 1e-8,
            f"max relative fit residual {worst:.2e} (<= 1e-8) "
            f"over all acceptance runs")


def test_criterion_04_single_patch_matches_global():
    problem = testbed.star_problem()
    nodes = problem.nodes(800, np.random.SeedSequence((SEED, 800)))
    values = problem.field(nodes)
    kernel = RadialKernel("imq", 13.0)
    cov = cover.single_patch_cover(nodes, problem.surface, radius=4.0)
    approx = build_approximant(cov, kernel, "div_surface", values)
    oracle = fit_global(nodes, values, kernel, problem.surface,
                        "div_surface")
    pts = _interior_star_points(500, SEED + 2)
    pot_p, field_p = approx.batch_eval(pts)
    field_o = oracle.field_at(pts)
    pot_o = oracle.potential_at(pts)
    fscale = float(np.sqrt((field_o**2).sum(-1)).max())
    ferr = float(np.abs(field_p - field_o).max()) / fscale
    a = pot_p - pot_p.mean()
    b = pot_o - pot_o.mean()
    perr = float(np.abs(a - b).max() / np.abs(b).max())
    _report(4, ferr <= 1e-10 and perr <= 1e-10,
            f"single-patch vs dense global: field {ferr:.2e}, "
            f"potential {perr:.2e} (<= 1e-10)")


def test_criterion_05_conservation_separation(star_5000):
    problem, nodes, values, approx = star_5000
    pts = _interior_star_points(200, SEED + 3)
    _, field = approx.batch_eval(pts)
    scale = float(np.sqrt((field**2).sum(-1)).max())
    # The blended potential is C^1 (quadratic-spline weights), so the field
    # is continuous with derivative kinks on the measure-zero patch-boundary
    # set; the step keeps every probe interval inside a smooth piece.
    step = 2e-5

    def div_of(fn):
        out = np.zeros(len(pts))
        for a in range(2):
            e = np.zeros(3)
            e[a] = step
            out += (fn(pts + e)[:, a] - fn(pts - e)[:, a]) / (2 * step)
        return out

    div_pum = div_of(lambda p: approx.batch_eval(p)[1])
    div_naive = div_of(lambda p: approx.batch_eval_all(p)[2])
    ratio = np.abs(div_naive) / np.maximum(np.abs(div_pum), 1e-300)
    med = float(np.median(ratio))
    ok = np.abs(div_pum).max() <= 1e-4 * scale and med >= 1e4
    _report(5, ok,
            f"max |div PUM| = {np.abs(div_pum).max():.2e} "
            f"(<= {1e-4 * scale:.2e}), median naive/PUM ratio "
            f"{med:.1e} (>= 1e4)")


def test_criterion_06_matern_algebraic_rate(sphere_result):
    res, elapsed = sphere_result
    levels = res.n_levels()
    mean_n = res.level_mean("n_actual")
    ns = [mean_n[n] for n in levels]
    inf_err = [res.level_mean("err_field_inf")[n] for n in levels]
    two_err = [res.level_mean("err_field_2")[n] for n in levels]
    slope_inf, r2_inf = fit_rate(ns, inf_err, "algebraic")
    slope_two, _ = fit_rate(ns, two_err, "algebraic")
    ok = (-4.8 <= slope_inf <= -3.0 and r2_inf >= 0.97
          and slope_two < slope_inf and elapsed <= RUN_BUDGET_S)
    _report(6, ok,
            f"inf-norm slope {slope_inf:.3f} in [-4.8, -3.0], "
            f"R^2={r2_inf:.4f} (>= 0.97), 2-norm slope {slope_two:.3f} "
            f"more negative, runtime {elapsed:.0f}s")


def test_criterion_07_imq_superalgebraic_fit(star_rate_result):
    res, elapsed = star_rate_result
    levels = res.n_levels()
    mean_n = res.level_mean("n_actual")
    ns = [mean_n[n] for n in levels]
    errs = [res.level_mean("err_field_inf")[n] for n in levels]
    c, r2 = fit_rate(ns, errs, "superalgebraic", dim=2)
    decreasing = all(b < a for a, b in zip(errs, errs[1:]))
    ok = (r2 >= 0.97 and c > 0 and decreasing and elapsed <= RUN_BUDGET_S)
    _report(7, ok,
            f"exp(-C log(N) N^(1/4)) fit: C={c:.4f} (> 0), R^2={r2:.4f} "
            f"(>= 0.97), errors strictly decreasing={decreasing}, "
            f"runtime {elapsed:.0f}s")


def test_criterion_08_ball_curl_free(ball_result):
    res, elapsed = ball_result
    levels = res.n_levels()
    mean_n = res.level_mean("n_actual")
    ns = [mean_n[n] for n in levels]
    fi = [res.level_mean("err_field_inf")[n] for n in levels]
    f2 = [res.level_mean("err_field_2")[n] for n in levels]
    pi = [res.level_mean("err_pot_inf")[n] for n in levels]
    p2 = [res.level_mean("err_pot_2")[n] for n in levels]
    pot_below = all(p < f for p, f in zip(pi, fi)) and \
        all(p < f for p, f in zip(p2, f2))
    decreasing = all(b < a for a, b in zip(fi, fi[1:])) and \
        all(b < a for a, b in zip(pi, pi[1:]))
    # the fit quality gate uses the 2-norm series; the inf-norm deviates
    # more from the model on this problem and is reported alongside
    c, r2 = fit_rate(ns, f2, "superalgebraic", dim=3)
    _, r2_inf = fit_rate(ns, fi, "superalgebraic", dim=3)
    ok = (pot_below and decreasing and c > 0 and r2 >= 0.95
          and elapsed <= RUN_BUDGET_S)
    _report(8, ok,
            f"potential errors below field errors={pot_below}, both "
            f"strictly decreasing={decreasing}, "
            f"exp(-C log(N) N^(1/6)) fit: C={c:.4f}, R^2={r2:.4f} "
            f"(>= 0.95; inf-norm R^2={r2_inf:.4f}), runtime {elapsed:.0f}s")


def test_criterion_09_glue_residual_decay(sphere_result):
    res, _ = sphere_result
    levels = res.n_levels()
    vals = [res.level_mean("glue_res_inf")[n] for n in levels]
    decreasing = all(b < a for a, b in zip(vals, vals[1:]))
    _report(9, decreasing,
            "glue residual inf-norm strictly decreasing over refinement: "
            + " -> ".join(f"{v:.2e}" for v in vals))


def test_criterion_10_partition_of_unity_invariants(star_5000):
    worst_sum = 0.0
    worst_grad = 0.0
    covers = []
    covers.append((star_5000[3].cover,
                   _interior_star_points(10000, SEED + 4)))
    sphere_prob = testbed.sphere_problem()
    nodes = sphere_prob.nodes(8000, np.random.SeedSequence((SEED, 80)))
    h = cover.spacing_from_q(9.0, sphere_prob.area, len(nodes), 2)
    cov_s = cover.assign_radii_and_inflate(sphere_prob.make_centers(h),
                                           nodes, 9.0 / 16.0,
                                           sphere_prob.surface, h)
    covers.append((cov_s, sphere_prob.nodes(
        10000, np.random.SeedSequence((SEED, 81)))))
    ball_prob = testbed.ball_problem()
    nodes = ball_prob.nodes(6000, np.random.SeedSequence((SEED, 82)))
    h = cover.spacing_from_q(3.0, ball_prob.area, len(nodes), 3)
    cov_b = cover.assign_radii_and_inflate(ball_prob.make_centers(h), nodes,
                                           0.25, ball_prob.surface, h)
    covers.append((cov_b, ball_prob.nodes(
        10000, np.random.SeedSequence((SEED, 83)))))
    for cov, pts in covers:
        pts = pts[cov.covers(pts)][:10000]
        for x in pts:
            w = cover.weights_at(cov, x)
            worst_sum = max(worst_sum, abs(float(w.weights.sum()) - 1.0))
            worst_grad = max(worst_grad,
                             float(np.abs(w.gradients.sum(axis=0)).max()))
    _report(10, worst_sum <= 1e-12 and worst_grad <= 1e-10,
            f"|sum w - 1| max {worst_sum:.1e} (<= 1e-12), "
            f"|sum grad w| max {worst_grad:.1e} (<= 1e-10) over 3 covers")


def test_criterion_11_mean_nodes_per_patch():
    prob = testbed.sphere_problem()
    nodes = prob.nodes(10000, np.random.SeedSequence((SEED, 11)))
    h = cover.spacing_from_q(6.0, prob.area, len(nodes), 2)
    cov = cover.assign_radii_and_inflate(prob.make_centers(h), nodes,
                                         9.0 / 16.0, prob.surface, h)
    mean_members = float(cov.member_counts().mean())
    ok = abs(mean_members - 63.0) <= 0.15 * 63.0
    _report(11, ok,
            f"sphere q=6 N=10000: mean nodes/patch {mean_members:.1f} "
            f"within 15% of 63")


def test_criterion_12_fit_time_scaling(sphere_result):
    res, _ = sphere_result
    levels = [n for n in res.n_levels() if n >= 4000]
    mean_n = res.level_mean("n_actual")
    # The fastest of a level's repeated fits: host noise only adds time.
    ts = np.array([min(r.t_fit_ms for r in res.records
                       if r.n_requested == n) for n in levels])
    ns = np.array([mean_n[n] for n in levels])
    slope = float(np.polyfit(np.log(ns), np.log(ts), 1)[0])
    _report(12, slope <= 1.3,
            f"fit-phase time scaling N^{slope:.2f} over N={levels} "
            f"(<= N^1.3)")
