import re

import numpy as np
import pytest
import sympy

import pair_oracle
from vecpum import geometry, localfit
from vecpum.cover import Cover
from vecpum.errors import ConfigError, GlobalFitSizeError, PatchFitError
from vecpum.kernels import RadialKernel
from vecpum.localfit import (assemble_system, check_samples, fit_global,
                             fit_patch, fit_table, phi_curl_block,
                             phi_div_block)
from vecpum.pum import build_approximant

PLANE = geometry.plane2d()
SPHERE = geometry.sphere2()
R3 = geometry.euclidean(3)


def _sympy_imq_second_derivs(eps):
    """Independent symbolic oracle for the IMQ Hessian entries in 2D."""
    x, y = sympy.symbols("x y", real=True)
    phi = 1 / sympy.sqrt(1 + eps**2 * (x**2 + y**2))
    fxx = sympy.lambdify((x, y), sympy.diff(phi, x, 2), "numpy")
    fyy = sympy.lambdify((x, y), sympy.diff(phi, y, 2), "numpy")
    fxy = sympy.lambdify((x, y), sympy.diff(phi, x, y), "numpy")
    return fxx, fyy, fxy


def _phi_div_2d(eps, dx, dy):
    """Truncated 2x2 div-free kernel [-phi_yy, phi_xy; phi_xy, -phi_xx]."""
    fxx, fyy, fxy = _sympy_imq_second_derivs(eps)
    return np.array([[-fyy(dx, dy), fxy(dx, dy)],
                     [fxy(dx, dy), -fxx(dx, dy)]])


def fit_one(nodes, values, kernel, surface, mode):
    """The fit of one patch holding every node."""
    n = len(nodes)
    return fit_table(nodes, values, np.arange(n), [n], kernel, surface,
                     mode)[0]


def random_sphere_patch(rng, n, cap=0.5):
    """n points on a spherical cap plus tangent data."""
    base = np.array([0.3, -0.5, 0.81])
    base /= np.linalg.norm(base)
    pts = base + cap * rng.normal(size=(n, 3))
    pts /= np.sqrt((pts * pts).sum(-1))[:, None]
    raw = rng.normal(size=(n, 3))
    vals = raw - pts * (pts * raw).sum(-1)[:, None]
    return pts, vals


def random_plane_patch(rng, n, scale=1.0):
    pts = geometry.embed_points(rng.uniform(-scale, scale, size=(n, 2)))
    vals = geometry.embed_points(rng.normal(size=(n, 2)))
    return pts, vals


def test_phi_div_block_coincident_plane():
    k = RadialKernel("imq", 2.0)
    x = np.array([0.4, 0.1, 0.0])
    block = phi_div_block(k, PLANE, x, x)
    f0 = k.phi_d1_over_r(0.0)
    assert np.allclose(block, -f0 * np.diag([1.0, 1.0, 0.0]), atol=1e-14)


def test_phi_div_block_transpose_symmetry():
    k = RadialKernel("matern4", 3.0)
    rng = np.random.default_rng(8)
    for _ in range(10):
        x = rng.normal(size=3)
        x /= np.linalg.norm(x)
        y = rng.normal(size=3)
        y /= np.linalg.norm(y)
        bx = phi_div_block(k, SPHERE, x, y)
        by = phi_div_block(k, SPHERE, y, x)
        assert np.abs(bx - by.T).max() < 1e-12 * max(1.0, np.abs(bx).max())
        cx = phi_curl_block(k, SPHERE, x, y)
        cy = phi_curl_block(k, SPHERE, y, x)
        assert np.abs(cx - cy.T).max() < 1e-12 * max(1.0, np.abs(cx).max())


def test_phi_div_block_matches_truncated_2d_formula():
    eps = 1.7
    k = RadialKernel("imq", eps)
    rng = np.random.default_rng(3)
    for _ in range(5):
        xi = geometry.embed_points(rng.uniform(-1, 1, size=(1, 2)))[0]
        xj = geometry.embed_points(rng.uniform(-1, 1, size=(1, 2)))[0]
        block = phi_div_block(k, PLANE, xi, xj)
        tilde = _phi_div_2d(eps, xi[0] - xj[0], xi[1] - xj[1])
        assert np.abs(block[:2, :2] - tilde).max() < 1e-10
        assert np.abs(block[2, :]).max() < 1e-14
        assert np.abs(block[:, 2]).max() < 1e-14


def test_phi_curl_block_euclidean():
    k = RadialKernel("imq", 1.0)
    x = np.array([0.1, 0.2, 0.3])
    block = phi_curl_block(k, R3, x, x)
    assert np.allclose(block, -k.phi_d1_over_r(0.0) * np.eye(3))
    y = np.array([0.5, -0.1, 0.0])
    rvec = x - y
    step = 1e-4
    fd = np.zeros((3, 3))
    for a in range(3):
        for b in range(3):
            ea = np.zeros(3)
            eb = np.zeros(3)
            ea[a] = step
            eb[b] = step
            fd[a, b] = (k.phi(np.linalg.norm(rvec + ea + eb))
                        - k.phi(np.linalg.norm(rvec + ea - eb))
                        - k.phi(np.linalg.norm(rvec - ea + eb))
                        + k.phi(np.linalg.norm(rvec - ea - eb))
                        ) / (4 * step * step)
    assert np.abs(phi_curl_block(k, R3, x, y) + fd).max() < 1e-6


def test_fit_zero_samples_gives_zero_coefficients():
    rng = np.random.default_rng(1)
    pts, _ = random_plane_patch(rng, 8)
    fit = fit_one(pts, np.zeros_like(pts), RadialKernel("imq", 2.0), PLANE,
                  "div_surface")
    assert np.abs(pair_oracle.coef_vectors(fit)).max() == 0.0
    assert fit.fit_residual == 0.0


@pytest.mark.parametrize("n", [2, 4])
def test_small_system_brute_force_oracle(n):
    eps = 1.3
    k = RadialKernel("imq", eps)
    rng = np.random.default_rng(4)
    nodes2 = np.vstack([[0.0, 0.0], [0.6, 0.3],
                        rng.uniform(-1, 1, size=(2, 2))])[:n]
    vals2 = rng.normal(size=(n, 2))
    # independent symbolic assembly of the truncated 2N x 2N system
    a = np.zeros((2 * n, 2 * n))
    for i in range(n):
        for j in range(n):
            dx, dy = nodes2[i] - nodes2[j]
            a[2 * i:2 * i + 2, 2 * j:2 * j + 2] = _phi_div_2d(eps, dx, dy)
    expect = np.linalg.solve(a, vals2.reshape(-1))
    fit = fit_one(geometry.embed_points(nodes2),
                  geometry.embed_points(vals2), k, PLANE, "div_surface")
    got = pair_oracle.alpha_beta(fit).reshape(-1)
    assert np.abs(got - expect).max() < 1e-10


def test_assembled_matrix_spd():
    rng = np.random.default_rng(6)
    pts, _ = random_plane_patch(rng, 30)
    a = assemble_system(RadialKernel("imq", 13.0), PLANE, pts, "div_surface")
    assert np.abs(a - a.T).max() <= 1e-12 * np.abs(a).max()
    assert np.linalg.eigvalsh(a).min() > 0
    spts, _ = random_sphere_patch(rng, 30)
    a = assemble_system(RadialKernel("matern4", 7.5), SPHERE, spts,
                        "curl_surface")
    assert np.abs(a - a.T).max() <= 1e-12 * np.abs(a).max()
    assert np.linalg.eigvalsh(a).min() > 0


INTERPOLATION_CASES = ["plane_div", "sphere_div", "sphere_curl", "ball_curl"]


def interpolation_case(case, rng):
    """(nodes, values, surface, mode, kernel) for a 40-node patch."""
    if case == "plane_div":
        pts, vals = random_plane_patch(rng, 40)
        return pts, vals, PLANE, "div_surface", RadialKernel("imq", 3.0)
    if case == "sphere_div":
        pts, vals = random_sphere_patch(rng, 40)
        return pts, vals, SPHERE, "div_surface", RadialKernel("matern4", 7.5)
    if case == "sphere_curl":
        pts, vals = random_sphere_patch(rng, 40)
        return pts, vals, SPHERE, "curl_surface", RadialKernel("imq", 3.0)
    pts = rng.uniform(-1, 1, size=(40, 3))
    vals = rng.normal(size=(40, 3))
    return pts, vals, R3, "curl_euclidean", RadialKernel("imq", 2.0)


@pytest.mark.parametrize("case", INTERPOLATION_CASES)
def test_interpolation_reproduces_samples(case):
    rng = np.random.default_rng(20 + INTERPOLATION_CASES.index(case))
    pts, vals, surface, mode, k = interpolation_case(case, rng)
    fit = fit_one(pts, vals, k, surface, mode)
    assert fit.fit_residual <= 1e-8
    if mode != "curl_euclidean":
        # coefficient vectors stay tangent at their nodes
        normals = surface.normals(pts)
        assert np.abs((normals * pair_oracle.coef_vectors(fit)).sum(-1)
                      ).max() < 1e-8
        # evaluated field is tangent off the nodes too
        probe = random_sphere_patch(rng, 10)[0] if surface is SPHERE \
            else random_plane_patch(rng, 10)[0]
        fld = fit.field_at(probe)
        scale = np.abs(fld).max()
        assert np.abs((surface.normals(probe) * fld).sum(-1)).max() \
            <= 1e-10 * max(scale, 1.0)


@pytest.mark.parametrize("case", INTERPOLATION_CASES)
def test_evaluator_reproduces_samples(case):
    # fit_residual is the solved system's own residual; the evaluator used
    # by the blend must reproduce the samples to the same accuracy.
    rng = np.random.default_rng(40 + INTERPOLATION_CASES.index(case))
    pts, vals, surface, mode, k = interpolation_case(case, rng)
    fit = fit_one(pts, vals, k, surface, mode)
    miss = fit.field_at(pts) - vals
    rel = (np.sqrt((miss * miss).sum(-1)).max() /
           np.sqrt((vals * vals).sum(-1)).max())
    assert rel <= 1e-8
    assert abs(rel - fit.fit_residual) <= 1e-10


@pytest.mark.parametrize("surface,mode,kernel", [
    (SPHERE, "div_surface", RadialKernel("matern4", 7.5)),
    (SPHERE, "curl_surface", RadialKernel("imq", 3.0)),
    (PLANE, "div_surface", RadialKernel("imq", 3.0)),
], ids=["sphere_div", "sphere_curl", "plane_div"])
def test_surface_assembly_matches_block_oracle(surface, mode, kernel):
    rng = np.random.default_rng(41)
    make = random_sphere_patch if surface is SPHERE else random_plane_patch
    pts, _ = make(rng, 12)
    a = assemble_system(kernel, surface, pts, mode)
    assert np.array_equal(a, a.T)
    d, e, _ = surface.tangent_frames(pts)
    frame = np.stack([d, e], axis=2)
    block = phi_div_block if mode == "div_surface" else phi_curl_block
    expect = np.empty_like(a)
    for i in range(len(pts)):
        for j in range(len(pts)):
            expect[2 * i:2 * i + 2, 2 * j:2 * j + 2] = (
                frame[i].T @ block(kernel, surface, pts[i], pts[j]) @
                frame[j])
    assert np.abs(a - expect).max() <= 1e-13 * np.abs(expect).max()


def test_single_node_unit_coefficient_gives_kernel_column():
    k = RadialKernel("imq", 2.0)
    node = np.array([[0.2, -0.1, 0.0]])
    val = np.array([[0.7, 0.4, 0.0]])
    fit = fit_one(node, val, k, PLANE, "div_surface")
    rng = np.random.default_rng(9)
    for _ in range(5):
        x = geometry.embed_points(rng.uniform(-1, 1, size=(1, 2)))[0]
        expect = (phi_div_block(k, PLANE, x, node[0]) @
                  pair_oracle.coef_vectors(fit)[0])
        assert np.abs(fit.field_at(x[None])[0] - expect).max() < 1e-12


def test_plane_fit_matches_truncated_evaluation():
    eps = 2.2
    k = RadialKernel("imq", eps)
    rng = np.random.default_rng(10)
    pts, vals = random_plane_patch(rng, 25)
    fit = fit_one(pts, vals, k, PLANE, "div_surface")
    fxx, fyy, fxy = _sympy_imq_second_derivs(eps)
    alpha_beta = pair_oracle.alpha_beta(fit)
    probes = rng.uniform(-1, 1, size=(100, 2))
    for p in probes:
        acc = np.zeros(2)
        for j in range(len(pts)):
            dx, dy = p - pts[j, :2]
            tilde = np.array([[-fyy(dx, dy), fxy(dx, dy)],
                              [fxy(dx, dy), -fxx(dx, dy)]])
            acc += tilde @ alpha_beta[j]
        got = fit.field_at(geometry.embed_points(p[None]))[0]
        assert np.abs(got[:2] - acc).max() < 1e-10
        assert got[2] == 0.0


def surface_divergence_fd(surface, field_fn, x, step=1e-5):
    d, e, _ = surface.tangent_frames(x[None])
    total = 0.0
    for t in (d[0], e[0]):
        xp = surface.project(x + step * t)
        xm = surface.project(x - step * t)
        total += t @ (field_fn(xp[None])[0] - field_fn(xm[None])[0]) \
            / (2 * step)
    return total


def test_potential_consistency_div_modes():
    rng = np.random.default_rng(13)
    for surface, make in [(PLANE, random_plane_patch),
                          (SPHERE, random_sphere_patch)]:
        pts, vals = make(rng, 30)
        k = RadialKernel("matern4", 4.0)
        fit = fit_one(pts, vals, k, surface, "div_surface")
        probes = make(rng, 20)[0]
        step = 1e-5
        fld = fit.field_at(probes)
        scale = np.sqrt((fld * fld).sum(-1)).max()
        for x, f in zip(probes, fld):
            grad = np.zeros(3)
            for a in range(3):
                eax = np.zeros(3)
                eax[a] = step
                grad[a] = (fit.potential_at((x + eax)[None])[0]
                           - fit.potential_at((x - eax)[None])[0]) / (2 * step)
            n = surface.normals(x[None])[0]
            assert np.abs(np.cross(n, grad) - f).max() < 1e-5 * scale


def test_potential_consistency_curl_euclidean():
    rng = np.random.default_rng(14)
    pts = rng.uniform(-1, 1, size=(30, 3))
    vals = rng.normal(size=(30, 3))
    fit = fit_one(pts, vals, RadialKernel("imq", 2.0), R3,
                  "curl_euclidean")
    probes = rng.uniform(-1, 1, size=(20, 3))
    fld = fit.field_at(probes)
    scale = np.sqrt((fld * fld).sum(-1)).max()
    step = 1e-5
    for x, f in zip(probes, fld):
        grad = np.zeros(3)
        for a in range(3):
            eax = np.zeros(3)
            eax[a] = step
            grad[a] = (fit.potential_at((x + eax)[None])[0]
                       - fit.potential_at((x - eax)[None])[0]) / (2 * step)
        # the field is the (plain) gradient of the recovered potential
        assert np.abs(grad - f).max() < 1e-5 * scale


def test_zero_coefficients_zero_potential():
    rng = np.random.default_rng(15)
    pts, _ = random_plane_patch(rng, 6)
    fit = fit_one(pts, np.zeros_like(pts),
                  RadialKernel("imq", 1.0), PLANE, "div_surface")
    assert np.abs(fit.potential_at(pts)).max() == 0.0


class TurnedFrames:
    """The sphere, with the tangent frame at node j turned by ``theta[j]``
    in its tangent plane; it records the points it gave frames for."""

    def __init__(self, theta):
        self.theta = theta
        self.framed = []

    def __getattr__(self, name):
        return getattr(SPHERE, name)

    def tangent_frames(self, points):
        self.framed.append(points)
        d, e, n = SPHERE.tangent_frames(points)
        c, s = np.cos(self.theta), np.sin(self.theta)
        return c * d + s * e, -s * d + c * e, n


def test_frame_independence_on_sphere():
    rng = np.random.default_rng(16)
    pts, vals = random_sphere_patch(rng, 35)
    k = RadialKernel("matern4", 7.5)
    fit_a = fit_one(pts, vals, k, SPHERE, "div_surface")
    turned = TurnedFrames(rng.uniform(0, 2 * np.pi, size=len(pts))[:, None])
    fit_b = fit_one(pts, vals, k, turned, "div_surface")
    assert any(np.array_equal(p, pts) for p in turned.framed)
    probes = random_sphere_patch(rng, 40)[0]
    fa = fit_a.field_at(probes)
    fb = fit_b.field_at(probes)
    scale = np.sqrt((fa * fa).sum(-1)).max()
    assert np.abs(fa - fb).max() <= 1e-9 * scale
    pa = fit_a.potential_at(probes)
    pb = fit_b.potential_at(probes)
    assert np.abs(pa - pb).max() <= 1e-9 * np.abs(pa).max()


def test_divergence_free_by_finite_differences():
    rng = np.random.default_rng(17)
    pts, vals = random_sphere_patch(rng, 30)
    fit = fit_one(pts, vals, RadialKernel("imq", 3.0), SPHERE,
                  "div_surface")
    probes = random_sphere_patch(rng, 15)[0]
    scale = np.sqrt((fit.field_at(probes) ** 2).sum(-1)).max()
    for x in probes:
        div = surface_divergence_fd(SPHERE, fit.field_at, x)
        assert abs(div) < 1e-4 * scale


def test_curl_free_by_finite_differences():
    rng = np.random.default_rng(18)
    pts = rng.uniform(-1, 1, size=(30, 3))
    vals = rng.normal(size=(30, 3))
    fit = fit_one(pts, vals, RadialKernel("imq", 2.0), R3,
                  "curl_euclidean")
    probes = rng.uniform(-0.8, 0.8, size=(15, 3))
    scale = np.sqrt((fit.field_at(probes) ** 2).sum(-1)).max()
    step = 1e-5
    for x in probes:
        jac = np.zeros((3, 3))
        for a in range(3):
            eax = np.zeros(3)
            eax[a] = step
            jac[:, a] = (fit.field_at((x + eax)[None])[0]
                         - fit.field_at((x - eax)[None])[0]) / (2 * step)
        curl = np.array([jac[2, 1] - jac[1, 2], jac[0, 2] - jac[2, 0],
                         jac[1, 0] - jac[0, 1]])
        assert np.abs(curl).max() < 1e-4 * scale


def test_fit_global_equivalence_and_guard():
    rng = np.random.default_rng(19)
    pts, vals = random_plane_patch(rng, 30)
    k = RadialKernel("imq", 3.0)
    a = fit_one(pts, vals, k, PLANE, "div_surface")
    b = fit_global(pts, vals, k, PLANE, "div_surface")
    assert np.array_equal(pair_oracle.coef_vectors(a),
                          pair_oracle.coef_vectors(b))
    big = (np.zeros((5001, 3)) + np.arange(5001)[:, None],
           np.zeros((5001, 3)))
    with pytest.raises(GlobalFitSizeError):
        fit_global(*big, k, PLANE, "div_surface")


def assert_samples_rejected(pts, vals, surface, mode, match=None):
    """check_samples, fit_global and build_approximant (over one patch
    holding every node) all raise ValueError for these samples."""
    k = RadialKernel("imq", 1.0)
    cov = Cover(centers=np.zeros((1, pts.shape[1])), radii=np.array([1e3]),
                members=[np.arange(len(pts))], nodes=pts)
    for call in (lambda: check_samples(pts, vals, surface, mode),
                 lambda: fit_global(pts, vals, k, surface, mode),
                 lambda: build_approximant(cov, k, surface, mode, vals)):
        with pytest.raises(ValueError, match=match):
            call()


def test_sampleset_validation():
    pts = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert_samples_rejected(pts, np.zeros_like(pts), PLANE, "div_surface",
                            match="distinct")
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    vals = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])  # not tangent
    assert_samples_rejected(pts, vals, PLANE, "div_surface", match="tangent")
    assert_samples_rejected(np.zeros((3, 2)), np.zeros((4, 2)),
                            geometry.euclidean(2), "curl_euclidean",
                            match="shapes")
    empty = np.zeros((0, 3))
    with pytest.raises(ValueError, match="empty"):
        check_samples(empty, empty, PLANE, "div_surface")
    with pytest.raises(ValueError, match="empty"):
        fit_global(empty, empty, RadialKernel("imq", 1.0), PLANE,
                   "div_surface")
    with pytest.raises(ConfigError, match="member"):
        Cover(centers=np.zeros((1, 3)), radii=np.array([1.0]),
              members=[np.arange(0)], nodes=empty)


def test_tangency_tolerance_spans_the_whole_set():
    # 2e-10 off the plane is within 1e-10 * max|v| of the set (max|v| = 3),
    # though not within 1e-10 of the first node's own value.
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    vals = np.array([[0.0, 0.5, 2e-10], [3.0, 0.0, 0.0]])
    assert np.array_equal(check_samples(pts, vals, PLANE, "div_surface")[1],
                          vals)
    vals[1, 0] = 1.0
    with pytest.raises(ValueError, match="tangent"):
        check_samples(pts, vals, PLANE, "div_surface")


def test_non_finite_samples_rejected():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    vals = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    bad_vals = vals.copy()
    bad_vals[1, 0] = np.nan
    assert_samples_rejected(pts, bad_vals, PLANE, "div_surface",
                            match="finite")
    bad_pts = pts.copy()
    bad_pts[2, 1] = np.inf
    assert_samples_rejected(bad_pts, vals, R3, "curl_euclidean",
                            match="finite")


@pytest.mark.parametrize("case", ["plane-z", "sphere-2", "r2-3", "r3-2"])
def test_samples_must_fit_the_surface(case):
    rng = np.random.default_rng(41)
    flat = rng.uniform(-1.0, 1.0, (20, 3))
    if case == "plane-z":
        pts, vals = random_plane_patch(rng, 20)
        pts[7, 2] = 1e-6
        assert_samples_rejected(pts, vals, PLANE, "div_surface",
                                match=r"off the plane by up to 1\.000e-06")
    elif case == "sphere-2":
        # Unit-norm points with two columns are not sphere points.
        angle = rng.uniform(0.0, 2.0 * np.pi, 20)
        circle = np.stack([np.cos(angle), np.sin(angle)], axis=1)
        tangent = np.stack([-np.sin(angle), np.cos(angle)], axis=1)
        assert_samples_rejected(circle, tangent, SPHERE, "div_surface",
                                match=re.escape("shape (20, 2)"))
    elif case == "r2-3":
        assert_samples_rejected(flat, flat, geometry.euclidean(2),
                                "curl_euclidean",
                                match=re.escape("shape (20, 3)"))
    else:
        assert_samples_rejected(flat[:, :2], flat[:, :2], R3,
                                "curl_euclidean",
                                match=re.escape("shape (20, 2)"))


def test_factorization_failure_raises_patch_error():
    # two numerically coincident nodes make the system exactly singular
    pts = np.array([[0.0, 0.0, 0.0], [1e-150, 0.0, 0.0]])
    vals = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(PatchFitError) as err:
        fit_patch(pts, vals, RadialKernel("imq", 1.0), PLANE,
                  "div_surface", patch_id=17)
    assert err.value.patch_id == 17
    assert err.value.cond > 1e12


def test_mode_surface_mismatch_rejected():
    pts = np.array([[0.0, 0.0, 0.0]])
    vals = np.array([[1.0, 0.0, 0.0]])
    assert_samples_rejected(pts, vals, R3, "div_surface",
                            match="does not fit")
    assert_samples_rejected(pts, vals, PLANE, "curl_euclidean",
                            match="does not fit")
    assert_samples_rejected(pts, vals, PLANE, "div_free", match="unknown")


PAIR_CASES = {
    "plane_div": (PLANE, "div_surface", RadialKernel("imq", 3.0)),
    "plane_curl": (PLANE, "curl_surface", RadialKernel("matern4", 2.5)),
    "sphere_div": (SPHERE, "div_surface", RadialKernel("matern4", 7.5)),
    "sphere_curl": (SPHERE, "curl_surface", RadialKernel("imq", 3.0)),
    "r2_curl": (geometry.euclidean(2), "curl_euclidean",
                RadialKernel("imq", 2.0)),
    "r3_curl": (R3, "curl_euclidean", RadialKernel("matern4", 2.0)),
}


def pair_case_samples(surface, rng, n):
    if surface is SPHERE:
        return random_sphere_patch(rng, n)
    if surface is PLANE:
        return random_plane_patch(rng, n)
    pts = rng.uniform(-1, 1, size=(n, surface.dim))
    return pts, rng.normal(size=(n, surface.dim))


@pytest.mark.parametrize("chunk", [1, 7, localfit.PAIR_CHUNK])
@pytest.mark.parametrize("case", sorted(PAIR_CASES))
def test_pair_kernel_matches_dense_oracle(case, chunk, monkeypatch):
    # Patches of 1 to 57 nodes in one table; every (point, patch) pair must
    # carry the dense per-fit evaluation's bits, in any selection and order
    # of pairs and for any chunk size.
    monkeypatch.setattr(localfit, "PAIR_CHUNK", chunk)
    surface, mode, kernel = PAIR_CASES[case]
    rng = np.random.default_rng(sorted(PAIR_CASES).index(case))
    sizes = (1, 9, 57, 23)
    samples = [pair_case_samples(surface, rng, n) for n in sizes]
    probes = pair_case_samples(surface, rng, 13)[0]
    # The table reads each patch's samples through a shuffled member index;
    # it holds what fit_patch solves for each patch alone.
    member_index = rng.permutation(sum(sizes))
    nodes = np.empty((sum(sizes), surface.dim))
    values = np.empty_like(nodes)
    nodes[member_index] = np.concatenate([pts for pts, _ in samples])
    values[member_index] = np.concatenate([vals for _, vals in samples])
    table = fit_table(nodes, values, member_index, sizes, kernel, surface,
                      mode)
    fits = list(table)
    assert len(fits) == len(sizes)
    for fit, (pts, vals) in zip(fits, samples):
        evec, sign, residual = fit_patch(pts, vals, kernel, surface, mode)
        assert pair_oracle.same_bits(fit.nodes, pts)
        assert pair_oracle.same_bits(fit.eval_vectors, evec.T)
        assert (fit.sign, fit.fit_residual) == (sign, residual)
    want = [pair_oracle.field_potential(f, probes) for f in fits]
    want_psi = [pair_oracle.potential(f, probes) for f in fits]
    for fit, (pot, raw), psi in zip(fits, want, want_psi):
        assert pair_oracle.same_bits(pot, psi)
        got = fit.field_potential_at(probes)
        assert pair_oracle.same_bits(got[0], pot)
        assert pair_oracle.same_bits(got[1], raw)
        assert pair_oracle.same_bits(fit.potential_at(probes), psi)
    point, patch = (a.ravel() for a in np.meshgrid(
        np.arange(len(probes)), np.arange(len(fits))))
    every = rng.permutation(len(point))
    for pick in (every, every[:len(every) // 3], every[:2], every[:1],
                 every[:0]):
        pot, raw = table.pair_sums(probes[point[pick]], patch[pick])
        psi, none = table.pair_sums(probes[point[pick]], patch[pick],
                                    with_field=False)
        assert none is None
        assert pair_oracle.same_bits(
            pot, np.array([want[l][0][i] for i, l in
                           zip(point[pick], patch[pick])]))
        assert pair_oracle.same_bits(
            raw, np.array([want[l][1][i] for i, l in
                           zip(point[pick], patch[pick])]).reshape(
                               len(pick), surface.dim))
        assert pair_oracle.same_bits(psi, pot)


def test_coefficients_derive_from_eval_vectors():
    # The coefficients read back from the eval vectors are tangent, and
    # their frame components rebuild them.
    rng = np.random.default_rng(23)
    pts, vals = random_sphere_patch(rng, 30)
    k = RadialKernel("matern4", 7.5)
    d, e, n = SPHERE.tangent_frames(pts)
    for mode in ("div_surface", "curl_surface"):
        fit = fit_one(pts, vals, k, SPHERE, mode)
        coef = pair_oracle.coef_vectors(fit)
        scale = np.abs(coef).max()
        assert np.abs((coef * n).sum(-1)).max() <= 1e-15 * scale
        ab = pair_oracle.alpha_beta(fit)
        assert np.abs(ab[:, :1] * d + ab[:, 1:] * e - coef).max() \
            <= 1e-15 * scale
    fit = fit_one(pts, vals, RadialKernel("imq", 2.0), R3,
                  "curl_euclidean")
    assert pair_oracle.alpha_beta(fit) is None
    assert np.shares_memory(pair_oracle.coef_vectors(fit),
                            fit.table.eval_vectors)
