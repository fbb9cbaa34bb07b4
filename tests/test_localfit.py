import re
import sys
import threading

import numpy as np
import pytest
import sympy
from scipy.spatial import cKDTree

import assembly_oracle
import pair_oracle
from vecpum import geometry, localfit, testbed
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


def stacked_cover(nodes, members, surface):
    """A chain of overlapping unit patches with the given members; only its
    membership and surface are read by a fit table."""
    centers = np.zeros((len(members), nodes.shape[1]))
    centers[:, 0] = 0.5 * np.arange(len(members))
    return Cover(centers=centers, radii=np.ones(len(members)),
                 members=members, nodes=nodes, surface=surface)


def fit_one(nodes, values, kernel, surface, mode):
    """The fit of one patch holding every node."""
    cov = stacked_cover(nodes, [np.arange(len(nodes))], surface)
    return fit_table(cov, values, kernel, mode)[0]


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
    # The coefficients' components in the plane's (x, y) axes.
    got = pair_oracle.coef_vectors(fit)[:, :2].reshape(-1)
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
    alpha_beta = pair_oracle.coef_vectors(fit)[:, :2]
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
            # The surface gradient from central differences along the
            # tangent frame, on the surface (the evaluators refuse points
            # off it); n x grad sees the tangent part alone.
            d, e, n = (v[0] for v in surface.tangent_frames(x[None]))
            grad = np.zeros(3)
            for t in (d, e):
                ends = surface.project(np.array([x + step * t, x - step * t]))
                pot = fit.potential_at(ends)
                grad += t * (pot[0] - pot[1]) / (2 * step)
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
    holding every node, whose cover may be what raises) all raise
    ValueError for these samples."""
    k = RadialKernel("imq", 1.0)

    def build():
        cov = Cover(centers=np.zeros((1, pts.shape[1])),
                    radii=np.array([1e3]), members=[np.arange(len(pts))],
                    nodes=pts, surface=surface)
        return build_approximant(cov, k, mode, vals)

    for call in (lambda: check_samples(pts, vals, surface, mode),
                 lambda: fit_global(pts, vals, k, surface, mode), build):
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
              members=[np.arange(0)], nodes=empty, surface=PLANE)


@pytest.mark.parametrize("gap", [0.0, 1e-155, 1e-160, 1e-162, 1e-200,
                                 1e-300])
def test_repeated_nodes_are_those_with_a_nearest_neighbour_at_zero(gap):
    # Node 30 sits ``gap`` from node 7, which has a -0.0 coordinate where
    # node 30 has 0.0.  The samples are refused exactly when a nearest-
    # neighbour query puts some node's nearest other node at distance 0.0:
    # at the duplicate and wherever the squared gap underflows.
    nodes = np.random.default_rng(5).uniform(-1.0, 1.0, (50, 2))
    nodes[7] = [0.0, -0.0]
    nodes[30] = [gap, 0.0]
    dist, _ = cKDTree(nodes).query(nodes, k=2)
    repeated = dist[:, 1].min() == 0.0
    assert repeated == (gap * gap == 0.0)
    flat = geometry.euclidean(2)
    if repeated:
        assert_samples_rejected(nodes, -nodes, flat, "curl_euclidean",
                                match="distinct")
    else:
        check_samples(nodes, -nodes, flat, "curl_euclidean")


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


@pytest.mark.parametrize("case", INTERPOLATION_CASES)
@pytest.mark.parametrize("family", ["imq", "matern4"])
def test_non_finite_system_raises_patch_error(case, family):
    # At eps=1e78 eps^4 overflows and the system holds NaN, which potrf
    # factors without complaint: the fit must still fail, typed, with no
    # condition estimate, rather than return NaN eval vectors.
    pts, vals, surface, mode, _ = interpolation_case(
        case, np.random.default_rng(7))
    with pytest.warns(RuntimeWarning), pytest.raises(PatchFitError) as err:
        fit_patch(pts, vals, RadialKernel(family, 1e78), surface, mode,
                  patch_id=3)
    assert err.value.patch_id == 3
    assert err.value.cond == np.inf
    assert str(err.value) == (
        "local system for patch 3 has non-finite entries: the kernel "
        "overflows at this shape parameter")


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


@pytest.mark.parametrize("chunk", [1, 7, 8192, localfit.PAIR_CHUNK])
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
    # it holds what fit_patch, called directly, solves for each patch alone.
    member_index = rng.permutation(sum(sizes))
    nodes = np.empty((sum(sizes), surface.dim))
    values = np.empty_like(nodes)
    nodes[member_index] = np.concatenate([pts for pts, _ in samples])
    values[member_index] = np.concatenate([vals for _, vals in samples])
    cov = stacked_cover(nodes, np.split(member_index, np.cumsum(sizes)[:-1]),
                        surface)
    table = fit_table(cov, values, kernel, mode)
    assert table.cover is cov
    assert table.sign == (1.0 if mode == "div_surface" else -1.0)
    fits = list(table)
    assert len(fits) == len(sizes)
    for fit, (pts, vals) in zip(fits, samples):
        evec, residual = fit_patch(pts, vals, kernel, surface, mode)
        assert pair_oracle.same_bits(fit.nodes, pts)
        assert pair_oracle.same_bits(pair_oracle.eval_vectors(fit), evec.T)
        assert fit.fit_residual == residual
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


@pytest.mark.parametrize("chunk", [1, 7, 8192, localfit.PAIR_CHUNK])
@pytest.mark.parametrize("mode", ["div_surface", "curl_surface"])
def test_flat_plane_fit_matches_embedded_reference(mode, chunk, monkeypatch):
    # The plane is fit in R^2, as a curl-free problem on turned samples in
    # div_surface mode.  Its potentials and fields must be those of the
    # embedded fit (frames, Q or P, in R^3) of assembly_oracle, to within
    # rounding, for every chunking of the pairs.  The reference table holds
    # the embedded fits' 3-row eval vectors, which the pair kernel reads
    # in three coordinates.
    monkeypatch.setattr(localfit, "PAIR_CHUNK", chunk)
    kernel = RadialKernel("imq", 13.0)
    rng = np.random.default_rng(43)
    sizes = (1, 9, 57, 23)
    samples = [random_plane_patch(rng, n, scale=0.2) for n in sizes]
    nodes = np.concatenate([pts for pts, _ in samples])
    values = np.concatenate([vals for _, vals in samples])
    cov = stacked_cover(nodes, np.split(np.arange(len(nodes)),
                                        np.cumsum(sizes)[:-1]), PLANE)
    table = fit_table(cov, values, kernel, mode)
    assert table.eval_vectors.shape == (2, len(nodes))
    embedded = [assembly_oracle.fit_patch(pts, vals, kernel, PLANE, mode)
                for pts, vals in samples]
    reference = localfit.FitTable(
        mode=mode, kernel=kernel, cover=cov,
        eval_vectors=np.concatenate([evec for evec, _ in embedded], axis=1),
        fit_residual=np.array([res for _, res in embedded]))
    probes = random_plane_patch(rng, 13, scale=0.2)[0]
    point, patch = (a.ravel() for a in np.meshgrid(
        np.arange(len(probes)), np.arange(len(sizes))))
    pts = probes[point]
    (pot, raw), (want_pot, want_raw) = (
        t.pair_sums(pts, patch) for t in (table, reference))
    assert np.abs(pot - want_pot).max() <= 1e-12 * np.abs(want_pot).max()
    field, want_field = (geometry.tangent_operator(mode, PLANE, pts, r)
                         for r in (raw, want_raw))
    assert (field[:, 2] == 0.0).all()
    assert np.abs(field - want_field).max() <= \
        1e-12 * np.abs(want_field).max()
    assert table.fit_residual.max() <= 1e-12
    # A pair evaluated alone carries its bits inside the batch.
    for i in (0, 17, len(pts) - 1):
        alone = table.pair_sums(pts[i:i + 1], patch[i:i + 1])
        assert pair_oracle.same_bits(alone[0], pot[i:i + 1])
        assert pair_oracle.same_bits(alone[1], raw[i:i + 1])


def test_one_bincount_sums_as_one_per_row(monkeypatch):
    # bin_rows keys row j of bin i at i + j n.  Each bin must carry the
    # bits of a bincount per row: its terms in order from 0.0, so a lone
    # -0.0 term and an empty bin read +0.0.  Bins 1 and 5 hold one term.
    index = np.array([3, 0, 0, 5, 3, 0, 1])
    rows = np.random.default_rng(41).normal(size=(4, len(index)))
    rows[1] = -0.0
    rows[2, [1, 3, 6]] = -0.0
    got = localfit.bin_rows(index, rows, 6)
    assert pair_oracle.same_bits(
        got, pair_oracle.per_row_bincounts(index, rows, 6))
    assert not np.signbit(got[:, 1]).any()
    assert not np.signbit(got[[1, 2, 4, 5], 2]).any()
    # In the pair kernel: plane div-free fields on patches of one node
    # (one-term pairs) and of 9 nodes, longer than a chunk of 5 terms; the
    # flat fits, and the same fits with a zero z row, read in three
    # coordinates, whose z terms are all zeros.
    monkeypatch.setattr(localfit, "PAIR_CHUNK", 5)
    rng = np.random.default_rng(42)
    sizes = (1, 9, 1, 4)
    pts, vals = random_plane_patch(rng, sum(sizes))
    cov = stacked_cover(pts, np.split(np.arange(sum(sizes)),
                                      np.cumsum(sizes)[:-1]), PLANE)
    flat = fit_table(cov, vals, RadialKernel("imq", 3.0), "div_surface")
    padded = localfit.FitTable(
        mode=flat.mode, kernel=flat.kernel, cover=cov,
        eval_vectors=np.vstack([flat.eval_vectors, np.zeros(len(pts))]),
        fit_residual=flat.fit_residual)
    probes = random_plane_patch(rng, 13)[0]
    point, patch = (a.ravel() for a in np.meshgrid(
        np.arange(len(probes)), np.arange(len(sizes))))
    got = [t.pair_sums(probes[point], patch) for t in (flat, padded)]
    monkeypatch.setattr(localfit, "bin_rows", pair_oracle.per_row_bincounts)
    want = [t.pair_sums(probes[point], patch) for t in (flat, padded)]
    for table_got, table_want in zip(got, want):
        assert (table_got[1][:, 2] == 0.0).all()
        for a, b in zip(table_got, table_want):
            assert pair_oracle.same_bits(a, b)


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


ORACLE_GEOMETRIES = {
    "plane_div": (PLANE, "div_surface", 13.0),
    "plane_curl": (PLANE, "curl_surface", 13.0),
    "sphere_div": (SPHERE, "div_surface", 7.5),
    "sphere_curl": (SPHERE, "curl_surface", 7.5),
    "r2": (geometry.euclidean(2), "curl_euclidean", 4.0),
    "r3": (R3, "curl_euclidean", 4.0),
}
# Both sides of _ASSEMBLY_BLOCK (256), and more than one block.  Under P
# the L R^T of a one-block system is R R^T of one array, which numpy forms
# by syrk; gemm on a copy of R differs from it in the last bits when 2n % 8
# is 4 or 6, as at n = 19 (19 to 20 nodes is a common patch size).
ORACLE_SIZES = (1, 2, 19, 37, 256, 257, 300, 600)


def oracle_fit(nodes, values, kernel, surface, mode, patch_id=None):
    """``assembly_oracle.fit_patch``, the plane through its flat body: the
    fit ``fit_patch`` solves, of the samples in R^2, turned by J^T to
    (u_y, -u_x) for ``div_surface``, whose eval vectors are then minus the
    flat fit's."""
    if surface is not PLANE:
        return assembly_oracle.fit_patch(nodes, values, kernel, surface, mode,
                                         patch_id)
    turned = mode == "div_surface"
    flat = (np.stack([values[:, 1], -values[:, 0]], axis=1) if turned
            else values[:, :2])
    evec, residual = assembly_oracle.fit_patch(
        nodes[:, :2], flat, kernel, geometry.euclidean(2), "curl_euclidean",
        patch_id)
    return (-evec if turned else evec), residual


def oracle_patch(name, n):
    """The n nodes of a Poisson-disk set of 2000 nearest to one of them,
    with tangent values (plane values have z = 0)."""
    surface = ORACLE_GEOMETRIES[name][0]
    if surface is SPHERE:
        pool = testbed.nodes_sphere(2000, 5)
    elif surface.dim == 2:
        pool = testbed.nodes_star(2000, 5)
    elif surface is PLANE:
        pool = geometry.embed_points(testbed.nodes_star(2000, 5))
    else:
        pool = testbed.nodes_ball(2000, 5)
    gap = pool - pool[7]
    nodes = pool[np.argsort((gap * gap).sum(-1), kind="stable")[:n]]
    raw = np.random.default_rng(n).normal(size=nodes.shape)
    if surface.kind == "euclidean":
        return nodes, raw
    normals = surface.normals(nodes)
    return nodes, raw - normals * (normals * raw).sum(-1)[:, None]


@pytest.mark.parametrize("n", ORACLE_SIZES)
@pytest.mark.parametrize("name", sorted(ORACLE_GEOMETRIES))
@pytest.mark.parametrize("family", ["imq", "matern4"])
def test_one_formulation_matches_per_mode_bodies(family, name, n):
    # Every mode's system is sign * L H R^T over frame rows, flat R^d with
    # the identity frame; it must carry the bits of the separate flat and
    # surface bodies it replaced: the matrices, and for n <= 300 the eval
    # vectors (the plane's from the flat body, see ``oracle_fit``) and
    # the fit residual, the oracle solving at the one BLAS thread that
    # fit_patch factors at.  The solve factors a.copy().T as a in Fortran
    # order, so every bit of a must equal its mirror: flat systems are
    # written symmetric, not symmetrized.
    surface, mode, eps = ORACLE_GEOMETRIES[name]
    kernel = RadialKernel(family, eps)
    nodes, values = oracle_patch(name, n)
    nodes, values = check_samples(nodes, values, surface, mode)
    a = assemble_system(kernel, surface, nodes, mode)
    assert pair_oracle.same_bits(
        a, assembly_oracle.assemble_system(kernel, surface, nodes, mode))
    assert pair_oracle.same_bits(a, a.T)
    if n > 300:
        return
    evec, residual = fit_patch(nodes, values, kernel, surface, mode)
    with localfit.one_blas_thread():
        want_evec, want_residual = oracle_fit(nodes, values, kernel, surface,
                                              mode)
    assert pair_oracle.same_bits(evec, want_evec)
    assert pair_oracle.same_bits(residual, want_residual)


def oracle_system(family, name, n, eps=None):
    """The assembled system of an oracle patch and its right-hand side."""
    surface, mode, default_eps = ORACLE_GEOMETRIES[name]
    nodes, values = oracle_patch(name, n)
    nodes, values = check_samples(nodes, values, surface, mode)
    kernel = RadialKernel(family, default_eps if eps is None else eps)
    rows, _ = frames = localfit._frames(mode, surface, nodes)
    a = assemble_system(kernel, surface, nodes, mode, frames=frames)
    return a, (rows * values[:, None, :]).sum(-1).ravel()


@pytest.mark.parametrize("n", [n for n in ORACLE_SIZES if n <= 300])
@pytest.mark.parametrize("name", sorted(ORACLE_GEOMETRIES))
@pytest.mark.parametrize("family", ["imq", "matern4"])
def test_in_place_solve_matches_cho_factor(family, name, n):
    # potrf on a.copy().T must give cho_factor's solution bit for bit, at
    # the same one BLAS thread, and leave the matrix that the fit residual
    # is formed from as it was.
    a, rhs = oracle_system(family, name, n)
    kept, rhs_kept = a.copy(), rhs.copy()
    sol = localfit._solve_spd(a, rhs)
    assert pair_oracle.same_bits(a, kept)
    assert pair_oracle.same_bits(rhs, rhs_kept)
    with localfit.one_blas_thread():
        want = assembly_oracle._solve_spd(a, rhs)
    assert pair_oracle.same_bits(sol, want)


@pytest.mark.parametrize("name", ["plane_div", "r3"])
def test_in_place_solve_fails_as_cho_factor(name):
    # Systems far too flat to be numerically positive definite fail the
    # solve with cho_factor's LinAlgError, at the same leading minor, and
    # the fit with the same PatchFitError, with the same condition
    # estimate, as before.
    a, rhs = oracle_system("imq", name, 300, eps=0.5)
    surface, mode, _ = ORACLE_GEOMETRIES[name]
    nodes, values = check_samples(*oracle_patch(name, 300), surface, mode)
    kernel = RadialKernel("imq", 0.5)
    with localfit.one_blas_thread():
        with pytest.raises(np.linalg.LinAlgError) as want:
            assembly_oracle._solve_spd(a, rhs)
        with pytest.raises(PatchFitError) as want_fit:
            oracle_fit(nodes, values, kernel, surface, mode, patch_id=5)
    kept = a.copy()
    with pytest.raises(np.linalg.LinAlgError) as got:
        localfit._solve_spd(a, rhs)
    assert pair_oracle.same_bits(a, kept)
    assert str(got.value) == str(want.value)
    with pytest.raises(PatchFitError) as got_fit:
        fit_patch(nodes, values, kernel, surface, mode, patch_id=5)
    assert got_fit.value.patch_id == 5
    assert pair_oracle.same_bits(got_fit.value.cond, want_fit.value.cond)
    assert str(got_fit.value) == str(want_fit.value)
    assert isinstance(got_fit.value.__cause__, np.linalg.LinAlgError)


def singular_patch_cover(sizes, singular, rng):
    """An r3 stacked cover whose patches in ``singular`` end with two nodes
    1e-150 apart, which make their systems exactly singular."""
    members, pts, start = [], [], 0
    for l, n in enumerate(sizes):
        patch = rng.uniform(-1, 1, size=(n, 3)) + [4.0 * l, 0.0, 0.0]
        if l in singular:
            patch[-2:, :2] = 0.0
            patch[-2:, 2] = [2e-150 * l, 2e-150 * l + 1e-150]
        pts.append(patch)
        members.append(np.arange(start, start + n))
        start += n
    nodes = np.concatenate(pts)
    return stacked_cover(nodes, members, R3), rng.normal(size=nodes.shape)


def test_pooled_fits_raise_the_serial_error(monkeypatch):
    # Patches 1 and 3 are singular.  On threads, patch 1's fit waits until
    # patch 3 has failed; the error raised must still be patch 1's, as in
    # the serial loop, with its bits, and no patch above 3 may start.
    rng = np.random.default_rng(11)
    cov, values = singular_patch_cover((30, 150, 30, 8, 30, 30), {1, 3}, rng)
    kernel = RadialKernel("matern4", 2.0)
    with pytest.raises(PatchFitError) as want:
        fit_table(cov, values, kernel, "curl_euclidean")
    started = []
    real_fit = localfit.fit_patch

    def fit_patch(*args, patch_id, **kwargs):
        started.append(patch_id)
        if patch_id == 1:
            assert third_failed.wait(timeout=60)
        try:
            return real_fit(*args, patch_id=patch_id, **kwargs)
        finally:
            if patch_id == 3:
                third_failed.set()

    monkeypatch.setattr(localfit, "fit_patch", fit_patch)
    for workers in (2, 3):
        third_failed = threading.Event()
        started.clear()
        with pytest.raises(PatchFitError) as got:
            fit_table(cov, values, kernel, "curl_euclidean", workers=workers)
        assert want.value.patch_id == got.value.patch_id == 1
        assert pair_oracle.same_bits(got.value.cond, want.value.cond)
        assert str(got.value) == str(want.value)
        if workers == 2:
            assert sorted(started) == [0, 1, 2, 3]


@pytest.mark.parametrize("workers", [0, -1])
def test_fit_table_rejects_workers_below_one(workers, monkeypatch):
    # Also where the fits fall back to the serial loop.
    cov, values = singular_patch_cover((5, 5), set(),
                                       np.random.default_rng(0))
    for lapack in (localfit._LAPACK, None):
        monkeypatch.setattr(localfit, "_LAPACK", lapack)
        with pytest.raises(ValueError, match="workers"):
            fit_table(cov, values, RadialKernel("imq", 1.0), "curl_euclidean",
                      workers=workers)


def test_fits_run_serially_without_scipy_lapack(monkeypatch):
    # Without scipy's LAPACK pointer and OpenBLAS symbols the factorization
    # is f2py's, which holds the GIL, so no thread is started.  At the
    # same BLAS thread count it gives the pooled table's bits.
    rng = np.random.default_rng(12)
    cov, values = singular_patch_cover((30, 60, 80, 50), set(), rng)
    kernel = RadialKernel("matern4", 2.0)
    pooled = fit_table(cov, values, kernel, "curl_euclidean", workers=2)
    a, rhs = oracle_system("imq", "r3", 100)
    threads = set()
    real_fit = localfit.fit_patch

    def fit_patch(*args, **kwargs):
        threads.add(threading.get_ident())
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(localfit, "fit_patch", fit_patch)
    with localfit.one_blas_thread():
        monkeypatch.setattr(localfit, "_LAPACK", None)
        serial = fit_table(cov, values, kernel, "curl_euclidean", workers=2)
        pairs = ((serial.eval_vectors, pooled.eval_vectors),
                 (serial.fit_residual, pooled.fit_residual),
                 (localfit._solve_spd(a, rhs),
                  assembly_oracle._solve_spd(a, rhs)))
    assert threads == {threading.get_ident()}
    for got, want in pairs:
        assert pair_oracle.same_bits(got, want)


@pytest.fixture
def fast_switching():
    """A short switch interval, so threads interleave often."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


def test_thread_map_under_contention(fast_switching):
    # More threads than cores: every index is computed exactly once, and
    # its result lands in its own slot.
    calls = []

    def square(l):
        calls.append(l)
        return l * l

    assert localfit.map_in_order(square, range(2000), 8) == [
        l * l for l in range(2000)]
    assert sorted(calls) == list(range(2000))


@pytest.mark.parametrize("workers,items,want", [
    (1, 3, 0), (2, 3, 2), (64, 3, 3), (64, 0, 0)])
def test_thread_map_starts_at_most_one_thread_per_item(workers, items, want,
                                                       monkeypatch):
    # min(workers, items) threads, whatever ``workers``; none at one worker.
    started = []

    class Thread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Thread)
    assert localfit.map_in_order(str, range(items), workers) == [
        str(l) for l in range(items)]
    assert len(started) == want


@pytest.mark.skipif(localfit._LAPACK is None,
                    reason="needs scipy's OpenBLAS thread-count symbols")
def test_overlapping_pins_under_contention(fast_switching):
    # Pins held by many threads at once keep the count at one, and the
    # last to leave restores the caller's count.
    _, get, put = localfit._LAPACK
    before = get()
    inside = []

    def pin_often():
        for _ in range(200):
            with localfit.one_blas_thread():
                inside.append(get())

    put(2)
    try:
        threads = [threading.Thread(target=pin_often) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert get() == 2
    finally:
        put(before)
    assert inside == [1] * 1600
