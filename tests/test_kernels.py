import numpy as np
import pytest

import kernel_oracle
import pair_oracle
from vecpum.kernels import RadialKernel


def fd_hessian(kernel, offset, step=1e-4):
    """Second-order centered FD Hessian of phi(||.||) at the given offset."""
    dim = len(offset)
    h = np.zeros((dim, dim))
    for a in range(dim):
        for b in range(dim):
            ea = np.zeros(dim)
            eb = np.zeros(dim)
            ea[a] = step
            eb[b] = step
            h[a, b] = (kernel.phi(np.linalg.norm(offset + ea + eb))
                       - kernel.phi(np.linalg.norm(offset + ea - eb))
                       - kernel.phi(np.linalg.norm(offset - ea + eb))
                       + kernel.phi(np.linalg.norm(offset - ea - eb))
                       ) / (4.0 * step * step)
    return h


def test_phi_values():
    assert RadialKernel("imq", 13.0).phi(0.0) == 1.0
    assert RadialKernel("imq", 1.0).phi(1.0) == pytest.approx(
        1.0 / np.sqrt(2.0), abs=1e-15)
    assert RadialKernel("matern4", 7.5).phi(0.0) == 1.0


@pytest.mark.parametrize("family,eps", [("imq", 1.0), ("imq", 13.0),
                                        ("matern4", 1.0), ("matern4", 7.5)])
def test_phi_positive_and_nonincreasing(family, eps):
    k = RadialKernel(family, eps)
    r = np.linspace(0.0, 10.0 / eps, 2000)
    vals = k.phi(r)
    assert (vals > 0).all()
    assert (np.diff(vals) <= 1e-15).all()


def test_negative_radius_rejected():
    k = RadialKernel("imq", 1.0)
    for op in (k.phi, k.phi_d1_over_r, k.hessian_coeffs,
               lambda r: k.laplacian(r, 2)):
        with pytest.raises(ValueError):
            op(-0.1)


def test_bad_construction_rejected():
    with pytest.raises(ValueError):
        RadialKernel("gaussian", 1.0)
    with pytest.raises(ValueError):
        RadialKernel("imq", 0.0)


@pytest.mark.parametrize("eps", [np.inf, -np.inf, np.nan])
def test_non_finite_epsilon_rejected(eps):
    for family in ("imq", "matern4"):
        with pytest.raises(ValueError, match="finite"):
            RadialKernel(family, eps)


def test_f_limit_at_zero():
    # phi'(r) = -eps^2 r (1+(eps r)^2)^(-3/2) for the IMQ, so F(0) = -eps^2.
    assert RadialKernel("imq", 1.0).phi_d1_over_r(0.0) == pytest.approx(-1.0)
    for eps in (0.5, 2.0, 13.0):
        k = RadialKernel("imq", eps)
        assert k.phi_d1_over_r(0.0) == pytest.approx(-eps**2, rel=1e-14)
        assert abs(k.phi_d1_over_r(1e-12 / eps)
                   - k.phi_d1_over_r(0.0)) <= 1e-10 * eps**2


def test_f_matches_fd_derivative():
    k = RadialKernel("matern4", 1.0)
    r = 2.0
    step = 1e-5
    fd = (k.phi(r + step) - k.phi(r - step)) / (2.0 * step)
    assert abs(k.phi_d1_over_r(r) - fd / r) < 1e-7


@pytest.mark.parametrize("family,eps,r", [("imq", 1.0, 0.7),
                                          ("matern4", 7.5, 0.1)])
def test_hessian_coeffs_match_fd(family, eps, r):
    k = RadialKernel(family, eps)
    rng = np.random.default_rng(7)
    v = rng.normal(size=3)
    v *= r / np.linalg.norm(v)
    f, s = k.hessian_coeffs(r)
    rebuilt = f * np.eye(3) + s * np.outer(v, v)
    assert np.abs(rebuilt - fd_hessian(k, v)).max() < 1e-6


def test_hessian_at_zero_is_isotropic():
    for family in ("imq", "matern4"):
        k = RadialKernel(family, 3.0)
        f, s = k.hessian_coeffs(0.0)
        assert np.isfinite(s)
        rebuilt = f * np.eye(3) + s * np.outer(np.zeros(3), np.zeros(3))
        assert np.allclose(rebuilt, f * np.eye(3))


@pytest.mark.parametrize("family", ["imq", "matern4"])
def test_hessian_property_random_radii(family):
    k = RadialKernel(family, 1.0)
    rng = np.random.default_rng(11)
    worst = 0.0
    for r in rng.uniform(1e-3, 5.0, size=200):
        v = rng.normal(size=3)
        v *= r / np.linalg.norm(v)
        f, s = k.hessian_coeffs(r)
        rebuilt = f * np.eye(3) + s * np.outer(v, v)
        worst = max(worst, np.abs(rebuilt - fd_hessian(k, v)).max())
    assert worst < 1e-6


def test_laplacian():
    for family in ("imq", "matern4"):
        k = RadialKernel(family, 2.0)
        f0 = k.phi_d1_over_r(0.0)
        assert k.laplacian(0.0, 2) == pytest.approx(2.0 * f0, rel=1e-14)
        assert k.laplacian(0.0, 3) == pytest.approx(3.0 * f0, rel=1e-14)
    k = RadialKernel("imq", 1.0)
    assert k.laplacian(1.0, 2) == pytest.approx(
        np.trace(fd_hessian(k, np.array([1.0, 0.0]))), abs=1e-6)
    k = RadialKernel("matern4", 1.0)
    assert k.laplacian(0.5, 3) == pytest.approx(
        np.trace(fd_hessian(k, np.array([0.5, 0.0, 0.0]))), abs=1e-6)
    with pytest.raises(ValueError):
        k.laplacian(1.0, 4)


@pytest.mark.parametrize("family,eps", [("imq", 2.0), ("matern4", 2.0)])
def test_continuity_across_zero(family, eps):
    k = RadialKernel(family, eps)
    f0, s0 = k.hessian_coeffs(0.0)
    f8, s8 = k.hessian_coeffs(1e-8)
    assert abs(f8 - f0) <= 1e-6
    assert abs(s8 - s0) <= 1e-6
    assert abs(k.laplacian(1e-8, 3) - k.laplacian(0.0, 3)) <= 1e-6


@pytest.mark.parametrize("family", ["imq", "matern4"])
def test_scalar_kernel_matrix_positive_definite(family):
    k = RadialKernel(family, 3.0)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1, 1, size=(50, 3))
    diff = pts[:, None, :] - pts[None, :, :]
    gram = k.phi(np.sqrt((diff * diff).sum(-1)))
    assert np.linalg.eigvalsh(gram).min() > 0


def test_vectorized_matches_scalar():
    k = RadialKernel("matern4", 7.5)
    r = np.array([0.0, 0.1, 1.0, 4.0])
    f, s = k.hessian_coeffs(r)
    for i, ri in enumerate(r):
        fi, si = k.hessian_coeffs(float(ri))
        assert f[i] == fi and s[i] == si


def oracle_radii():
    """Radii at which the coefficients are compared: zero, Python and
    numpy scalars, 0-d arrays, a spread over the kernels' whole range, and
    a 2-d array."""
    spread = np.concatenate(([0.0], np.geomspace(1e-12, 1e3, 997),
                             np.random.default_rng(5).uniform(0, 2, 1000)))
    return [0, 0.0, 0.37, np.float64(1.3), np.array(0.0), np.array(0.81),
            spread, spread.reshape(2, -1)]


@pytest.mark.parametrize("eps", [0.5, 4.0, 13.0])
@pytest.mark.parametrize("family", ["imq", "matern4"])
def test_coefficients_match_out_of_place_formulas(family, eps):
    # F and S computed in place carry the bits, type and shape of the
    # formulas that made one new array per operation, and leave their
    # input as it was.
    kernel = RadialKernel(family, eps)
    for r in oracle_radii():
        kept = np.array(r, copy=True)
        got = (kernel.phi_d1_over_r(r),) + kernel.hessian_coeffs(r)
        want = ((kernel_oracle.phi_d1_over_r(kernel, r),)
                + kernel_oracle.hessian_coeffs(kernel, r))
        for g, w in zip(got, want):
            assert type(g) is type(w)
            assert pair_oracle.same_bits(g, w)
        assert pair_oracle.same_bits(r, kept)
        for op in (kernel.phi_d1_over_r, kernel.hessian_coeffs):
            with pytest.raises(ValueError, match="nonnegative"):
                op(-np.abs(r) - 1e-3)
