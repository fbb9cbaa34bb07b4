import numpy as np
import pytest

from vecpum import geometry


def random_unit(rng, n=1):
    v = rng.normal(size=(n, 3))
    return v / np.sqrt((v * v).sum(-1))[:, None]


def test_plane_normals():
    s = geometry.plane2d()
    pts = np.array([[0.3, -2.0, 0.0], [5.0, 1.0, 0.0]])
    assert np.array_equal(s.normals(pts),
                          np.tile([0.0, 0.0, 1.0], (2, 1)))


def test_sphere_normals_are_the_points():
    s = geometry.sphere2()
    assert np.allclose(s.normals(np.array([[0.0, 0.0, 1.0]])),
                       [[0.0, 0.0, 1.0]])
    assert np.allclose(s.normals(np.array([[1.0, 0.0, 0.0]])),
                       [[1.0, 0.0, 0.0]])


def test_sphere_rejects_off_surface_points():
    s = geometry.sphere2()
    with pytest.raises(ValueError):
        s.normals(np.array([[0.0, 0.0, 1.1]]))


def test_surface_facts():
    plane, sphere = geometry.plane2d(), geometry.sphere2()
    r2, r3 = geometry.euclidean(2), geometry.euclidean(3)
    assert plane.modes == sphere.modes == ("div_surface", "curl_surface")
    assert r2.modes == r3.modes == ("curl_euclidean",)
    assert [s.intrinsic_dim for s in (plane, sphere, r2, r3)] == [2, 2, 2, 3]


def test_check_points():
    rng = np.random.default_rng(6)
    sphere, plane = geometry.sphere2(), geometry.plane2d()
    pts = random_unit(rng, 30)
    assert np.array_equal(sphere.check(pts.tolist()), pts)
    assert sphere.check([]).shape == (0, 3)
    pts[[3, 9]] *= 1.0 + 1e-6
    with pytest.raises(ValueError,
                       match=r"off the sphere by up to 1\.000e-06"):
        sphere.check(pts)
    flat = np.zeros((4, 3))
    flat[1, 2] = 1e-10
    assert np.array_equal(plane.check(flat), flat)
    flat[2, 2] = -1e-6
    with pytest.raises(ValueError, match=r"off the plane by up to 1\.000e-06"):
        plane.check(flat)
    with pytest.raises(ValueError, match=r"shape \(4, 2\)"):
        plane.check(flat[:, :2])
    with pytest.raises(ValueError, match=r"not finite \(rows \[1\]\)"):
        geometry.euclidean(3).check([[0.0, 0.0, 5.0], [np.nan, 0.0, 0.0]])
    far = 7.0 * random_unit(rng, 5)
    assert np.array_equal(geometry.euclidean(3).check(far), far)


def test_plane_frame_is_fixed():
    s = geometry.plane2d()
    d, e, n = s.tangent_frames(np.array([[0.4, 0.7, 0.0]]))
    assert np.array_equal(d[0], [1.0, 0.0, 0.0])
    assert np.array_equal(e[0], [0.0, 1.0, 0.0])
    assert np.array_equal(n[0], [0.0, 0.0, 1.0])


def test_sphere_frames_orthonormal():
    s = geometry.sphere2()
    rng = np.random.default_rng(3)
    pts = random_unit(rng, 500)
    d, e, n = s.tangent_frames(pts)
    for a, b in [(d, e), (d, n), (e, n)]:
        assert np.abs((a * b).sum(-1)).max() < 1e-12
    for a in (d, e, n):
        assert np.abs((a * a).sum(-1) - 1.0).max() < 1e-12
    # d = n x e by construction on the sphere
    assert np.abs(d - np.cross(n, e)).max() < 1e-15


def test_frames_deterministic():
    s = geometry.sphere2()
    rng = np.random.default_rng(9)
    pts = random_unit(rng, 50)
    f1 = s.tangent_frames(pts)
    f2 = s.tangent_frames(pts.copy())
    for a, b in zip(f1, f2):
        assert np.array_equal(a, b)


def test_q_matrix_is_cross_product():
    q = geometry.q_matrix([0.0, 0.0, 1.0])
    assert np.allclose(q @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    rng = np.random.default_rng(1)
    for n in random_unit(rng, 20):
        q = geometry.q_matrix(n)
        assert np.abs(q + q.T).max() == 0.0
        assert np.abs(q @ n).max() < 1e-16
        v = rng.normal(size=3)
        assert np.allclose(q @ v, np.cross(n, v))


def test_cross_matches_numpy_bitwise():
    # geometry.cross takes np.cross's operation order, so its bits, with
    # signed zeros, on rows, broadcast frames and a fixed normal.
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=(2, 40, 3))
    a[:5] = 0.0
    b[3:8, 1] = -0.0
    pairs = [(a, b), (a[:, None, :], rng.normal(size=(40, 2, 3))),
             (geometry.PLANE_N, b)]
    for x, y in pairs:
        want = np.cross(x, y)
        assert geometry.cross(x, y).tobytes() == want.tobytes()
        assert geometry.cross(x, y).shape == want.shape


def test_p_matrix_projector():
    p = geometry.p_matrix([0.0, 0.0, 1.0])
    assert np.allclose(p, np.diag([1.0, 1.0, 0.0]))
    rng = np.random.default_rng(2)
    for n in random_unit(rng, 20):
        p = geometry.p_matrix(n)
        assert np.abs(p @ p - p).max() < 1e-12
        assert np.abs(p @ n).max() < 1e-12
        assert np.abs(p - p.T).max() == 0.0


def test_plane_surface_curl_rotates_gradient():
    s = geometry.plane2d()
    out = geometry.tangent_operator("div_surface", s,
                                    np.array([[0.1, 0.2, 0.0]]),
                                    np.array([[3.0, -4.0, 0.0]]))
    assert np.allclose(out, [[4.0, 3.0, 0.0]])


def test_curl_and_grad_outputs_tangent_and_equal_magnitude():
    s = geometry.sphere2()
    rng = np.random.default_rng(4)
    pts = random_unit(rng, 1000)
    grads = rng.normal(size=(1000, 3))
    qg = geometry.tangent_operator("div_surface", s, pts, grads)
    pg = geometry.tangent_operator("curl_surface", s, pts, grads)
    for x, g, lc, gc in zip(pts[:50], grads[:50], qg, pg):
        assert np.allclose(lc, geometry.q_matrix(x) @ g, rtol=0, atol=1e-14)
        assert np.allclose(gc, geometry.p_matrix(x) @ g, rtol=0, atol=1e-14)
    mag = np.sqrt((grads * grads).sum(-1))
    assert (np.abs((pts * qg).sum(-1)) < 1e-12 * mag).all()
    assert (np.abs((pts * pg).sum(-1)) < 1e-12 * mag).all()
    # equal magnitudes, to 1e-12 absolute at every point
    assert np.abs(np.sqrt((qg * qg).sum(-1))
                  - np.sqrt((pg * pg).sum(-1))).max() < 1e-12


def test_gradient_parallel_to_normal_annihilated():
    s = geometry.sphere2()
    x = np.array([[0.0, 0.0, 1.0]])
    g = 2.5 * x
    for mode in ("div_surface", "curl_surface"):
        assert np.abs(geometry.tangent_operator(mode, s, x, g)).max() < 1e-15


def test_euclidean_has_no_surface_structure():
    s = geometry.euclidean(3)
    with pytest.raises(ValueError):
        s.normals(np.zeros((1, 3)))
    with pytest.raises(ValueError):
        s.tangent_frames(np.zeros((1, 3)))
    with pytest.raises(ValueError):
        geometry.euclidean(4)
    v = np.ones((2, 3))
    assert geometry.tangent_operator("curl_euclidean", s, v, v) is v


def test_embed_points():
    out = geometry.embed_points([[1.0, 2.0], [3.0, 4.0]])
    assert out.shape == (2, 3)
    assert np.array_equal(out[:, 2], [0.0, 0.0])
