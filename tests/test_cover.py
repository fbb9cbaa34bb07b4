import dataclasses

import numpy as np
import pytest
from scipy.spatial import cKDTree

from vecpum import cover, geometry, testbed
from vecpum.errors import ConfigError, CoverageError, CoverConnectivityError
from vecpum.experiment import default_config


BOX = ((0.0, 0.0), (1.0, 1.0))


def inside_box(points):
    points = np.atleast_2d(points)
    return ((points >= 0.0) & (points <= 1.0)).all(axis=1)


def small_cover(nodes, delta=0.5, spacing=0.4, surface=None):
    surface = surface or geometry.euclidean(2)
    centers = cover.centers_plane(BOX, inside_box, spacing)
    return cover.assign_radii_and_inflate(centers, nodes, delta, surface,
                                          spacing)


def test_spacing_from_q():
    h = cover.spacing_from_q(6.0, 4.0 * np.pi, 10000, 2)
    assert h == pytest.approx(6.0 * np.sqrt(4.0 * np.pi / 10000.0),
                              rel=1e-15)
    assert h == pytest.approx(0.212700, abs=1e-5)
    assert cover.spacing_from_q(1.0, 500.0, 500, 3) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        cover.spacing_from_q(-1.0, 1.0, 10, 2)


def test_kappa_values_and_branch_continuity():
    assert cover.kappa(0.0) == 1.0
    third = 1.0 / 3.0
    assert cover.kappa(third) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert 1.0 - 3.0 * third**2 == pytest.approx(1.5 * (1 - third) ** 2)
    assert cover.kappa(1.0) == 0.0
    assert cover.kappa(1.7) == 0.0
    assert cover.kappa_prime(third) == pytest.approx(-2.0, abs=1e-12)
    assert cover.kappa_prime(1.0) == 0.0
    eps = 1e-9
    assert cover.kappa(third - eps) == pytest.approx(cover.kappa(third + eps),
                                                     abs=1e-8)


def test_centers_sphere_count_and_norms():
    h = np.sqrt(4.0 * np.pi / 100.0)
    pts = cover.centers_sphere(h)
    assert len(pts) == 100
    assert np.abs(np.sqrt((pts * pts).sum(-1)) - 1.0).max() < 1e-14


def test_centers_ball_contains_origin():
    pts = cover.centers_ball(1.1)
    assert any(np.array_equal(p, np.zeros(3)) for p in pts)
    assert ((pts * pts).sum(-1) <= 1.0 + 1e-15).all()


def test_centers_plane_star_domain_inside():
    pts = cover.centers_plane(testbed.STAR_BBOX, testbed.inside_star, 0.2)
    assert len(pts) > 0
    assert testbed.inside_star(pts).all()


def test_centers_plane_too_coarse_raises():
    def nowhere(points):
        return np.zeros(len(np.atleast_2d(points)), dtype=bool)

    with pytest.raises(ConfigError):
        cover.centers_plane(((0.0, 0.0), (0.1, 0.1)), nowhere, 5.0)


def test_centers_plane_without_inside_test_keeps_the_lattice():
    whole = cover.centers_plane(BOX, None, 0.25)
    assert np.array_equal(whole[inside_box(whole)],
                          cover.centers_plane(BOX, inside_box, 0.25))
    assert len(whole) > inside_box(whole).sum()
    assert whole[:, 0].max() >= 1.0 and whole[:, 1].max() >= 1.0


def test_initial_radius_rules():
    plane = geometry.plane2d()
    ball = geometry.euclidean(3)
    assert cover._initial_radius(plane, 0.2, 0.5) == pytest.approx(0.15)
    assert cover._initial_radius(ball, 0.4, 0.25) == pytest.approx(
        1.25 * np.sqrt(3.0) * 0.2, abs=1e-12)
    sphere = geometry.sphere2()
    assert cover._initial_radius(sphere, 0.2, 0.5) == pytest.approx(0.15)


def test_inflation_encloses_stranded_node():
    surface = geometry.euclidean(2)
    centers = np.array([[0.0, 0.0], [1.0, 0.0]])
    nodes = np.array([[0.05, 0.0], [0.95, 0.0], [0.5, 0.45]])
    spacing = 1.0
    # initial rho = (1+0.1)/2 = 0.55; the third node is 0.67 from both
    cov = cover.assign_radii_and_inflate(centers, nodes, 0.1, surface,
                                         spacing)
    dist = min(np.linalg.norm(nodes[2] - centers[0]),
               np.linalg.norm(nodes[2] - centers[1]))
    assert cov.radii.max() > dist
    member_union = np.concatenate(cov.members)
    assert set(member_union) == {0, 1, 2}


def test_membership_is_strict():
    surface = geometry.euclidean(2)
    centers = np.array([[0.0, 0.0]])
    nodes = np.array([[0.0, 0.0], [0.55, 0.0]])
    cov = cover.assign_radii_and_inflate(centers, nodes, 0.1, surface, 1.0)
    # the far node sits exactly at distance 0.55*(1+margin); strictly inside
    for center, radius, idx in zip(cov.centers, cov.radii, cov.members):
        d = np.sqrt(((nodes[idx] - center) ** 2).sum(-1))
        assert (d < radius).all()
    # Two patches of radius 0.55 and no inflation: (0.55, 0) lies on the
    # first patch's boundary, so only the second holds it; (0.5, 0) lies in
    # both and is a member of both.  Members are every node strictly
    # inside, and no other.
    centers = np.array([[0.0, 0.0], [1.0, 0.0]])
    nodes = np.array([[0.0, 0.0], [0.55, 0.0], [0.5, 0.0], [1.0, 0.1],
                      [0.3, 0.2]])
    cov = cover.assign_radii_and_inflate(centers, nodes, 0.1, surface, 1.0)
    assert np.array_equal(cov.radii, [0.55, 0.55])
    for center, radius, idx in zip(cov.centers, cov.radii, cov.members):
        d = np.sqrt(((nodes - center) ** 2).sum(-1))
        assert np.array_equal(idx, np.flatnonzero(d < radius))
    assert [list(idx) for idx in cov.members] == [[0, 2, 4], [1, 2, 3]]


def test_disconnected_cover_raises():
    surface = geometry.euclidean(2)
    centers = np.array([[0.0, 0.0], [10.0, 0.0]])
    nodes = np.array([[0.01, 0.0], [10.01, 0.0]])
    with pytest.raises(CoverConnectivityError):
        cover.assign_radii_and_inflate(centers, nodes, 0.1, surface, 1.0)


def test_single_patch_cover_derives_its_graph():
    nodes = np.array([[0.5, 0.5], [0.6, 0.5]])
    cov = cover.single_patch_cover(nodes, geometry.euclidean(2), radius=1.0)
    assert len(cov) == 1 and cov.edges.shape == (0, 2)
    assert cov.tree.n == 1


def test_single_patch_cover_must_enclose_strictly():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ConfigError, match="does not enclose"):
        cover.single_patch_cover(nodes, geometry.euclidean(2), radius=0.5)
    cov = cover.single_patch_cover(nodes, geometry.euclidean(2),
                                   radius=np.nextafter(0.5, 1.0))
    assert np.array_equal(cov.members[0], [0, 1])


def test_single_patch_cover_rejects_a_zero_mean_sphere_set():
    # The six +-axis points average to the sphere's center, which has no
    # projection onto the sphere: projecting it was 0/0, a RuntimeWarning
    # and then "data must be finite" from the k-d tree.
    nodes = np.concatenate([np.eye(3), -np.eye(3)])
    with pytest.raises(ConfigError, match="mean is the sphere's center"):
        cover.single_patch_cover(nodes, geometry.sphere2())


def test_cover_is_frozen_and_owns_its_arrays():
    # Writing a radius after the build used to leave the edges, members and
    # tree describing the old radius while ``covers`` read the new one.
    centers = np.array([[0.0, 0.0], [1.0, 0.0]])
    radii = np.array([0.6, 0.6])
    nodes = np.array([[0.1, 0.0], [0.9, 0.0]])
    cov = cover.Cover(centers=centers, radii=radii,
                      members=[np.array([0]), np.array([1])], nodes=nodes,
                      surface=geometry.euclidean(2))
    assert cov.edges.tolist() == [[0, 1]]
    with pytest.raises(ValueError, match="read-only"):
        cov.radii[1] = 0.1
    with pytest.raises(dataclasses.FrozenInstanceError):
        cov.radii = np.array([0.1, 0.1])
    for name in ("centers", "radii", "nodes", "member_index", "offsets",
                 "edges"):
        assert not getattr(cov, name).flags.writeable, name
    assert isinstance(cov.members, tuple)
    assert not any(idx.flags.writeable for idx in cov.members)
    # The caller's writable arrays were copied; read-only ones are kept.
    radii[1] = 0.1
    nodes[0] = 5.0
    assert cov.radii[1] == 0.6 and cov.nodes[0, 0] == 0.1
    assert cov.covers(np.array([[0.5, 0.0]])).all()
    again = cover.Cover(centers=cov.centers, radii=cov.radii,
                        members=cov.members, nodes=cov.nodes,
                        surface=cov.surface)
    assert again.centers is cov.centers and again.nodes is cov.nodes


def test_empty_nodes_rejected():
    with pytest.raises(ConfigError):
        cover.assign_radii_and_inflate(np.zeros((1, 2)), np.zeros((0, 2)),
                                       0.5, geometry.euclidean(2), 1.0)


def test_weights_single_patch():
    nodes = np.array([[0.5, 0.5], [0.6, 0.5]])
    cov = cover.single_patch_cover(nodes, geometry.euclidean(2), radius=1.0)
    w = cover.weights_at(cov, np.array([0.55, 0.5]))
    assert w.weights[0] == 1.0
    assert np.abs(w.gradients).max() == 0.0


def test_weights_symmetric_overlap():
    surface = geometry.euclidean(2)
    centers = np.array([[0.0, 0.0], [1.0, 0.0]])
    nodes = np.array([[0.1, 0.0], [0.9, 0.0], [0.5, 0.0]])
    cov = cover.assign_radii_and_inflate(centers, nodes, 0.4, surface, 1.0)
    w = cover.weights_at(cov, np.array([0.5, 0.0]))
    assert len(w.indices) == 2
    assert w.weights == pytest.approx([0.5, 0.5], abs=1e-15)


def test_weight_gradients_match_fd():
    rng = np.random.default_rng(12)
    nodes = rng.uniform(0.0, 1.0, size=(200, 2))
    cov = small_cover(nodes)
    step = 1e-6
    for _ in range(20):
        x = rng.uniform(0.2, 0.8, size=2)
        w = cover.weights_at(cov, x)
        for l, grad in zip(w.indices, w.gradients):
            fd = np.zeros(2)
            for a in range(2):
                e = np.zeros(2)
                e[a] = step
                wp = cover.weights_at(cov, x + e)
                wm = cover.weights_at(cov, x - e)
                fp = wp.weights[list(wp.indices).index(l)] \
                    if l in wp.indices else 0.0
                fm = wm.weights[list(wm.indices).index(l)] \
                    if l in wm.indices else 0.0
                fd[a] = (fp - fm) / (2 * step)
            assert np.abs(grad - fd).max() < 1e-5


def test_partition_of_unity_invariants():
    rng = np.random.default_rng(21)
    nodes = rng.uniform(0.0, 1.0, size=(500, 2))
    cov = small_cover(nodes, spacing=0.25)
    pts = rng.uniform(0.05, 0.95, size=(10000, 2))
    pts = pts[cov.covers(pts)]
    worst_sum = worst_grad = 0.0
    for x in pts[:10000]:
        w = cover.weights_at(cov, x)
        worst_sum = max(worst_sum, abs(w.weights.sum() - 1.0))
        worst_grad = max(worst_grad,
                         np.abs(w.gradients.sum(axis=0)).max())
        assert ((w.weights >= 0.0) & (w.weights <= 1.0)).all()
    assert worst_sum <= 1e-12
    assert worst_grad <= 1e-10


def test_weights_compact_support():
    rng = np.random.default_rng(30)
    nodes = rng.uniform(0.0, 1.0, size=(300, 2))
    cov = small_cover(nodes)
    x = nodes[0]
    w = cover.weights_at(cov, x)
    dist = np.sqrt(((cov.centers - x) ** 2).sum(-1))
    inside = set(np.nonzero(dist < cov.radii)[0])
    assert set(w.indices) == inside


def test_uncovered_point_raises():
    nodes = np.array([[0.5, 0.5], [0.6, 0.5]])
    cov = cover.single_patch_cover(nodes, geometry.euclidean(2), radius=0.5)
    with pytest.raises(CoverageError):
        cover.weights_at(cov, np.array([5.0, 5.0]))


def test_weights_reject_bad_points():
    nodes = np.array([[0.5, 0.5], [0.6, 0.5]])
    cov = cover.single_patch_cover(nodes, geometry.euclidean(2), radius=1.0)
    with pytest.raises(ValueError, match=r"not finite \(rows \[0\]\)"):
        cover.weights_at(cov, np.array([np.nan, 0.5]))
    with pytest.raises(ValueError, match=r"shape \(1, 3\)"):
        cover.weights_at(cov, np.array([0.5, 0.5, 0.0]))


def default_cover_parts(name, n, seed):
    """A built-in problem's nodes, default patch spacing and centers."""
    problem = testbed.PROBLEMS[name]()
    nodes = problem.nodes(n, seed)
    h = cover.spacing_from_q(default_config(name).q, problem.area, n,
                             problem.surface.intrinsic_dim)
    return problem, nodes, h, problem.make_centers(h)


def two_query_cover(centers, nodes, overlap, surface, spacing):
    """(centers, radii, member_index, offsets, missed) of the cover formed
    with a second incidence query whether or not a radius was inflated."""
    radii = np.full(len(centers),
                    cover._initial_radius(surface, spacing, overlap))
    tree = cKDTree(centers)
    miss = np.ones(len(nodes), dtype=bool)
    miss[cover.strict_pairs(nodes, centers, radii, tree).point] = False
    dist, nearest = tree.query(nodes[miss], k=1)
    np.maximum.at(radii, nearest, dist * (1.0 + cover.INFLATION_MARGIN))
    inc = cover.strict_pairs(nodes, centers, radii, tree)
    keep, starts = np.unique(inc.patch, return_index=True)
    offsets = np.append(starts, len(inc.point))
    return centers[keep], radii[keep], inc.point, offsets, int(miss.sum())


@pytest.mark.parametrize("name, queries", [("sphere", 1), ("star2d", 2)])
def test_one_incidence_query_unless_a_radius_inflates(name, queries,
                                                      monkeypatch):
    # Sphere sets miss no node under the initial radii, star sets do; the
    # membership query is repeated only after an inflation, and the cover
    # is the one a repeated query gives.
    problem, nodes, h, centers = default_cover_parts(name, 2000, 9)
    delta = default_config(name).delta
    want = two_query_cover(centers, nodes, delta, problem.surface, h)
    assert (want[-1] > 0) == (queries == 2)
    calls = []
    real = cover.strict_pairs

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(cover, "strict_pairs", counted)
    cov = cover.assign_radii_and_inflate(centers, nodes, delta,
                                         problem.surface, h)
    assert len(calls) == queries
    got = (cov.centers, cov.radii, cov.member_index, cov.offsets)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", ["star2d", "sphere"])
def test_cover_checks_query_points_on_its_surface(name):
    # Nodes moved 1e-6 off the plane, or scaled by 1.001 off the sphere,
    # used to pass ``covers`` and ``weights_at``; ``covered_mask`` refused
    # them.
    problem, nodes, h, centers = default_cover_parts(name, 600, 9)
    cov = cover.assign_radii_and_inflate(
        centers, nodes, default_config(name).delta, problem.surface, h)
    assert cov.surface is problem.surface
    off = cov.nodes[:5].copy()
    if name == "star2d":
        off[:, 2] = 1e-6
    else:
        off *= 1.001
    assert cov.covers(cov.nodes[:5]).all()
    assert len(cover.weights_at(cov, cov.nodes[0]).indices)
    with pytest.raises(ValueError, match="off the"):
        cov.covers(off)
    with pytest.raises(ValueError, match="off the"):
        cover.weights_at(cov, off[0])


def test_cover_checks_its_nodes():
    nodes = np.array([[0.1, 0.0, 0.0], [0.9, 0.0, 1e-6]])
    with pytest.raises(ValueError, match="off the plane"):
        cover.Cover(centers=np.array([[0.0, 0.0, 0.0]]),
                    radii=np.array([2.0]), members=[np.arange(2)],
                    nodes=nodes, surface=geometry.plane2d())


def test_coincident_centers_rejected():
    # A copy of center 0 used to keep both patches.  Their glue point sat
    # on the shared center, so the glue weights were 0/0 and every shift,
    # potential and field value came out NaN.
    problem, nodes, h, centers = default_cover_parts("star2d", 600, 9)
    twice = np.concatenate([centers, centers[:1]])
    with pytest.raises(ConfigError,
                       match=r"patches 0 and \d+ have the same center"):
        cover.assign_radii_and_inflate(twice, nodes, 0.5, problem.surface, h)


def test_weights_take_exactly_one_point():
    # Two overlapping disks: a batch of points would mix their Shepard
    # quotients into one normalization, so only a single point is accepted.
    cov = cover.Cover(centers=np.array([[0.0, 0.0], [1.0, 0.0]]),
                      radii=np.array([0.8, 0.8]),
                      members=[np.array([0]), np.array([1])],
                      nodes=np.array([[0.0, 0.0], [1.0, 0.0]]),
                      surface=geometry.euclidean(2))
    for pts in ([[0.1, 0.0], [0.5, 0.0]], np.zeros((0, 2))):
        with pytest.raises(ValueError, match="one point"):
            cover.weights_at(cov, np.array(pts))
    one = cover.weights_at(cov, np.array([[0.5, 0.0]]))
    flat = cover.weights_at(cov, np.array([0.5, 0.0]))
    assert one.indices.tolist() == flat.indices.tolist() == [0, 1]
    assert np.array_equal(one.weights, flat.weights)
    assert one.weights.sum() == pytest.approx(1.0, abs=1e-15)


def test_one_stability_proxy_over_refinement():
    # max ||grad w|| * rho stays bounded as the cover refines
    worst = 0.0
    for n in (500, 1000, 2000):
        nodes = testbed.nodes_star(n, seed=77)
        h = cover.spacing_from_q(8.0, 6.0, n, 2)
        centers = cover.centers_plane(testbed.STAR_BBOX, testbed.inside_star,
                                      h)
        cov = cover.assign_radii_and_inflate(centers, nodes, 0.5,
                                             geometry.euclidean(2), h)
        rng = np.random.default_rng(n)
        pts = nodes[rng.choice(len(nodes), 300, replace=False)]
        for x in pts:
            w = cover.weights_at(cov, x)
            mags = np.sqrt((w.gradients**2).sum(-1))
            worst = max(worst, (mags * cov.radii[w.indices]).max())
    assert worst < 50.0


def test_mean_members_stable_under_doubling():
    means = []
    for n in (2000, 4000):
        nodes = testbed.nodes_star(n, seed=5)
        h = cover.spacing_from_q(8.0, 6.0, n, 2)
        centers = cover.centers_plane(testbed.STAR_BBOX, testbed.inside_star,
                                      h)
        cov = cover.assign_radii_and_inflate(centers, nodes, 0.5,
                                             geometry.euclidean(2), h)
        means.append(cov.member_counts().mean())
    assert abs(means[1] - means[0]) / means[0] < 0.25

