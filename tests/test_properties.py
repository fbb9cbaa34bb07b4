"""Property tests of the point-patch incidence and of the blend, over
drawn inputs.

Hypothesis runs derandomized, so every run draws the same examples.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vecpum import testbed
from vecpum.experiment import default_config, fit_and_glue
from vecpum.pum import build_approximant

PROBLEMS = ["star2d", "sphere", "ball"]
EVAL_N = 600
DRAWS = settings(max_examples=25, deadline=None, derandomize=True)


@pytest.fixture(scope="module")
def built():
    """Per problem: a small approximant and covered evaluation points."""
    out = {}
    for name in PROBLEMS:
        problem = testbed.PROBLEMS[name]()
        nodes = problem.nodes(1500, np.random.SeedSequence(31))
        approx, _ = fit_and_glue(problem, nodes, problem.field(nodes),
                                 default_config(name))
        pts = problem.nodes(EVAL_N, np.random.SeedSequence(32))
        pts = pts[approx.covered_mask(pts)]
        out[name] = approx, pts, approx.batch_eval_all(pts)
    return out


@pytest.mark.parametrize("name", PROBLEMS)
@DRAWS
@given(data=st.data())
def test_subset_matches_batch_bitwise(built, name, data):
    approx, pts, whole = built[name]
    rows = data.draw(st.lists(st.integers(0, len(pts) - 1), min_size=1,
                              max_size=70, unique=True))
    part = approx.batch_eval_all(pts[rows])
    for got, full in zip(part, whole):
        assert np.array_equal(got, full[rows])


def brute_force_covers(cover, points):
    mask = np.zeros(len(points), dtype=bool)
    for c, rho in zip(cover.centers, cover.radii):
        diff = points - c
        mask |= np.sqrt((diff * diff).sum(-1)) < rho
    return mask


@pytest.mark.parametrize("name", PROBLEMS)
@DRAWS
@given(data=st.data())
def test_covers_matches_brute_force(built, name, data):
    cover = built[name][0].cover
    dim = 2 if name == "star2d" else 3
    n = data.draw(st.integers(1, 40))
    patch = np.array(data.draw(st.lists(st.integers(0, len(cover) - 1),
                                        min_size=n, max_size=n)))
    # On the boundary to 1e-12 either way, or anywhere out to 1.5 radii.
    scale = np.array(data.draw(st.lists(
        st.one_of(st.sampled_from([1.0 - 1e-12, 1.0 + 1e-12]),
                  st.floats(0.0, 1.5)), min_size=n, max_size=n)))
    seed = data.draw(st.integers(0, 2**32 - 1))
    direction = np.zeros((n, 3))
    direction[:, :dim] = np.random.default_rng(seed).normal(size=(n, dim))
    direction /= np.sqrt((direction * direction).sum(-1))[:, None]
    reach = scale * cover.radii[patch]
    points = cover.centers[patch] + reach[:, None] * direction
    if name == "sphere":
        # Points off the sphere are rejected, so turn the center along a
        # tangent direction by the angle whose chord is the reach.
        center = cover.centers[patch]
        tangent = direction - (direction * center).sum(-1)[:, None] * center
        tangent /= np.sqrt((tangent * tangent).sum(-1))[:, None]
        angle = 2.0 * np.arcsin(np.minimum(1.0, reach / 2.0))[:, None]
        points = np.cos(angle) * center + np.sin(angle) * tangent
    assert np.array_equal(cover.covers(points),
                          brute_force_covers(cover, points))


@pytest.mark.parametrize("name", PROBLEMS)
def test_members_are_the_nodes_strictly_inside(built, name):
    cover = built[name][0].cover
    for center, rho, idx in zip(cover.centers, cover.radii, cover.members):
        dist = np.sqrt(((cover.nodes - center) ** 2).sum(-1))
        assert np.array_equal(idx, np.flatnonzero(dist < rho))


@pytest.mark.parametrize("name", PROBLEMS)
@settings(max_examples=3, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_blend_does_not_depend_on_node_order(built, name, seed):
    # Measured worst deviations over 3 permutations: 4.5e-13 (field) and
    # 9.9e-14 (potential) on the sphere (Matern), 1.7e-15 and 5.0e-16 on
    # the star, 2.6e-15 and 8.0e-16 in the ball, relative to the larger
    # side.
    approx, pts, (pot1, field1, _) = built[name]
    problem = testbed.PROBLEMS[name]()
    perm = np.random.default_rng(seed).permutation(len(approx.cover.nodes))
    nodes = approx.cover.nodes[perm]
    shuffled, _ = fit_and_glue(problem, nodes, problem.field(nodes),
                               default_config(name))
    cover, again = approx.cover, shuffled.cover
    assert np.array_equal(again.centers, cover.centers)
    assert np.array_equal(again.radii, cover.radii)
    for idx, moved in zip(cover.members, again.members):
        assert np.array_equal(np.sort(perm[moved]), idx)
    pot, field = shuffled.batch_eval(pts)
    sides = [(field, field1), (pot - pot.mean(), pot1 - pot1.mean())]
    for got, want in sides:
        scale = max(max_norm(got), max_norm(want))
        assert max_norm(got - want) <= 1e-9 * scale


def rotation(name, seed):
    """A random rotation of R^3; about the z axis for the star."""
    rng = np.random.default_rng(seed)
    if name == "star2d":
        a = rng.uniform(0.0, 2.0 * np.pi)
        return np.array([[np.cos(a), -np.sin(a), 0.0],
                         [np.sin(a), np.cos(a), 0.0],
                         [0.0, 0.0, 1.0]])
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0.0 else -q


@pytest.mark.parametrize("name", PROBLEMS)
@settings(max_examples=3, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_blend_is_rotation_equivariant(built, name, seed):
    # Nodes, values and patch centers rotated by R give the blend at R x:
    # R times the field at x, and the same potential.  The rotated sphere
    # build solves in other tangent frames, so this also tests that the
    # blend does not depend on the frames.  Measured worst deviations over
    # rotation seeds 0-2: 3.0e-13 (field) and 8.0e-14 (potential) on the
    # sphere (Matern), 2.2e-15 and 8.2e-16 on the star, 2.4e-15 and 2.3e-15
    # in the ball, relative to the larger side.
    approx, pts, (pot1, field1, _) = built[name]
    problem = testbed.PROBLEMS[name]()
    rot = rotation(name, seed)
    turned = dataclasses.replace(
        problem, make_centers=lambda h: problem.make_centers(h) @ rot.T)
    nodes = approx.cover.nodes
    rotated, _ = fit_and_glue(turned, nodes @ rot.T,
                              problem.field(nodes) @ rot.T,
                              default_config(name))
    assert len(rotated.cover) == len(approx.cover)
    for idx, again in zip(approx.cover.members, rotated.cover.members):
        assert np.array_equal(again, idx)
    pot, field = rotated.batch_eval(pts @ rot.T)
    sides = [(field, field1 @ rot.T), (pot - pot.mean(), pot1 - pot1.mean())]
    for got, want in sides:
        scale = max(max_norm(got), max_norm(want))
        assert max_norm(got - want) <= 1e-9 * scale


def second_field(approx, rng):
    """cos(x M) at the nodes for a random M, made to fit the mode: tangent
    on the sphere, z = 0 on the plane."""
    nodes = approx.cover.nodes
    v = np.cos(nodes @ rng.normal(size=(3, 3)))
    if approx.surface.kind == "sphere":
        return v - nodes * (nodes * v).sum(-1)[:, None]
    if approx.surface.kind == "plane":
        v[:, 2] = 0.0
    return v


def blend(approx, values, pts):
    """(potential, field) at pts of the blend of values on approx's cover."""
    fit = build_approximant(approx.cover, approx.fits.kernel, approx.mode,
                            values)
    return fit.batch_eval(pts)


@pytest.fixture(scope="module")
def two_fields(built):
    """Per problem: the two sampled fields and their blends."""
    rng = np.random.default_rng(71)
    out = {}
    for name in PROBLEMS:
        approx, pts, (pot1, field1, _) = built[name]
        v1 = testbed.PROBLEMS[name]().field(approx.cover.nodes)
        v2 = second_field(approx, rng)
        out[name] = v1, v2, (pot1, field1), blend(approx, v2, pts)
    return out


def max_norm(v):
    """Largest pointwise magnitude of a field, or largest |value|."""
    mag = np.abs(v) if v.ndim == 1 else np.sqrt((v * v).sum(-1))
    return float(mag.max())


COEF = st.builds(lambda sign, power: sign * 10.0 ** power,
                 st.sampled_from([-1.0, 1.0]), st.floats(-3.0, 3.0))


@pytest.mark.parametrize("name", PROBLEMS)
@settings(max_examples=3, deadline=None, derandomize=True)
@example(a=2.0, b=-0.5)
@example(a=1e3, b=1e-3)
@example(a=-1.0, b=1.0)
@given(a=COEF, b=COEF)
def test_blend_is_linear_in_the_values(built, two_fields, name, a, b):
    # Measured worst deviations: 5.2e-11 (sphere, Matern), 3.0e-15 (star)
    # and 1.2e-14 (ball), relative to the larger side.
    approx, pts, _ = built[name]
    v1, v2, (pot1, field1), (pot2, field2) = two_fields[name]
    pot, field = blend(approx, a * v1 + b * v2, pts)
    sides = [(field, a * field1 + b * field2),
             (pot - pot.mean(), a * (pot1 - pot1.mean()) +
              b * (pot2 - pot2.mean()))]
    for got, want in sides:
        scale = max(max_norm(got), max_norm(want))
        assert max_norm(got - want) <= 1e-9 * scale
