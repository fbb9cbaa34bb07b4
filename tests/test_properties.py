"""Property tests of the point-patch incidence, over drawn inputs.

Hypothesis runs derandomized, so every run draws the same examples.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vecpum import testbed
from vecpum.experiment import default_config, fit_and_glue

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
    points = (cover.centers[patch] +
              (scale * cover.radii[patch])[:, None] * direction)
    assert np.array_equal(cover.covers(points),
                          brute_force_covers(cover, points))
