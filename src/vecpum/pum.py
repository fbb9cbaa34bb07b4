"""Blending shifted local potentials into global potential and field.

The global potential is the Shepard blend of the shifted local potentials.
The global field is its exact surface derivative, which splits into the
weighted blend of local fields plus a correction that multiplies each
shifted potential by the derivative of its weight:

    field = sum_l w_l s_l + sum_l (psi_l + b_l) D(w_l),

with D the surface curl (div-free), surface gradient (curl-free on a
surface), or plain gradient (flat space).  The naive blend (first term
alone) is kept for comparison; it interpolates but is not conservative.

Single-point evaluation delegates to the batch path on a one-row array, so
pointwise and batched results are bit-identical (all reductions are
pairwise sums over the same per-point rows, accumulated in patch order).
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from . import cover as cover_mod
from . import geometry
from . import glue as glue_mod
from .errors import CoverageError
from .localfit import SampleSet, fit_patch

_TREE_THRESHOLD = 64


@dataclass
class PumApproximant:
    """An assembled partition-of-unity approximant (immutable after build)."""

    cover: object
    fits: list
    shifts: object
    surface: geometry.Surface
    mode: str

    def __post_init__(self):
        n_patch = len(self.cover)
        if not (len(self.fits) == n_patch == len(self.shifts.shifts)):
            raise ValueError("cover, fits, and shifts disagree on the "
                             "number of patches")

    def _check_on_surface(self, points):
        if self.surface.kind == "sphere":
            norms = np.sqrt((points * points).sum(-1))
            if np.any(np.abs(norms - 1.0) > geometry.SPHERE_NORM_TOL):
                raise ValueError("evaluation points must lie on the unit "
                                 "sphere")
        elif self.surface.kind == "plane":
            if np.any(np.abs(points[:, 2]) > geometry.SPHERE_NORM_TOL):
                raise ValueError("plane evaluation points must have z = 0")

    def _accumulate(self, points):
        m, dim = points.shape
        sum_k = np.zeros(m)
        sum_gk = np.zeros((m, dim))
        sum_ks = np.zeros((m, dim))
        sum_kp = np.zeros(m)
        sum_pgk = np.zeros((m, dim))
        tree = cKDTree(points) if m > _TREE_THRESHOLD else None
        shifts = self.shifts.shifts
        for l, patch in enumerate(self.cover.patches):
            if tree is not None:
                cand = np.asarray(
                    sorted(tree.query_ball_point(patch.center, patch.radius)),
                    dtype=int)
                if len(cand) == 0:
                    continue
            else:
                cand = np.arange(m)
            diff = points[cand] - patch.center
            dist = np.sqrt((diff * diff).sum(-1))
            sel = dist < patch.radius
            if not sel.any():
                continue
            idx = cand[sel]
            u = dist[sel] / patch.radius
            k = cover_mod.kappa(u)
            grad_k = (cover_mod._kappa_prime_over_r(u) /
                      patch.radius**2)[:, None] * diff[sel]
            pot, fld = self.fits[l].field_potential_at(points[idx])
            shifted = pot + shifts[l]
            sum_k[idx] += k
            sum_gk[idx] += grad_k
            sum_ks[idx] += k[:, None] * fld
            sum_kp[idx] += k * shifted
            sum_pgk[idx] += shifted[:, None] * grad_k
        return sum_k, sum_gk, sum_ks, sum_kp, sum_pgk

    def _apply_operator(self, points, grad):
        if self.mode == "div_surface":
            return np.cross(self.surface.normals(points), grad)
        if self.mode == "curl_surface":
            normals = self.surface.normals(points)
            return grad - normals * (normals * grad).sum(-1)[:, None]
        return grad

    def batch_eval_all(self, points, workers=1):
        """(potential, field, naive_field) at covered points.

        ``workers`` > 1 splits the points across threads; per-point results
        are independent, so the output is identical to the serial path and
        keeps the input ordering.  Raises CoverageError listing the indices
        of uncovered points.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[0] == 0:
            dim = self.cover.centers.shape[1]
            return np.zeros(0), np.zeros((0, dim)), np.zeros((0, dim))
        self._check_on_surface(points)
        if workers > 1 and len(points) > 2 * _TREE_THRESHOLD:
            chunks = np.array_split(np.arange(len(points)),
                                    min(workers * 4, len(points)))
            with ThreadPoolExecutor(max_workers=workers) as pool:
                parts = list(pool.map(
                    lambda idx: self._accumulate(points[idx]), chunks))
            sums = [np.concatenate([p[k] for p in parts]) for k in range(5)]
            sum_k, sum_gk, sum_ks, sum_kp, sum_pgk = sums
        else:
            sum_k, sum_gk, sum_ks, sum_kp, sum_pgk = \
                self._accumulate(points)
        bad = np.nonzero(sum_k == 0.0)[0]
        if len(bad):
            raise CoverageError(
                f"{len(bad)} evaluation points lie outside every patch",
                indices=bad)
        pot = sum_kp / sum_k
        naive = sum_ks / sum_k[:, None]
        # sum_l psi~_l grad(w_l) via the quotient rule on the Shepard weights
        grad = (sum_pgk / sum_k[:, None] -
                (sum_kp / (sum_k * sum_k))[:, None] * sum_gk)
        field = naive + self._apply_operator(points, grad)
        return pot, field, naive

    def batch_eval(self, points, workers=1):
        """(potentials, fields) at covered points, vectorized."""
        pot, field, _ = self.batch_eval_all(points, workers=workers)
        return pot, field

    def covered_mask(self, points):
        return self.cover.covers(points)

    def eval_potential(self, x):
        """Blended potential at one covered point."""
        pot, _, _ = self.batch_eval_all(np.asarray(x, dtype=float)[None, :])
        return float(pot[0])

    def eval_field(self, x):
        """Conservative blended field at one covered point."""
        _, field, _ = self.batch_eval_all(np.asarray(x, dtype=float)[None, :])
        return field[0]

    def eval_field_naive(self, x):
        """Weighted blend of the local fields, no correction term."""
        _, _, naive = self.batch_eval_all(np.asarray(x, dtype=float)[None, :])
        return naive[0]


def build_approximant(cover, kernel, surface, mode, values, gamma=4.0):
    """Fit every patch, glue the potentials, and return the approximant.

    ``values`` are the field samples at ``cover.nodes``.  Patches are fit
    serially; threads are used for batch evaluation only.
    """
    fits = [fit_patch(SampleSet(cover.nodes[patch.members],
                                values[patch.members]),
                      kernel, surface, mode, patch_id=l)
            for l, patch in enumerate(cover.patches)]
    graph = glue_mod.build_glue_graph(cover, surface)
    p, c = glue_mod.build_shift_system(graph, fits)
    solution = glue_mod.solve_shifts(p, c, graph, gamma=gamma)
    approx = PumApproximant(cover=cover, fits=fits, shifts=solution,
                            surface=surface, mode=mode)
    return approx, graph, solution
