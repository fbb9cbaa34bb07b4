"""Blending shifted local potentials into global potential and field.

The global potential is the Shepard blend of the shifted local potentials.
The global field is its exact surface derivative, which splits into the
weighted blend of local fields plus a correction that multiplies each
shifted potential by the derivative of its weight:

    field = sum_l w_l s_l + sum_l (psi_l + b_l) D(w_l),

with D the surface curl (div-free), surface gradient (curl-free on a
surface), or plain gradient (flat space).  The naive blend (first term
alone) is kept for comparison; it interpolates but is not conservative.

Every batch, of one point or of thousands, takes the same path.  One
point-patch incidence query (``Cover.incidence``) yields the pairs with the
point strictly inside the patch, the same pairs that decide patch
membership and coverage.  One call of ``FitTable.pair_sums`` evaluates the
local fits on all the pairs: a ``bincount`` sums each pair's field terms in
node order from 0.0 and a ``reduceat`` segment led by an explicit 0.0 sums
its potential terms, which are the sums a dense evaluation of that one fit
forms, bit for bit.  The pair terms are then scattered onto the points in
ascending patch order.  A point's result therefore does not depend on the
batch around it: pointwise, batched and threaded results are bit-identical.
The local fields are blended unprojected and the surface operator, which is
linear and depends only on the point, is applied once per point.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import cover as cover_mod
from . import geometry
from . import glue as glue_mod
from .errors import CoverageError
from .localfit import FitTable, check_samples, fit_table


@dataclass(frozen=True)
class PumApproximant:
    """An assembled partition-of-unity approximant (immutable).

    ``fits`` is the ``FitTable`` of the cover's patches; its mode and
    surface are the approximant's.
    """

    cover: object
    fits: FitTable
    shifts: object

    def __post_init__(self):
        n_patch = len(self.cover)
        if not (len(self.fits) == n_patch == len(self.shifts.shifts)):
            raise ValueError("cover, fits, and shifts disagree on the "
                             "number of patches")

    @property
    def surface(self):
        return self.fits.surface

    @property
    def mode(self):
        return self.fits.mode

    def _accumulate(self, points):
        """Per-point sums of kappa, grad kappa, kappa*raw field,
        kappa*shifted potential and shifted potential*grad kappa."""
        m = len(points)
        inc = self.cover.incidence(points)
        k, grad_k = cover_mod.shepard_terms(self.cover, inc)
        pot, raw = self.fits.pair_sums(points[inc.point], inc.patch)
        shifted = pot + self.shifts.shifts[inc.patch]

        def scatter(terms):
            # bincount adds in pair order, which is ascending patch order
            # for every point, so a point's sums do not depend on the batch.
            if terms.ndim == 1:
                return np.bincount(inc.point, terms, minlength=m)
            return np.stack([np.bincount(inc.point, col, minlength=m)
                             for col in terms.T], axis=1)

        return (scatter(k), scatter(grad_k), scatter(k[:, None] * raw),
                scatter(k * shifted), scatter(shifted[:, None] * grad_k))

    def batch_eval_all(self, points, workers=1):
        """(potential, field, naive_field) at covered points.

        ``workers`` > 1 splits the points across threads; per-point results
        are independent, so the output is identical to the serial path and
        keeps the input ordering.  Raises ValueError for ``workers`` < 1
        and for points that fail ``Surface.check``, and CoverageError
        listing the indices of uncovered points.
        """
        if workers < 1:
            raise ValueError("workers must be at least 1")
        points = self.surface.check(points)
        # Blocks bound the pair arrays of one incidence query; with threads,
        # every worker gets the same number of blocks.  No points make one
        # empty block.
        n_blocks = -(-len(points) // cover_mod.QUERY_BLOCK)
        n_blocks = -(-n_blocks // workers) * workers
        blocks = np.array_split(points, max(1, min(n_blocks, len(points))))
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                parts = list(pool.map(self._accumulate, blocks))
        else:
            parts = [self._accumulate(block) for block in blocks]
        sum_k, sum_gk, sum_ks, sum_kp, sum_pgk = [
            np.concatenate([p[k] for p in parts]) for k in range(5)]
        bad = np.nonzero(sum_k == 0.0)[0]
        if len(bad):
            raise CoverageError(
                f"{len(bad)} evaluation points lie outside every patch",
                indices=bad)
        pot = sum_kp / sum_k
        blend = sum_ks / sum_k[:, None]
        # sum_l psi~_l grad(w_l) via the quotient rule on the Shepard weights
        grad = (sum_pgk / sum_k[:, None] -
                (sum_kp / (sum_k * sum_k))[:, None] * sum_gk)
        # The surface operator is linear and depends only on the point, so
        # it is applied once to the blended sums rather than per patch.
        naive = geometry.tangent_operator(self.mode, self.surface, points,
                                          blend)
        field = geometry.tangent_operator(self.mode, self.surface, points,
                                          blend + grad)
        return pot, field, naive

    def batch_eval(self, points, workers=1):
        """(potentials, fields) at covered points, vectorized."""
        pot, field, _ = self.batch_eval_all(points, workers=workers)
        return pot, field

    def covered_mask(self, points):
        """Which points lie in some patch, after ``Surface.check``."""
        return self.cover.covers(self.surface.check(points))


def build_approximant(cover, kernel, surface, mode, values, gamma=4.0):
    """Fit every patch, glue the potentials, and return the approximant.

    ``values`` are the field samples at ``cover.nodes``, checked once.
    Patches are fit serially, straight into one ``FitTable`` that reads
    their nodes through the cover's member index; threads are used for
    batch evaluation only.
    """
    # glibc serves blocks above its mmap threshold (128 KiB at start) with
    # fresh mmaps, so every patch system would fault in new pages.  Freeing
    # one mmapped block raises the threshold to that block's size and the
    # heap trim threshold to twice it (mallopt(3), M_MMAP_THRESHOLD), after
    # which the per-patch systems reuse heap pages.  The block is dropped at
    # once and never touched.
    np.empty(16 << 20, dtype=np.uint8)
    nodes, values = check_samples(cover.nodes, values, surface, mode)
    fits = fit_table(nodes, values, cover.member_index, cover.member_counts(),
                     kernel, surface, mode)
    graph = glue_mod.build_glue_graph(cover, surface)
    p, c = glue_mod.build_shift_system(graph, fits)
    solution = glue_mod.solve_shifts(p, c, graph, gamma=gamma)
    approx = PumApproximant(cover=cover, fits=fits, shifts=solution)
    return approx, graph, solution
