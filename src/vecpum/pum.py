"""Blending shifted local potentials into global potential and field.

The global potential is the Shepard blend of the shifted local potentials.
The global field is its exact surface derivative, which splits into the
weighted blend of local fields plus a correction that multiplies each
shifted potential by the derivative of its weight:

    field = sum_l w_l s_l + sum_l (psi_l + b_l) D(w_l),

with D the surface curl (div-free), surface gradient (curl-free on a
surface), or plain gradient (flat space).  The naive blend (first term
alone) is kept for comparison; it interpolates but is not conservative.
An approximant is its fit table and shifts; its cover and mode are the
table's, and its surface is the cover's.

Every batch, of one point or of thousands, takes the same path.  One
point-patch incidence query (``Cover.incidence``) yields the pairs with the
point strictly inside the patch, the same pairs that decide patch
membership and coverage.  One call of ``FitTable.pair_sums`` evaluates the
local fits on all the pairs: a ``bincount`` sums each pair's field terms in
node order from 0.0 and a ``reduceat`` segment led by an explicit 0.0 sums
its potential terms, which are the sums a dense evaluation of that one fit
forms, bit for bit.  The 2 + 3d blend terms of the pairs are then summed
onto the points, in ascending patch order, by one more ``bincount``
(``localfit.bin_rows``).  A point's result therefore does not depend on the
batch around it: pointwise, batched and threaded results are bit-identical.
The local fields are blended unprojected and the surface operator, which is
linear and depends only on the point, is applied once per point.
"""

from dataclasses import dataclass

import numpy as np

from . import cover as cover_mod
from . import geometry
from . import glue as glue_mod
from .errors import CoverageError
from .localfit import (FitTable, bin_rows, check_samples, fit_table,
                       map_in_order)


@dataclass(frozen=True)
class PumApproximant:
    """An assembled partition-of-unity approximant (immutable).

    ``fits`` is the ``FitTable`` of a cover's patches; its cover and mode,
    and the cover's surface, are the approximant's, so they always agree.
    """

    fits: FitTable
    shifts: object

    def __post_init__(self):
        if len(self.fits) != len(self.shifts.shifts):
            raise ValueError("fits and shifts disagree on the number of "
                             "patches")

    @property
    def cover(self):
        return self.fits.cover

    @property
    def surface(self):
        return self.cover.surface

    @property
    def mode(self):
        return self.fits.mode

    def _accumulate(self, points):
        """Per-point sums, one row per point, of kappa, grad kappa,
        kappa*raw field, kappa*shifted potential and shifted
        potential*grad kappa: 2 + 3d columns."""
        m, d = points.shape
        inc = self.cover.incidence(points)
        k, grad_k = cover_mod.shepard_terms(self.cover, inc)
        pot, raw = self.fits.pair_sums(points[inc.point], inc.patch)
        shifted = pot + self.shifts.shifts[inc.patch]
        terms = np.empty((2 + 3 * d, len(k)))
        terms[0] = k
        terms[1:1 + d] = grad_k.T
        np.multiply(k, raw.T, out=terms[1 + d:1 + 2 * d])
        np.multiply(k, shifted, out=terms[1 + 2 * d])
        np.multiply(shifted, grad_k.T, out=terms[2 + 2 * d:])
        # The sums add in pair order, which is ascending patch order for
        # every point, so a point's sums do not depend on the batch.
        return bin_rows(inc.point, terms, m)

    def batch_eval_all(self, points, workers=1):
        """(potential, field, naive_field) at covered points.

        Point blocks run on ``min(workers, blocks)`` threads while the
        caller waits (``localfit.map_in_order``); per-point results are
        independent, so the output is the serial one, in input order.
        Raises ValueError for ``workers`` < 1 and for points that fail
        ``Surface.check``, and CoverageError listing the indices of
        uncovered points.
        """
        points = self.surface.check(points)
        # Blocks bound the pair arrays of one incidence query.  With more
        # blocks than workers, the count rounds up so that every worker
        # gets as many; with fewer, each block gets a thread of its own.
        # No points make one empty block.
        n_blocks = -(-len(points) // cover_mod.QUERY_BLOCK)
        if 1 < workers < n_blocks:
            n_blocks = -(-n_blocks // workers) * workers
        blocks = np.array_split(points, max(1, min(n_blocks, len(points))))
        sums = np.concatenate(map_in_order(self._accumulate, blocks, workers))
        d = points.shape[1]
        sum_k, sum_kp = sums[:, 0], sums[:, 1 + 2 * d]
        sum_gk, sum_ks, sum_pgk = (sums[:, 1:1 + d], sums[:, 1 + d:1 + 2 * d],
                                   sums[:, 2 + 2 * d:])
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
        """Which points lie in some patch (``Cover.covers``)."""
        return self.cover.covers(points)


def build_approximant(cover, kernel, mode, values, gamma=4.0, workers=1):
    """Fit every patch, glue the potentials, and return the approximant.

    ``values`` are the field samples at ``cover.nodes``, checked once.
    Patches are fit straight into one ``FitTable`` that reads their nodes
    through the cover (``localfit.fit_table``), on ``min(workers, patches)``
    threads while the caller waits.  Every patch factorization runs at one
    BLAS thread (``localfit._solve_spd``), so the fits' bits depend neither
    on ``workers`` nor on the host's core count.  The shifts are solved by
    a sparse LU (``glue.solve_shifts``) at the caller's BLAS thread count,
    and are the approximant's ``shifts``; its glue graph is
    ``glue.build_glue_graph(approx.cover)``.
    """
    # glibc serves blocks above its mmap threshold (128 KiB at start) with
    # fresh mmaps, so every patch system would fault in new pages.  Freeing
    # one mmapped block raises the threshold to that block's size and the
    # heap trim threshold to twice it (mallopt(3), M_MMAP_THRESHOLD), after
    # which the per-patch systems reuse heap pages.  The block is dropped at
    # once and never touched.  The raised trim threshold (32 MiB) holds for
    # the malloc arenas of the fit and evaluation threads too, so each
    # keeps up to that much freed memory instead of returning it.
    np.empty(16 << 20, dtype=np.uint8)
    _, values = check_samples(cover.nodes, values, cover.surface, mode)
    fits = fit_table(cover, values, kernel, mode, workers=workers)
    graph = glue_mod.build_glue_graph(cover)
    p, c = glue_mod.build_shift_system(graph, fits)
    solution = glue_mod.solve_shifts(p, c, graph, gamma=gamma)
    return PumApproximant(fits=fits, shifts=solution)
