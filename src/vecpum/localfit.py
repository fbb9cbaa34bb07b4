"""Per-patch div/curl-free kernel interpolation: assembly, solve, evaluation.

Every mode's system has one form: for the scalar-kernel Hessian
H = F*I + S*rr^T, block (i, j) is sign * L_i H R_j^T with L_i = B_i O_i and
R_j = B_j O_j^T, for frame rows B_i (the tangent frame [d_i e_i] on a
surface, the identity in flat R^d) and the mode's operator O: Q v = n x v
(div-free, sign +1), P = I - nn^T (curl-free on a surface) or I (flat,
both sign -1).  The systems are symmetric positive definite for the shipped
kernels, and the assembled matrices are exactly symmetric: flat blocks are
written so, surface ones symmetrized.  Each is factored in place on one
Fortran-ordered copy; Cholesky failures surface as PatchFitError, never
regularized.  ``_solve_spd``, the package's one dense SPD solve, serves
the patch fits alone.  It calls scipy's own LAPACK ``dpotrf`` through
ctypes, which releases the GIL, at one OpenBLAS thread: its bits depend
on no thread or core count.

``fit_table`` solves every patch of a cover (``fit_patch`` solves one),
above one worker on ``min(workers, patches)`` threads while the caller
waits (``map_in_order``).  It writes them straight into one ``FitTable``:
the eval vectors of all patches in one (d, T) table, patch after patch
with no padding, laid out as the cover's CSR membership, through which
the table reads its node coordinates.  The
table's pair kernel ``pair_sums`` is the one evaluator: it forms each
(point, patch) pair's node terms in chunks of at most ``PAIR_CHUNK`` terms
and sums them without BLAS.  A chunk's field sums, every pair and
component, are one ``bincount`` (``bin_rows``), which adds in term order
from 0.0; potential sums are ``reduceat`` segments led by an explicit 0.0,
which reproduce numpy's pairwise row sum.  These are the sums a dense
evaluation of one fit at a batch of points forms, so a pair's bits depend
only on its own terms: a point evaluated alone is bit-identical to the
same point inside a batch, whatever the chunking.  Chunks are long so that
threads evaluating point blocks spend most of their time in numpy loops
that run without the GIL.
"""

import ctypes
import threading
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack
from scipy.spatial import cKDTree

from . import geometry
from .cover import Cover, coincident_pair
from .errors import GlobalFitSizeError, PatchFitError
from .kernels import RadialKernel

GLOBAL_FIT_GUARD = 5000
TANGENCY_TOL = 1e-10
_ASSEMBLY_BLOCK = 256
# Node terms per chunk of pair evaluation, which bounds its working set:
# about 4 MB per evaluating thread in R^3.  A chunk makes a few dozen numpy
# calls, each holding the GIL between its loops, so threads evaluating
# point blocks overlap only as far as those loops are long: at 8,192 terms
# two threads were no faster than one, at 32,768 about 1.7 times as fast.
PAIR_CHUNK = 32768


def check_samples(nodes, values, surface, mode):
    """The samples as float arrays; ValueError unless the mode is one of
    ``surface.modes``, the nodes pass ``surface.check``, and the samples
    are a non-empty, finite, same-shaped set of distinct nodes whose values
    (surface modes) have no normal component above
    ``TANGENCY_TOL * max(1, max|v|)`` over the whole set."""
    if mode not in geometry.MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode not in surface.modes:
        raise ValueError(f"mode {mode!r} does not fit {surface.kind} "
                         f"geometry")
    nodes = surface.check(nodes)
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if nodes.size == 0:
        raise ValueError("sample set is empty")
    if nodes.shape != values.shape:
        raise ValueError("nodes and values must have matching shapes")
    if not np.isfinite(values).all():
        raise ValueError("sample values must be finite")
    if coincident_pair(cKDTree(nodes)) is not None:
        raise ValueError("sample nodes must be pairwise distinct")
    if mode != "curl_euclidean":
        scale = max(1.0, float(np.abs(values).max()))
        off = np.abs((surface.normals(nodes) * values).sum(-1)).max()
        if off > TANGENCY_TOL * scale:
            raise ValueError(
                f"sample values are not tangent to the surface "
                f"(max normal component {off:.3e})")
    return nodes, values


def _hessian_block(kernel, xi, xj):
    rvec = np.asarray(xi, dtype=float) - np.asarray(xj, dtype=float)
    f, s = kernel.hessian_coeffs(np.sqrt((rvec * rvec).sum()))
    return f * np.eye(len(rvec)) + s * np.outer(rvec, rvec)


def phi_div_block(kernel, surface, xi, xj):
    """The 3x3 div-free matrix kernel Q_xi (F I + S rr^T) Q_xj."""
    h = _hessian_block(kernel, xi, xj)
    qi = geometry.q_matrix(surface.normals(xi)[0])
    qj = geometry.q_matrix(surface.normals(xj)[0])
    return qi @ h @ qj


def phi_curl_block(kernel, surface, xi, xj):
    """The curl-free matrix kernel: -P H P on a surface, -H in flat R^d."""
    h = _hessian_block(kernel, xi, xj)
    if surface.kind == "euclidean":
        return -h
    pi = geometry.p_matrix(surface.normals(xi)[0])
    pj = geometry.p_matrix(surface.normals(xj)[0])
    return -(pi @ h @ pj)


def kernel_sign(mode):
    """+1 for the div-free kernel (``div_surface``), -1 for curl-free ones."""
    return 1.0 if mode == "div_surface" else -1.0


def _frames(mode, surface, nodes):
    """Frame rows (n, k, dim) at the nodes and the normals: the tangent
    frames [d_i e_i] on a surface, the identity and None in flat R^d."""
    if mode == "curl_euclidean":
        n, dim = nodes.shape
        return np.broadcast_to(np.eye(dim), (n, dim, dim)), None
    d, e, normals = surface.tangent_frames(nodes)
    return np.stack([d, e], axis=1), normals


def assemble_system(kernel, surface, nodes, mode, frames=None):
    """Dense interpolation matrix for the given mode, exactly symmetric.

    Flat systems are written symmetric, each off-diagonal entry of a block
    once to both of its places; surface systems are formed whole and
    symmetrized as ``0.5 * (a + a.T)``.  Either way the bits are those of
    the symmetrized whole matrix.
    """
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    rows, normals = _frames(mode, surface, nodes) if frames is None else frames
    sign = kernel_sign(mode)
    n, k, dim = rows.shape
    if normals is not None:
        # Row kj+q of R is n_j x b_jq under Q and b_jq under P; L is -R as Q
        # is skew, and R itself (so L R^T is R R^T) as P is symmetric.  As
        # L_ip.(x_i - x_j) = L_ip.x_i - L_ip.x_j, one product with the node
        # coordinates gives every frame contraction with the differences.
        right = (geometry.cross(normals[:, None, :], rows) if sign > 0
                 else rows).reshape(-1, dim)
        left = -right if sign > 0 else right
        node_rows = np.repeat(nodes, k, axis=0)
        r_x = right @ nodes.T
        r_self = (right * node_rows).sum(-1)
        l_self = (left * node_rows).sum(-1)
    a = np.empty((k * n, k * n))
    for i0 in range(0, n, _ASSEMBLY_BLOCK):
        i1 = min(i0 + _ASSEMBLY_BLOCK, n)
        dx = [nodes[i0:i1, None, c] - nodes[None, :, c] for c in range(dim)]
        r2 = dx[0] * dx[0]
        for c in range(1, dim):
            r2 += dx[c] * dx[c]
        f, s = kernel.hessian_coeffs(np.sqrt(r2))
        f *= sign
        s *= sign
        if normals is None:
            # L = R = I: the contractions are the differences themselves.
            # The (j, i) differences are exactly minus the (i, j) ones and
            # F, S are equal for both, so entry (p, q) of the symmetrized
            # block, 0.5 (S dx_p dx_q + S dx_q dx_p), is also its (q, p):
            # written once to both, and exactly (S dx_p dx_p + F) for p = q.
            sl = [s * dx[p] for p in range(k)]
            for p in range(k):
                out = a[k * i0 + p:k * i1 + p:k, p::k]
                np.multiply(sl[p], dx[p], out=out)
                out += f
                for q in range(p + 1, k):
                    blk = sl[p] * dx[q]
                    blk += sl[q] * dx[p]
                    blk *= 0.5
                    a[k * i0 + p:k * i1 + p:k, q::k] = blk
                    a[k * i0 + q:k * i1 + q:k, p::k] = blk
            continue
        lb = left[k * i0:k * i1]
        ld = l_self[k * i0:k * i1, None] - lb @ nodes.T
        rd = r_x[:, i0:i1].T - r_self
        lr = lb @ right.T
        for p in range(k):
            sl = s * ld[p::k]
            for q in range(k):
                out = a[k * i0 + p:k * i1 + p:k, q::k]
                np.multiply(sl, rd[:, q::k], out=out)
                out += f * lr[p::k, q::k]
    if normals is None:
        return a
    # Surface entries (j, i) come through other products and row sums than
    # (i, j), so they are not their bitwise mirror images.
    return 0.5 * (a + a.T)


def bin_rows(index, rows, n):
    """(n, k) sums of the rows of a (k, T) array by bin ``index`` (T,):
    entry (i, j) sums ``rows[j][index == i]``.  One ``bincount``, with row
    j of bin i at bin i + j n, adds each bin's terms in term order from
    0.0, as a ``bincount`` per row would."""
    k = len(rows)
    keyed = np.arange(k)[:, None] * n + index
    return np.bincount(keyed.ravel(), rows.ravel(),
                       minlength=k * n).reshape(k, n).T


@dataclass(frozen=True, eq=False)
class FitTable:
    """Solved expansions of the patches of ``cover``, patch after patch.

    Patch l owns the table columns ``cols = cover.offsets[l]:offsets[l + 1]``:
    its nodes are the rows ``cover.member_index[cols]`` of ``cover.nodes``
    and its eval vectors are ``eval_vectors[:, cols]``, Q_j c_j (div-free)
    or c_j (curl-free) for the expansion coefficients c_j.  ``table[l]`` is
    patch l's ``LocalFit`` view.  The arrays the table owns are read-only.
    """

    mode: str
    kernel: RadialKernel
    cover: Cover
    eval_vectors: np.ndarray
    fit_residual: np.ndarray

    def __post_init__(self):
        for owned in (self.eval_vectors, self.fit_residual):
            owned.flags.writeable = False

    def __len__(self):
        return len(self.fit_residual)

    @property
    def sign(self):
        """``kernel_sign`` of the mode."""
        return kernel_sign(self.mode)

    def __getitem__(self, l):
        return LocalFit(self, range(len(self))[l])

    def pair_sums(self, points, patch, with_field=True):
        """(potential, unprojected field) of fit ``patch[i]`` at
        ``points[i]``; the field is None unless ``with_field``.

        Pairs are taken in chunks of at most ``PAIR_CHUNK`` terms (a pair
        with more terms is a chunk of its own).  Every term is formed as in
        one fit's dense (points, nodes) evaluation: ``dx = x - node``,
        ``r = sqrt(sum dx_c^2)``, ``proj = sum dx_c ev_c``, the potential
        term ``F proj`` and the field term ``F ev_c + (S proj) dx_c``.  The
        field sums are ``bincount``s, which add in term order from 0.0 as
        the dense sum over nodes does.  Each potential sum is one
        ``reduceat`` segment led by an explicit 0.0, since ``reduceat``
        adds the first element to the pairwise sum of the rest and the
        dense row sum adds 0.0 to the pairwise sum of the whole row.  A
        pair's bits therefore depend on its own terms only, whatever pairs
        and chunks surround it.
        """
        points = np.asarray(points, dtype=float)
        patch = np.asarray(patch, dtype=np.intp)
        offsets = self.cover.offsets
        first = offsets[patch]
        count = offsets[patch + 1] - first
        ends = np.cumsum(count)
        pot = np.empty(len(patch))
        raw = np.empty(points.shape) if with_field else None
        lo = 0
        while lo < len(patch):
            cap = ends[lo] - count[lo] + PAIR_CHUNK
            hi = max(lo + 1, int(np.searchsorted(ends, cap, side="right")))
            self._chunk(points[lo:hi], first[lo:hi], count[lo:hi],
                        pot[lo:hi], None if raw is None else raw[lo:hi])
            lo = hi
        pot *= self.sign
        if with_field:
            raw *= self.sign
        return pot, raw

    def _chunk(self, points, first, count, pot, raw):
        n_pair, dim = points.shape
        n_term = int(count.sum())
        owner = np.repeat(np.arange(n_pair), count)
        start = np.cumsum(count) - count
        cols = np.arange(n_term) + np.repeat(first - start, count)
        # (dim, n_term) rows: the pair's point minus the term's node, and
        # the term's eval vector.
        dx = np.repeat(points.T, count, axis=1)
        dx -= np.take(self.cover.nodes,
                      np.take(self.cover.member_index, cols), axis=0).T
        ev = np.take(self.eval_vectors, cols, axis=1)
        del cols
        tmp = np.empty(n_term)
        r = np.multiply(dx[0], dx[0])
        proj = np.multiply(dx[0], ev[0])
        proj += 0.0  # a dense sum starts at 0.0, turning -0.0 into +0.0
        for c in range(1, dim):
            r += np.multiply(dx[c], dx[c], out=tmp)
            proj += np.multiply(dx[c], ev[c], out=tmp)
        np.sqrt(r, out=r)
        if raw is None:
            f = self.kernel.phi_d1_over_r(r)
        else:
            f, s = self.kernel.hessian_coeffs(r)
            s *= proj
            for c in range(dim):
                ev[c] *= f
                ev[c] += np.multiply(s, dx[c], out=tmp)
            del s
            raw[:] = bin_rows(owner, ev, n_pair)
        del owner, dx, ev, r, tmp
        f *= proj
        # Each pair's potential terms follow one zero slot.
        lead = start + np.arange(n_pair)
        slots = np.ones(n_term + n_pair, dtype=bool)
        slots[lead] = False
        terms = np.zeros(n_term + n_pair)
        terms[slots] = f
        pot[:] = np.add.reduceat(terms, lead)


@dataclass(frozen=True)
class LocalFit:
    """Patch ``patch`` of ``table``: its nodes, fit residual and
    evaluators.  Mode, kernel and eval vectors are the table's."""

    table: FitTable = field(repr=False)
    patch: int

    @property
    def nodes(self):
        cov = self.table.cover
        return cov.nodes[cov.members[self.patch]]

    @property
    def fit_residual(self):
        return float(self.table.fit_residual[self.patch])

    def _at(self, points, with_field):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return self.table.pair_sums(points, np.full(len(points), self.patch),
                                    with_field)

    def potential_at(self, points):
        """Scalar potential of the interpolant at the given points."""
        return self._at(points, False)[0]

    def field_at(self, points):
        """Vector interpolant at the given points (tangent on surfaces)."""
        surface = self.table.cover.surface
        points = surface.check(points)
        return geometry.tangent_operator(self.table.mode, surface, points,
                                         self.field_potential_at(points)[1])

    def field_potential_at(self, points):
        """(potential, unprojected field) sharing one pass over the node
        pairs; ``tangent_operator`` of the second output is ``field_at``."""
        return self._at(points, True)


_ScipyLapack = namedtuple("_ScipyLapack", "potrf get_threads set_threads")


def _scipy_lapack():
    """scipy's own LAPACK ``dpotrf`` as a ctypes function, which releases
    the GIL, with the thread-count getter and setter of the OpenBLAS that
    scipy bundles; None where scipy does not expose them so.

    All three are looked up through ``scipy.linalg.cython_lapack``'s
    library, whose dependencies include the OpenBLAS it was linked
    against: ``scipy_dpotrf_`` is the routine f2py's ``lapack.dpotrf``
    calls.
    """
    try:
        from scipy.linalg import cython_lapack
        lib = ctypes.CDLL(cython_lapack.__file__)
        potrf = lib.scipy_dpotrf_
        get = lib.scipy_openblas_get_num_threads
        put = lib.scipy_openblas_set_num_threads
    except (ImportError, AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    c_int_p = ctypes.POINTER(ctypes.c_int)
    # void dpotrf(char *uplo, int *n, double *a, int *lda, int *info)
    potrf.argtypes = [ctypes.c_char_p, c_int_p, ctypes.c_void_p, c_int_p,
                      c_int_p]
    potrf.restype = None
    return _ScipyLapack(potrf, get, put)


_LAPACK = _scipy_lapack()
_PIN_LOCK = threading.Lock()
_pin_depth = 0
_pin_saved = None


@contextmanager
def one_blas_thread():
    """Run the body with scipy's OpenBLAS at one thread (``_solve_spd``,
    around each patch factorization and solve).

    The count is process-wide: while a pin is held, all of scipy's BLAS
    and LAPACK calls, on every thread, run at one thread.  The first pin
    to enter saves the count and the last to leave restores it, also when
    the body raises.  Does nothing where ``_scipy_lapack`` found no
    OpenBLAS symbols.
    """
    global _pin_depth, _pin_saved
    if _LAPACK is None:
        yield
        return
    _, get, put = _LAPACK
    with _PIN_LOCK:
        if _pin_depth == 0:
            _pin_saved = get()
            put(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _PIN_LOCK:
            _pin_depth -= 1
            if _pin_depth == 0:
                put(_pin_saved)


def _solve_spd(a, rhs):
    """Solve a x = rhs at one BLAS thread for an exactly symmetric ``a``,
    left as it is; LinAlgError, as from ``cho_factor``, if Cholesky fails.

    As ``a`` equals its transpose, ``a.copy().T`` is ``a`` in Fortran order,
    which ``potrf`` factors in place: the upper factor ``cho_factor`` forms
    from its own Fortran copy, with no copy beyond the one made here.  The
    factorization goes through scipy's LAPACK pointer without the GIL, or
    through f2py where ``_scipy_lapack`` found none.  ``one_blas_thread``
    is held for the factorization and solve alone; nothing else takes it.
    ``fit_patch`` is the one caller.
    """
    factor = a.copy().T
    with one_blas_thread():
        if _LAPACK is None:
            factor, info = lapack.dpotrf(factor, overwrite_a=1, clean=0)
        else:
            n, status = ctypes.c_int(len(factor)), ctypes.c_int(0)
            _LAPACK.potrf(b"U", ctypes.byref(n), factor.ctypes.data,
                          ctypes.byref(n), ctypes.byref(status))
            info = status.value
        if info > 0:
            raise np.linalg.LinAlgError(f"{info}-th leading minor of the "
                                        "array is not positive definite")
        return lapack.dpotrs(factor, rhs, lower=0)[0]


def fit_patch(nodes, values, kernel, surface, mode, patch_id=None):
    """Solve the local system on samples that passed ``check_samples``.

    Returns the patch's eval vectors as a row-major (d, n) array and its
    fit residual, the relative max-norm residual of the solved system.
    PatchFitError, with the system's condition number, if Cholesky fails.
    """
    n = len(nodes)
    rows, normals = frames = _frames(mode, surface, nodes)
    a = assemble_system(kernel, surface, nodes, mode, frames=frames)
    # In flat R^d the frame is the identity, so its products are copies.
    flat = normals is None
    rhs = (values if flat else (rows * values[:, None, :]).sum(-1)).ravel()
    try:
        sol = _solve_spd(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise PatchFitError(patch_id, float(np.linalg.cond(a))) from exc
    coef = per_row = sol.reshape(n, -1)
    if not flat:
        # sum_p sol_p b_p from the first product: plane z keeps its -0.0.
        coef = per_row[:, :1] * rows[:, 0]
        for p in range(1, rows.shape[1]):
            coef = coef + per_row[:, p:p + 1] * rows[:, p]
    evec = geometry.cross(normals, coef) if mode == "div_surface" else coef
    # The solved system's residual, one row per node; in the orthonormal
    # frame basis its norm equals the tangent residual in R^3.
    miss = (a @ sol - rhs).reshape(n, -1)
    scale = float(np.sqrt((values * values).sum(-1)).max())
    worst = float(np.sqrt((miss * miss).sum(-1)).max())
    residual = worst / scale if scale > 0 else worst
    return np.ascontiguousarray(evec.T), residual


def map_in_order(fn, items, workers):
    """``[fn(x) for x in items]``: that loop at ``workers`` 1, else
    ``min(workers, len(items))`` threads that take the items in order while
    the caller waits.  Should calls raise, no item after the lowest failing
    one is started, and that item's exception is raised once every thread
    has stopped, as in the loop.  ValueError for ``workers`` < 1.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if workers == 1:
        return [fn(x) for x in items]
    out = [None] * len(items)
    failed = {}
    lock = threading.Lock()
    stop = threading.Event()
    order = iter(range(len(items)))

    def drain():
        while not stop.is_set():
            with lock:
                l = next(order, len(items))
                if l == len(items) or (failed and l > min(failed)):
                    return
            try:
                out[l] = fn(items[l])
            except BaseException as exc:
                with lock:
                    failed[l] = exc

    threads = [threading.Thread(target=drain)
               for _ in range(min(workers, len(items)))]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        stop.set()
    if failed:
        raise failed[min(failed)]
    return out


def fit_table(cover, values, kernel, mode, workers=1):
    """Fit every patch of ``cover`` and return the ``FitTable`` of the fits.

    Patch l is fit on the rows ``cover.members[l]`` of ``cover.nodes`` and
    ``values`` (samples that passed ``check_samples`` on the cover's
    surface).  The fits run through ``map_in_order``: above one worker, on
    ``min(workers, patches)`` threads while the caller waits; the
    factorization releases the GIL, so the threads overlap.  A fit's bits
    depend on its own patch only, so every ``workers`` gives the serial
    table, and a failing fit raises the serial loop's PatchFitError, the
    one of the lowest failing patch.
    Where ``_scipy_lapack`` found no GIL-free factorization the fits run
    serially.  ValueError for ``workers`` < 1.
    """
    def fit(l):
        idx = cover.members[l]
        return fit_patch(cover.nodes[idx], values[idx], kernel, cover.surface,
                         mode, patch_id=l)

    solved = map_in_order(fit, range(len(cover.members)),
                          workers if _LAPACK is not None else min(workers, 1))
    evecs, residual = zip(*solved)
    return FitTable(mode=mode, kernel=kernel, cover=cover,
                    eval_vectors=np.concatenate(evecs, axis=1),
                    fit_residual=np.array(residual))


def fit_global(nodes, values, kernel, surface, mode):
    """One dense fit over all samples, at most ``GLOBAL_FIT_GUARD`` nodes;
    the O(N^3) oracle the blended approximant is compared against."""
    if len(nodes) > GLOBAL_FIT_GUARD:
        raise GlobalFitSizeError(f"global dense fit limited to "
                                 f"{GLOBAL_FIT_GUARD} nodes, got {len(nodes)}")
    nodes, values = check_samples(nodes, values, surface, mode)
    # One patch holding every node; the fit reads only its membership.
    whole = Cover(centers=nodes[:1], radii=np.array([np.inf]),
                  members=[np.arange(len(nodes))], nodes=nodes,
                  surface=surface)
    return fit_table(whole, values, kernel, mode)[0]
