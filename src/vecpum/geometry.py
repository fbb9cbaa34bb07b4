"""Surfaces, tangent frames, and the surface operators.

The surface curl and surface gradient of a scalar f are expressed
extrinsically as ``Q_x grad(f)`` and ``P_x grad(f)``, where ``Q_x v = n x v``
and ``P_x = I - n n^T`` for the unit normal n at x; ``tangent_operator``
applies them row-wise.  Supported surfaces are the plane (embedded at
z = 0), the unit sphere, and flat Euclidean space (where no frames or
projections apply and the gradient is used directly).
"""

from dataclasses import dataclass

import numpy as np

# Largest offset from the sphere (| |x| - 1 |) or from the plane (|z|) of a
# point that counts as on the surface.
SURFACE_TOL = 1e-9

MODES = ("div_surface", "curl_surface", "curl_euclidean")

PLANE_D = np.array([1.0, 0.0, 0.0])
PLANE_E = np.array([0.0, 1.0, 0.0])
PLANE_N = np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True)
class Surface:
    """Geometry selector: ``plane`` and ``sphere`` live in R^3, ``euclidean``
    in R^d with d in {2, 3}.  ``dim`` is the coordinate dimension points
    carry (3 for the embedded surfaces), ``intrinsic_dim`` the dimension of
    the geometry itself, and ``modes`` the interpolation modes it admits,
    default first."""

    kind: str
    dim: int

    @property
    def intrinsic_dim(self):
        return self.dim if self.kind == "euclidean" else 2

    @property
    def modes(self):
        return (("curl_euclidean",) if self.kind == "euclidean"
                else ("div_surface", "curl_surface"))

    def check(self, points):
        """The one point check: the points as an (m, dim) float array, or
        ValueError naming the shape of points without ``dim`` columns, the
        rows of non-finite points, or the worst offset of points more than
        ``SURFACE_TOL`` off the sphere or plane.  Empty input is (0, dim)."""
        points = np.asarray(points, dtype=float)
        if points.shape == (0,):
            return np.zeros((0, self.dim))
        points = np.atleast_2d(points)
        if points.ndim != 2 or points.shape[1] != self.dim:
            raise ValueError(f"points of shape {points.shape} do not have "
                             f"{self.dim} columns")
        bad = np.nonzero(~np.isfinite(points).all(axis=1))[0]
        if len(bad):
            raise ValueError(f"{len(bad)} points are not finite "
                             f"(rows {bad[:10].tolist()})")
        if self.kind == "euclidean":
            return points
        off = (np.abs(points[:, 2]) if self.kind == "plane" else
               np.abs(np.sqrt((points * points).sum(-1)) - 1.0))
        if np.any(off > SURFACE_TOL):
            raise ValueError(f"points lie off the {self.kind} by up to "
                             f"{off.max():.3e} (tolerance {SURFACE_TOL:g})")
        return points

    def normals(self, points):
        """Unit normals at on-surface points, shape (m, 3)."""
        if self.kind == "euclidean":
            raise ValueError("euclidean geometry has no surface normals")
        points = self.check(points)
        if self.kind == "plane":
            return np.broadcast_to(PLANE_N, points.shape).copy()
        return points

    def tangent_frames(self, points):
        """Orthonormal frames (D, E, N) at on-surface points.

        On the plane the frame is the fixed (1,0,0), (0,1,0), (0,0,1).  On
        the sphere, e = normalize(a x n) with a = (0,0,1) away from the
        poles and a = (1,0,0) when |n_z| > 0.9, then d = n x e.
        """
        n = self.normals(points)
        if self.kind == "plane":
            m = len(n)
            return np.tile(PLANE_D, (m, 1)), np.tile(PLANE_E, (m, 1)), n
        a = np.where(np.abs(n[:, 2:3]) > 0.9, PLANE_D, PLANE_N)
        e = cross(a, n)
        e /= np.sqrt((e * e).sum(-1))[:, None]
        return cross(n, e), e, n

    def project(self, points):
        """Pull points back onto the surface (used for glue points)."""
        points = np.asarray(points, dtype=float)
        if self.kind == "sphere":
            return points / np.sqrt((points * points).sum(-1))[..., None]
        return points


def plane2d():
    return Surface("plane", 3)


def sphere2():
    return Surface("sphere", 3)


def euclidean(d):
    if d not in (2, 3):
        raise ValueError("euclidean geometry supports d in {2, 3}")
    return Surface("euclidean", d)


def q_matrix(n):
    """Skew matrix with Q v = n x v for a unit normal n."""
    a1, a2, a3 = np.asarray(n, dtype=float)
    return np.array([[0.0, -a3, a2],
                     [a3, 0.0, -a1],
                     [-a2, a1, 0.0]])


def p_matrix(n):
    """Tangent-plane projector P = I - n n^T for a unit normal n."""
    n = np.asarray(n, dtype=float)
    return np.eye(3) - np.outer(n, n)


def cross(a, b):
    """a x b over the last axis of float 3-vectors, broadcast as
    ``np.cross`` and in its operation order, so with its bits:
    (a1 b2 - a2 b1, a2 b0 - a0 b2, a0 b1 - a1 b0)."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    out = np.empty(np.broadcast(a, b).shape)
    o0, o1, o2 = out[..., 0], out[..., 1], out[..., 2]
    np.multiply(a1, b2, out=o0)
    o0 -= a2 * b1
    np.multiply(a2, b0, out=o1)
    o1 -= a0 * b2
    np.multiply(a0, b1, out=o2)
    o2 -= a1 * b0
    return out


def tangent_operator(mode, surface, points, vectors):
    """Map ambient vectors at points that passed ``surface.check`` to the
    mode's field: the rotation n x v (div-free), the tangent projection
    v - n (n . v) (curl-free on a surface), or the identity (flat space).
    The points are not checked again: on the sphere they are their own
    normals, and the plane's normal is ``PLANE_N``."""
    if mode == "curl_euclidean":
        return vectors
    normals = points if surface.kind == "sphere" else PLANE_N
    if mode == "div_surface":
        return cross(normals, vectors)
    return vectors - normals * (normals * vectors).sum(-1)[:, None]


def embed_points(points2d):
    """Lift (m, 2) plane points to (m, 3) with z = 0."""
    points2d = np.atleast_2d(np.asarray(points2d, dtype=float))
    out = np.zeros((points2d.shape[0], 3))
    out[:, :2] = points2d
    return out
