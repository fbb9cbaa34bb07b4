"""Scalar radial kernels and the radial quantities behind the matrix-valued ones.

Every vector kernel in this package is assembled from three radial functions
of a scalar kernel phi:

* ``phi(r)`` itself,
* ``F(r) = phi'(r) / r``, and
* ``S(r) = (phi''(r) - phi'(r)/r) / r**2``,

so that the Hessian of ``phi(||x - y||)`` is ``F*I + S*(x-y)(x-y)^T`` and the
Laplacian is ``d*F + r**2 * S``.  For the two families shipped here, F and S
have exact closed forms that stay finite at r = 0, so no series switch or
special-casing near the origin is required.  ``phi_d1_over_r`` and
``hessian_coeffs`` work in place on the arrays they make, never on ``r``.
"""

from dataclasses import dataclass

import numpy as np

FAMILIES = ("imq", "matern4")

# Coefficients of the degree-4 polynomial p(t) multiplying exp(-t) in the
# matern4 kernel, plus the derived polynomials appearing in F and S.
_M4_PHI = (1.0, 1.0, 3.0 / 7.0, 2.0 / 21.0, 1.0 / 105.0)
_M4_F = (1.0 / 7.0, 1.0 / 7.0, 2.0 / 35.0, 1.0 / 105.0)
_M4_S = (1.0 / 35.0, 1.0 / 35.0, 1.0 / 105.0)


def _polyval(coeffs, t):
    # Horner's rule from the leading coefficient, in place on one new
    # array; for finite t >= 0 the skipped first step 0*t + c is exactly c.
    out = coeffs[-1] * t
    out += coeffs[-2]
    for c in coeffs[-3::-1]:
        out *= t
        out += c
    return out


def _check_radius(r):
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("radius must be nonnegative")
    return r


@dataclass(frozen=True)
class RadialKernel:
    """A positive definite radial kernel with shape parameter epsilon.

    Parameters
    ----------
    family : str
        One of ``"imq"`` (inverse multiquadric) or ``"matern4"`` (exponential
        times a degree-4 polynomial).
    epsilon : float
        Shape parameter, in inverse-length units.  Must be positive and finite.
    """

    family: str
    epsilon: float

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}; "
                             f"expected one of {FAMILIES}")
        if not 0 < self.epsilon < np.inf:
            raise ValueError("epsilon must be positive and finite")

    def phi(self, r):
        """Evaluate phi(r).  Accepts scalars or arrays, r >= 0."""
        r = _check_radius(r)
        t = self.epsilon * r
        if self.family == "imq":
            return 1.0 / np.sqrt(1.0 + t * t)
        return np.exp(-t) * _polyval(_M4_PHI, t)

    def phi_d1_over_r(self, r):
        """Evaluate F(r) = phi'(r)/r, finite and continuous down to r = 0."""
        r = _check_radius(r)
        t = self.epsilon * r
        e2 = self.epsilon * self.epsilon
        if self.family == "imq":
            t *= t
            t += 1.0
            t **= -1.5
            t *= -e2
            return t
        f = _polyval(_M4_F, t)
        t *= -1.0
        # A scalar r makes t a numpy scalar, which takes no ``out``.
        t = np.exp(t, out=t) if t.ndim else np.exp(t)
        t *= -e2
        f *= t
        return f

    def hessian_coeffs(self, r):
        """Return (F, S) with Hessian(phi(||.||)) = F*I + S*(x-y)(x-y)^T."""
        r = _check_radius(r)
        t = self.epsilon * r
        e2 = self.epsilon * self.epsilon
        e4 = e2 * e2
        if self.family == "imq":
            t *= t
            t += 1.0
            s = t**-2.5
            s *= 3.0 * e4
            t **= -1.5
            t *= -e2
            return t, s
        f = _polyval(_M4_F, t)
        s = _polyval(_M4_S, t)
        t *= -1.0
        decay = np.exp(t, out=t) if t.ndim else np.exp(t)
        s *= e4 * decay
        decay *= -e2
        f *= decay
        return f, s

    def laplacian(self, r, d):
        """Evaluate Laplacian(phi(||.||)) in d dimensions, d in {2, 3}."""
        if d not in (2, 3):
            raise ValueError("dimension must be 2 or 3")
        r = _check_radius(r)
        f, s = self.hessian_coeffs(r)
        return d * f + r * r * s
