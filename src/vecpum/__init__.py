"""Div/curl-free vector field reconstruction with a partition of unity.

Build analytically divergence-free or curl-free approximants (and their
scalar potentials) from scattered vector samples: matrix-valued radial
kernels are fit on overlapping patches, the per-patch potentials are
reconciled by a glue-point least-squares solve, and everything is blended
with Shepard weights so the global field is exactly the surface derivative
of the global potential.
"""

from .errors import (ConfigError, CoverageError, CoverConnectivityError,
                     GlobalFitSizeError, PatchFitError, VecPumError)
from .kernels import RadialKernel
from .geometry import euclidean, plane2d, sphere2
from .cover import (Cover, assign_radii_and_inflate, centers_ball,
                    centers_plane, centers_sphere, spacing_from_q)
from .pum import PumApproximant, build_approximant
from .experiment import (RunConfig, RunResult, default_config, emit_csv,
                         emit_summary, fit_rate, run_experiment)

__version__ = "0.1.0"

__all__ = [
    "RadialKernel", "plane2d", "sphere2", "euclidean",
    "Cover", "spacing_from_q", "centers_plane", "centers_ball",
    "centers_sphere", "assign_radii_and_inflate",
    "PumApproximant", "build_approximant",
    "RunConfig", "RunResult", "default_config", "run_experiment",
    "fit_rate", "emit_csv", "emit_summary",
    "VecPumError", "ConfigError", "CoverageError", "CoverConnectivityError",
    "PatchFitError", "GlobalFitSizeError",
]
