"""End-to-end experiment driver: runs, error protocol, rate fits, CSV.

A run sweeps node counts and trials for one benchmark problem (or custom
data), rebuilding the cover and all local fits per trial, then measures
relative errors of the blended field and potential on a held-out evaluation
set.  Potential errors are computed after normalizing both the approximant
and the truth to zero mean over the evaluation points, and the per-N error
reported downstream is the mean over trials.
"""

import functools
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import geometry as geo
from . import testbed
from .cover import (assign_radii_and_inflate, centers_plane, centers_sphere,
                    spacing_from_q)
from .errors import ConfigError, VecPumError
from .kernels import RadialKernel
from .localfit import check_samples
from .pum import build_approximant

CSV_HEADER = ("problem,kernel,eps,q,delta,gamma,N,trial,"
              "err_field_inf,err_field_2,err_pot_inf,err_pot_2,"
              "glue_res_inf,t_fit_ms,t_eval_ms,max_fit_residual,"
              "n_eval_dropped")

# Desk-scale defaults per problem: kernel family, shape parameter, nodes per
# patch control q, overlap delta, and a refinement ladder.
PROBLEM_DEFAULTS = {
    "star2d": dict(kernel="imq", eps=13.0, q=8.0, delta=0.5,
                   n_values=(2500, 5000, 10000), trials=5),
    "sphere": dict(kernel="matern4", eps=7.5, q=9.0, delta=9.0 / 16.0,
                   n_values=(2000, 4000, 8000), trials=5),
    "ball": dict(kernel="imq", eps=4.0, q=3.0, delta=0.25,
                 n_values=(3000, 6000, 12000), trials=5),
    # One fit of the supplied samples; the node count is theirs.
    "custom": dict(kernel="imq", eps=4.0, q=3.0, delta=0.5,
                   n_values=(), trials=1),
}

_EVAL_TAG = 0xE7A1
_NODE_TAG = 0xDA7A
_CUSTOM_ONLY = ("nodes_file", "values_file", "mode", "surface", "area")
_SURFACES = {"plane": geo.plane2d(), "sphere": geo.sphere2(),
             "r2": geo.euclidean(2), "r3": geo.euclidean(3)}


@dataclass(frozen=True)
class RunConfig:
    """Parameters of one experiment sweep."""

    problem: str
    kernel: str
    eps: float
    q: float
    delta: float
    gamma: float = 4.0
    n_values: tuple = ()
    trials: int = 5
    seed: int = 0
    eval_n: int = 20000
    nodes_file: str = None
    values_file: str = None
    mode: str = None
    surface: str = None
    area: float = None
    workers: int = 1

    def __post_init__(self):
        for name in ("eps", "q", "delta"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0 <= self.gamma < np.inf:
            raise ValueError("gamma must be nonnegative and finite")
        if self.area is not None and not 0 < self.area < np.inf:
            raise ValueError("area must be positive and finite")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        object.__setattr__(self, "n_values", tuple(self.n_values))
        # Built-in problems draw their node and evaluation sets from the
        # testbed generators; reject sizes they refuse before any is drawn.
        if self.problem != "custom":
            given = [k for k in _CUSTOM_ONLY if getattr(self, k) is not None]
            if given:
                raise ValueError(f"{', '.join(given)} apply to custom "
                                 f"problems only")
            if self.eval_n < testbed.MIN_NODES:
                raise ValueError(f"eval_n must be at least "
                                 f"{testbed.MIN_NODES}")
            if any(n < testbed.MIN_NODES for n in self.n_values):
                raise ValueError(f"every node count must be at least "
                                 f"{testbed.MIN_NODES}")


def default_config(problem, **overrides):
    """A RunConfig seeded with the benchmark defaults for ``problem``."""
    base = dict(PROBLEM_DEFAULTS[problem])
    base.update(overrides)
    return RunConfig(problem=problem, **base)


@dataclass
class TrialRecord:
    n_requested: int
    n_actual: int
    trial: int
    err_field_inf: float
    err_field_2: float
    err_pot_inf: float
    err_pot_2: float
    glue_res_inf: float
    max_fit_residual: float
    n_eval_used: int
    n_eval_dropped: int
    t_fit_ms: float
    t_eval_ms: float


@dataclass
class RunResult:
    config: RunConfig
    records: list = field(default_factory=list)

    def n_levels(self):
        return list(dict.fromkeys(rec.n_requested for rec in self.records))

    def level_mean(self, attr):
        """Mean of a record attribute per requested-N level, in level
        order."""
        out = {}
        for n in self.n_levels():
            vals = [getattr(r, attr) for r in self.records
                    if r.n_requested == n]
            out[n] = float(np.mean(vals))
        return out


def _seed_for(seed, *key):
    return np.random.SeedSequence(entropy=(int(seed),) + tuple(
        int(k) for k in key))


def relative_vector_errors(approx, truth):
    """(inf, two) relative errors using pointwise Euclidean magnitudes."""
    err = np.sqrt(((approx - truth) ** 2).sum(-1))
    mag = np.sqrt((truth**2).sum(-1))
    return float(err.max() / mag.max()), float(
        np.sqrt((err**2).sum() / (mag**2).sum()))


def relative_potential_errors(approx, truth):
    """(inf, two) relative errors after zero-mean normalization of both."""
    a = approx - approx.mean()
    t = truth - truth.mean()
    err = np.abs(a - t)
    mag = np.abs(t)
    return float(err.max() / mag.max()), float(
        np.sqrt((err**2).sum() / (mag**2).sum()))


class ExperimentError(VecPumError):
    """A pipeline stage failed; carries the stage name and (N, trial)."""

    def __init__(self, stage, n, trial, cause):
        self.stage = stage
        super().__init__(f"stage {stage!r} failed at N={n}, trial={trial}: "
                         f"{cause}")


class StageConfigError(ExperimentError, ConfigError):
    """A pipeline stage failed on a ConfigError: settings that give an
    unusable setup, which the CLI reports as a configuration error."""


def _stage_error(stage, n, trial, cause):
    kind = (StageConfigError if isinstance(cause, ConfigError)
            else ExperimentError)
    return kind(stage, n, trial, cause)


def fit_and_glue(problem, nodes, values, config):
    """Cover, per-patch fits, and potential shifts for one node set."""
    h = spacing_from_q(config.q, problem.area, len(nodes),
                       problem.surface.intrinsic_dim)
    cov = assign_radii_and_inflate(problem.make_centers(h), nodes,
                                   config.delta, problem.surface, h)
    approx = build_approximant(cov, RadialKernel(config.kernel, config.eps),
                               problem.mode, values, gamma=config.gamma,
                               workers=config.workers)
    return approx, approx.shifts


def _run_trial(problem, config, n_req, trial, nodes, values, eval_pts,
               truth_field, truth_pot):
    """Fit one node set, evaluate it where it covers ``eval_pts`` and score
    it; ``truth_pot`` None leaves the potential errors NaN."""
    t0 = time.perf_counter()
    try:
        approx, solution = fit_and_glue(problem, nodes, values, config)
    except VecPumError as exc:
        raise _stage_error("fit", n_req, trial, exc) from exc
    t1 = time.perf_counter()
    mask = approx.covered_mask(eval_pts)
    pts = eval_pts[mask]
    try:
        pot, fld = approx.batch_eval(pts, workers=config.workers)
    except VecPumError as exc:
        raise _stage_error("eval", n_req, trial, exc) from exc
    t2 = time.perf_counter()
    e_inf, e_two = relative_vector_errors(fld, truth_field[mask])
    p_inf = p_two = float("nan")
    if truth_pot is not None:
        p_inf, p_two = relative_potential_errors(pot, truth_pot[mask])
    res_inf = (float(np.abs(solution.residual).max())
               if len(solution.residual) else 0.0)
    return TrialRecord(
        n_requested=n_req, n_actual=len(nodes), trial=trial,
        err_field_inf=e_inf, err_field_2=e_two,
        err_pot_inf=p_inf, err_pot_2=p_two, glue_res_inf=res_inf,
        max_fit_residual=float(approx.fits.fit_residual.max()),
        n_eval_used=len(pts), n_eval_dropped=int((~mask).sum()),
        t_fit_ms=(t1 - t0) * 1e3, t_eval_ms=(t2 - t1) * 1e3)


def run_experiment(config):
    """Run the configured sweep and collect per-trial error records.

    Deterministic for a fixed config and seed: node and evaluation sets are
    drawn from seeds derived from (seed, level, trial).  Evaluation points
    that fall outside the cover (rare boundary slivers) are dropped and
    counted.  A custom run is one trial scored at its own sample nodes:
    there is no analytic truth, so the field columns report the relative
    residual of the blended field and the potential columns are NaN.
    """
    result = RunResult(config=config)
    if config.problem == "custom":
        problem, nodes, values = _custom_problem(config)
        result.records.append(_run_trial(problem, config, len(nodes), 0,
                                         nodes, values, nodes, values, None))
        return result
    problem = testbed.PROBLEMS[config.problem]()
    if not config.n_values:
        raise ValueError("config.n_values is empty")
    eval_pts = problem.nodes(config.eval_n, _seed_for(config.seed, _EVAL_TAG))
    truth = (eval_pts, problem.field(eval_pts),
             problem.potential_sign * problem.potential(eval_pts))
    for level, n_req in enumerate(config.n_values):
        for trial in range(config.trials):
            nodes = problem.nodes(
                n_req, _seed_for(config.seed, _NODE_TAG, level, trial))
            result.records.append(_run_trial(
                problem, config, n_req, trial, nodes, problem.field(nodes),
                *truth))
    return result


def _box_centers(surface_kind, lo, hi, h):
    """Patch centers for custom samples: the sphere's spiral, or a lattice
    over the samples' bounding box."""
    if surface_kind == "sphere":
        return centers_sphere(h)
    if surface_kind == "r3":
        ticks = [np.arange(lo[k], hi[k] + h, h) for k in range(3)]
        return np.stack(np.meshgrid(*ticks, indexing="ij"),
                        axis=-1).reshape(-1, 3)
    pts = centers_plane(((lo[0], lo[1]), (hi[0], hi[1])), None, h)
    return geo.embed_points(pts) if surface_kind == "plane" else pts


def _load_samples(path, what):
    """The points in ``path``; ConfigError if numpy cannot read the file as
    rows of numbers of one length, or if it holds none, which numpy would
    read, with a warning, as one column of no rows."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            points = testbed.load_points(path)
        except ValueError as exc:
            raise ConfigError(f"the {what} file {path!r} holds malformed "
                              f"samples: {exc}") from exc
    if points.size == 0:
        raise ConfigError(f"the {what} file {path!r} holds no samples")
    return points


def _custom_problem(config):
    nodes = _load_samples(config.nodes_file, "nodes")
    values = _load_samples(config.values_file, "values")
    if nodes.shape != values.shape:
        raise ConfigError(f"custom nodes {nodes.shape} and values "
                          f"{values.shape} differ in shape")
    surface_kind = config.surface or ("sphere" if nodes.shape[1] == 3
                                      else "r2")
    if surface_kind not in _SURFACES:
        raise ConfigError(f"unknown surface {surface_kind!r}")
    surface = _SURFACES[surface_kind]
    # Plane files hold in-plane coordinates, embedded here at z = 0.
    columns = (surface.intrinsic_dim if surface_kind == "plane"
               else surface.dim)
    if nodes.shape[1] != columns:
        raise ConfigError(f"surface {surface_kind!r} needs {columns} columns "
                          f"of samples, got {nodes.shape[1]}")
    if surface_kind == "plane":
        nodes = geo.embed_points(nodes)
        values = geo.embed_points(values)
    mode = config.mode or surface.modes[0]
    try:
        nodes, values = check_samples(nodes, values, surface, mode)
    except ValueError as exc:
        raise ConfigError(f"custom samples do not fit surface "
                          f"{surface_kind!r}: {exc}") from exc
    lo = nodes.min(axis=0)
    hi = nodes.max(axis=0)
    if config.area is not None:
        area = config.area
    elif surface_kind == "sphere":
        area = 4.0 * np.pi
    else:
        area = float(np.prod(np.maximum(hi - lo, 1e-12)
                             [:surface.intrinsic_dim]))
    problem = testbed.TestProblem(
        name="custom", surface=surface, mode=mode, area=area,
        potential=None, field=None, potential_sign=1.0, nodes=None,
        make_centers=functools.partial(_box_centers, surface_kind, lo, hi))
    return problem, nodes, values


# ---------------------------------------------------------------------------
# convergence-rate fits

def _linear_fit(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 3:
        raise ValueError("rate fits need at least 3 node counts")
    coeffs = np.polyfit(x, y, 1)
    pred = np.polyval(coeffs, x)
    ss_res = ((y - pred) ** 2).sum()
    ss_tot = ((y - y.mean()) ** 2).sum()
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coeffs[0]), float(r2)


def fit_rate(n_values, errors, model, dim=None):
    """Fit a convergence-rate model to per-N errors.

    ``model="algebraic"`` fits log(err) against log(sqrt(N)) and returns
    (slope, R^2).  ``model="superalgebraic"`` fits log(err) against
    log(N) * N**(1/(2*dim)) and returns (C, R^2) for
    err ~ exp(-C log(N) N^(1/(2 dim))), so C > 0 means decay.
    """
    n_values = np.asarray(n_values, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if model == "algebraic":
        return _linear_fit(np.log(np.sqrt(n_values)), np.log(errors))
    if model == "superalgebraic":
        if dim is None:
            raise ValueError("superalgebraic fits need the dimension")
        x = np.log(n_values) * n_values ** (1.0 / (2.0 * dim))
        slope, r2 = _linear_fit(x, np.log(errors))
        return -slope, r2
    raise ValueError(f"unknown rate model {model!r}")


# ---------------------------------------------------------------------------
# output

def _fmt(value):
    return format(float(value), ".17g")


def emit_csv(result, path):
    """Write one CSV row per (N, trial) with 17-significant-digit floats."""
    cfg = result.config
    lines = [CSV_HEADER]
    for rec in result.records:
        lines.append(",".join([
            cfg.problem, cfg.kernel, _fmt(cfg.eps), _fmt(cfg.q),
            _fmt(cfg.delta), _fmt(cfg.gamma), str(rec.n_actual),
            str(rec.trial), _fmt(rec.err_field_inf), _fmt(rec.err_field_2),
            _fmt(rec.err_pot_inf), _fmt(rec.err_pot_2),
            _fmt(rec.glue_res_inf), _fmt(rec.t_fit_ms),
            _fmt(rec.t_eval_ms), _fmt(rec.max_fit_residual),
            str(rec.n_eval_dropped)]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_summary(result):
    """Per-N mean errors plus a rate fit when enough levels exist."""
    cfg = result.config
    lines = [f"problem={cfg.problem} kernel={cfg.kernel} eps={cfg.eps:g} "
             f"q={cfg.q:g} delta={cfg.delta:g} gamma={cfg.gamma:g}"]
    levels = result.n_levels()
    mean_n = result.level_mean("n_actual")
    inf_err = result.level_mean("err_field_inf")
    two_err = result.level_mean("err_field_2")
    pot_inf = result.level_mean("err_pot_inf")
    res_inf = result.level_mean("glue_res_inf")
    tfit = result.level_mean("t_fit_ms")
    for n in levels:
        lines.append(
            f"  N~{mean_n[n]:9.1f}  field_inf={inf_err[n]:.3e}  "
            f"field_2={two_err[n]:.3e}  pot_inf={pot_inf[n]:.3e}  "
            f"glue_res={res_inf[n]:.3e}  t_fit={tfit[n]:.0f}ms")
    if len(levels) >= 3 and np.isfinite(list(inf_err.values())).all():
        ns = [mean_n[n] for n in levels]
        errs = [inf_err[n] for n in levels]
        if cfg.kernel == "matern4":
            slope, r2 = fit_rate(ns, errs, "algebraic")
            lines.append(f"  algebraic rate vs sqrt(N): slope={slope:.3f} "
                         f"(R^2={r2:.4f})")
        else:
            dim = testbed.PROBLEMS[cfg.problem]().surface.intrinsic_dim
            c, r2 = fit_rate(ns, errs, "superalgebraic", dim=dim)
            lines.append(f"  super-algebraic fit: C={c:.4f} (R^2={r2:.4f})")
    text = "\n".join(lines)
    print(text)
    return text
