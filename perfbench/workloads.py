"""The benchmark's workloads: seeded inputs, timed operations and checks.

Every workload is one process, a closed loop with one caller.  Inputs come
from the testbed generators, seeded from ``--seed``, except for the
*reference trial*: the evaluation set and node set 0 (the first build, or
the first set-up approximant on ``star-stream``) are seeded by
``REFERENCE_SEED``, so the accuracy metrics describe one fixed problem and
do not move with ``--seed``.

* ``sphere-build`` and ``ball-build``: an operation builds an approximant
  from a fresh node set (``experiment.fit_and_glue``), evaluates it on the
  evaluation set (``covered_mask`` + ``batch_eval``) and then answers
  ``query_rounds`` rounds of ``MAX_BATCH`` small-batch queries, one of each
  size per round.
* ``star-stream``: each set-up step builds and bulk-evaluates one
  approximant from its own node set; an operation is one small-batch query
  against one of them, in turn.

Set-up steps are repeated, for a median ``setup_s``, and the repetitions
are spread over the run between operations.
"""

import statistics
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from vecpum import experiment, testbed
from vecpum.experiment import (RunConfig, relative_potential_errors,
                               relative_vector_errors)

REFERENCE_SEED = 1009
_EVAL_TAG = 0xE7A1
_NODE_TAG = 0xDA7A
_QUERY_TAG = 0x0E57
_PROBE_TAG = 0x0FD0

# At least three builds per run, so that the median build is not the mean
# of two and one slow build cannot move it; and at least 100 queries, so
# that the 90th percentile has ten samples beyond it.
MIN_OPS = 3
MIN_QUERIES = 100
MAX_BATCH = 64
# Queries between two set-up steps of star-stream: two rounds of batch sizes.
STEP_QUERIES = 2 * MAX_BATCH
PROBES = 16
# Smaller steps let the field's rounding noise (about 1e-13 of its size)
# dominate, larger ones the truncation error; the acceptance suite's
# conservation test uses the same step.
FD_STEP = 2e-5
SERIAL_SUBSET = 1000


@dataclass(frozen=True)
class Workload:
    """One benchmark configuration and the limits its outputs must meet.

    ``ceilings`` bound the error metrics of every build; ``fd_ratio`` is the
    least median ratio of the naive blend's finite-difference div (or curl)
    to the corrected blend's, and ``fd_level`` the largest median corrected
    div (or curl) relative to the field's magnitude at the probes.
    ``query_rounds`` is how many rounds of ``MAX_BATCH`` queries a build
    operation answers: the more, the longer the stretches of the run that
    ``query_ms.*`` sample, and the less a burst of host slowness moves them.
    """

    name: str
    problem: str
    kernel: str
    eps: float
    q: float
    delta: float
    n_nodes: int
    eval_n: int
    workers: int
    stream: bool
    ceilings: dict
    fd_ratio: float
    fd_level: float
    setup_repeats: int = 3
    query_rounds: int = 1

    def config(self, workers=None):
        return RunConfig(problem=self.problem, kernel=self.kernel,
                         eps=self.eps, q=self.q, delta=self.delta,
                         n_values=(self.n_nodes,), eval_n=self.eval_n,
                         workers=self.workers if workers is None else workers)


# Error ceilings sit 4-10 times above the worst value seen over about a
# hundred seeded node sets; fd_ratio sits 10-50 times below the least.
WORKLOADS = {
    "sphere-build": Workload(
        name="sphere-build", problem="sphere", kernel="matern4", eps=7.5,
        q=9.0, delta=9.0 / 16.0, n_nodes=8000, eval_n=20000, workers=1,
        stream=False,
        ceilings={"err_field_inf": 1e-3, "err_pot_inf": 5e-5,
                  "glue_res_inf": 1e-3},
        fd_ratio=50.0, fd_level=1e-6, query_rounds=4),
    "ball-build": Workload(
        name="ball-build", problem="ball", kernel="imq", eps=4.0, q=3.0,
        delta=0.25, n_nodes=12000, eval_n=20000, workers=2, stream=False,
        ceilings={"err_field_inf": 0.2, "err_pot_inf": 0.02,
                  "glue_res_inf": 0.01},
        fd_ratio=1e4, fd_level=1e-6),
    "star-stream": Workload(
        name="star-stream", problem="star2d", kernel="imq", eps=13.0, q=8.0,
        delta=0.5, n_nodes=10000, eval_n=20000, workers=1, stream=True,
        ceilings={"err_field_inf": 1.5, "err_pot_inf": 0.05,
                  "glue_res_inf": 0.02},
        fd_ratio=1e3, fd_level=1e-6, setup_repeats=5),
}

# Small sizes for the benchmark's own tests.  Coarse node sets have larger
# and more scattered errors; these ceilings sit 4-10 times above the worst
# seen over a few dozen tiny builds.
TINY = {
    "sphere-build": dict(n_nodes=1500, eval_n=2000,
                         ceilings={"err_field_inf": 0.05, "err_pot_inf": 0.01,
                                   "glue_res_inf": 0.05}),
    "ball-build": dict(n_nodes=2000, eval_n=2000,
                       ceilings={"err_field_inf": 1.0, "err_pot_inf": 0.2,
                                 "glue_res_inf": 0.2}),
    "star-stream": dict(n_nodes=2000, eval_n=2000,
                        ceilings={"err_field_inf": 5.0, "err_pot_inf": 0.5,
                                  "glue_res_inf": 0.1}),
}


def get(name, size="full"):
    workload = WORKLOADS[name]
    return replace(workload, **TINY[name]) if size == "tiny" else workload


def seed_sequence(*key):
    return np.random.SeedSequence(entropy=tuple(int(k) for k in key))


def node_seed(seed, index):
    """Node set ``index`` of a run: index 0 is the reference trial."""
    if index == 0:
        return seed_sequence(REFERENCE_SEED, _NODE_TAG, 0)
    return seed_sequence(seed, _NODE_TAG, index)


def same_bits(a, b):
    """True when two arrays (or sequences of arrays) agree bit for bit."""
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same_bits(x, y) for x, y in zip(a, b))
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def percentile(values, pct):
    """Linear-interpolation percentile of a non-empty sequence."""
    return float(np.percentile(np.asarray(values, dtype=float), pct))


@dataclass
class EvalSet:
    points: np.ndarray
    truth_field: np.ndarray
    truth_pot: np.ndarray


@dataclass
class Build:
    """A built approximant and its bulk evaluation on the evaluation set."""

    approx: object
    solution: object
    mask: np.ndarray
    pot: np.ndarray
    fld: np.ndarray
    build_s: float
    eval_s: float
    errors: dict = None
    queries: list = field(default_factory=list)

    @property
    def eval_pts_per_s(self):
        return int(self.mask.sum()) / self.eval_s

    def bits(self):
        return [self.solution.shifts, self.solution.residual, self.mask,
                self.pot, self.fld] + [a for q in self.queries
                                       for a in q.bits()]


@dataclass
class Query:
    ms: float
    index: np.ndarray
    mask: np.ndarray
    pot: np.ndarray
    fld: np.ndarray

    def bits(self):
        return [self.mask, self.pot, self.fld]


@dataclass
class SetupStep:
    seconds: float
    eval_set: EvalSet
    build: Build = None

    def bits(self):
        out = [self.eval_set.points, self.eval_set.truth_field,
               self.eval_set.truth_pot]
        return out + (self.build.bits() if self.build is not None else [])


class Run:
    """One benchmark run of one workload.

    With a ``tracer``, every set-up step and operation runs twice: first
    untraced, then traced with the same inputs.  The outputs of the two
    must agree bit for bit; their timings give the tracing overhead.
    """

    def __init__(self, workload, seed, seconds, tracer=None, log=None):
        self.w = workload
        self.seed = int(seed)
        self.seconds = float(seconds)
        self.tracer = tracer
        self.log = log
        self.problem = testbed.PROBLEMS[workload.problem]()
        self.tracing = False
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.setup_s = []
        self.steps = []
        self.builds = []
        self.queries = []
        self.traced_build_s = []
        self.traced_query_ms = []
        self.reference_errors = None
        self.stream_errors = None
        self.eval_set = None
        self.op_errors = []

    # -- plumbing ----------------------------------------------------------

    def _span(self, name):
        return self.tracer.span(name) if self.tracing else nullcontext()

    def _note(self, message):
        if self.log is not None:
            self.log(message)

    def _operation(self, label, run, check):
        """Run, check and (when tracing) replay one unit of work.

        Returns the untraced result, or None when it raised.
        """
        self.attempted += 1
        problems = []
        result = None
        # Alternate which of the two runs goes first, so that warm caches
        # do not favour one side of the tracing overhead.
        traced_first = self.tracer is not None and self.attempted % 2 == 0
        try:
            if traced_first:
                traced = self._traced(label, run)
            result = run()
            problems = check(result)
            if self.tracer is not None:
                if not traced_first:
                    traced = self._traced(label, run)
                if not same_bits(result.bits(), traced.bits()):
                    problems.append("traced outputs differ from untraced")
                self._record_traced(traced)
        except Exception:  # one failed operation must not end the run
            problems.append(traceback.format_exc())
        if problems:
            self.failed += 1
            self.failures.append({"op": label, "problems": problems})
            self._note(f"{label} FAILED: {problems}")
        return result

    def _traced(self, label, run):
        with self.tracer.active(label):
            self.tracing = True
            try:
                return run()
            finally:
                self.tracing = False

    def _record_traced(self, traced):
        if isinstance(traced, Build):
            self.traced_build_s.append(traced.build_s)
            self.traced_query_ms.extend(q.ms for q in traced.queries)
        elif isinstance(traced, Query):
            self.traced_query_ms.append(traced.ms)
        elif isinstance(traced, SetupStep) and traced.build is not None:
            self.traced_build_s.append(traced.build.build_s)

    # -- inputs ------------------------------------------------------------

    def _nodes(self, n, seq):
        with self._span("testbed.nodes"):
            return self.problem.nodes(n, seq)

    def _make_eval_set(self):
        pts = self._nodes(self.w.eval_n,
                          seed_sequence(REFERENCE_SEED, _EVAL_TAG))
        return EvalSet(points=pts, truth_field=self.problem.field(pts),
                       truth_pot=(self.problem.potential_sign *
                                  self.problem.potential(pts)))

    def node_set(self, index):
        nodes = self._nodes(self.w.n_nodes, node_seed(self.seed, index))
        return nodes, self.problem.field(nodes)

    # -- building and evaluating -------------------------------------------

    def _build(self, nodes, values, workers=None, span="build"):
        cfg = self.w.config(workers)
        with self._span(span) as sp:
            t0 = time.perf_counter()
            approx, solution = experiment.fit_and_glue(self.problem, nodes,
                                                       values, cfg)
            t1 = time.perf_counter()
        if sp is not None:
            sp.counts.update(build_counts(approx, cfg.workers))
        return approx, solution, t1 - t0

    def _evaluate(self, approx, solution, build_s):
        pts = self.eval_set.points
        with self._span("eval"):
            t0 = time.perf_counter()
            mask = approx.covered_mask(pts)
            pot, fld = approx.batch_eval(pts[mask], workers=self.w.workers)
            t1 = time.perf_counter()
        return Build(approx=approx, solution=solution, mask=mask, pot=pot,
                     fld=fld, build_s=build_s, eval_s=t1 - t0)

    def _query(self, approx, index):
        pts = self.eval_set.points[index]
        with self._span("query"):
            t0 = time.perf_counter()
            mask = approx.covered_mask(pts)
            pot, fld = approx.batch_eval(pts[mask])
            t1 = time.perf_counter()
        return Query(ms=(t1 - t0) * 1e3, index=index, mask=mask, pot=pot,
                     fld=fld)

    def _errors(self, mask, pot, fld, solution):
        ev = self.eval_set
        return errors_of(pot, fld, ev.truth_pot[mask], ev.truth_field[mask],
                         solution)

    # -- checks --------------------------------------------------------------

    def _check_build(self, b):
        out = []
        if not (np.isfinite(b.pot).all() and np.isfinite(b.fld).all()):
            out.append("non-finite evaluation output")
        b.errors = self._errors(b.mask, b.pot, b.fld, b.solution)
        self.op_errors.append(b.errors)
        for key, limit in self.w.ceilings.items():
            if not b.errors[key] <= limit:
                out.append(f"{key}={b.errors[key]:.3e} above ceiling "
                           f"{limit:g}")
        out.extend(self._check_fd(b))
        return out

    def _check_query(self, b, q):
        """A query must match the same points inside the bulk evaluation."""
        out = []
        if not (np.isfinite(q.pot).all() and np.isfinite(q.fld).all()):
            out.append("non-finite query output")
        if not same_bits(q.mask, b.mask[q.index]):
            out.append("query coverage differs from bulk coverage")
            return out
        rows = np.cumsum(b.mask)[q.index[q.mask]] - 1
        if not (same_bits(q.pot, b.pot[rows]) and
                same_bits(q.fld, b.fld[rows])):
            out.append("query results differ from bulk evaluation bits")
        return out

    def _check_fd(self, b):
        """Finite-difference div (curl in the ball) at seeded probe points:
        the corrected blend's must sit far below the naive blend's."""
        approx = b.approx
        surface = approx.surface
        rng = np.random.default_rng(seed_sequence(
            self.seed, _PROBE_TAG, len(self.op_errors)))
        covered = np.nonzero(b.mask)[0]
        cand = self.eval_set.points[rng.choice(covered, 8 * PROBES,
                                               replace=False)]
        # Only where patches overlap does the correction term act; inside a
        # single patch the naive and corrected blends are the same field.
        gap = cand[:, None, :] - approx.cover.centers[None, :, :]
        inside = np.sqrt((gap * gap).sum(-1)) < approx.cover.radii
        cand = cand[inside.sum(1) >= 2]
        if surface.kind == "sphere":
            d, e, _ = surface.tangent_frames(cand)
            dirs = np.stack([d, e], axis=1)
        else:
            k = 3 if surface.kind == "euclidean" else 2
            dirs = np.broadcast_to(np.eye(3)[:k], (len(cand), k, 3))
        plus = surface.project(cand[:, None, :] + FD_STEP * dirs)
        minus = surface.project(cand[:, None, :] - FD_STEP * dirs)
        ok = (approx.covered_mask(plus.reshape(-1, 3)).reshape(plus.shape[:2])
              .all(1) &
              approx.covered_mask(minus.reshape(-1, 3))
              .reshape(plus.shape[:2]).all(1))
        take = np.nonzero(ok)[0][:PROBES]
        if len(take) < PROBES // 2:
            return [f"only {len(take)} finite-difference probes covered"]
        dirs, plus, minus = dirs[take], plus[take], minus[take]
        m, k = dirs.shape[:2]
        _, fp, naive_p = approx.batch_eval_all(plus.reshape(-1, 3))
        _, fm, naive_m = approx.batch_eval_all(minus.reshape(-1, 3))
        scale = float(np.sqrt((fp * fp).sum(-1)).max())

        def operator(f_plus, f_minus):
            deriv = ((f_plus - f_minus) / (2 * FD_STEP)).reshape(m, k, 3)
            if surface.kind == "euclidean":
                return np.sqrt((np.cross(dirs, deriv).sum(1) ** 2).sum(-1))
            return np.abs((dirs * deriv).sum(-1).sum(-1))

        corrected = operator(fp, fm)
        naive = operator(naive_p, naive_m)
        ratio = float(np.median(naive / np.maximum(corrected, 1e-300)))
        level = float(np.median(corrected)) / scale
        b.errors["fd_ratio"] = ratio
        b.errors["fd_level"] = level
        out = []
        if not ratio >= self.w.fd_ratio:
            out.append(f"naive/corrected finite-difference ratio {ratio:.3g} "
                       f"below {self.w.fd_ratio:g}")
        if not level <= self.w.fd_level:
            out.append(f"corrected finite-difference level {level:.3g} "
                       f"above {self.w.fd_level:g}")
        return out

    def _check_serial(self, b, nodes, values):
        """A workers=2 build and evaluation must match a serial one."""
        serial, solution, _ = self._build(nodes, values, workers=1)
        out = []
        if not (same_bits(solution.shifts, b.solution.shifts) and
                same_bits(solution.residual, b.solution.residual)):
            out.append("workers=2 shifts differ from a serial build")
        rng = np.random.default_rng(seed_sequence(self.seed, _PROBE_TAG))
        rows = np.sort(rng.choice(int(b.mask.sum()),
                                  min(SERIAL_SUBSET, int(b.mask.sum())),
                                  replace=False))
        pot, fld = serial.batch_eval(self.eval_set.points[b.mask][rows])
        if not (same_bits(pot, b.pot[rows]) and same_bits(fld, b.fld[rows])):
            out.append("workers=2 evaluation differs from a serial one")
        return out

    # -- set-up --------------------------------------------------------------

    def _setup_step(self, index):
        """One set-up step: the evaluation set on the build workloads, one
        built and bulk-evaluated approximant on the streaming workload."""
        t0 = time.perf_counter()
        with self._span("setup"):
            build = None
            if not self.w.stream:
                self.eval_set = self._make_eval_set()
            else:
                nodes, values = self.node_set(index)
                approx, solution, build_s = self._build(nodes, values)
                build = self._evaluate(approx, solution, build_s)
                if self.tracing:
                    self._alt_build(nodes, values)
        return SetupStep(seconds=time.perf_counter() - t0,
                         eval_set=self.eval_set, build=build)

    def _check_setup(self, step, first):
        out = []
        if first is not None and not same_bits(
                [step.eval_set.points, step.eval_set.truth_field],
                [first.eval_set.points, first.eval_set.truth_field]):
            out.append("evaluation set differs between set-up steps")
        if step.build is not None:
            out.extend(self._check_build(step.build))
        return out

    def setup_next(self):
        """Run the next set-up step.

        Set-up steps are spread over the run instead of all preceding the
        operations, so that set-up and operations sample the machine's
        speed, which drifts over minutes, across the same span of time.
        """
        r = len(self.steps)
        first = self.steps[0] if self.steps else None
        step = self._operation(f"setup-{r}", lambda: self._setup_step(r),
                               lambda s: self._check_setup(s, first))
        if step is None:
            raise RuntimeError(f"set-up step {r} failed")
        self.setup_s.append(step.seconds)
        self.steps.append(step)
        return step

    # -- workloads ---------------------------------------------------------

    def _build_op(self, index, nodes, values):
        approx, solution, build_s = self._build(nodes, values)
        b = self._evaluate(approx, solution, build_s)
        batches = Batches(np.random.default_rng(seed_sequence(
            self.seed, _QUERY_TAG, index)), len(self.eval_set.points))
        for _ in range(self.w.query_rounds * MAX_BATCH):
            b.queries.append(self._query(approx, batches.next()))
        if self.tracing:
            self._alt_build(nodes, values)
        return b

    def _alt_build(self, nodes, values):
        """The same build at the other worker count, for the thread
        speedup of the traced run."""
        other = 2 if self.w.workers == 1 else 1
        self._build(nodes, values, workers=other, span="alt_build")

    def _check_build_op(self, b, nodes, values):
        out = self._check_build(b)
        for q in b.queries:
            out.extend(self._check_query(b, q))
        if self.w.workers > 1:
            out.extend(self._check_serial(b, nodes, values))
        return out

    def run_builds(self):
        self.setup_next()
        measured = 0.0
        index = 0
        while measured < self.seconds or index < MIN_OPS:
            nodes, values = self.node_set(index)
            b = self._operation(
                f"op-{index}",
                lambda: self._build_op(index, nodes, values),
                lambda b: self._check_build_op(b, nodes, values))
            if b is not None:
                if index == 0:
                    self.reference_errors = b.errors
                self.builds.append(b)
                self.queries.extend(q.ms for q in b.queries)
                measured += (b.build_s + b.eval_s +
                             sum(q.ms for q in b.queries) / 1e3)
            index += 1
            if len(self.steps) < self.w.setup_repeats:
                self.setup_next()
        while len(self.steps) < self.w.setup_repeats:
            self.setup_next()

    def run_stream(self):
        """Queries start after the first set-up step and take turns among
        the approximants built so far; set-up step r runs after
        ``STEP_QUERIES * r`` queries, so which approximant answers a query
        depends on the seed alone."""
        repeats = self.w.setup_repeats
        self.eval_set = self._make_eval_set()
        batches = Batches(np.random.default_rng(seed_sequence(
            self.seed, _QUERY_TAG)), len(self.eval_set.points))
        streamed = []
        measured = 0.0
        count = 0
        while (measured < self.seconds or count < MIN_QUERIES
               or len(self.steps) < repeats):
            if (len(self.steps) < repeats and
                    count >= STEP_QUERIES * len(self.steps)):
                self.builds.append(self.setup_next().build)
                continue
            target = self.builds[count % len(self.builds)]
            index = batches.next()
            q = self._operation(
                f"query-{count}",
                lambda: self._query(target.approx, index),
                lambda q: self._check_query(target, q))
            count += 1
            if q is None:
                continue
            self.queries.append(q.ms)
            measured += q.ms / 1e3
            if target is self.builds[0]:
                streamed.append(q)
        self.reference_errors = self.builds[0].errors
        self.stream_errors = self._stream_errors(self.builds[0], streamed)

    def _stream_errors(self, ref, streamed):
        """Error protocol over every point streamed to the reference build.

        How many points a run streams depends on the machine's speed, so
        these errors are checked against the ceilings but not reported as
        metrics; the reference build's errors over the whole evaluation set
        are.
        """
        self.attempted += 1
        if not streamed:
            self.failed += 1
            self.failures.append({"op": "stream-errors",
                                  "problems": ["no query succeeded"]})
            return None
        index = np.concatenate([q.index[q.mask] for q in streamed])
        pot = np.concatenate([q.pot for q in streamed])
        fld = np.concatenate([q.fld for q in streamed])
        ev = self.eval_set
        errors = errors_of(pot, fld, ev.truth_pot[index],
                           ev.truth_field[index], ref.solution)
        bad = [f"streamed {k}={errors[k]:.3e} above ceiling {v:g}"
               for k, v in self.w.ceilings.items() if not errors[k] <= v]
        if bad:
            self.failed += 1
            self.failures.append({"op": "stream-errors", "problems": bad})
        return errors

    def run(self):
        if self.w.stream:
            self.run_stream()
        else:
            self.run_builds()
        return self

    # -- results -----------------------------------------------------------

    def end_to_end(self):
        """Every end-to-end metric, as {name: (value, unit)}."""
        err = self.reference_errors or {}
        nan = float("nan")
        return {
            "setup_s": (float(statistics.median(self.setup_s)), "s"),
            "build_s": (float(statistics.median(
                b.build_s for b in self.builds)), "s"),
            "eval_pts_per_s": (float(statistics.median(
                b.eval_pts_per_s for b in self.builds)), "1/s"),
            "query_ms.p50": (percentile(self.queries, 50), "ms"),
            "query_ms.p90": (percentile(self.queries, 90), "ms"),
            "err_field_inf": (err.get("err_field_inf", nan), "ratio"),
            "err_pot_inf": (err.get("err_pot_inf", nan), "ratio"),
            "glue_res_inf": (err.get("glue_res_inf", nan), "ratio"),
            "ok_frac": ((self.attempted - self.failed) / self.attempted,
                        "ratio"),
        }

    def overheads(self):
        """Traced minus untraced timings of the same work."""
        return {
            "trace.build_overhead_s": (
                float(statistics.median(self.traced_build_s)) -
                float(statistics.median(b.build_s for b in self.builds))),
            "trace.query_overhead_ms": (percentile(self.traced_query_ms, 50) -
                                        percentile(self.queries, 50)),
        }


class Batches:
    """Seeded query batches from the evaluation set.

    Sizes run through the values 1 to MAX_BATCH in a seeded order, each
    once per MAX_BATCH queries, so every run sees the same mix of sizes and
    only the points differ between seeds.
    """

    def __init__(self, rng, n_points):
        self.rng = rng
        self.n_points = n_points
        self.sizes = []

    def next(self):
        if not self.sizes:
            self.sizes = list(self.rng.permutation(MAX_BATCH) + 1)
        size = int(self.sizes.pop())
        return np.sort(self.rng.choice(self.n_points, size, replace=False))


def errors_of(pot, fld, truth_pot, truth_field, solution):
    """The error protocol of ``vecpum.experiment`` for one evaluation."""
    e_field, _ = relative_vector_errors(fld, truth_field)
    e_pot, _ = relative_potential_errors(pot, truth_pot)
    glue = (float(np.abs(solution.residual).max())
            if len(solution.residual) else 0.0)
    return {"err_field_inf": e_field, "err_pot_inf": e_pot,
            "glue_res_inf": glue}


def build_counts(approx, workers):
    """Sizes of one build, computed from its arrays, plus the worker count."""
    members = approx.cover.member_counts().astype(float)
    block = (approx.cover.nodes.shape[1]
             if approx.mode == "curl_euclidean" else 2)
    dim = block * members
    return {
        "workers": workers,
        "cover.patches": len(members),
        "cover.members_mean": float(members.mean()),
        "cover.members_max": float(members.max()),
        "localfit.pairs": float((members * members).sum()),
        "localfit.chol_gflop": float((dim ** 3).sum() / 3.0 / 1e9),
        "localfit.matrix_mb": float((dim * dim).sum() * 8.0 / 1e6),
        "localfit.fit_residual_max": float(max(f.fit_residual
                                               for f in approx.fits)),
    }
