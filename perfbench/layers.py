"""Per-layer metrics of the traced run, and what each should move.

Each entry of ``LAYER_METRICS`` is (name, unit, better, computed, moves).
``computed`` marks a count derived from array sizes: it repeats exactly for
a given seed and measures no time.  ``moves`` names the end-to-end metric
and workload a change to that layer should move; on the other workloads
the prediction is no change.

Root spans are opened by the benchmark itself:

* ``setup``: one set-up step (``testbed`` node generation lives here),
* ``build``: one call of ``experiment.fit_and_glue``,
* ``alt_build``: the same build at the other worker count,
* ``eval``: ``covered_mask`` plus ``batch_eval`` over the evaluation set,
* ``query``: ``covered_mask`` plus ``batch_eval`` on a small batch.

A build metric is the median over ``build`` spans, an evaluation metric the
median over the workload's primary evaluation spans (``eval`` on the build
workloads, ``query`` on ``star-stream``).  A computed metric takes the
median over the first spans only, the ones every run of a seed makes
whatever its speed, so that it repeats exactly.
"""

import statistics

from spans import Trace

BUILDS = "build workloads"
LAYER_METRICS = (
    ("testbed.nodes_s", "s", "lower", False,
     "setup_s, all workloads; most on sphere-build"),
    ("cover.build_s", "s", "lower", False, "build_s, ball-build"),
    ("cover.patches", "count", "lower", True, "build_s, ball-build"),
    ("cover.members_mean", "count", "lower", True, "build_s, ball-build"),
    ("cover.members_max", "count", "lower", True, "build_s, ball-build"),
    ("cover.covers_s", "s", "lower", False,
     f"eval_pts_per_s, {BUILDS}; query_ms.p50, star-stream"),
    ("cover.dropped", "count", "lower", False,
     f"eval_pts_per_s, {BUILDS}; query_ms.p50, star-stream"),
    ("geometry.frames_s", "s", "lower", False, "build_s, sphere-build"),
    ("kernels.hessian_s", "s", "lower", False, f"build_s, {BUILDS}"),
    ("kernels.hessian_radii", "count", "lower", True, f"build_s, {BUILDS}"),
    ("kernels.phi_d1_radii", "count", "lower", True, f"build_s, {BUILDS}"),
    ("localfit.fit_s", "s", "lower", False,
     f"build_s, {BUILDS}; no change on star-stream queries"),
    ("localfit.assemble_s", "s", "lower", False, f"build_s, {BUILDS}"),
    ("localfit.selfcheck_s", "s", "lower", False, f"build_s, {BUILDS}"),
    ("localfit.solve_self_s", "s", "lower", False, f"build_s, {BUILDS}"),
    ("localfit.pairs", "count", "lower", True, f"build_s, {BUILDS}"),
    ("localfit.chol_gflop", "GFLOP", "lower", True, f"build_s, {BUILDS}"),
    ("localfit.matrix_mb", "MB", "lower", True, f"build_s, {BUILDS}"),
    ("localfit.fit_residual_max", "ratio", "lower", False, "accuracy only"),
    ("localfit.eval_s", "s", "lower", False,
     f"eval_pts_per_s, {BUILDS}; query_ms.*, star-stream"),
    ("glue.graph_s", "s", "lower", False,
     "build_s, ball-build; no change on sphere-build"),
    ("glue.system_s", "s", "lower", False,
     "build_s, ball-build; no change on sphere-build"),
    ("glue.solve_s", "s", "lower", False,
     "build_s, ball-build; no change on sphere-build"),
    ("glue.edges", "count", "lower", True,
     "build_s, ball-build; no change on sphere-build"),
    ("pum.build_s", "s", "lower", False, f"build_s, {BUILDS}"),
    ("pum.fit_wall_s", "s", "lower", False, f"build_s, {BUILDS}"),
    ("pum.thread_speedup", "ratio", "higher", False, "build_s, ball-build"),
    ("pum.eval_s", "s", "lower", False,
     f"eval_pts_per_s, {BUILDS}; query_ms.*, star-stream"),
    ("pum.accumulate_self_s", "s", "lower", False,
     f"eval_pts_per_s, {BUILDS}; query_ms.*, star-stream"),
    ("pum.point_patch_pairs", "count", "lower", True,
     f"eval_pts_per_s, {BUILDS}; query_ms.*, star-stream"),
    ("pum.pair_evals", "count", "lower", True,
     f"eval_pts_per_s, {BUILDS}; query_ms.*, star-stream"),
    ("pum.useful_frac", "ratio", "higher", True, "query_ms.*, star-stream"),
    ("trace.build_overhead_s", "s", "lower", False,
     "tracing cost: traced minus untraced build_s"),
    ("trace.query_overhead_ms", "ms", "lower", False,
     "tracing cost: traced minus untraced query_ms.p50"),
    ("trace.unaccounted_build_s", "s", "lower", False,
     "part of traced build_s that no layer span covers"),
)


def _sum(spans, name, key=None):
    picked = [s for s in spans if s.name == name]
    if key is None:
        return sum(s.duration for s in picked)
    return sum(s.counts.get(key, 0) for s in picked)


def _median(values):
    values = list(values)
    return float(statistics.median(values)) if values else float("nan")


def fit_wall(trace, root):
    """Wall time from the first fit start to the last fit end in a build."""
    fits = [s for s in trace.descendants(root)
            if s.name == "localfit.fit_patch"]
    if not fits:
        return float("nan")
    return max(s.end for s in fits) - min(s.start for s in fits)


def build_metrics(trace, root):
    """Layer metrics of one ``build`` (or ``alt_build``) span."""
    spans = trace.descendants(root)
    fit_ids = {s.id for s in spans if s.name == "localfit.fit_patch"}
    assemble_ids = {s.id for s in spans
                    if s.name == "localfit.assemble_system"}
    fits = [s for s in spans if s.id in fit_ids]
    out = {
        "cover.build_s": _sum(spans, "cover.assign_radii_and_inflate"),
        "geometry.frames_s": _sum(spans, "geometry.tangent_frames"),
        "kernels.hessian_s": _sum(spans, "kernels.hessian_coeffs"),
        "kernels.hessian_radii": sum(
            s.counts["radii"] for s in spans
            if s.name == "kernels.hessian_coeffs"
            and s.parent in assemble_ids),
        "kernels.phi_d1_radii": _sum(spans, "kernels.phi_d1_over_r", "radii"),
        "localfit.fit_s": sum(s.duration for s in fits),
        "localfit.assemble_s": _sum(spans, "localfit.assemble_system"),
        "localfit.selfcheck_s": sum(
            s.duration for s in spans
            if s.name == "localfit.field_at" and s.parent in fit_ids),
        "localfit.solve_self_s": sum(trace.self_time(s) for s in fits),
        "glue.graph_s": _sum(spans, "glue.build_glue_graph"),
        "glue.system_s": _sum(spans, "glue.build_shift_system"),
        "glue.solve_s": _sum(spans, "glue.solve_shifts"),
        "glue.edges": _sum(spans, "glue.build_glue_graph", "edges"),
        "pum.build_s": _sum(spans, "pum.build_approximant"),
        "pum.fit_wall_s": fit_wall(trace, root),
        "trace.unaccounted_build_s": trace.self_time(root),
    }
    for key in ("cover.patches", "cover.members_mean", "cover.members_max",
                "localfit.pairs", "localfit.chol_gflop", "localfit.matrix_mb",
                "localfit.fit_residual_max"):
        out[key] = root.counts[key]
    return out


def eval_metrics(trace, root):
    """Layer metrics of one ``eval`` or ``query`` span."""
    spans = trace.descendants(root)
    batches = [s for s in spans if s.name == "pum.batch_eval_all"]
    hits = _sum(spans, "localfit.field_potential_at", "points")
    slots = sum(s.counts["points"] * s.counts["patches"] for s in batches)
    return {
        "cover.covers_s": _sum(spans, "cover.covers"),
        "cover.dropped": _sum(spans, "cover.covers", "dropped"),
        "localfit.eval_s": _sum(spans, "localfit.field_potential_at"),
        "pum.eval_s": sum(s.duration for s in batches),
        "pum.accumulate_self_s": sum(trace.self_time(s) for s in spans
                                     if s.name == "pum.accumulate"),
        "pum.point_patch_pairs": hits,
        "pum.pair_evals": _sum(spans, "localfit.field_potential_at",
                               "pair_evals"),
        "pum.useful_frac": hits / slots if slots else 0.0,
    }


def layer_values(spans, primary_eval, first, overheads):
    """Every per-layer metric of a traced run, keyed by name.

    ``primary_eval`` is the root span name evaluation metrics come from;
    ``first`` maps "build" and ``primary_eval`` to how many of their first
    spans every run makes; ``overheads`` carries the tracing-overhead
    figures the runner measured by running the same work untraced and
    traced.
    """
    trace = Trace(spans)
    computed = {m[0] for m in LAYER_METRICS if m[3]}
    rows = {"build": [build_metrics(trace, r) for r in trace.named("build")],
            primary_eval: [eval_metrics(trace, r)
                           for r in trace.named(primary_eval)]}
    values = {}
    for name, of_name in rows.items():
        for key in (of_name[0] if of_name else {}):
            use = of_name[:first[name]] if key in computed else of_name
            values[key] = _median(row[key] for row in use)
    # cover.dropped is a mean: on star-stream most queries drop nothing.
    evals = rows[primary_eval]
    values["cover.dropped"] = (statistics.fmean(r["cover.dropped"]
                                                for r in evals)
                               if evals else float("nan"))
    values["testbed.nodes_s"] = _median(
        _sum(trace.descendants(r), "testbed.nodes")
        for r in trace.named("setup"))
    # Serial fit wall over workers=2 fit wall, paired by operation.
    walls = {}
    for name in ("build", "alt_build"):
        for root in trace.named(name):
            walls.setdefault(root.op, {})[root.counts["workers"]] = \
                fit_wall(trace, root)
    values["pum.thread_speedup"] = _median(
        w[1] / w[2] for w in walls.values() if 1 in w and 2 in w)
    values.update(overheads)
    return values
