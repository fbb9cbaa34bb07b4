"""vecpum benchmark: seeded build and query workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sphere-build --seed 1 --seconds 8 \
        --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs every unit of work a
second time under the span tracer and reports the per-layer metrics.  The
line before it holds the run's context (versions, BLAS thread variables,
load average), and the one before that the run's details.  Traced runs
write their spans to ``.perfbench/`` in the checkout.

The library is imported from ``src/`` of the checkout and nowhere else;
without it the benchmark exits with status 2 and prints no result.
"""

import argparse
import json
import math
import os
import platform
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
            "NUMEXPR_NUM_THREADS")
# A run is flagged when, just before it starts, other work keeps more than
# this share of the processors busy, or the hypervisor steals more than
# STOLEN_SHARE of their time.
BUSY_SHARE = 0.25
STOLEN_SHARE = 0.05


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for the benchmark's tests")
    return parser.parse_args(argv)


def import_library():
    """Import vecpum from the checkout's src/, or exit with status 2."""
    if not os.path.isfile(os.path.join(SRC, "vecpum", "__init__.py")):
        sys.stderr.write(f"vecpum sources not found under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    import vecpum
    if os.path.dirname(os.path.dirname(os.path.abspath(vecpum.__file__))) \
            != SRC:
        sys.stderr.write(f"vecpum imported from {vecpum.__file__}, "
                         f"not from {SRC}\n")
        sys.exit(2)


def loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().split()[:4]
    except OSError:
        return None


def cpu_times():
    """Processor time counters of the whole machine, or None."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()[1:]
        return [int(v) for v in fields]
    except (OSError, ValueError):
        return None


def load_shares(before, after, own_ticks=0.0):
    """Shares of processor time that other work took and the hypervisor
    stole between two ``cpu_times()`` samples, leaving out ``own_ticks``
    used by this process."""
    if before is None or after is None:
        return None
    delta = [a - b for a, b in zip(after, before)]
    total = sum(delta[:8]) or 1
    busy = total - delta[3] - delta[4] - delta[7]
    return {"others": max(busy - own_ticks, 0) / total,
            "steal": delta[7] / total}


def machine_load(window=0.5):
    """Load shares over a short window in which this process sleeps."""
    before = cpu_times()
    time.sleep(window)
    return load_shares(before, cpu_times())


def own_cpu_ticks():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return (usage.ru_utime + usage.ru_stime) * os.sysconf("SC_CLK_TCK")


def git_commit():
    """The checked-out commit, read from .git without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def blas_versions():
    import numpy
    import scipy
    out = {}
    for name, mod in (("numpy", numpy), ("scipy", scipy)):
        try:
            blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            out[name] = f"{blas.get('name')} {blas.get('version')}"
        except (TypeError, KeyError, AttributeError):
            out[name] = None
    return out


def run_context():
    import numpy
    import scipy
    nproc = len(os.sched_getaffinity(0))
    load = machine_load()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_versions(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_commit": git_commit(),
        "loadavg_start": loadavg(),
        "cpu_start": load,
        "loaded_at_start": (load is not None and
                            (load["others"] > BUSY_SHARE or
                             load["steal"] > STOLEN_SHARE)),
    }


def finite_or_none(value):
    value = float(value)
    return value if math.isfinite(value) else None


def main(argv=None):
    import_library()
    sys.path.insert(0, HERE)
    import layers
    import spans
    import workloads

    args = parse_args(argv, sorted(workloads.WORKLOADS))
    context = run_context()
    if context["loaded_at_start"]:
        sys.stderr.write(f"warning: processors busy {context['cpu_start']} "
                         f"at start; figures may be disturbed\n")
    start_times, own_start = cpu_times(), own_cpu_ticks()
    workload = workloads.get(args.workload, args.size)
    tracer = spans.Tracer() if args.trace else None
    run = workloads.Run(workload, args.seed, args.seconds, tracer=tracer,
                        log=lambda msg: sys.stderr.write(msg + "\n"))
    try:
        run.run()
        if args.trace:
            primary = "query" if workload.stream else "eval"
            first = {"build": workloads.MIN_OPS,
                     primary: (workloads.MIN_QUERIES if workload.stream
                               else workloads.MIN_OPS)}
            values = layers.layer_values(tracer.spans, primary, first,
                                         run.overheads())
            metrics = {name: (values.get(name, float("nan")), unit)
                       for name, unit, _, _, _ in layers.LAYER_METRICS}
        else:
            metrics = dict(run.end_to_end())
            metrics["peak_rss_mb"] = (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    except Exception:  # a run that cannot finish still reports a result
        traceback.print_exc()
        run.failed = max(run.failed, 1)
        metrics = {}
    out = {name: {"value": finite_or_none(v), "unit": unit}
           for name, (v, unit) in metrics.items()}
    correct = run.failed == 0 and all(m["value"] is not None
                                      for m in out.values())

    detail = {
        "workload": workload.name, "size": args.size, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "builds": len(run.builds), "queries": len(run.queries),
        "setup_s": run.setup_s, "reference_errors": run.reference_errors,
        "stream_errors": run.stream_errors,
        "op_errors": run.op_errors, "failures": run.failures[:20],
    }
    if args.trace:
        detail["computed"] = [m[0] for m in layers.LAYER_METRICS if m[3]]
        detail["spans_file"] = write_spans(tracer, args)
    context["loadavg_end"] = loadavg()
    context["cpu_during_run"] = load_shares(
        start_times, cpu_times(), own_cpu_ticks() - own_start)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": out}))
    return 0 if correct else 1


def write_spans(tracer, args):
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    name = f"spans-{args.workload}-{args.size}-seed{args.seed}.json"
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        json.dump([s.as_dict() for s in tracer.spans], fh)
    return os.path.relpath(path, ROOT)


if __name__ == "__main__":
    sys.exit(main())
