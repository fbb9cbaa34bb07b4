"""Tests of the benchmark itself, on tiny inputs.

Run from the root of the repository:

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, seed, trace, cwd=ROOT, seconds=0.2):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    if cwd == ROOT:
        cmd += ["--size", "tiny"]
    cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-3])["detail"]


def test_workloads_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(workloads.WORKLOADS)


def test_layer_table_matches_benchmark_json():
    table = [{"name": n, "unit": u, "better": b}
             for n, u, b, _, _ in layers.LAYER_METRICS]
    assert table == SPEC["per_layer"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    proc = run_bench(workload, seed=5, trace=trace)
    assert proc.returncode == 0, proc.stderr
    result, detail = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec)
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
    if trace:
        assert os.path.isfile(os.path.join(ROOT, detail["spans_file"]))


def test_same_seed_reproduces_errors_bitwise():
    first = result_of(run_bench("sphere-build", seed=9, trace=0))
    second = result_of(run_bench("sphere-build", seed=9, trace=0))
    for name in ("err_field_inf", "err_pot_inf", "glue_res_inf"):
        assert (first[0]["metrics"][name]["value"] ==
                second[0]["metrics"][name]["value"])
    ops_a, ops_b = first[1]["op_errors"], second[1]["op_errors"]
    n = min(len(ops_a), len(ops_b))
    assert n >= 2 and ops_a[:n] == ops_b[:n]


@pytest.mark.parametrize("workload", ["sphere-build", "star-stream"])
def test_same_seed_repeats_computed_counts(workload):
    computed = [m[0] for m in layers.LAYER_METRICS if m[3]]
    first = result_of(run_bench(workload, seed=9, trace=1))[0]
    second = result_of(run_bench(workload, seed=9, trace=1, seconds=0.5))[0]
    for name in computed:
        assert (first["metrics"][name]["value"] ==
                second["metrics"][name]["value"]), name


def test_different_seed_changes_node_sets():
    run_a = workloads.Run(workloads.get("ball-build", "tiny"), 1, 0)
    run_b = workloads.Run(workloads.get("ball-build", "tiny"), 2, 0)
    # Node set 0 is the reference trial and does not depend on the seed.
    assert np.array_equal(run_a.node_set(0)[0], run_b.node_set(0)[0])
    assert not np.array_equal(run_a.node_set(1)[0], run_b.node_set(1)[0])
    assert np.array_equal(run_a.node_set(1)[0], run_a.node_set(1)[0])


def test_without_sources_exits_nonzero_and_prints_no_result():
    bare = os.path.join(ROOT, ".perfbench", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(WORKLOADS[0], seed=1, trace=0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_nests_and_restores_library():
    from vecpum import localfit, pum
    before = (localfit.fit_patch, pum.fit_patch,
              vars(localfit.LocalFit)["field_at"])
    tracer = spans.Tracer()
    run = workloads.Run(workloads.get("sphere-build", "tiny"), 1, 0,
                        tracer=tracer)
    run.eval_set = run._make_eval_set()
    nodes, values = run.node_set(1)
    with tracer.active("op"):
        run.tracing = True
        run._build(nodes, values)
    assert (localfit.fit_patch, pum.fit_patch,
            vars(localfit.LocalFit)["field_at"]) == before
    trace = spans.Trace(tracer.spans)
    fits = trace.named("localfit.fit_patch")
    assert fits and all(trace.parent_name(s) == "pum.build_approximant"
                        for s in fits)
    checks = [s for s in trace.named("localfit.field_at")
              if trace.parent_name(s) == "localfit.fit_patch"]
    assert len(checks) == len(fits)
    (root,) = trace.named("build")
    assert 0.0 <= trace.self_time(root) < root.duration


def test_union_length():
    assert spans.union_length([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert spans.union_length([(0, 2), (1, 3)], 1.5, 2.5) == 1.0
    assert spans.union_length([], 0, 1) == 0.0
