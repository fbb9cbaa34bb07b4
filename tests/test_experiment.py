import csv
import io
import os
from dataclasses import replace

import numpy as np
import pytest

from vecpum import cli, experiment, geometry, testbed
from vecpum.errors import ConfigError
from vecpum.experiment import (RunConfig, default_config, emit_csv,
                               emit_summary, fit_rate, run_experiment)

TIMING_COLS = ("t_fit_ms", "t_eval_ms")


def tiny_config(**overrides):
    base = dict(problem="star2d", kernel="imq", eps=7.0, q=8.0, delta=0.5,
                gamma=4.0, n_values=(200,), trials=1, seed=1, eval_n=500)
    base.update(overrides)
    return RunConfig(**base)


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_smoke_run_reports_finite_errors():
    res = run_experiment(tiny_config())
    assert len(res.records) == 1
    rec = res.records[0]
    for attr in ("err_field_inf", "err_field_2", "err_pot_inf", "err_pot_2",
                 "glue_res_inf"):
        assert np.isfinite(getattr(rec, attr))
    assert rec.max_fit_residual <= 1e-8
    assert rec.n_actual > 0


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        tiny_config(eps=-1.0)
    with pytest.raises(ValueError):
        tiny_config(q=0.0)
    with pytest.raises(ValueError):
        tiny_config(delta=0.0)
    with pytest.raises(ValueError):
        tiny_config(gamma=-0.5)
    with pytest.raises(ValueError):
        tiny_config(trials=0)
    with pytest.raises(ValueError):
        run_experiment(tiny_config(n_values=()))


def test_node_counts_below_generator_minimum_rejected():
    with pytest.raises(ValueError, match="eval_n"):
        tiny_config(eval_n=testbed.MIN_NODES - 1)
    with pytest.raises(ValueError, match="node count"):
        tiny_config(n_values=(200, testbed.MIN_NODES - 1))
    cfg = tiny_config(n_values=(testbed.MIN_NODES,),
                      eval_n=testbed.MIN_NODES)
    assert cfg.n_values == (testbed.MIN_NODES,)
    # custom runs draw no nodes, so their sizes are not checked
    RunConfig(problem="custom", kernel="imq", eps=4.0, q=3.0, delta=0.5,
              n_values=(), eval_n=0)


def test_rate_fit_algebraic_exact():
    ns = np.array([1000, 2000, 4000, 8000])
    errs = np.sqrt(ns) ** -3.5
    slope, r2 = fit_rate(ns, errs, "algebraic")
    assert slope == pytest.approx(-3.5, abs=1e-10)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_rate_fit_superalgebraic_exact():
    ns = np.array([1000, 2000, 4000, 8000])
    errs = np.exp(-2.0 * np.log(ns) * ns ** 0.25)
    c, r2 = fit_rate(ns, errs, "superalgebraic", dim=2)
    assert c == pytest.approx(2.0, abs=1e-10)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        fit_rate(ns, errs, "superalgebraic")
    with pytest.raises(ValueError):
        fit_rate(ns, errs, "loglog")


def test_rate_fit_needs_three_points():
    with pytest.raises(ValueError):
        fit_rate([100, 200], [1.0, 0.5], "algebraic")


def test_error_protocol_zero_mean():
    approx = np.array([1.0, 2.0, 3.0])
    truth = np.array([11.0, 12.0, 13.0])
    inf, two = experiment.relative_potential_errors(approx, truth)
    # identical up to a constant: exactly zero after normalization
    assert inf == 0.0 and two == 0.0


def test_csv_round_trip(tmp_path):
    res = run_experiment(tiny_config())
    path = tmp_path / "out.csv"
    emit_csv(res, path)
    rows = read_rows(path)
    assert len(rows) == 1
    row = rows[0]
    rec = res.records[0]
    assert row["problem"] == "star2d"
    assert int(row["N"]) == rec.n_actual
    for col in ("err_field_inf", "err_pot_2", "glue_res_inf",
                "max_fit_residual"):
        assert float(row[col]) == getattr(rec, col)
    assert int(row["n_eval_dropped"]) == rec.n_eval_dropped
    assert rec.n_eval_used + rec.n_eval_dropped == 500


def test_csv_columns_are_only_appended():
    # Readers index the CSV by position, so columns are never reordered.
    assert experiment.CSV_HEADER.split(",") == [
        "problem", "kernel", "eps", "q", "delta", "gamma", "N", "trial",
        "err_field_inf", "err_field_2", "err_pot_inf", "err_pot_2",
        "glue_res_inf", "t_fit_ms", "t_eval_ms", "max_fit_residual",
        "n_eval_dropped"]


def test_csv_header_only_for_empty_result(tmp_path):
    res = experiment.RunResult(config=tiny_config())
    path = tmp_path / "empty.csv"
    emit_csv(res, path)
    text = path.read_text().strip()
    assert text == experiment.CSV_HEADER


def test_determinism_identical_csv_modulo_timings(tmp_path):
    cfg = tiny_config(n_values=(200, 400), trials=2)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    emit_csv(run_experiment(cfg), p1)
    emit_csv(run_experiment(cfg), p2)
    rows1 = read_rows(p1)
    rows2 = read_rows(p2)
    assert len(rows1) == len(rows2) == 4
    for r1, r2 in zip(rows1, rows2):
        for key, val in r1.items():
            if key not in TIMING_COLS:
                assert val == r2[key], key


def test_summary_lists_each_level(capsys):
    res = run_experiment(tiny_config(n_values=(200, 400)))
    text = emit_summary(res)
    capsys.readouterr()
    assert text.count("N~") == 2


def test_eval_resampling_stability():
    cfg_a = tiny_config(n_values=(2000,), eps=13.0, eval_n=4000, seed=3)
    cfg_b = tiny_config(n_values=(2000,), eps=13.0, eval_n=8000, seed=3)
    ra = run_experiment(cfg_a).records[0]
    rb = run_experiment(cfg_b).records[0]
    # doubling the evaluation set changes the 2-norm error by < 20%
    assert abs(ra.err_field_2 - rb.err_field_2) < 0.2 * ra.err_field_2


# surface -> (node generator, field, bound on the field residual at the
# nodes, extra RunConfig settings).  300 nodes leave the sphere's jets
# under-resolved, hence its looser bound.
CUSTOM_CASES = {
    "plane": (testbed.nodes_star, testbed.u1, 0.1, {}),
    "sphere": (testbed.nodes_sphere, testbed.u2, 0.3, {}),
    "r2": (testbed.nodes_star, testbed.grad_psi1, 0.1, {}),
    "r3": (testbed.nodes_ball, testbed.u3, 0.1,
           dict(mode="curl_euclidean", area=4.19)),
}


@pytest.mark.parametrize("surface", list(CUSTOM_CASES))
def test_custom_problem_round_trip(surface, tmp_path):
    make_nodes, make_field, bound, extra = CUSTOM_CASES[surface]
    pts = make_nodes(300, 11)
    vals = make_field(pts)
    nodes_file = tmp_path / "nodes.txt"
    values_file = tmp_path / "values.txt"
    testbed.save_points(pts, nodes_file)
    testbed.save_points(vals, values_file)
    cfg = RunConfig(problem="custom", kernel="imq", eps=4.0, q=3.0,
                    delta=0.5, gamma=4.0, n_values=(), trials=1, seed=0,
                    eval_n=0, nodes_file=str(nodes_file),
                    values_file=str(values_file), surface=surface, **extra)
    res = run_experiment(cfg)
    assert len(res.records) == 1
    rec = res.records[0]
    assert rec.n_requested == rec.n_actual == rec.n_eval_used == len(pts)
    assert rec.trial == 0 and rec.n_eval_dropped == 0
    # the blended field at the nodes stays within the correction-term scale
    # of the samples (true interpolation holds patchwise, N here is tiny)
    assert np.isfinite(rec.err_field_inf) and rec.err_field_inf < bound
    assert rec.max_fit_residual <= 1e-8
    assert np.isnan(rec.err_pot_inf) and np.isnan(rec.err_pot_2)

    # the record is a direct fit, glue and evaluation at the sample nodes
    problem, nodes, values = experiment._custom_problem(cfg)
    approx, solution = experiment.fit_and_glue(problem, nodes, values, cfg)
    _, fld = approx.batch_eval(nodes)
    e_inf, e_two = experiment.relative_vector_errors(fld, values)
    assert (rec.err_field_inf, rec.err_field_2) == (e_inf, e_two)
    assert rec.glue_res_inf == np.abs(solution.residual).max()
    assert rec.max_fit_residual == max(f.fit_residual for f in approx.fits)

    threaded = run_experiment(replace(cfg, workers=2)).records[0]
    for name in vars(rec):
        if name not in ("t_fit_ms", "t_eval_ms"):
            assert np.array_equal(getattr(threaded, name),
                                  getattr(rec, name), equal_nan=True), name


def test_cli_runs_and_writes_csv(tmp_path):
    out = tmp_path / "run.csv"
    code = cli.main(["--problem", "star2d", "--eps", "7", "--n", "200",
                     "--trials", "1", "--eval-n", "400", "--seed", "2",
                     "--out", str(out)])
    assert code == 0
    rows = read_rows(out)
    assert len(rows) == 1
    assert rows[0]["kernel"] == "imq"


def test_cli_custom_requires_files(capsys):
    assert cli.main(["--problem", "custom"]) == 2
    assert "nodes-file" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["--n", "5"], ["--eval-n", "0"],
                                  ["--n", "200", "--n", "9"]])
def test_cli_rejects_small_node_counts(args, capsys, monkeypatch):
    runs = []
    monkeypatch.setattr(cli, "run_experiment", runs.append)
    assert cli.main(["--problem", "star2d"] + args) == 2
    assert runs == []
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["--gamma", "nan"], ["--gamma", "inf"], ["--eps", "inf"],
    ["--eps", "nan"], ["--delta", "inf"], ["--q", "nan"], ["--q", "inf"]])
@pytest.mark.parametrize("problem", [
    ["--problem", "star2d", "--n", "500", "--trials", "1", "--eval-n", "500"],
    ["--problem", "custom", "--nodes-file", "n.txt", "--values-file",
     "v.txt"]])
def test_cli_rejects_non_finite_parameters(problem, args, capsys,
                                           monkeypatch):
    runs = []
    monkeypatch.setattr(cli, "run_experiment", runs.append)
    assert cli.main(problem + args) == 2
    assert runs == []
    assert "must be" in capsys.readouterr().err


@pytest.mark.parametrize("area", ["0", "-1", "nan", "inf"])
def test_cli_rejects_bad_area(area, capsys, monkeypatch):
    runs = []
    monkeypatch.setattr(cli, "run_experiment", runs.append)
    assert cli.main(["--problem", "custom", "--nodes-file", "n.txt",
                     "--values-file", "v.txt", "--area", area]) == 2
    assert runs == []
    assert "area must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("problem", [
    ["--problem", "star2d", "--n", "300", "--trials", "1", "--eval-n", "300"],
    ["--problem", "custom", "--nodes-file", "n.txt", "--values-file",
     "v.txt"]])
def test_cli_rejects_negative_seed(problem, capsys, monkeypatch):
    # numpy's SeedSequence refuses a negative seed only once the run draws
    # its nodes, which made it a run failure (exit 1).
    runs = []
    monkeypatch.setattr(cli, "run_experiment", runs.append)
    assert cli.main(problem + ["--seed", "-1"]) == 2
    assert runs == []
    assert "seed must be nonnegative" in capsys.readouterr().err
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        tiny_config(seed=-1)


def test_cli_gamma_that_disconnects_the_glue_fails_typed(tmp_path, capsys):
    # At gamma=1e6 every glue weight but the nearest underflows to zero;
    # the run used to fail with numpy's "not positive definite".
    run = ["--problem", "star2d", "--n", "2500", "--trials", "1",
           "--eval-n", "500"]
    assert cli.main(run + ["--gamma", "1e6"]) == 1
    err = capsys.readouterr().err
    assert "positive weight at gamma=1e+06" in err and "disconnected" in err
    assert cli.main(run + ["--gamma", "1000"]) == 0


@pytest.mark.parametrize("gamma", ["5000", "7000"])
def test_cli_gamma_near_weight_underflow_fails_typed(gamma, capsys):
    # On this cover the smallest weight on a maximum spanning tree of the
    # glue edges is 4.5e-6 at gamma=1000, which still builds (above), and
    # 1.8e-27 at gamma=5000.  At 5000 and 7000 the factorization used to
    # succeed on weights at the rounding level, and the run exited 0 with
    # a glue residual of 6e-2 and 0.25 (2.7e-3 at gamma=4).
    run = ["--problem", "star2d", "--n", "2500", "--trials", "1",
           "--eval-n", "500", "--gamma", gamma]
    assert cli.main(run) == 1
    err = capsys.readouterr().err
    assert f"positive weight at gamma={gamma}" in err
    assert "weight >= sqrt(eps) do not connect it" in err


SEEDED = os.path.join(os.path.dirname(__file__), "data", "seeded_outputs.csv")


@pytest.mark.parametrize("problem,n", [("star2d", 2500), ("sphere", 2000),
                                       ("ball", 3000)])
def test_seeded_outputs_match_reference(problem, n, tmp_path):
    # Columns 1-8 are the configuration and must match exactly; the errors
    # in columns 9-13 may differ between BLAS builds only in the last bits.
    out = tmp_path / "run.csv"
    assert cli.main(["--problem", problem, "--n", str(n), "--trials", "1",
                     "--seed", "3", "--eval-n", "3000",
                     "--out", str(out)]) == 0
    (got,) = read_rows(out)
    (want,) = [row for row in read_rows(SEEDED) if row["problem"] == problem]
    names = list(want)
    assert names == experiment.CSV_HEADER.split(",")[:13]
    assert [got[k] for k in names[:8]] == [want[k] for k in names[:8]]
    assert np.allclose([float(got[k]) for k in names[8:]],
                       [float(want[k]) for k in names[8:]],
                       rtol=1e-9, atol=0.0)


def test_non_finite_parameters_rejected():
    for name in ("eps", "q", "delta", "gamma"):
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match=f"{name} must be"):
                tiny_config(**{name: bad})


@pytest.mark.parametrize("surface,columns,need", [
    ("r3", 2, 3), ("plane", 3, 2), ("sphere", 2, 3), ("r2", 3, 2)])
def test_cli_custom_columns_must_fit_surface(surface, columns, need,
                                             tmp_path, capsys):
    pts = np.random.default_rng(5).uniform(-1, 1, (300, columns))
    testbed.save_points(pts, tmp_path / "n.txt")
    testbed.save_points(pts, tmp_path / "v.txt")
    code = cli.main(["--problem", "custom", "--surface", surface,
                     "--nodes-file", str(tmp_path / "n.txt"),
                     "--values-file", str(tmp_path / "v.txt")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"surface {surface!r} needs {need} columns" in err
    assert "Traceback" not in err


def _scale_nodes(nodes, values):
    nodes *= 1.01


def _nan_value(nodes, values):
    values[7, 0] = np.nan


def _normal_value(nodes, values):
    values += 0.01 * nodes


def _repeat_node(nodes, values):
    nodes[1] = nodes[0]


@pytest.mark.parametrize("surface,mode,spoil,message", [
    pytest.param("plane", "curl_euclidean", None,
                 "mode 'curl_euclidean' does not fit",
                 id="plane-curl_euclidean-1.0"),
    pytest.param("r2", "div_surface", None, "mode 'div_surface' does not fit",
                 id="r2-div_surface-1.0"),
    pytest.param("sphere", None, _scale_nodes,
                 "off the sphere by up to 1.000e-02", id="sphere-None-1.01"),
    pytest.param("plane", None, _nan_value, "sample values must be finite",
                 id="plane-nan-value"),
    pytest.param("sphere", None, _normal_value, "values are not tangent",
                 id="sphere-normal-value"),
    pytest.param("plane", None, _repeat_node,
                 "nodes must be pairwise distinct", id="plane-repeated-node")])
def test_cli_custom_samples_must_fit_surface(surface, mode, spoil, message,
                                             tmp_path, capsys, monkeypatch):
    builds = []
    monkeypatch.setattr(experiment, "build_approximant",
                        lambda *args, **kw: builds.append(args))
    if surface == "sphere":
        nodes = testbed.nodes_sphere(300, 2)
        values = testbed.u2(nodes)
    else:
        nodes = testbed.nodes_star(300, 2)
        values = testbed.u1(nodes)
    if spoil is not None:
        spoil(nodes, values)
    testbed.save_points(nodes, tmp_path / "n.txt")
    testbed.save_points(values, tmp_path / "v.txt")
    argv = ["--problem", "custom", "--surface", surface, "--nodes-file",
            str(tmp_path / "n.txt"), "--values-file", str(tmp_path / "v.txt")]
    code = cli.main(argv + (["--mode", mode] if mode else []))
    err = capsys.readouterr().err
    assert code == 2
    assert builds == []
    assert err.startswith("vecpum: configuration error: ")
    assert err.count("\n") == 1
    assert message in err


def test_cli_custom_shapes_must_agree(tmp_path, capsys):
    pts = np.random.default_rng(5).uniform(-1, 1, (300, 2))
    testbed.save_points(pts, tmp_path / "n.txt")
    testbed.save_points(pts[:299], tmp_path / "v.txt")
    code = cli.main(["--problem", "custom", "--nodes-file",
                     str(tmp_path / "n.txt"), "--values-file",
                     str(tmp_path / "v.txt")])
    assert code == 2
    assert "differ in shape" in capsys.readouterr().err


def test_custom_only_settings_rejected_for_built_in_problems(capsys,
                                                             monkeypatch):
    runs = []
    monkeypatch.setattr(cli, "run_experiment", runs.append)
    assert cli.main(["--problem", "star2d", "--surface", "r3", "--mode",
                     "curl_euclidean", "--area", "99", "--n", "200",
                     "--trials", "1", "--eval-n", "200"]) == 2
    assert runs == []
    assert "custom problems only" in capsys.readouterr().err
    with pytest.raises(ValueError, match="surface"):
        default_config("ball", surface="r3")


def test_cli_custom_ignores_n_and_trials():
    args = cli.build_parser().parse_args([
        "--problem", "custom", "--nodes-file", "n.txt", "--values-file",
        "v.txt", "--n", "500", "--trials", "3"])
    cfg = cli.config_from_args(args)
    assert (cfg.kernel, cfg.eps, cfg.q, cfg.delta) == ("imq", 4.0, 3.0, 0.5)
    assert cfg.n_values == () and cfg.trials == 1


def test_cli_reports_run_failure(tmp_path, capsys):
    missing = tmp_path / "nope.txt"
    code = cli.main(["--problem", "custom", "--nodes-file", str(missing),
                     "--values-file", str(missing)])
    assert code == 1


def test_default_configs_match_benchmarks():
    star = default_config("star2d")
    assert star.kernel == "imq" and star.eps == 13.0 and star.delta == 0.5
    sphere = default_config("sphere")
    assert sphere.kernel == "matern4" and sphere.eps == 7.5
    assert sphere.delta == pytest.approx(9.0 / 16.0)
    ball = default_config("ball")
    assert ball.kernel == "imq" and ball.eps == 4.0 and ball.q == 3.0
    assert ball.delta == 0.25
    for cfg in (star, sphere, ball):
        assert cfg.gamma == 4.0


def test_cli_config_error_inside_a_stage_exits_2(capsys):
    # At q=60 the patches are too large for any plane patch center to lie
    # inside the star.  The cover fails in the fit stage with a
    # ConfigError, which is a configuration error naming the stage, N and
    # trial, not a run failure.
    code = cli.main(["--problem", "star2d", "--n", "300", "--trials", "1",
                     "--eval-n", "300", "--q", "60"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("vecpum: configuration error: stage 'fit' failed "
                          "at N=300, trial=0: no plane patch centers")
    assert err.count("\n") == 1
    with pytest.raises(experiment.ExperimentError) as info:
        run_experiment(tiny_config(q=60.0))
    assert isinstance(info.value, ConfigError)
    assert (info.value.stage, type(info.value.__cause__)) == ("fit",
                                                              ConfigError)


def test_cli_patch_fit_failure_is_a_run_failure(capsys):
    # A local system that is not numerically positive definite still fails
    # the run, as a glue graph the weights disconnect does (above).
    code = cli.main(["--problem", "star2d", "--n", "2500", "--trials", "1",
                     "--eval-n", "500", "--eps", "2"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("vecpum: run failed: stage 'fit' failed")
    assert "not numerically positive definite" in err


@pytest.mark.parametrize("problem", [["star2d", "--n", "2500"],
                                     ["sphere", "--kernel", "matern4",
                                      "--n", "2000"]],
                         ids=["star2d-imq", "sphere-matern4"])
def test_cli_kernel_overflow_is_a_run_failure(problem, capsys):
    # At eps=1e78 eps^4 overflows in both kernels' Hessian coefficients, and
    # the local systems hold NaN, which the Cholesky factorization passes
    # through as a success.  numpy warns, and the fit must then fail with
    # the typed error: never exit 0 with NaN errors.
    with pytest.warns(RuntimeWarning):
        code = cli.main(["--problem", *problem, "--trials", "1",
                         "--eval-n", "500", "--eps", "1e78"])
    out, err = capsys.readouterr()
    assert code == 1
    assert err.startswith("vecpum: run failed: stage 'fit' failed")
    assert "local system for patch 0 has non-finite entries" in err
    assert "nan" not in out


@pytest.mark.parametrize("text", ["", "\n  \n"])
@pytest.mark.parametrize("empty", ["nodes", "values"])
def test_cli_custom_file_without_samples(empty, text, tmp_path, capsys,
                                         monkeypatch):
    # numpy reads such a file, with a warning, as one column of no rows,
    # which used to be reported as the wrong column count for the surface.
    builds = []
    monkeypatch.setattr(experiment, "build_approximant",
                        lambda *args, **kw: builds.append(args))
    nodes = testbed.nodes_star(300, 2)
    files = {"nodes": tmp_path / "n.txt", "values": tmp_path / "v.txt"}
    testbed.save_points(nodes, files["nodes"])
    testbed.save_points(testbed.u1(nodes), files["values"])
    files[empty].write_text(text)
    code = cli.main(["--problem", "custom", "--nodes-file",
                     str(files["nodes"]), "--values-file",
                     str(files["values"])])
    err = capsys.readouterr().err
    assert code == 2
    assert builds == []
    assert err == (f"vecpum: configuration error: the {empty} file "
                   f"{str(files[empty])!r} holds no samples\n")


@pytest.mark.parametrize("text,numpy_says", [
    ("foo bar\n", "could not convert string 'foo'"),
    ("0.1 0.2\n0.3\n", "the number of columns changed")],
    ids=["non-numeric", "ragged"])
@pytest.mark.parametrize("bad", ["nodes", "values"])
def test_cli_custom_file_with_malformed_samples(bad, text, numpy_says,
                                                tmp_path, capsys,
                                                monkeypatch):
    # numpy's ValueError used to end the run as a failure (exit 1) without
    # naming the file.
    builds = []
    monkeypatch.setattr(experiment, "build_approximant",
                        lambda *args, **kw: builds.append(args))
    nodes = testbed.nodes_star(300, 2)
    files = {"nodes": tmp_path / "n.txt", "values": tmp_path / "v.txt"}
    testbed.save_points(nodes, files["nodes"])
    testbed.save_points(testbed.u1(nodes), files["values"])
    files[bad].write_text(text)
    code = cli.main(["--problem", "custom", "--nodes-file",
                     str(files["nodes"]), "--values-file",
                     str(files["values"])])
    err = capsys.readouterr().err
    assert code == 2
    assert builds == []
    assert err.startswith(f"vecpum: configuration error: the {bad} file "
                          f"{str(files[bad])!r} holds malformed samples: ")
    assert numpy_says in err and err.count("\n") == 1
