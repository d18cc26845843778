"""In-process tests of the command-line interface.

Each test drives ``main(argv)`` directly and inspects exit codes, emitted
JSON envelopes and output files. Exit convention: 0 success, 2 usage
error, 3 data error, 4 numerical failure.
"""

import csv
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from sacekit.cli import UsageError, build_parser, main, parse_rho_grid
from sacekit.data import load_dataset


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def make_data(tmp_path, capsys, n=600, name="d.csv", extra=()):
    path = tmp_path / name
    code, _, err = run_cli(
        capsys,
        "simulate", "--n", str(n), "--delta1", "1", "--seed", "3",
        "--out", str(path), *extra,
    )
    assert code == 0, err
    return path


def test_simulate_writes_loadable_csv_and_envelope(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    oracle_out = tmp_path / "sim.oracle.csv"
    code, stdout, _ = run_cli(
        capsys,
        "simulate", "--n", "250", "--delta1", "1", "--delta2", "1",
        "--er-violation", "--seed", "11",
        "--out", str(out), "--oracle-out", str(oracle_out),
    )
    assert code == 0
    env = json.loads(stdout)
    assert env["command"] == "simulate"
    assert env["seed"] == 11
    assert env["result"]["n"] == 250
    assert set(env) >= {"version", "duration_s", "config", "result"}
    data = load_dataset(out)
    assert len(data) == 250
    assert data.covariate_names == ("x1", "x2", "x3")
    with open(oracle_out, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["stratum", "s_treated", "s_control", "y_treated", "y_control"]
    assert len(rows) == 250
    assert {row[0] for row in rows} <= {"LL", "LD", "DL", "DD"}


def test_simulate_is_deterministic(tmp_path, capsys):
    p1 = make_data(tmp_path, capsys, n=150, name="a.csv")
    p2 = make_data(tmp_path, capsys, n=150, name="b.csv")
    assert p1.read_bytes() == p2.read_bytes()
    p3 = tmp_path / "c.csv"
    code, _, _ = run_cli(
        capsys, "simulate", "--n", "150", "--delta1", "1", "--seed", "4",
        "--out", str(p3),
    )
    assert code == 0
    assert p3.read_bytes() != p1.read_bytes()


def test_simulate_usage_errors(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--out", str(tmp_path / "x.csv")])  # --n missing
    assert exc.value.code == 2
    code, _, err = run_cli(
        capsys, "simulate", "--n", "-5", "--out", str(tmp_path / "x.csv")
    )
    assert code == 2
    assert "usage error" in err
    out = tmp_path / "empty.csv"
    code, stdout, err = run_cli(capsys, "simulate", "--n", "0", "--out", str(out))
    assert (code, stdout) == (2, "")
    assert "usage error: --n must be at least 1" in err
    assert not out.exists()


def test_fit_point_estimate_fields(tmp_path, capsys):
    data = make_data(tmp_path, capsys)
    out = tmp_path / "fit.json"
    code, stdout, _ = run_cli(
        capsys, "fit", "--data", str(data), "--method", "naive", "--out", str(out)
    )
    assert code == 0
    assert stdout == ""  # report went to the file
    env = json.loads(out.read_text())
    r = env["result"]
    assert r["method"] == "naive"
    assert np.isfinite(r["point"])
    assert r["se"] is None and r["n_boot"] == 0 and r["converged"] is True
    assert r["failed_by_reason"] == {
        "estimation_error": 0, "non_finite": 0, "not_converged": 0
    }


def test_fit_model_methods_and_bootstrap(tmp_path, capsys):
    data = make_data(tmp_path, capsys, n=900)
    code, stdout, _ = run_cli(
        capsys, "fit", "--data", str(data), "--method", "prop-ni"
    )
    assert code == 0
    env = json.loads(stdout)
    assert env["result"]["converged"] is True
    assert abs(env["result"]["point"] - 1.0) < 0.6

    code, stdout, _ = run_cli(
        capsys,
        "fit", "--data", str(data), "--method", "prop-sm", "--rho", "0.5",
        "--bootstrap", "25", "--seed", "7",
    )
    assert code == 0
    r = json.loads(stdout)["result"]
    assert r["n_boot"] == 25
    assert r["se"] is not None and r["se"] > 0
    assert r["q025"] <= r["q50"] <= r["q975"]
    assert sum(r["failed_by_reason"].values()) == r["n_failed"]
    # bootstrap reruns reproduce exactly
    code, stdout2, _ = run_cli(
        capsys,
        "fit", "--data", str(data), "--method", "prop-sm", "--rho", "0.5",
        "--bootstrap", "25", "--seed", "7",
    )
    assert json.loads(stdout2)["result"] == r


def test_fit_usage_and_error_codes(tmp_path, capsys):
    data = make_data(tmp_path, capsys, n=200)
    code, _, err = run_cli(capsys, "fit", "--data", str(data), "--method", "prop-sm")
    assert code == 2 and "requires rho" in err
    code, _, err = run_cli(
        capsys, "fit", "--data", str(data), "--method", "prop-er", "--rho", "0.5"
    )
    assert code == 2 and "does not apply" in err
    code, _, err = run_cli(
        capsys, "fit", "--data", str(data), "--method", "naive", "--bootstrap", "-1"
    )
    assert code == 2
    code, _, err = run_cli(
        capsys, "fit", "--data", str(tmp_path / "nope.csv"), "--method", "naive"
    )
    assert code == 3 and "data error" in err


def test_library_input_errors_are_usage_errors(tmp_path, capsys):
    data = make_data(tmp_path, capsys, n=200)
    code, _, err = run_cli(
        capsys, "fit", "--data", str(data), "--method", "naive", "--bootstrap", "1"
    )
    assert code == 2 and "at least 2" in err
    code, _, err = run_cli(capsys, "bench", "--settings", "2,0", "--reps", "1")
    assert code == 2 and "delta1 and delta2 must be 0 or 1" in err
    for rho in ("nan", "1.5"):
        code, _, err = run_cli(capsys, "diagnose", "--data", str(data), "--rho", rho)
        assert code == 2 and "rho must lie in [0, 1]" in err


def test_unexpected_value_error_is_not_an_exit_code(tmp_path, capsys, monkeypatch):
    import sacekit.models as models

    data = make_data(tmp_path, capsys, n=200)

    def broken(data, weights=None):
        raise ValueError("a bug, not a numerical failure")

    monkeypatch.setattr(models, "naive_estimator", broken)
    with pytest.raises(ValueError, match="a bug"):
        main(["fit", "--data", str(data), "--method", "naive"])


def test_linalg_error_is_an_estimation_error_exit_code(tmp_path, capsys, monkeypatch):
    import sacekit.cli as cli

    data = make_data(tmp_path, capsys, n=200)

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(cli, "estimate_sace", singular)
    code, out, err = run_cli(capsys, "fit", "--data", str(data), "--method", "naive")
    assert code == 4 and out == ""
    assert "estimation error: Singular matrix" in err


def test_fit_malformed_covariate_deep_in_file_is_a_data_error(tmp_path, capsys):
    data = make_data(tmp_path, capsys, n=60_000)
    lines = data.read_text().splitlines()
    fields = lines[50_001].split(",")  # row 50002, counting the header as row 1
    fields[4] = "oops"
    lines[50_001] = ",".join(fields)
    data.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(capsys, "fit", "--data", str(data), "--method", "prop-er")
    assert code == 3
    assert "row 50002" in err and "x1 must be numeric, got 'oops'" in err


def test_fit_with_a_covariate_read_twice_is_a_data_error(tmp_path, capsys):
    data = make_data(tmp_path, capsys, n=200)
    for covariates, name in (("x1,x1", "x1"), ("a,x2", "a"), ("z", "z")):
        code, _, err = run_cli(
            capsys, "fit", "--data", str(data), "--method", "prop-er", "--covariates", covariates
        )
        assert code == 3 and f"covariate column '{name}' is already in use" in err


def test_a_role_column_named_for_two_roles_is_a_data_error(tmp_path, capsys):
    # --a-col z used to load the treatment as the substitution variable
    data = make_data(tmp_path, capsys, n=200)
    for command in (["diagnose"], ["fit", "--method", "prop-er"]):
        code, stdout, err = run_cli(capsys, *command, "--data", str(data), "--a-col", "z")
        assert (code, stdout) == (3, "")
        assert "column 'z' is already in use" in err


def _refused(capsys, path, *argv):
    """Run ``argv``, which must be a usage error that leaves ``path`` as it was."""
    before = path.read_bytes()
    code, stdout, err = run_cli(capsys, *argv)
    assert (code, stdout) == (2, "")
    assert "names an input or another output" in err
    assert path.read_bytes() == before


def test_fit_refuses_to_write_its_report_over_its_data(tmp_path, capsys):
    data = make_data(tmp_path, capsys, n=200)
    (tmp_path / "sub").mkdir()
    # the paths are compared once resolved
    same = tmp_path / "sub" / ".." / "d.csv"
    _refused(capsys, data, "fit", "--data", str(data), "--method", "naive", "--out", str(same))


def test_diagnose_refuses_to_write_its_report_over_its_data(tmp_path, capsys):
    data = make_data(tmp_path, capsys, n=200)
    _refused(capsys, data, "diagnose", "--data", str(data), "--out", str(data))


def test_sensitivity_refuses_to_write_its_curve_over_its_data(tmp_path, capsys):
    data = make_data(tmp_path, capsys, n=200)
    _refused(capsys, data, "sensitivity", "--data", str(data), "--rho-grid", "0,1",
             "--out", str(data))


def test_sensitivity_refuses_to_write_either_curve_over_its_data(tmp_path, capsys):
    # with both variants, --out curve.csv writes curve.er.csv and curve.ni.csv
    for variant in ("er", "ni"):
        data = make_data(tmp_path, capsys, n=200, name=f"curve.{variant}.csv")
        _refused(capsys, data, "sensitivity", "--data", str(data), "--rho-grid", "0,1",
                 "--assume-er", "both", "--out", str(tmp_path / "curve.csv"))


def test_simulate_refuses_to_write_its_oracle_over_its_dataset(tmp_path, capsys):
    data = make_data(tmp_path, capsys, n=200, name="e.csv")
    _refused(capsys, data, "simulate", "--n", "300", "--seed", "8",
             "--out", str(data), "--oracle-out", str(data))


@pytest.mark.parametrize(
    "name, config, argv",
    [
        ("run.cfg", "n = 50\n", ["simulate", "--out", "{cfg}"]),
        ("run.cfg", "n = 50\n", ["simulate", "--out", "{tmp}/e.csv", "--oracle-out", "{cfg}"]),
        ("run.cfg", "method = naive\n", ["fit", "--data", "{data}", "--out", "{cfg}"]),
        ("run.cfg", "bins = 1\n", ["diagnose", "--data", "{data}", "--out", "{cfg}"]),
        ("run.cfg", "reps = 1\n", ["bench", "--settings", "0,0", "--sizes", "50",
                                    "--methods", "naive", "--out", "{cfg}"]),
        # with both variants, --out curve.csv writes curve.er.csv and curve.ni.csv
        ("curve.ni.csv", "rho-grid = 0,1\n", ["sensitivity", "--data", "{data}",
                                               "--assume-er", "both", "--out", "{tmp}/curve.csv"]),
    ],
    ids=["simulate", "simulate-oracle", "fit", "diagnose", "bench", "sensitivity-curve"],
)
def test_no_output_may_name_the_config_file(tmp_path, capsys, name, config, argv):
    data = make_data(tmp_path, capsys, n=200)
    cfg = tmp_path / name
    cfg.write_text(config)
    argv = [arg.format(cfg=cfg, data=data, tmp=tmp_path) for arg in argv]
    _refused(capsys, cfg, *argv[:1], "--config", str(cfg), *argv[1:])


@pytest.mark.parametrize(
    "option", [["--config={cfg}"], ["--conf", "{cfg}"]], ids=["equals", "abbreviated"]
)
def test_every_form_of_the_config_option_applies_the_file(tmp_path, capsys, option):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("seed = 5\n")
    code, stdout, _ = run_cli(
        capsys, "simulate", *(arg.format(cfg=cfg) for arg in option), "--n", "50",
        "--out", str(tmp_path / "d.csv"),
    )
    assert code == 0 and json.loads(stdout)["seed"] == 5


@pytest.mark.parametrize(
    "flag, argv",
    [
        ("er-violation", ["simulate", "--n", "50", "--out", "{tmp}/d.csv"]),
        ("validate", ["diagnose", "--data", "{data}", "--out", "{tmp}/diag.json"]),
        ("table2", ["bench", "--sizes", "50", "--reps", "1", "--methods", "naive",
                    "--out", "{tmp}/bench.json"]),
        ("table3", ["bench", "--sizes", "50", "--reps", "1", "--methods", "naive",
                    "--out", "{tmp}/bench.json"]),
        ("table", ["bench", "--settings", "0,0", "--sizes", "50", "--reps", "1",
                   "--methods", "naive", "--out", "{tmp}/bench.json"]),
    ],
    ids=["er-violation", "validate", "table2", "table3", "table"],
)
def test_every_store_true_flag_can_be_set_from_a_config_file(tmp_path, capsys, flag, argv):
    data = make_data(tmp_path, capsys, n=200)
    cfg = tmp_path / "flag.cfg"
    cfg.write_text(f"{flag} = true\n")
    argv = [arg.format(data=data, tmp=tmp_path) for arg in argv]
    code, stdout, err = run_cli(capsys, *argv[:1], "--config", str(cfg), *argv[1:])
    assert code == 0, err
    # simulate's --out is its dataset, so its envelope goes to stdout
    report = stdout if argv[0] == "simulate" else Path(argv[-1]).read_text()
    assert json.loads(report)["config"][flag.replace("-", "_")] is True


def test_an_input_that_cannot_be_read_is_a_data_error(tmp_path, capsys):
    code, stdout, err = run_cli(capsys, "fit", "--data", str(tmp_path), "--method", "naive")
    assert (code, stdout) == (3, "")
    assert err.startswith("data error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--n", "50"],
        ["fit", "--data", "{data}", "--method", "naive", "--bootstrap", "200"],
        ["sensitivity", "--data", "{data}", "--rho-grid", "0,1"],
    ],
    ids=lambda argv: argv[0],
)
def test_an_output_in_a_missing_directory_is_refused_before_the_run(tmp_path, capsys, argv):
    data = make_data(tmp_path, capsys, n=200)
    missing = tmp_path / "missing"
    code, stdout, err = run_cli(
        capsys, *(arg.format(data=data) for arg in argv), "--out", str(missing / "x")
    )
    assert (code, stdout) == (2, "")
    assert f"output path {missing / 'x'}: its directory does not exist" in err
    assert not missing.exists()


@pytest.mark.parametrize(
    "directory, argv",
    [
        ("out", ["fit", "--data", "{data}", "--method", "naive", "--bootstrap", "50",
                 "--out", "{tmp}/out"]),
        ("out", ["diagnose", "--data", "{data}", "--out", "{tmp}/out"]),
        ("out", ["bench", "--settings", "0,0", "--sizes", "50", "--reps", "1",
                 "--methods", "naive", "--out", "{tmp}/out"]),
        ("out", ["simulate", "--n", "50", "--out", "{tmp}/e.csv", "--oracle-out", "{tmp}/out"]),
        # with both variants, --out curve.csv writes curve.er.csv and curve.ni.csv
        ("curve.ni.csv", ["sensitivity", "--data", "{data}", "--rho-grid", "0,1",
                          "--assume-er", "both", "--out", "{tmp}/curve.csv"]),
    ],
    ids=["fit", "diagnose", "bench", "simulate-oracle", "sensitivity-curve"],
)
def test_an_output_path_that_is_a_directory_is_refused_before_the_run(
    tmp_path, capsys, directory, argv
):
    data = make_data(tmp_path, capsys, n=200)
    (tmp_path / directory).mkdir()
    before = sorted(tmp_path.iterdir())
    code, stdout, err = run_cli(capsys, *(arg.format(data=data, tmp=tmp_path) for arg in argv))
    assert (code, stdout) == (2, "")
    assert f"output path {tmp_path / directory} is a directory" in err
    assert sorted(tmp_path.iterdir()) == before  # nothing was written


def test_fit_estimation_failure_exit_code(tmp_path, capsys):
    # single substitution level: the covariate-free baseline cannot run
    p = tmp_path / "flat.csv"
    rows = ["z,s,y,a,x1"]
    for i in range(40):
        z = i % 2
        rows.append(f"{z},1,{0.1 * i:.2f},0,{i % 5}")
    p.write_text("\n".join(rows) + "\n")
    code, _, err = run_cli(capsys, "fit", "--data", str(p), "--method", "dgyz")
    assert code == 4
    assert "estimation error" in err


def test_fit_custom_schema(tmp_path, capsys):
    p = tmp_path / "renamed.csv"
    rows = ["treat,alive,resp,marker,age"]
    rng = np.random.default_rng(5)
    for i in range(80):
        z = i % 2
        a = int(rng.integers(0, 2))
        rows.append(f"{z},1,{rng.normal():.4f},{a},{rng.normal():.4f}")
    p.write_text("\n".join(rows) + "\n")
    code, stdout, _ = run_cli(
        capsys,
        "fit", "--data", str(p), "--method", "naive",
        "--z-col", "treat", "--s-col", "alive", "--y-col", "resp",
        "--a-col", "marker", "--covariates", "age",
    )
    assert code == 0
    assert np.isfinite(json.loads(stdout)["result"]["point"])


def test_sensitivity_default_grid(tmp_path, capsys):
    data = make_data(tmp_path, capsys, n=800)
    out = tmp_path / "curve.csv"
    code, stdout, _ = run_cli(
        capsys, "sensitivity", "--data", str(data), "--out", str(out)
    )
    assert code == 0
    env = json.loads(stdout)
    assert env["result"]["grid_points"] == 21
    lines = out.read_text().splitlines()
    assert lines[0] == "rho,pi_dl,delta"
    assert len(lines) == 22
    rhos = [float(line.split(",")[0]) for line in lines[1:]]
    assert rhos[0] == 0.0 and rhos[-1] == 1.0
    # harmed-stratum mass column is non-increasing along the grid
    dl = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(b <= a + 1e-12 for a, b in zip(dl, dl[1:]))


def test_sensitivity_both_variants(tmp_path, capsys):
    data = make_data(tmp_path, capsys, n=700)
    out = tmp_path / "curve.csv"
    code, stdout, _ = run_cli(
        capsys,
        "sensitivity", "--data", str(data), "--rho-grid", "0,0.5,1",
        "--assume-er", "both", "--out", str(out),
    )
    assert code == 0
    env = json.loads(stdout)
    er_file = tmp_path / "curve.er.csv"
    ni_file = tmp_path / "curve.ni.csv"
    assert er_file.exists() and ni_file.exists()
    assert env["result"]["curves"]["assume_er"]["file"] == str(er_file)
    assert env["result"]["curves"]["no_interaction"]["file"] == str(ni_file)
    assert len(er_file.read_text().splitlines()) == 4


def test_sensitivity_both_variants_keep_a_dotted_directory(tmp_path, capsys):
    data = make_data(tmp_path, capsys, n=700)
    (tmp_path / "run.d").mkdir()
    code, _, _ = run_cli(
        capsys,
        "sensitivity", "--data", str(data), "--rho-grid", "0,1",
        "--assume-er", "both", "--out", str(tmp_path / "run.d" / "curve"),
    )
    assert code == 0
    assert sorted(p.name for p in (tmp_path / "run.d").iterdir()) == [
        "curve.er.csv",
        "curve.ni.csv",
    ]


def test_sensitivity_grid_errors(tmp_path, capsys):
    data = make_data(tmp_path, capsys, n=100)
    out = str(tmp_path / "c.csv")
    code, _, err = run_cli(
        capsys, "sensitivity", "--data", str(data), "--rho-grid", "0:1:0",
        "--out", out,
    )
    assert code == 2
    code, _, err = run_cli(
        capsys, "sensitivity", "--data", str(data), "--rho-grid", "0,1.2",
        "--out", out,
    )
    assert code == 2 and "outside [0, 1]" in err


def test_sensitivity_takes_no_seed(tmp_path, capsys):
    data = make_data(tmp_path, capsys, n=300)
    out = str(tmp_path / "c.csv")
    code, stdout, _ = run_cli(
        capsys, "sensitivity", "--data", str(data), "--rho-grid", "0,1", "--out", out
    )
    assert code == 0
    assert json.loads(stdout)["seed"] is None
    cfg = tmp_path / "seeded.cfg"
    cfg.write_text("seed = 5\n")
    with pytest.raises(SystemExit) as exc:
        main(["sensitivity", "--config", str(cfg), "--data", str(data), "--out", out])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec, bad",
    [("0:inf:0.1", "inf"), ("-inf:1:0.1", "-inf"), ("0:1:inf", "inf"), ("nan:1:0.1", "nan")],
)
def test_a_non_finite_rho_grid_bound_is_a_usage_error(tmp_path, capsys, spec, bad):
    message = f"bad rho grid '{spec}': '{bad}' is not a finite number"
    with pytest.raises(UsageError) as exc:
        parse_rho_grid(spec)
    assert str(exc.value) == message
    # the grid is checked before the data are read; "=" keeps a leading "-"
    # from reading as an option
    out = tmp_path / "c.csv"
    code, stdout, err = run_cli(
        capsys, "sensitivity", "--data", str(tmp_path / "absent.csv"), f"--rho-grid={spec}",
        "--out", str(out),
    )
    assert (code, stdout) == (2, "") and message in err
    assert not out.exists()


def test_a_negative_seed_is_a_usage_error(tmp_path, capsys):
    # rejected before the command runs: nothing is fitted, drawn or written
    data = make_data(tmp_path, capsys, n=300)
    out = tmp_path / "negative.csv"
    for argv in (
        ["simulate", "--n", "50", "--seed", "-1", "--out", str(out)],
        ["fit", "--data", str(data), "--method", "prop-er", "--bootstrap", "3", "--seed", "-2"],
        ["bench", "--settings", "0,0", "--sizes", "50", "--reps", "1", "--seed", "-1"],
    ):
        code, stdout, err = run_cli(capsys, *argv)
        assert (code, stdout) == (2, ""), argv
        assert "usage error: --seed must be non-negative" in err
    assert not out.exists()


def test_parse_rho_grid():
    assert parse_rho_grid("0:1:0.25") == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert parse_rho_grid("0.3,0.1") == [0.3, 0.1]
    got = parse_rho_grid("0:1:0.05")
    assert len(got) == 21 and got[7] == 0.35
    with pytest.raises(UsageError):
        parse_rho_grid("1:0:0.1")
    with pytest.raises(UsageError):
        parse_rho_grid("")
    with pytest.raises(UsageError):
        parse_rho_grid("0:1")


def test_diagnose_stdout_and_file_modes(tmp_path, capsys):
    data = make_data(tmp_path, capsys, n=500)
    code, stdout, _ = run_cli(capsys, "diagnose", "--data", str(data))
    assert code == 0
    env = json.loads(stdout)
    assert set(env["result"]["constraints"]) == {
        "survival_monotonicity",
        "treated_mean_structure",
        "substitution_relevance",
        "control_mean_structure",
        "contrast_mean_structure",
    }
    out = tmp_path / "diag.json"
    code, stdout, _ = run_cli(
        capsys, "diagnose", "--data", str(data), "--validate", "--out", str(out)
    )
    assert code == 0
    assert "diagnostics on" in stdout  # human-readable summary on stdout
    env = json.loads(out.read_text())
    assert "validation" in env["result"]
    assert env["result"]["validation"]["n"] == 500
    code, _, _ = run_cli(capsys, "diagnose", "--data", str(data), "--bins", "0")
    assert code == 2


def test_bench_small_grid(tmp_path, capsys):
    out = tmp_path / "bench.json"
    args = [
        "bench", "--settings", "0,0;1,0,er", "--sizes", "60,120",
        "--methods", "naive", "--reps", "2", "--seed", "6", "--out", str(out),
        "--table",
    ]
    code, stdout, _ = run_cli(capsys, *args)
    assert code == 0
    assert "100 x bias" in stdout  # the --table text went to stdout
    env = json.loads(out.read_text())
    cells = env["result"]["cells"]
    assert len(cells) == 4
    assert {c["er_violation"] for c in cells} == {False, True}
    # determinism
    out2 = tmp_path / "bench2.json"
    args[args.index(str(out))] = str(out2)
    code, _, _ = run_cli(capsys, *args)
    assert json.loads(out2.read_text())["result"]["cells"] == cells


def test_bench_presets(tmp_path, capsys):
    code, stdout, _ = run_cli(
        capsys, "bench", "--table3", "--sizes", "50", "--methods", "naive",
        "--reps", "1",
    )
    assert code == 0
    cells = json.loads(stdout)["result"]["cells"]
    assert len(cells) == 4
    assert all(c["er_violation"] for c in cells)
    assert {(c["delta1"], c["delta2"]) for c in cells} == {
        (0, 0), (0, 1), (1, 0), (1, 1)
    }


def test_bench_usage_errors(tmp_path, capsys):
    code, _, err = run_cli(capsys, "bench", "--settings", "0,0", "--reps", "0")
    assert code == 2
    code, _, err = run_cli(
        capsys, "bench", "--settings", "0,0", "--methods", "magic", "--reps", "1"
    )
    assert code == 2 and "unknown method" in err
    code, _, err = run_cli(
        capsys, "bench", "--settings", "0,0", "--methods", "prop-sm", "--reps", "1"
    )
    assert code == 2 and "requires rho" in err
    code, _, err = run_cli(capsys, "bench", "--reps", "1")
    assert code == 2 and "--table2" in err
    code, _, err = run_cli(
        capsys, "bench", "--settings", "0,0,er,x", "--reps", "1"
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--settings", "a,0"), "bad settings entry 'a,0'"),
        (("--settings", " ; "), "no settings parsed"),
        (("--settings", "0,0", "--sizes", "50,x"), "bad --sizes '50,x'"),
        (("--settings", "0,0", "--sizes", "50,0"), "--sizes must be positive integers"),
        (("--settings", "0,0", "--sizes", ","), "--sizes must be positive integers"),
        (("--settings", "0,0,bogus"), "bad settings entry '0,0,bogus', its third field must be er"),
        (("--settings", "1,0;0,0,"), "bad settings entry '0,0,', its third field must be er"),
        (("--table2", "--settings", "1,1,er"), "--table2 and --settings each set the grid"),
        (("--table2", "--table3"), "--table2 and --table3 each set the grid"),
        (("--table3", "--settings", ""), "--table3 and --settings each set the grid"),
    ],
)
def test_bench_rejects_bad_sizes_and_settings(tmp_path, capsys, argv, message):
    out = tmp_path / "bench.json"
    code, _, err = run_cli(capsys, "bench", *argv, "--reps", "1", "--out", str(out))
    assert code == 2 and message in err
    assert not out.exists()


def test_config_file_round(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(
        "# synthetic scenario\n"
        "n = 120\n"
        "delta1 = 1\n"
        "er-violation = true\n"
        "seed = 5\n"
    )
    out = tmp_path / "cfg.csv"
    code, stdout, _ = run_cli(
        capsys, "simulate", "--config", str(cfg), "--out", str(out)
    )
    assert code == 0
    env = json.loads(stdout)
    assert env["config"]["er_violation"] is True
    assert env["config"]["n"] == 120
    assert env["seed"] == 5

    # explicit flags override config values
    out2 = tmp_path / "cfg2.csv"
    code, stdout, _ = run_cli(
        capsys, "simulate", "--config", str(cfg), "--seed", "9", "--out", str(out2)
    )
    assert code == 0
    assert json.loads(stdout)["seed"] == 9


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("this line has no equals sign\n")
    code, _, err = run_cli(
        capsys, "simulate", "--config", str(bad), "--n", "10",
        "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2 and "expected 'key = value'" in err

    boolbad = tmp_path / "boolbad.cfg"
    boolbad.write_text("er-violation = maybe\n")
    code, _, err = run_cli(
        capsys, "simulate", "--config", str(boolbad), "--n", "10",
        "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2 and "expected a boolean" in err

    code, _, err = run_cli(capsys, "--config", str(bad), "simulate")
    assert code == 2 and "must follow a subcommand" in err
    code, _, err = run_cli(
        capsys, "simulate", "--n", "10", "--out", str(tmp_path / "x.csv"), "--config"
    )
    assert code == 2 and "needs a path" in err
    code, _, err = run_cli(
        capsys, "simulate", "--config", str(tmp_path / "missing.cfg"), "--n", "10",
        "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2 and "cannot read config" in err


def test_an_unknown_subcommand_is_named_before_its_config_file_is_read(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("not a key value line\n")
    with pytest.raises(SystemExit) as exc:
        main(["bogus", "--config", str(cfg)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'bogus'" in err and "key = value" not in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "sacekit" in capsys.readouterr().out


def test_readme_command_lines_parse():
    # the "Command line" block of the README, parsed but never executed
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    lines = block.split("```", 1)[0].splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("sacekit ")]
    assert len(commands) == 6
    parser = build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        assert args.command == argv[0]
