import contextlib
import csv
import io
import logging

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from modalmr.cli import _COMMAND_OPTIONS, main
from modalmr.harness import generate_dataset, write_dataset_file
from modalmr.markov import iid_chain
from modalmr.risk import gaussian_noise, make_task


def run(*argv):
    return main(list(argv))


def read_rows(path):
    return list(csv.DictReader(path.read_text().splitlines()))


@pytest.fixture()
def dataset_path(tmp_path):
    task = make_task(iid_chain(8), gaussian_noise(0.3))
    data = generate_dataset(task, 40, seed=5)
    path = tmp_path / "data.txt"
    write_dataset_file(path, data)
    return path


class TestChainInfo:
    def test_two_state_summary(self, capsys):
        assert run("chain-info", "--family", "two-state", "--p", "0.3", "--q", "0.2") == 0
        out = capsys.readouterr().out
        assert "gamma_a = 0.5" in out
        assert "pi = (0.4, 0.6)" in out

    def test_chain_file_input(self, tmp_path, capsys):
        path = tmp_path / "chain.txt"
        path.write_text("2 1\n0.7 0.3\n0.2 0.8\n0.0\n1.0\n")
        assert run("chain-info", "--chain-file", str(path)) == 0
        assert "gamma_a = 0.5" in capsys.readouterr().out

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_chain_file_is_validation_error(self, tmp_path, capsys, bad):
        path = tmp_path / "chain.txt"
        path.write_text(f"2 1\n0.7 0.3\n0.2 0.8\n0.0\n{bad}\n")
        assert run("chain-info", "--chain-file", str(path)) == 1
        err = capsys.readouterr().err
        assert str(path) in err and "non-finite" in err

    def test_missing_family_is_validation_error(self, capsys):
        assert run("chain-info") == 1

    def test_csv_output(self, tmp_path):
        out = tmp_path / "tv.csv"
        assert run("chain-info", "--family", "iid", "--n", "4", "--out", str(out)) == 0
        rows = read_rows(out)
        assert rows and float(rows[0]["tv_distance"]) == pytest.approx(0.0, abs=1e-12)
        assert (tmp_path / "tv.csv.manifest.json").exists()


class TestCheckKernel:
    @pytest.mark.parametrize("kind", ["gaussian", "epanechnikov", "quadratic", "triangular"])
    def test_calibrated_kinds_report_ok(self, kind, capsys):
        assert run("check-kernel", "--phi", kind) == 0
        assert "-> ok" in capsys.readouterr().out

    def test_correntropy_flagged(self, capsys):
        assert run("check-kernel", "--phi", "correntropy") == 0
        assert "not-calibrated" in capsys.readouterr().out

    def test_unknown_phi(self, capsys):
        assert run("check-kernel", "--phi", "sinc") == 1


class TestFitPredict:
    def test_round_trip_reproduces_fitted_values(self, tmp_path, dataset_path):
        model_path = tmp_path / "model.txt"
        fitted_path = tmp_path / "fitted.csv"
        preds_path = tmp_path / "preds.csv"
        assert run(
            "fit", "--data", str(dataset_path), "--sigma", "0.8", "--lambda", "0.01",
            "--out", str(model_path), "--fitted-out", str(fitted_path),
        ) == 0
        assert run(
            "predict", "--model", str(model_path), "--data", str(dataset_path),
            "--out", str(preds_path),
        ) == 0
        fitted = [float(r["fitted"]) for r in read_rows(fitted_path)]
        preds = [float(r["prediction"]) for r in read_rows(preds_path)]
        assert max(abs(a - b) for a, b in zip(fitted, preds)) < 1e-12

    def test_gradient_method(self, tmp_path, dataset_path):
        model_path = tmp_path / "model.txt"
        assert run(
            "fit", "--data", str(dataset_path), "--method", "gradient",
            "--phi", "epanechnikov", "--sigma", "1.0", "--lambda", "0.01",
            "--out", str(model_path),
        ) == 0

    def test_gradient_fit_at_a_kink_maximum_stops_there(self, tmp_path, capsys, caplog):
        # from alpha = 0 the residuals (0, 0, 0, 1) put three samples on the
        # kink of the triangular phi, where no step of the zero subgradient
        # ascends: the fit stops at its start and says why
        caplog.set_level(logging.INFO, logger="modalmr.solver")
        data = tmp_path / "kink.txt"
        data.write_text("4 1\n0 0\n1 0\n0.5 0\n0.75 1\n")
        assert run(
            "fit", "--data", str(data), "--method", "gradient", "--phi", "triangular",
            "--sigma", "1", "--lambda", "1", "--q", "2", "--bandwidth", "0.5",
            "--out", str(tmp_path / "model.txt"),
        ) == 0
        assert "iterations=0," in capsys.readouterr().out
        assert caplog.records[-1].getMessage().endswith("0 iterations, stopped by no ascent step")

    def test_numeric_failure_exit_code(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 1\n0.5 1e9\n")
        model_path = tmp_path / "model.txt"
        code = run(
            "fit", "--data", str(bad), "--lambda", "0", "--sigma", "1.0",
            "--out", str(model_path),
        )
        assert code == 2

    @pytest.mark.parametrize("row", ["0.5 nan", "nan 1.0"])
    def test_non_finite_dataset_is_validation_error(self, tmp_path, capsys, row):
        bad = tmp_path / "bad.txt"
        bad.write_text(f"2 1\n0.25 0.5\n{row}\n")
        code = run("fit", "--data", str(bad), "--out", str(tmp_path / "model.txt"))
        assert code == 1
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["alpha", "inputs"])
    def test_non_finite_model_file_is_validation_error(self, tmp_path, dataset_path, capsys,
                                                      section):
        model_path = tmp_path / "model.txt"
        assert run("fit", "--data", str(dataset_path), "--out", str(model_path)) == 0
        lines = model_path.read_text().splitlines()
        at = lines.index(section) + 1
        lines[at] = " ".join(["nan"] * len(lines[at].split()))
        model_path.write_text("\n".join(lines) + "\n")
        preds_path = tmp_path / "preds.csv"
        code = run("predict", "--model", str(model_path), "--data", str(dataset_path),
                   "--out", str(preds_path))
        assert code == 1
        assert f"non-finite {section}" in capsys.readouterr().err
        assert not preds_path.exists()


    @pytest.mark.parametrize("flag", ["--sigma", "--lambda", "--bandwidth", "--tol"])
    def test_nan_parameter_is_validation_error(self, tmp_path, dataset_path, capsys, flag):
        model_path = tmp_path / "model.txt"
        code = run("fit", "--data", str(dataset_path), flag, "nan", "--out", str(model_path))
        assert code == 1
        assert "finite" in capsys.readouterr().err
        assert not model_path.exists()

    @pytest.mark.parametrize("kernel", ["gaussian-rbf", "laplacian", "polynomial"])
    @pytest.mark.parametrize("flag, value, message", [
        ("--bandwidth", "nan", "'bandwidth' must be finite"),
        ("--bandwidth", "0", "bandwidth must be positive"),
        ("--degree", "nan", "'degree' must be finite"),
        ("--offset", "inf", "'offset' must be finite"),
    ])
    def test_every_kernel_option_is_checked(self, tmp_path, dataset_path, capsys, kernel,
                                            flag, value, message):
        # an option the chosen kernel does not use is checked all the same
        model_path = tmp_path / "model.txt"
        code = run("fit", "--data", str(dataset_path), "--kernel", kernel, flag, value,
                   "--out", str(model_path))
        assert code == 1
        assert message in capsys.readouterr().err
        assert not model_path.exists()


class TestInputFiles:
    """A bad input or output file exits 1 with an ``error:`` line, never a traceback."""

    @pytest.mark.parametrize("case", ["data", "model", "config", "out-is-directory"])
    def test_file_error_is_validation_error(self, tmp_path, dataset_path, capsys, case):
        missing = str(tmp_path / "missing.txt")
        model_path = tmp_path / "model.txt"
        argv = {
            "data": ["fit", "--data", missing, "--out", str(model_path)],
            "model": ["predict", "--model", missing, "--data", str(dataset_path),
                      "--out", str(tmp_path / "preds.csv")],
            "config": ["fit", "--data", str(dataset_path), "--out", str(model_path),
                       "--config", missing],
            "out-is-directory": ["fit", "--data", str(dataset_path), "--out", str(tmp_path)],
        }[case]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("kind, text", [
        pytest.param("data", "0 1\n", id="data-m0"),
        pytest.param("data", "2 -1\n0.5\n0.25\n", id="data-d-negative"),
        pytest.param("model", "0 1\nkernel gaussian-rbf bandwidth=0.5\nphi gaussian\n"
                     "sigma 1.0\nlambda 0.1\nq 2\nalpha\ninputs\n", id="model-m0"),
        pytest.param("chain", "-1 1\n", id="chain-n-negative"),
        pytest.param("chain", "0 1\n", id="chain-n0"),
    ])
    def test_count_below_one_is_validation_error(self, tmp_path, dataset_path, capsys, kind,
                                                 text):
        path = tmp_path / "input.txt"
        path.write_text(text)
        out = str(tmp_path / "out.txt")
        argv = {
            "data": ["fit", "--data", str(path), "--out", out],
            "model": ["predict", "--model", str(path), "--data", str(dataset_path), "--out", out],
            "chain": ["chain-info", "--chain-file", str(path)],
        }[kind]
        assert run(*argv) == 1
        assert "must be at least 1" in capsys.readouterr().err


# replacements that no slot of a valid input file accepts
_JUNK = ("x", "nan", "inf", "-inf", "1e999", "=")


def _mutate(text, spot, op):
    """``text`` with one whitespace-separated token deleted, doubled or replaced."""
    lines = [line.split() for line in text.splitlines()]
    spots = [(i, j) for i, line in enumerate(lines) for j in range(len(line))]
    i, j = spots[spot % len(spots)]
    token = lines[i][j]
    lines[i][j:j + 1] = [] if op == "delete" else [token, token] if op == "double" else [op]
    return "\n".join(" ".join(line) for line in lines) + "\n"


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """A valid dataset, model, chain and config file, and the command reading each."""
    work = tmp_path_factory.mktemp("fuzz")
    data = work / "data.txt"
    data.write_text("4 1\n0.1 0.3\n0.4 -0.2\n0.7 0.5\n0.9 0.1\n")
    model = work / "model.txt"
    assert main(["fit", "--data", str(data), "--out", str(model)]) == 0
    mutated = str(work / "mutated.txt")
    out = str(work / "out.txt")
    return work, {
        "data": (data.read_text(), ["fit", "--data", mutated, "--out", out]),
        "model": (model.read_text(),
                  ["predict", "--model", mutated, "--data", str(data), "--out", out]),
        "chain": ("2 1\n0.7 0.3\n0.2 0.8\n0.0\n1.0\n", ["chain-info", "--chain-file", mutated]),
        "config": ("sigma = 0.8\nlambda = 0.01\nq = 1\nbandwidth = 0.5\nmax-iters = 50\n"
                   "tol = 1e-8\n", ["fit", "--data", str(data), "--out", out, "--config", mutated]),
    }


class TestMalformedFiles:
    """Every token-level mutation of a valid input file is malformed: the
    command reading it returns 1 with an ``error:`` line and raises nothing."""

    def test_valid_files_run(self, valid_inputs):
        work, cases = valid_inputs
        for text, argv in cases.values():
            (work / "mutated.txt").write_text(text)
            assert main(argv) == 0

    @settings(max_examples=250)
    @given(st.sampled_from(["data", "model", "chain", "config"]), st.integers(0, 10**6),
           st.sampled_from(("delete", "double") + _JUNK))
    def test_mutated_file_exits_one(self, valid_inputs, kind, spot, op):
        work, cases = valid_inputs
        text, argv = cases[kind]
        mutated = _mutate(text, spot, op)
        assume(mutated != text)  # "=" in place of a config line's "="
        (work / "mutated.txt").write_text(mutated)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code == 1, err.getvalue()
        assert err.getvalue().startswith("error: ")


class TestConfigFile:
    def test_config_supplies_values(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family = two-state\np = 0.3\nq = 0.2  # comment\n")
        assert run("chain-info", "--config", str(cfg)) == 0
        assert "gamma_a = 0.5" in capsys.readouterr().out

    def test_flags_win_over_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family = two-state\np = 0.9\nq = 0.9\n")
        assert run("chain-info", "--config", str(cfg), "--p", "0.3", "--q", "0.2") == 0
        assert "gamma_a = 0.5" in capsys.readouterr().out

    def test_unknown_key_rejected_with_listing(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family = iid\nbogus-key = 1\n")
        assert run("chain-info", "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert "bogus-key" in err and "family" in err

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family two-state\n")
        assert run("chain-info", "--config", str(cfg)) == 1

    def test_repeated_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family = two-state\np = 0.3\nq = 0.2\np = 0.9\n")
        assert run("chain-info", "--config", str(cfg)) == 1
        assert "run.cfg:4: repeated key 'p'" in capsys.readouterr().err


class TestFlags:
    def test_unknown_flag_exit_one(self):
        assert run("chain-info", "--family", "iid", "--frobnicate", "1") == 1

    def test_unknown_command_exit_one(self):
        assert run("transmogrify") == 1

    def test_help_lists_documented_flags(self, capsys):
        for command, options in _COMMAND_OPTIONS.items():
            with pytest.raises(SystemExit) as exc:
                run(command, "--help")
            assert exc.value.code == 0
            text = capsys.readouterr().out
            for name, *_ in options:
                assert f"--{name}" in text

    def test_command_name_as_option_value(self, tmp_path, monkeypatch, dataset_path):
        # the parser gets the options of every command argv names, "predict" too
        monkeypatch.chdir(tmp_path)
        assert run("fit", "--data", str(dataset_path), "--out", "predict") == 0
        assert (tmp_path / "predict").read_text().startswith("40 1\n")

    def test_bad_log_level(self, monkeypatch):
        monkeypatch.setenv("MODALMR_LOG", "verbose")
        assert run("chain-info", "--family", "iid") == 1

    def test_log_levels_accepted(self, monkeypatch, capsys):
        for level in ("quiet", "info", "debug"):
            monkeypatch.setenv("MODALMR_LOG", level)
            assert run("check-kernel", "--phi", "triangular") == 0


class TestExperimentCommands:
    def test_learning_curve_writes_csv_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code = run(
            "learning-curve", "--m-grid", "32,64,128", "--replicates", "2",
            "--chain-n", "6", "--out", str(out), "--seed", "3",
        )
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == 6
        assert set(rows[0]) == {"m", "gamma_abs", "replicate", "excess_risk",
                                "lambda_used", "sigma_used"}
        assert (tmp_path / "curve.csv.manifest.json").exists()

    def test_byte_identical_reruns(self, tmp_path):
        args = ["gamma-sweep", "--gamma-list", "0.5,1.0", "--chain-n", "6", "--m", "64",
                "--replicates", "2", "--seed", "7"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(*args, "--out", str(out1)) == 0
        assert run(*args, "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()
        m1 = (tmp_path / "a.csv.manifest.json").read_text()
        m2 = (tmp_path / "b.csv.manifest.json").read_text()
        assert m1.replace("a.csv", "X") == m2.replace("b.csv", "X")

    def test_breakdown_csv_header(self, tmp_path):
        out = tmp_path / "bd.csv"
        code = run(
            "breakdown", "--chain-family", "iid", "--chain-n", "6", "--m", "15",
            "--noise-scale", "0.1", "--lambda", "0.001", "--n-outliers", "0,2",
            "--magnitudes", "1e2", "--out", str(out), "--seed", "2",
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# {")
        assert lines[1] == "n_outliers,magnitude,coef_norm"

    @pytest.mark.parametrize("argv, chains", [
        (["learning-curve", "--m-grid", "20,30,40", "--replicates", "2", "--chain-n", "6"], 1),
        (["gamma-sweep", "--gamma-list", "0.5,1.0", "--chain-n", "6", "--m", "20",
          "--replicates", "2"], 2),
        (["breakdown", "--chain-family", "iid", "--chain-n", "6", "--m", "15",
          "--noise-scale", "0.1", "--lambda", "0.001", "--n-outliers", "0,2",
          "--magnitudes", "1e2"], 1),
    ])
    def test_one_stationary_eigendecomposition_per_chain(self, tmp_path, monkeypatch,
                                                         argv, chains):
        # the task, every stationary chain path and the pi-weighted errors
        # share one dense eig of P^T per chain
        eig, shapes = np.linalg.eig, []

        def counted(a):
            shapes.append(a.shape)
            return eig(a)

        monkeypatch.setattr(np.linalg, "eig", counted)
        assert run(*argv, "--out", str(tmp_path / "out.csv")) == 0
        assert len(shapes) == chains

    def test_shape_one_shifted_gamma_noise_runs(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = run(
            "learning-curve", "--m-grid", "32,64", "--replicates", "2", "--chain-n", "6",
            "--noise", "shifted-gamma", "--shape", "1", "--out", str(out), "--seed", "3",
        )
        assert code == 0
        assert len(read_rows(out)) == 4

    @pytest.mark.parametrize("shape", ["1.01", "1.05", "1.125"])
    def test_shifted_gamma_noise_near_shape_one_runs(self, tmp_path, shape):
        # the density rises like x^(shape - 1) from its support start; a
        # uniform check grid put its mass at 1.000429 for shape 1.01
        out = tmp_path / "curve.csv"
        code = run(
            "learning-curve", "--m-grid", "32,64", "--replicates", "2", "--chain-n", "6",
            "--noise", "shifted-gamma", "--shape", shape, "--out", str(out), "--seed", "3",
        )
        assert code == 0
        assert len(read_rows(out)) == 4

    def test_cauchy_noise_runs(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = run(
            "learning-curve", "--m-grid", "32,64", "--replicates", "2", "--chain-n", "6",
            "--noise", "student-t", "--dof", "1", "--out", str(out), "--seed", "3",
        )
        assert code == 0
        assert len(read_rows(out)) == 4

    def test_student_t_dof_below_one_is_validation_error(self, tmp_path, capsys):
        code = run(
            "learning-curve", "--m-grid", "32", "--replicates", "1", "--noise", "student-t",
            "--dof", "0.7", "--out", str(tmp_path / "curve.csv"),
        )
        assert code == 1
        assert "at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("noise", ["gaussian", "student-t", "shifted-gamma"])
    @pytest.mark.parametrize("flag, value, message", [
        ("--dof", "nan", "dof must be at least 1 and finite"),
        ("--dof", "0.5", "dof must be at least 1 and finite"),
        ("--shape", "-3", "shape must be at least 1 and finite"),
        ("--shape", "inf", "shape must be at least 1 and finite"),
    ])
    def test_every_noise_option_is_checked(self, tmp_path, capsys, noise, flag, value,
                                           message):
        # an option the chosen noise does not use is checked all the same
        out = tmp_path / "curve.csv"
        code = run("learning-curve", "--m-grid", "32", "--replicates", "1", "--chain-n", "6",
                   "--noise", noise, flag, value, "--out", str(out))
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "curve.csv.manifest.json").exists()

    @pytest.mark.parametrize("command", ["learning-curve", "gamma-sweep", "breakdown",
                                         "robust-compare"])
    @pytest.mark.parametrize("flag, message", [
        ("--dof", "dof must be at least 1"),
        ("--degree", "'degree' must be finite"),
    ])
    def test_experiments_check_unused_options(self, tmp_path, capsys, command, flag, message):
        code = run(command, flag, "nan", "--out", str(tmp_path / "out.csv"))
        assert code == 1
        assert message in capsys.readouterr().err

    def test_robust_compare_runs(self, tmp_path, capsys):
        out = tmp_path / "rc.csv"
        code = run(
            "robust-compare", "--m", "80", "--replicates", "3", "--chain-n", "6",
            "--noise", "student-t", "--dof", "3", "--noise-scale", "0.5",
            "--lambda", "0.001", "--out", str(out), "--seed", "11",
        )
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == 3
