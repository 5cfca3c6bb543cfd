import contextlib
import csv
import io
import json
import logging
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from modalmr import cli
from modalmr.cli import _COMMAND_OPTIONS, _SOLVER_OPTS, _fmt, main
from modalmr.harness import ExperimentConfig, generate_dataset, learning_curve
from modalmr.errors import NumericError
from modalmr.kernels import hypothesis_kernel
from modalmr.solver import RmrConfig, load_model, write_dataset_file
from modalmr.markov import iid_chain, transition_kernel, write_transition_file
from modalmr.risk import gaussian_noise, make_task


SRC = Path(__file__).resolve().parents[1] / "src"
SIGMA_RANGE = ("sigma must be positive and finite, with a cube that is a normal float "
               "(about 2.81e-103 to 5.64e102)")


def run(*argv):
    return main(list(argv))


def read_rows(path):
    return list(csv.DictReader(path.read_text().splitlines()))


def strict_json(path):
    """The JSON in ``path``, read by a parser that rejects NaN and infinities."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(path.read_text(), parse_constant=reject)


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

    def test_non_normal_chain_file_warns_on_stderr(self, tmp_path):
        # the winning-streak chain: state i goes to i + 1 or 0 with 1/2 each,
        # and the last state stays or goes to 0; its exact gamma_a is 1
        n = 32
        P = np.zeros((n, n))
        P[:, 0] = 0.5
        P[np.arange(n - 1), np.arange(1, n)] = 0.5
        P[n - 1, n - 1] = 0.5
        path = tmp_path / "streak.txt"
        write_transition_file(path, transition_kernel(P, np.linspace(0.0, 1.0, n)))
        proc = subprocess.run(
            [sys.executable, "-m", "modalmr.cli", "chain-info", "--chain-file", str(path)],
            capture_output=True, text=True, check=False,
            env={**os.environ, "PYTHONPATH": str(SRC), "MODALMR_LOG": "quiet"},
        )
        assert proc.returncode == 0
        [line] = proc.stderr.splitlines()
        assert line == ("WARNING:modalmr.markov:P is not normal in L2(pi) (max |P P* - P* P| = "
                        "0.25): gamma_a is read from the eigenvalues of a non-normal P and can "
                        "be far off")
        assert proc.stdout.startswith("chain: 32 states, reversible=False, gamma_a = ")

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_chain_file_is_validation_error(self, tmp_path, capsys, bad):
        path = tmp_path / "chain.txt"
        path.write_text(f"2 1\n0.7 0.3\n0.2 0.8\n0.0\n{bad}\n")
        assert run("chain-info", "--chain-file", str(path)) == 1
        err = capsys.readouterr().err
        assert str(path) in err and "non-finite" in err

    @pytest.mark.parametrize("rows, code, line", [
        (["1.2 -0.2", "0.5 0.5"], 1, "error: transition probabilities must be nonnegative"),
        (["0.5 0.4", "0.5 0.5"], 1, "error: row sums deviate from 1 by 1.000e-01"),
        (["1 0", "0 1"], 2,
         "numeric failure: eigenvalue 1 has multiplicity 2; stationary distribution not unique"),
        (["0.5 0.5 0", "0.5 0.5 0", "0.5 0 0.5"], 1,
         "error: spectral decomposition requires positive stationary mass"),
    ], ids=["negative", "row-sum", "identity", "transient-state"])
    def test_faulty_chain_file_exit_code(self, tmp_path, capsys, rows, code, line):
        # a chain that is not stochastic, or has no positive stationary
        # vector, is invalid input; a stationary vector that is not unique
        # is a numeric failure
        n = len(rows)
        path = tmp_path / "chain.txt"
        embedding = "\n".join(str(v) for v in np.linspace(0.0, 1.0, n))
        path.write_text(f"{n} 1\n" + "\n".join(rows) + f"\n{embedding}\n")
        assert run("chain-info", "--chain-file", str(path)) == code
        assert capsys.readouterr().err.splitlines() == [line]

    def test_missing_family_is_validation_error(self, capsys):
        assert run("chain-info") == 1

    def test_csv_output(self, tmp_path):
        out = tmp_path / "tv.csv"
        assert run("chain-info", "--family", "iid", "--n", "4", "--out", str(out)) == 0
        rows = read_rows(out)
        assert rows and float(rows[0]["tv_distance"]) == pytest.approx(0.0, abs=1e-12)
        assert (tmp_path / "tv.csv.manifest.json").exists()

    def test_no_embedding_dimension_option(self, capsys):
        # the diagnostics read only P, so a dimension would change no output
        assert run("chain-info", "--family", "iid", "--d", "2") == 1
        assert capsys.readouterr().err.splitlines() == ["error: unrecognized arguments: --d 2"]


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

    @pytest.mark.parametrize("argv", [
        ["--phi", "gaussian", "--halfwidth", "nan"],
        ["--phi", "gaussian", "--halfwidth", "inf"],
        ["--phi", "gaussian", "--halfwidth", "1e308"],
        ["--phi", "epanechnikov", "--halfwidth", "1e300", "--points", "5"],
        ["--phi", "gaussian", "--halfwidth", "1e300"],
    ], ids=["nan", "inf", "gaussian-1e308", "epanechnikov-1e300-5-points", "gaussian-1e300"])
    def test_non_finite_halfwidth(self, argv, capsys):
        # a finite halfwidth whose square is not finite overflowed 2 halfwidth
        # or the second moment's squares
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("check-kernel", *argv) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and "--halfwidth" in line

    @pytest.mark.parametrize("kind", ["gaussian", "epanechnikov"])
    def test_csv_row_matches_printed_report(self, kind, tmp_path, capsys):
        out = tmp_path / "kernel.csv"
        assert run("check-kernel", "--phi", kind, "--out", str(out)) == 0
        printed = re.fullmatch(
            r"phi=(\S+): symmetry (\S+), peak excess (\S+), \|integral-1\| (\S+), "
            r"second moment (\S+), lipschitz (\S+) \(bound (\S+)\) -> ok",
            capsys.readouterr().out.strip(),
        ).groups()
        assert out.read_text().splitlines()[0] == (
            "kind,symmetry,peak_excess,integral_error,second_moment,"
            "lipschitz_estimate,lipschitz_bound"
        )
        (row,) = read_rows(out)
        assert row["kind"] == printed[0] == kind
        rounded = [f"{float(row[k]):.3e}" for k in ("symmetry", "peak_excess", "integral_error")]
        assert rounded == list(printed[1:4])
        assert [row[k] for k in ("second_moment", "lipschitz_estimate", "lipschitz_bound")] == list(
            printed[4:]
        )


class TestFitPredict:
    def test_round_trip_reproduces_fitted_values(self, tmp_path, dataset_path):
        # the fixture's 40 samples lie on 8 chain states; the second set has
        # 2-D covariates, 20 samples on 5 rows and 10 rows of their own
        rng = np.random.default_rng(3)
        x = np.vstack([rng.random((5, 2))[rng.integers(0, 5, 20)], rng.random((10, 2))])
        mixed = tmp_path / "mixed.txt"
        mixed.write_text("30 2\n" + "".join(
            f"{a!r} {b!r} {y!r}\n" for (a, b), y in zip(x.tolist(), rng.normal(size=30).tolist())
        ))
        for data, m in ((dataset_path, 40), (mixed, 30)):
            model_path = tmp_path / "model.txt"
            fitted_path = tmp_path / "fitted.csv"
            preds_path = tmp_path / "preds.csv"
            assert run(
                "fit", "--data", str(data), "--sigma", "0.8", "--lambda", "0.01",
                "--out", str(model_path), "--fitted-out", str(fitted_path),
            ) == 0
            assert run(
                "predict", "--model", str(model_path), "--data", str(data),
                "--out", str(preds_path),
            ) == 0
            # both columns come from predict, the second on the saved model
            fitted = [r["fitted"] for r in read_rows(fitted_path)]
            assert len(fitted) == m
            assert fitted == [r["prediction"] for r in read_rows(preds_path)]

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

    def test_compact_phi_with_every_residual_outside_its_window(self, tmp_path, capsys,
                                                                caplog):
        # with lambda = 0 the objective is flat where every weight is zero:
        # the fit stops at its start, says why and exits 0
        caplog.set_level(logging.INFO, logger="modalmr.solver")
        data = tmp_path / "far.txt"
        data.write_text("2 1\n0.2 5.0\n0.7 -6.0\n")
        assert run(
            "fit", "--data", str(data), "--phi", "epanechnikov", "--lambda", "0",
            "--sigma", "0.5", "--out", str(tmp_path / "model.txt"),
        ) == 0
        assert "objective=0, iterations=0," in capsys.readouterr().out
        assert caplog.records[-1].getMessage().endswith("0 iterations, stopped by all weights zero")

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

    @pytest.mark.parametrize("sigma", ["1e-120", "1e200"])
    def test_sigma_without_a_normal_cube_is_one_error_line(self, tmp_path, dataset_path,
                                                           capsys, sigma):
        # the fits divide by sigma**3, which underflows to 0 or overflows here
        model_path = tmp_path / "model.txt"
        code = run("fit", "--data", str(dataset_path), "--sigma", sigma, "--out", str(model_path))
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {SIGMA_RANGE}"]
        assert not model_path.exists()

    @pytest.mark.parametrize("sigma", ["3e-103", "5.6e102"])
    @pytest.mark.parametrize("flags", [["--q", "1"], ["--q", "2"], ["--method", "gradient"]],
                             ids=["q1", "q2", "gradient"])
    def test_sigma_at_the_range_ends_fits_quietly(self, tmp_path, dataset_path, capsys,
                                                  sigma, flags):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("fit", "--data", str(dataset_path), "--sigma", sigma, *flags,
                       "--out", str(tmp_path / "model.txt")) == 0
        assert caught == []
        assert capsys.readouterr().err == ""

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

    @pytest.mark.parametrize("kernel, bandwidth, code", [
        ("gaussian-rbf", "1e-300", 1), ("gaussian-rbf", "1e-162", 1),
        ("polynomial", "1e-300", 1), ("gaussian-rbf", "1e-161", 0),
        ("gaussian-rbf", "1e-160", 0), ("laplacian", "1e-320", 0), ("laplacian", "5e-324", 0),
    ])
    def test_tiny_bandwidth(self, tmp_path, dataset_path, capsys, kernel, bandwidth, code):
        # a gaussian-rbf bandwidth whose square underflows to 0 is one error
        # line (an unused --bandwidth is checked by the kernel that takes it);
        # any other tiny bandwidth fits and predicts, with nothing on stderr
        model, preds = tmp_path / "model.txt", tmp_path / "preds.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("fit", "--data", str(dataset_path), "--kernel", kernel,
                       "--bandwidth", bandwidth, "--out", str(model)) == code
            if code == 0:
                assert run("predict", "--model", str(model), "--data", str(dataset_path),
                           "--out", str(preds)) == 0
        assert caught == []
        err = capsys.readouterr().err
        if code:
            assert err.splitlines() == [f"error: gaussian-rbf bandwidth {bandwidth} is too "
                                        "small: its square underflows to 0"]
            assert not model.exists()
        else:
            assert err == ""

    @pytest.mark.parametrize("command, flags", [
        ("fit", []), ("fit", ["--q", "1"]), ("fit", ["--method", "gradient"]), ("predict", []),
    ], ids=["fit", "fit-q1", "fit-gradient", "predict"])
    def test_non_finite_polynomial_kernel_is_one_error_line(self, tmp_path, capsys, command,
                                                            flags):
        # x.x' + 1 < 0 at x = -2.0 and x' > 0.5: its 2.5th power is not real
        data = tmp_path / "data.txt"
        data.write_text("3 1\n-2.0 0.1\n0.5 0.3\n1.0 -0.2\n")
        kernel = ["--kernel", "polynomial", "--degree", "2.5"]
        out = tmp_path / "out.txt"
        argv = ["fit", "--data", str(data), *kernel, *flags]
        if command == "predict":
            positive = tmp_path / "positive.txt"
            positive.write_text("2 1\n0.5 0.3\n1.0 -0.2\n")
            model = tmp_path / "model.txt"
            assert run("fit", "--data", str(positive), *kernel, "--out", str(model)) == 0
            capsys.readouterr()
            argv = ["predict", "--model", str(model), "--data", str(data)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(*argv, "--out", str(out)) == 1
        assert caught == []
        assert capsys.readouterr().err.splitlines() == [
            "error: polynomial kernel with degree 2.5 and offset 1 is not finite on these "
            "covariates (a non-integer degree needs x.x' + offset >= 0)"]
        assert not out.exists()


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

    def test_removed_inner_iters_key_rejected(self, tmp_path, capsys, dataset_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("inner-iters = 5\n")
        assert run("fit", "--data", str(dataset_path), "--out", str(tmp_path / "m.txt"),
                   "--config", str(cfg)) == 1
        assert "unknown config keys ['inner-iters']" in capsys.readouterr().err
        assert not (tmp_path / "m.txt").exists()

    def test_comment_and_blank_lines_skipped(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# two-state chain\n\nfamily = two-state\n   # indented\np = 0.3\nq = 0.2\n")
        assert run("chain-info", "--config", str(cfg)) == 0
        assert "gamma_a = 0.5" in capsys.readouterr().out

    def test_config_key_in_config_file_rejected(self, tmp_path, capsys):
        # a config file cannot name another one, so the key is unknown there
        cfg = tmp_path / "run.cfg"
        cfg.write_text("phi = gaussian\nconfig = /nonexistent/other.cfg\n")
        assert run("check-kernel", "--config", str(cfg)) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: unknown config keys ['config']; valid keys: "
                       "['halfwidth', 'jobs', 'out', 'phi', 'points']"]

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

    def test_removed_inner_iters_flag_rejected(self, tmp_path, capsys, dataset_path):
        assert run("fit", "--data", str(dataset_path), "--out", str(tmp_path / "m.txt"),
                   "--inner-iters", "5") == 1
        assert "unrecognized arguments: --inner-iters 5" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "predict", "check-kernel", "chain-info"])
    def test_seed_is_only_an_experiment_option(self, capsys, command):
        # these commands draw nothing, so they take no seed
        assert run(command, "--seed", "1") == 1
        assert capsys.readouterr().err.splitlines() == ["error: unrecognized arguments: --seed 1"]

    @pytest.mark.parametrize("command", list(_COMMAND_OPTIONS))
    def test_every_option_is_read(self, tmp_path, monkeypatch, dataset_path, command):
        # each option a command accepts is read by its handler; --config is
        # read before it, and --jobs is accepted for compatibility only
        model, out = tmp_path / "model.txt", str(tmp_path / "out.csv")
        if command == "predict":
            assert run("fit", "--data", str(dataset_path), "--out", str(model)) == 0
        argv = {
            "chain-info": ["--family", "iid", "--n", "4"],
            "check-kernel": ["--phi", "epanechnikov"],
            "fit": ["--data", str(dataset_path)],
            "predict": ["--model", str(model), "--data", str(dataset_path)],
            "learning-curve": ["--chain-n", "4", "--m-grid", "20", "--replicates", "2"],
            "gamma-sweep": ["--chain-n", "4", "--gamma-list", "0.5", "--m", "20",
                            "--replicates", "2"],
            "breakdown": ["--chain-n", "4", "--m", "10", "--n-outliers", "0,2",
                          "--magnitudes", "1e2"],
            "robust-compare": ["--chain-n", "4", "--m", "20", "--replicates", "2"],
        }[command]

        read = set()

        class Recorder(dict):
            def __getitem__(self, key):
                read.add(key)
                return super().__getitem__(key)

        merge = cli._merge_options
        monkeypatch.setattr(cli, "_merge_options", lambda *a: Recorder(merge(*a)))
        assert run(command, *argv, "--out", out) == 0
        names = {name for name, *_ in _COMMAND_OPTIONS[command]} - {"config", "jobs"}
        assert names - read == set()

    def test_solver_option_defaults_are_the_config_defaults(self):
        # the command line and the library fit with the same settings by default
        defaults = {name: default for name, _, default, _ in _SOLVER_OPTS}
        config = RmrConfig(sigma=defaults["sigma"], lam=defaults["lambda"])
        assert defaults["max-iters"] == config.max_hq_iters
        assert defaults["tol"] == config.tol
        assert defaults["q"] == config.q
        assert defaults["phi"] == config.phi.kind

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

    def test_fixed_schedule_is_the_solver_lambda_and_sigma(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert run("learning-curve", "--chain-n", "6", "--m-grid", "32,64", "--replicates", "2",
                   "--schedule", "fixed", "--lambda", "0.003", "--sigma", "0.7", "--seed", "3",
                   "--out", str(out)) == 0
        rows = read_rows(out)
        assert {(r["lambda_used"], r["sigma_used"]) for r in rows} == {("0.003", "0.7")}
        config = ExperimentConfig(
            task=make_task(iid_chain(6), gaussian_noise(0.5)), m_grid=(32, 64),
            n_replicates=2, schedule=None, seed=3, solver=RmrConfig(sigma=0.7, lam=0.003),
            kernel=hypothesis_kernel("gaussian-rbf", bandwidth=0.5),
        )
        expected = [[_fmt(v) for v in row] for row in learning_curve(config).rows]
        assert [list(r.values()) for r in rows] == expected

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

    def test_breakdown_manifest_results_are_the_csv_header(self, tmp_path):
        out = tmp_path / "bd.csv"
        assert run("breakdown", "--chain-family", "iid", "--chain-n", "6", "--m", "15",
                   "--n-outliers", "0,2", "--magnitudes", "1e2", "--out", str(out),
                   "--seed", "2") == 0
        header = json.loads(out.read_text().splitlines()[0][2:])
        manifest = strict_json(tmp_path / "bd.csv.manifest.json")
        assert manifest["command"] == "breakdown"
        assert manifest["results"] == header

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

    def test_robust_compare_failed_fit_is_a_nan_row(self, tmp_path, monkeypatch):
        # a replicate whose fit fails scores NaN, as in the sweeps, and the
        # command still exits 0: the manifest averages the fitted replicates
        import modalmr.harness

        real = modalmr.harness.fit_hq
        calls = []

        def fit(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise NumericError("injected failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(modalmr.harness, "fit_hq", fit)
        out = tmp_path / "rc.csv"
        assert run("robust-compare", "--m", "40", "--replicates", "3", "--chain-n", "6",
                   "--lambda", "0.001", "--out", str(out), "--seed", "11") == 0
        rows = read_rows(out)
        assert [list(r.values()) for r in rows][1] == ["1", "nan", "nan"]
        results = json.loads((tmp_path / "rc.csv.manifest.json").read_text())["results"]
        rmr = [float(r["rmr_mse"]) for r in rows if r["replicate"] != "1"]
        assert math.isfinite(results["mean_rmr_mse"])
        assert results["mean_rmr_mse"] == pytest.approx(float(np.mean(rmr)), rel=1e-11)

    def test_one_m_learning_curve_manifest_is_strict_json(self, tmp_path):
        # a slope needs three m values, so one m has none: null, not a bare NaN
        out = tmp_path / "curve.csv"
        assert run("learning-curve", "--m-grid", "40", "--replicates", "2", "--chain-n", "6",
                   "--out", str(out)) == 0
        results = strict_json(tmp_path / "curve.csv.manifest.json")["results"]
        assert results["slope"] is None and results["slope_ci"] == [None, None]
        assert results["mean_by_m"][0][0] == 40 and results["mean_by_m"][0][1] > 0

    def test_robust_compare_without_a_fitted_replicate_manifest_is_strict_json(
            self, tmp_path, monkeypatch):
        import modalmr.harness

        def fit(*args, **kwargs):
            raise NumericError("injected failure")

        monkeypatch.setattr(modalmr.harness, "fit_hq", fit)
        out = tmp_path / "rc.csv"
        assert run("robust-compare", "--m", "40", "--replicates", "2", "--chain-n", "6",
                   "--out", str(out)) == 0
        results = strict_json(tmp_path / "rc.csv.manifest.json")["results"]
        assert results == {"mean_rmr_mse": None, "mean_ls_mse": None, "rmr_win_fraction": None}


BREAKDOWN_KEYS = {"N", "n_star_low", "n_star_high", "breakdown_fraction", "m", "clean_norm"}


# each table's columns, the key set of a breakdown's "# {...}" line, and
# the key set of the manifest's results (None: the manifest has none)
@pytest.mark.parametrize("argv, columns, header_keys, result_keys", [
    (["chain-info", "--family", "iid", "--n", "4"], "t,tv_distance", None,
     {"gamma", "gamma_abs", "gamma_pseudo", "pi", "reversible"}),
    (["check-kernel", "--phi", "epanechnikov"],
     "kind,symmetry,peak_excess,integral_error,second_moment,lipschitz_estimate,"
     "lipschitz_bound", None, None),
    (["learning-curve", "--m-grid", "20,30", "--replicates", "2", "--chain-n", "4"],
     "m,gamma_abs,replicate,excess_risk,lambda_used,sigma_used", None,
     {"mean_by_m", "slope", "slope_ci", "n_failed"}),
    (["gamma-sweep", "--gamma-list", "0.5", "--chain-n", "4", "--m", "20", "--replicates", "2"],
     "gamma_abs,discount,m,n_replicates,mean_excess_risk,lambda_used,sigma_used", None, None),
    (["breakdown", "--chain-n", "4", "--m", "10", "--n-outliers", "0,2", "--magnitudes", "1e2"],
     "n_outliers,magnitude,coef_norm", BREAKDOWN_KEYS, BREAKDOWN_KEYS),
    (["robust-compare", "--chain-n", "4", "--m", "20", "--replicates", "2"],
     "replicate,rmr_mse,ls_mse", None, {"mean_rmr_mse", "mean_ls_mse", "rmr_win_fraction"}),
], ids=["chain-info", "check-kernel", "learning-curve", "gamma-sweep", "breakdown",
        "robust-compare"])
def test_table_columns_and_result_keys(tmp_path, argv, columns, header_keys, result_keys):
    # written from the library's result records, so renaming a field fails here
    out = tmp_path / "out.csv"
    assert run(*argv, "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    if header_keys is not None:
        assert lines[0].startswith("# ")
        assert set(json.loads(lines.pop(0)[2:])) == header_keys
    assert lines[0] == columns
    manifest = tmp_path / "out.csv.manifest.json"
    if argv[0] == "check-kernel":
        assert not manifest.exists()
    elif result_keys is None:
        assert "results" not in strict_json(manifest)
    else:
        assert set(strict_json(manifest)["results"]) == result_keys


# small runs of every command that fits by half-quadratic ascent
HQ_COMMANDS = {
    "learning-curve": ["--m-grid", "32,64,128", "--replicates", "2", "--chain-n", "6"],
    "gamma-sweep": ["--gamma-list", "0.5,1.0", "--chain-n", "6", "--m", "32",
                    "--replicates", "2"],
    "breakdown": ["--chain-family", "iid", "--chain-n", "6", "--m", "15", "--noise-scale", "0.1",
                  "--lambda", "0.001", "--n-outliers", "0,2", "--magnitudes", "1e2"],
    "robust-compare": ["--m", "40", "--replicates", "2", "--chain-n", "6", "--lambda", "0.001"],
}


class TestHalfQuadraticPhi:
    """Every kind with a finite half-quadratic weight runs every HQ command;
    triangular phi, which has none, is a validation error naming the
    gradient method."""

    @staticmethod
    def argv(command, dataset_path):
        return ["--data", str(dataset_path)] if command == "fit" else HQ_COMMANDS[command]

    @pytest.mark.parametrize("phi", ["epanechnikov", "quadratic"])
    @pytest.mark.parametrize("q", ["1", "2"])
    @pytest.mark.parametrize("command", ["fit", *HQ_COMMANDS])
    def test_compact_phi_runs(self, tmp_path, dataset_path, capsys, command, phi, q):
        out = tmp_path / "out.csv"
        assert run(command, *self.argv(command, dataset_path), "--phi", phi, "--q", q,
                   "--out", str(out)) == 0
        summary = capsys.readouterr().out.split(" -> ")[0]
        assert "nan" not in summary and "inf" not in summary
        if command == "fit":
            load_model(out)  # rejects non-finite coefficients
            return
        lines = out.read_text().splitlines()
        if command == "breakdown":
            header = json.loads(lines.pop(0).lstrip("# "))
            assert all(math.isfinite(v) for v in header.values())
        rows = list(csv.DictReader(lines))
        assert rows and all(math.isfinite(float(v)) for row in rows for v in row.values())

    @pytest.mark.parametrize("command", ["fit", *HQ_COMMANDS])
    def test_triangular_phi_names_the_gradient_method(self, tmp_path, dataset_path, capsys,
                                                      command):
        out = tmp_path / "out.csv"
        assert run(command, *self.argv(command, dataset_path), "--phi", "triangular",
                   "--out", str(out)) == 1
        # only fit takes --method, so the message names that command
        assert "fit --method gradient" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["learning-curve", "--chain-family", "iid", "--laziness", "nan", "--chain-p", "7"],
     "flip probabilities must lie in [0, 1]"),
    (["learning-curve", "--chain-family", "iid", "--laziness", "nan"],
     "laziness must lie in [0, 1)"),
    (["learning-curve", "--chain-family", "lazy-walk", "--chain-q", "-1"],
     "flip probabilities must lie in [0, 1]"),
    (["breakdown", "--chain-family", "two-state", "--laziness", "1"],
     "laziness must lie in [0, 1)"),
    (["robust-compare", "--chain-family", "metropolis", "--chain-p", "inf"],
     "flip probabilities must lie in [0, 1]"),
    (["chain-info", "--family", "iid", "--p", "7"], "flip probabilities must lie in [0, 1]"),
    (["learning-curve", "--schedule", "fixed", "--beta", "nan", "--s", "-5"],
     "beta must lie in (0, 2]"),
    (["learning-curve", "--schedule", "fixed", "--s", "-5"], "s must lie in (0, 2)"),
    (["gamma-sweep", "--schedule", "fixed", "--beta", "inf"], "beta must lie in (0, 2]"),
], ids=["iid-p", "iid-laziness", "lazy-walk-q", "two-state-laziness", "metropolis-p",
        "chain-info-p", "fixed-beta", "fixed-s", "gamma-sweep-beta"])
def test_unused_chain_and_schedule_options_are_checked(tmp_path, capsys, argv, message):
    # an option that the chosen chain family or schedule does not use is
    # checked all the same, and nothing is written
    out = tmp_path / "out.csv"
    command, *flags = argv
    assert run(command, *HQ_COMMANDS.get(command, []), *flags, "--out", str(out)) == 1
    assert message in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "out.csv.manifest.json").exists()


@pytest.mark.parametrize("argv, message", [
    (["robust-compare", "--replicates", "0"], "n_replicates must be at least 1"),
    (["gamma-sweep", "--gamma-list", ""], "gamma-list must name at least one gap"),
    (["learning-curve", "--m-grid", ""], "m_grid must be nonempty"),
    (["learning-curve", "--schedule", "bogus"], "schedule must be theorem2 or fixed"),
    (["learning-curve", "--seed", "-1"], "seeds must be nonnegative integers"),
    (["gamma-sweep", "--seed", "-1"], "seeds must be nonnegative integers"),
    (["breakdown", "--seed", "-1"], "seeds must be nonnegative integers"),
    (["robust-compare", "--seed", "-1"], "seeds must be nonnegative integers"),
    (["learning-curve", "--noise", "bogus"], "unknown noise kind 'bogus'"),
    (["learning-curve", "--d", "0"], "embedding dimension d must be at least 1"),
    (["gamma-sweep", "--gamma-list", "0"], "gamma values must lie in (0, 1]"),
    (["gamma-sweep", "--chain-n", "1"], "uniform-gap chain needs at least 2 states"),
    (["breakdown", "--n-outliers", ""], "n_outliers_list must be nonempty"),
    (["breakdown", "--magnitudes", ""], "magnitudes must be nonempty"),
    (["breakdown", "--sigma", "1e-200"], SIGMA_RANGE),
    (["robust-compare", "--sigma", "1e200"], SIGMA_RANGE),
], ids=["no-replicates", "empty-gamma-list", "empty-m-grid", "unknown-schedule",
        "learning-curve-negative-seed", "gamma-sweep-negative-seed",
        "breakdown-negative-seed", "robust-compare-negative-seed", "unknown-noise",
        "zero-dimension", "zero-gap", "one-state-sweep", "empty-n-outliers",
        "empty-magnitudes", "breakdown-tiny-sigma", "robust-compare-huge-sigma"])
def test_empty_or_unknown_experiment_option_is_one_error_line(tmp_path, capsys, argv, message):
    out = tmp_path / "out.csv"
    assert run(*argv, "--out", str(out)) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()
