import csv

import pytest

from modalmr.cli import _COMMAND_OPTIONS, main
from modalmr.harness import generate_dataset, write_dataset_file
from modalmr.markov import iid_chain
from modalmr.risk import gaussian_noise, make_task


def run(*argv):
    return main(list(argv))


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

    def test_missing_family_is_validation_error(self, capsys):
        assert run("chain-info") == 1

    def test_csv_output(self, tmp_path):
        out = tmp_path / "tv.csv"
        assert run("chain-info", "--family", "iid", "--n", "4", "--out", str(out)) == 0
        rows = list(csv.DictReader(out.open()))
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
        fitted = [float(r["fitted"]) for r in csv.DictReader(fitted_path.open())]
        preds = [float(r["prediction"]) for r in csv.DictReader(preds_path.open())]
        assert max(abs(a - b) for a, b in zip(fitted, preds)) < 1e-12

    def test_gradient_method(self, tmp_path, dataset_path):
        model_path = tmp_path / "model.txt"
        assert run(
            "fit", "--data", str(dataset_path), "--method", "gradient",
            "--phi", "epanechnikov", "--sigma", "1.0", "--lambda", "0.01",
            "--out", str(model_path),
        ) == 0

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
        rows = list(csv.DictReader(out.open()))
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

    def test_robust_compare_runs(self, tmp_path, capsys):
        out = tmp_path / "rc.csv"
        code = run(
            "robust-compare", "--m", "80", "--replicates", "3", "--chain-n", "6",
            "--noise", "student-t", "--dof", "3", "--noise-scale", "0.5",
            "--lambda", "0.001", "--out", str(out), "--seed", "11",
        )
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 3
