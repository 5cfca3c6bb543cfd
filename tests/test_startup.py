"""Start-up guard: the CLI loads only what the command runs.

No command loads any scipy module: SciPy is a test dependency only.
`import modalmr.cli` loads no thread pool, `--version`, `fit` and
`predict` load neither json nor the experiment modules modalmr.harness,
modalmr.markov, modalmr.risk and modalmr.robustness, and `check-kernel`
loads none of those modules either.  The commands checked are `--version`,
a q=1 `fit` (active-set inner solve), a q=2 `fit --fitted-out` on 4 rows
(direct solve), a q=2 `fit` on 6 samples over 3 distinct covariates (the
reduced direct solve), a q=2 `fit` on 700 distinct rows (conjugate gradients),
`predict`, `check-kernel` and `learning-curve` with student-t and
shifted-gamma noise.  The learning curve loads no numpy.ma either, which
np.percentile would import for the slope CI, `chain-info --out` loads
none of modalmr.harness, modalmr.risk and modalmr.robustness, and
`robust-compare` loads neither modalmr.robustness nor numpy.ma.
Each script runs in one fresh interpreter so no other test's imports leak in.

Two more checks run in fresh interpreters: the benchmark's `fit_predict`
commands and a 700-row gradient fit write the same bytes under one and two
BLAS threads, and each
module's `__all__` lists each name once, every one defined and star-importable.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
EXPERIMENT = ("modalmr.harness", "modalmr.markov", "modalmr.risk", "modalmr.robustness")

SCRIPT = r"""
import sys
from pathlib import Path

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

def modalmr_modules():
    return sorted(m for m in sys.modules if m.startswith("modalmr."))

report = {}
from modalmr.cli import main
report["import"] = scipy_modules()
report["pools"] = sorted(m for m in sys.modules if m.startswith("concurrent"))
try:
    main(["--version"])
except SystemExit as exc:
    report["version_exit"] = exc.code
report["version"] = scipy_modules()
report["version_modalmr"] = modalmr_modules()
report["version_json"] = "json" in sys.modules
work = Path(sys.argv[1])
data, model = str(work / "data.txt"), str(work / "model.txt")
Path(data).write_text("4 1\n0.1 0.3\n0.4 -0.2\n0.7 0.5\n0.9 0.1\n")
report["fit_q1_exit"] = main(["fit", "--data", data, "--q", "1", "--out", model])
report["fit_q1"] = scipy_modules()
report["fit_exit"] = main(
    ["fit", "--data", data, "--out", model, "--fitted-out", str(work / "fitted.csv")]
)
report["fit"] = scipy_modules()
report["fit_modalmr"] = modalmr_modules()
report["fit_json"] = "json" in sys.modules
report["predict_exit"] = main(
    ["predict", "--model", model, "--data", data, "--out", str(work / "preds.csv")]
)
report["predict"] = scipy_modules()
report["predict_modalmr"] = modalmr_modules()
report["predict_json"] = "json" in sys.modules
repeated = str(work / "repeated.txt")
Path(repeated).write_text("6 1\n0.1 0.3\n0.4 -0.2\n0.1 0.5\n0.4 0.1\n0.1 -0.1\n0.9 0.2\n")
report["fit_repeated_exit"] = main(["fit", "--data", repeated, "--out", model])
report["fit_repeated"] = scipy_modules()
large = str(work / "large.txt")
rows = "".join(f"{i / 699!r} {(-1) ** i * 0.5!r}\n" for i in range(700))
Path(large).write_text("700 1\n" + rows)
report["fit_large_exit"] = main(["fit", "--data", large, "--out", model])
report["fit_large"] = scipy_modules()
import json
print(json.dumps(report))
"""

CURVES = r"""
import json, sys
from pathlib import Path

from modalmr.cli import main

report = {}
for noise in ("student-t", "shifted-gamma"):
    report[f"{noise}_exit"] = main([
        "learning-curve", "--chain-family", "lazy-walk", "--chain-n", "4",
        "--noise", noise, "--m-grid", "20,30,40", "--replicates", "2",
        "--out", str(Path(sys.argv[1]) / f"{noise}.csv"),
    ])
    report[noise] = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
report["numpy.ma"] = sorted(m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma."))
print(json.dumps(report))
"""

OTHERS = r"""
import json, sys
from pathlib import Path

from modalmr.cli import main

report = {"check_kernel_exit": main(["check-kernel", "--phi", "triangular"])}
report["check_kernel"] = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
report["check_kernel_modalmr"] = sorted(m for m in sys.modules if m.startswith("modalmr."))
report["chain_info_exit"] = main([
    "chain-info", "--chain-family", "lazy-walk", "--chain-n", "4",
    "--out", str(Path(sys.argv[1]) / "tv.csv"),
])
report["chain_info"] = sorted(m for m in sys.modules if m.startswith("modalmr."))
report["robust_compare_exit"] = main([
    "robust-compare", "--chain-family", "lazy-walk", "--chain-n", "4", "--m", "20",
    "--replicates", "2", "--out", str(Path(sys.argv[1]) / "rc.csv"),
])
report["robust_compare"] = sorted(
    m for m in sys.modules if m in ("modalmr.robustness", "numpy.ma", "scipy")
    or m.startswith(("numpy.ma.", "scipy."))
)
print(json.dumps(report))
"""


def _run(script, tmp_path_factory, *args):
    env = dict(os.environ, MODALMR_LOG="info")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path_factory.mktemp("startup")), *args],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


@pytest.fixture(scope="module")
def startup(tmp_path_factory):
    return _run(SCRIPT, tmp_path_factory)


@pytest.fixture(scope="module")
def curves(tmp_path_factory):
    return _run(CURVES, tmp_path_factory)[0]


@pytest.fixture(scope="module")
def others(tmp_path_factory):
    return _run(OTHERS, tmp_path_factory)[0]


def test_import_loads_no_scipy(startup):
    report, _ = startup
    assert report["import"] == []


def test_import_loads_no_thread_pool(startup):
    # replicates run one after another and BLAS threads use the cores
    report, _ = startup
    assert report["pools"] == []


@pytest.mark.parametrize("step", ["version", "fit", "fit_repeated", "fit_large", "predict"])
def test_commands_load_no_scipy(startup, step):
    report, _ = startup
    assert report[f"{step}_exit"] == 0
    assert report[step] == [], f"{step} loaded {report[step]}"


@pytest.mark.parametrize("step", ["version", "fit", "predict"])
def test_commands_load_no_json(startup, step):
    report, _ = startup
    assert not report[f"{step}_json"]


@pytest.mark.parametrize("step", ["version", "fit", "predict"])
def test_commands_skip_experiment_modules(startup, step):
    report, _ = startup
    loaded = [m for m in report[f"{step}_modalmr"] if m.startswith(EXPERIMENT)]
    assert loaded == [], f"{step} loaded {loaded}"


@pytest.mark.parametrize("noise", ["student-t", "shifted-gamma"])
def test_learning_curve_loads_no_scipy(curves, noise):
    assert curves[f"{noise}_exit"] == 0
    assert curves[noise] == []


def test_learning_curve_loads_no_numpy_ma(curves):
    assert curves["numpy.ma"] == []


def test_q1_fit_loads_no_scipy(startup):
    report, stderr = startup
    assert report["fit_q1_exit"] == 0
    assert report["fit_q1"] == []
    assert "hq fit (q=1, active-set inner solve, 4 distinct of 4 samples)" in stderr


def test_info_logging_reports_each_fit(startup):
    _, stderr = startup
    assert "hq fit (q=2, direct inner solve, 4 distinct of 4 samples)" in stderr
    assert "hq fit (q=2, direct inner solve, 3 distinct of 6 samples)" in stderr
    assert "hq fit (q=2, CG inner solve, 700 distinct of 700 samples)" in stderr


def test_check_kernel_loads_no_scipy(others):
    assert others["check_kernel_exit"] == 0
    assert others["check_kernel"] == []


def test_check_kernel_skips_experiment_modules(others):
    loaded = [m for m in others["check_kernel_modalmr"] if m.startswith(EXPERIMENT)]
    assert loaded == [], f"check-kernel loaded {loaded}"


def test_robust_compare_loads_no_robustness_numpy_ma_or_scipy(others):
    # robust-compare runs through the sweep: its means over the fitted
    # replicates must not bring in what np.percentile imports
    assert others["robust_compare_exit"] == 0
    assert others["robust_compare"] == []


def test_chain_info_loads_neither_harness_risk_nor_robustness(others):
    assert others["chain_info_exit"] == 0
    assert "modalmr.markov" in others["chain_info"]
    loaded = [m for m in others["chain_info"] if m.startswith(EXPERIMENT) and m != "modalmr.markov"]
    assert loaded == [], f"chain-info loaded {loaded}"


BENCH = Path(__file__).resolve().parents[1] / "bench"
MAIN = "import sys; from modalmr.cli import main; sys.exit(main(sys.argv[1:]))"
THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_fit_predict_bytes_do_not_depend_on_one_or_two_blas_threads(tmp_path):
    # byte identity holds at one BLAS thread count; on the benchmark's
    # fit_predict commands (384 distinct rows) it holds across 1 and 2 too,
    # and so it does for a gradient fit on 700 rows, which runs on the gram's
    # factor: over the full 700 x 700 gram its bits differed
    import numpy as np

    sys.path.insert(0, str(BENCH))
    try:
        from workloads import FitPredict
    finally:
        sys.path.remove(str(BENCH))
    commands = FitPredict().commands(tmp_path, 0)
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 1.0, 700)
    y = np.sin(6.0 * x) + 0.3 * rng.standard_t(2, 700)
    (tmp_path / "700.txt").write_text("700 1\n" + "".join(
        f"{xi!r} {yi!r}\n" for xi, yi in zip(x.tolist(), y.tolist())))
    commands.append(["fit", "--data", str(tmp_path / "700.txt"), "--method", "gradient",
                     "--phi", "triangular", "--sigma", "0.5", "--lambda", "1e-3",
                     "--out", str(tmp_path / "700.model")])
    outputs = ("q1.model", "gradient.model", "fitted.csv", "predicted.csv", "700.model")
    seen = []
    for threads in ("1", "2"):
        env = dict(os.environ, **dict.fromkeys(THREADS, threads))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        stdout = [subprocess.run([sys.executable, "-c", MAIN, *argv], env=env,
                                 capture_output=True, timeout=120, check=True).stdout
                  for argv in commands]
        seen.append((stdout, [(tmp_path / name).read_bytes() for name in outputs]))
    assert seen[0] == seen[1]


ALL_NAMES = r"""
import importlib, json, sys

name = sys.argv[2]
names = list(importlib.import_module(name).__all__)
report = {"missing": [n for n in names if not hasattr(sys.modules[name], n)],
          "repeated": sorted({n for n in names if names.count(n) > 1})}
try:
    exec(f"from {name} import *", {})
    report["star"] = None
except Exception as exc:
    report["star"] = repr(exc)
print(json.dumps(report))
"""


@pytest.mark.parametrize("module", sorted(
    f"modalmr.{path.stem}" for path in (SRC / "modalmr").glob("*.py")
    if "\n__all__ = " in path.read_text(encoding="utf-8")))
def test_all_names_exist_once_and_star_import(module, tmp_path_factory):
    # each name in __all__ is defined and listed once, and a star import of
    # the module succeeds, in a fresh interpreter
    report, _ = _run(ALL_NAMES, tmp_path_factory, module)
    assert report == {"missing": [], "repeated": [], "star": None}
