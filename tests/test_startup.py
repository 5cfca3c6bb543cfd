"""Start-up guard: the CLI loads only what the command runs.

`import modalmr.cli` must load no scipy module and no thread pool, and
`--version`, `fit` and `predict` must not load scipy.stats, scipy.integrate
or scipy.sparse, which together cost about a second per process.  A q=1 `fit`
loads no scipy module at all: its active-set inner solve is numpy only.  Each
step runs in one fresh interpreter so no other test's imports leak in.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("scipy.stats", "scipy.integrate", "scipy.sparse")

SCRIPT = r"""
import json, sys
from pathlib import Path

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

report = {}
from modalmr.cli import main
report["import"] = scipy_modules()
report["pools"] = sorted(m for m in sys.modules if m.startswith("concurrent"))
try:
    main(["--version"])
except SystemExit as exc:
    report["version_exit"] = exc.code
report["version"] = scipy_modules()
work = Path(sys.argv[1])
data, model = str(work / "data.txt"), str(work / "model.txt")
Path(data).write_text("4 1\n0.1 0.3\n0.4 -0.2\n0.7 0.5\n0.9 0.1\n")
report["fit_q1_exit"] = main(["fit", "--data", data, "--q", "1", "--out", model])
report["fit_q1"] = scipy_modules()
report["fit_exit"] = main(["fit", "--data", data, "--out", model])
report["fit"] = scipy_modules()
report["predict_exit"] = main(
    ["predict", "--model", model, "--data", data, "--out", str(work / "preds.csv")]
)
report["predict"] = scipy_modules()
print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def startup(tmp_path_factory):
    env = dict(os.environ, MODALMR_LOG="info")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path_factory.mktemp("startup"))],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def test_import_loads_no_scipy(startup):
    report, _ = startup
    assert report["import"] == []


def test_import_loads_no_thread_pool(startup):
    # replicates run one after another and BLAS threads use the cores
    report, _ = startup
    assert report["pools"] == []


@pytest.mark.parametrize("step", ["version", "fit", "predict"])
def test_commands_skip_heavy_scipy_modules(startup, step):
    report, _ = startup
    assert report[f"{step}_exit"] == 0
    heavy = [m for m in report[step] if m.startswith(HEAVY)]
    assert heavy == [], f"{step} loaded {heavy}"


def test_q1_fit_loads_no_scipy(startup):
    report, stderr = startup
    assert report["fit_q1_exit"] == 0
    assert report["fit_q1"] == []
    assert "hq fit (q=1, active-set inner solve, 4 distinct of 4 samples)" in stderr


def test_info_logging_reports_each_fit(startup):
    _, stderr = startup
    assert "hq fit (q=2, direct inner solve, 4 distinct of 4 samples)" in stderr
