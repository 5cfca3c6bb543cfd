"""The benchmark's reference pass as a tier-1 test: each workload's commands
run at the reference seed through ``modalmr.cli.main``, and their results
must match ``bench/reference.json`` within each workload's tolerances.

Only ``bench/workloads.py`` is imported: importing ``bench/run.py`` would
rewrite the BLAS thread variables in ``os.environ``.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from modalmr.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

from workloads import REFERENCE_SEED, WORKLOADS, Outcome, compare_to_reference  # noqa: E402


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_reference_seed_matches_reference(name, tmp_path):
    workload = WORKLOADS[name]
    outcomes = []
    for argv in workload.commands(tmp_path, REFERENCE_SEED):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(list(argv))
        assert code == 0, argv
        outcomes.append(Outcome(list(argv), code, stdout.getvalue(), 0.0))
    evaluation = workload.evaluate(tmp_path, outcomes)
    assert evaluation.problems == []
    reference = json.loads((BENCH / "reference.json").read_text())
    assert reference["seed"] == REFERENCE_SEED
    assert compare_to_reference(workload, evaluation.summary,
                                reference["workloads"][name]) == []
