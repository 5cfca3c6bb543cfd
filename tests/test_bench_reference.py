"""The benchmark's reference pass as a tier-1 test: each workload's commands
run at the reference seed through ``modalmr.cli.main``, and their results
must match ``bench/reference.json`` within each workload's tolerances.  The
``breakdown`` workload is also run traced, to pin the per-layer counts its
spans report.

Only ``bench/workloads.py`` and ``bench/tracing.py`` are imported: importing
``bench/run.py`` would rewrite the BLAS thread variables in ``os.environ``.
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

from tracing import Tracer, layer_metrics, traced  # noqa: E402
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


def test_traced_breakdown_builds_one_gram_and_computes_the_statistic_once(tmp_path):
    # every contaminated refit reuses the clean gram, and the statistic N is
    # taken through the public breakdown_N, so its span is live
    tracer = Tracer()
    with traced(tracer):
        for argv in WORKLOADS["breakdown"].commands(tmp_path, REFERENCE_SEED):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(list(argv)) == 0
    metrics = layer_metrics(tracer.spans)
    assert metrics["robustness.breakdown_N.calls"] == 1
    assert metrics["kernels.cross.calls"] == 1
    assert tracer.problems == []
