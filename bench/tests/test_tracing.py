"""Self-tests of the benchmark's span accounting and checks.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracing  # noqa: E402
from tracing import Tracer, layer_metrics, self_times, traced  # noqa: E402
from workloads import QUALITY_NAMES, WORKLOADS, compare_to_reference  # noqa: E402


def _ticking_tracer(*ticks):
    clock = iter(ticks)
    return Tracer(clock=lambda: next(clock))


def test_self_time_is_span_time_minus_child_spans():
    # a[0,10] holds b[1,4] (which holds c[2,3]) and d[5,9]; e[11,12] is a root.
    tracer = _ticking_tracer(0, 1, 2, 3, 4, 5, 9, 10, 11, 12)
    a = tracer.open("a")
    b = tracer.open("b")
    c = tracer.open("c")
    tracer.close(c)
    tracer.close(b)
    d = tracer.open("d")
    tracer.close(d)
    tracer.close(a)
    e = tracer.open("e")
    tracer.close(e)
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 0, -1]
    assert self_times(tracer.spans) == [10 - 3 - 4, 3 - 1, 1, 4, 1]
    # A slice counts only the children inside it.
    assert self_times(tracer.spans, first=1) == [2, 1, 4, 1]


def test_layer_metrics_sum_self_time_by_span_name_and_layer():
    # multistart[0,10] holds fit_hq[1,4] (holding objective[2,3]) and fit_hq[5,9].
    tracer = _ticking_tracer(0, 1, 2, 3, 4, 5, 9, 10)
    outer = tracer.open("robustness.multistart")
    for inner_objective in (True, False):
        fit = tracer.open("solver.fit_hq")
        if inner_objective:
            obj = tracer.open("solver.objective")
            tracer.close(obj)
        tracer.close(fit)
    tracer.close(outer)
    metrics = layer_metrics(tracer.spans)
    assert metrics["robustness.multistart.self_s"] == 10 - 3 - 4
    assert metrics["solver.fit_hq.self_s"] == (3 - 1) + 4
    assert metrics["solver.objective.calls"] == 1
    assert metrics["solver.self_s"] == (3 - 1) + 4 + 1
    assert metrics["robustness.self_s"] == 3
    assert metrics["robustness.starts"] == 2
    assert metrics["robustness.useful_start_ratio"] == 0.5


def test_spans_must_close_in_order():
    tracer = Tracer()
    outer = tracer.open("outer")
    tracer.open("inner")
    with pytest.raises(RuntimeError):
        tracer.close(outer)


def test_tiny_learning_curve_catches_fits_called_through_harness(tmp_path):
    import modalmr.cli as cli

    m_grid, replicates = (20, 30, 40), 2
    tracer = Tracer()
    with traced(tracer):
        code = cli.main([
            "learning-curve", "--chain-family", "lazy-walk", "--chain-n", "4",
            "--m-grid", ",".join(map(str, m_grid)), "--replicates", str(replicates),
            "--seed", "3", "--jobs", "1", "--out", str(tmp_path / "curve.csv"),
        ])
    assert code == 0
    metrics = layer_metrics(tracer.spans)
    fits = replicates * len(m_grid)
    assert metrics["cli.main.calls"] == 1
    assert metrics["solver.fit_hq.calls"] == fits
    assert metrics["harness.generate_dataset.calls"] == fits
    # risk.excess_risk calls predict through risk's own imported name.
    assert metrics["risk.excess_risk.calls"] == fits
    assert metrics["solver.predict.calls"] == fits
    assert metrics["kernels.cross.calls"] == 2 * fits
    assert metrics["markov.sample_chain.steps"] == replicates * sum(m_grid)
    assert metrics["solver.fit_hq.distinct_ratio"] <= 4 * fits / (replicates * sum(m_grid))
    assert tracer.problems == []


def test_leaving_traced_restores_every_binding():
    from modalmr import cli, harness, kernels, risk, robustness, solver

    def bindings():
        return (cli.main, cli.fit_hq, harness.fit_hq, robustness.fit_hq, solver.fit_hq,
                risk.predict, solver.predict, kernels.HypothesisKernel.cross)

    before = bindings()
    with traced(Tracer()):
        during = bindings()
        assert all(new is not old for new, old in zip(during, before))
        assert harness.fit_hq is robustness.fit_hq is solver.fit_hq is cli.fit_hq
    assert bindings() == before


def test_decreasing_objective_trace_is_reported():
    from modalmr.solver import RmrConfig, RmrModel

    def fake_fit(gram, y, config):
        return RmrModel(np.zeros(2), None, None, config, (1.0, 0.5))

    tracer = Tracer()
    wrapped = tracing._wrap(tracer, fake_fit, "solver.fit_hq")
    wrapped(np.eye(2), np.zeros(2), RmrConfig(sigma=1.0, lam=0.1, max_hq_iters=1))
    assert len(tracer.problems) == 1
    assert layer_metrics(tracer.spans)["solver.fit_hq.capped"] == 1


def test_benchmark_json_names_only_measured_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = set(layer_metrics([])) | {"cli.import_s", "trace.inprocess_wall_s",
                                          "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} <= per_layer
    end_to_end = {"wall_s", "setup_s", "peak_rss_mb", "success_fraction", *QUALITY_NAMES}
    assert {m["name"] for m in spec["end_to_end"]} == end_to_end
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def test_reference_comparison_uses_tolerances():
    fit_predict = WORKLOADS["fit_predict"]
    reference = {"q1_objective": [0.5], "gradient_objective": [0.9]}

    def problems(q1, gradient):
        summary = {"q1_objective": [q1], "gradient_objective": [gradient]}
        return compare_to_reference(fit_predict, summary, reference)

    assert problems(0.5 * (1 + 1e-8), 0.9 * (1 - 1e-8)) == []
    assert problems(0.6, 0.9) == []  # the capped q=1 fit may only improve
    assert len(problems(0.5 * (1 - 1e-4), 0.9)) == 1
    assert len(problems(0.5, 0.9 * (1 + 1e-4))) == 1
