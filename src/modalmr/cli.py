"""Command-line front end.

Commands map one-to-one onto library operations; every run is a pure
function of (argv, config file, input files), so repeated runs write
byte-identical outputs.  Exit codes: 0 success, 1 validation error,
2 numeric failure.

A flat ``key = value`` config file (# comments allowed) can supply any
long-flag value; explicit flags win.  Unknown keys are rejected with the
list of valid keys for the chosen command.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from . import __version__, harness, markov, risk, robustness
from .errors import InputError, ModalRegressionError, NumericError
from .kernels import (
    KERNEL_KINDS,
    PHI_KINDS,
    check_calibration,
    hypothesis_kernel,
    representing_function,
)
from .solver import (  # noqa: F401 - fit_hq stays importable from here
    RmrConfig,
    fit_data,
    fit_hq,
    fitted_values,
    load_model,
    predict,
    save_model,
)


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad usage as a validation error (exit 1)."""

    def error(self, message):
        raise InputError(message)


def _int_list(text: str):
    return tuple(int(v) for v in text.split(",") if v.strip())


def _float_list(text: str):
    return tuple(float(v) for v in text.split(",") if v.strip())


# name, type, default, help   (None default means "optional / command decides")
_COMMON = [
    ("seed", int, 0, "base random seed"),
    ("out", str, None, "output path (CSV table or model file)"),
    ("config", str, None, "flat key = value config file; flags win"),
    ("jobs", int, 1, "parallel replicate workers"),
]

_CHAIN_OPTS = [
    ("chain-family", str, "iid", "iid | two-state | lazy-walk | metropolis"),
    ("chain-n", int, 16, "number of states for iid/lazy-walk/metropolis"),
    ("chain-p", float, 0.3, "two-state flip probability 0 -> 1"),
    ("chain-q", float, 0.2, "two-state flip probability 1 -> 0"),
    ("laziness", float, 0.5, "holding probability for lazy-walk"),
    ("d", int, 1, "embedding dimension"),
]

_NOISE_OPTS = [
    ("noise", str, "gaussian", "gaussian | student-t | shifted-gamma"),
    ("noise-scale", float, 0.5, "noise scale"),
    ("dof", float, 2.0, "student-t degrees of freedom"),
    ("shape", float, 2.0, "shifted-gamma shape"),
]

_SOLVER_OPTS = [
    ("sigma", float, 1.0, "modal bandwidth"),
    ("lambda", float, 0.1, "regularization weight"),
    ("q", int, 2, "penalty exponent, 1 or 2"),
    ("phi", str, "gaussian", f"representing function: {', '.join(PHI_KINDS)}"),
    ("max-iters", int, 200, "outer iteration cap"),
    ("tol", float, 1e-8, "objective-change stopping threshold"),
    ("inner-iters", int, 20, "coordinate-descent sweeps per outer step (q=1)"),
]

_KERNEL_OPTS = [
    ("kernel", str, "gaussian-rbf", f"hypothesis kernel: {', '.join(KERNEL_KINDS)}"),
    ("bandwidth", float, 0.5, "kernel bandwidth"),
    ("degree", float, 2.0, "polynomial kernel degree"),
    ("offset", float, 1.0, "polynomial kernel offset"),
]

_SCHEDULE_OPTS = [
    ("schedule", str, "theorem2", "theorem2 | fixed"),
    ("beta", float, 2.0, "smoothness exponent for the theorem2 schedule"),
    ("s", float, 0.01, "capacity exponent for the theorem2 schedule"),
]

_COMMAND_OPTIONS = {
    "chain-info": _COMMON
    + [
        ("family", str, None, "iid | two-state | lazy-walk | metropolis"),
        ("n", int, 8, "number of states"),
        ("p", float, None, "two-state flip probability 0 -> 1"),
        ("q", float, None, "two-state flip probability 1 -> 0"),
        ("laziness", float, 0.5, "holding probability for lazy-walk"),
        ("d", int, 1, "embedding dimension"),
        ("chain-file", str, None, "load the chain from a transition file instead"),
        ("k-max", int, 5, "pseudo-gap search depth"),
        ("tv-tmax", int, 30, "mixing-curve horizon"),
        ("tv-start", int, 0, "mixing-curve start state"),
    ],
    "check-kernel": _COMMON
    + [
        ("phi", str, None, f"representing function: {', '.join(PHI_KINDS)}"),
        ("halfwidth", float, None, "grid halfwidth (default 2 compact, 10 unbounded)"),
        ("points", int, None, "grid points (default 10001 compact, 100001 unbounded)"),
    ],
    "fit": _COMMON
    + [("data", str, None, "dataset file: 'm d' header then x.. y rows")]
    + _SOLVER_OPTS
    + _KERNEL_OPTS
    + [
        ("method", str, "hq", "hq | gradient"),
        ("fitted-out", str, None, "also write per-sample fitted values CSV"),
    ],
    "predict": _COMMON
    + [
        ("model", str, None, "model file written by fit"),
        ("data", str, None, "dataset file with covariates to predict on"),
    ],
    "learning-curve": _COMMON
    + _CHAIN_OPTS
    + _NOISE_OPTS
    + _SCHEDULE_OPTS
    + _SOLVER_OPTS
    + _KERNEL_OPTS
    + [
        ("m-grid", _int_list, (64, 128, 256, 512, 1024, 2048), "comma list of sample sizes"),
        ("replicates", int, 20, "replicates per sample size"),
    ],
    "gamma-sweep": _COMMON
    + _NOISE_OPTS
    + _SCHEDULE_OPTS
    + _SOLVER_OPTS
    + _KERNEL_OPTS
    + [
        ("gamma-list", _float_list, (0.1, 0.5, 1.0), "absolute gaps to sweep"),
        ("chain-n", int, 16, "states per sweep chain"),
        ("d", int, 1, "embedding dimension"),
        ("m", int, 512, "sample size"),
        ("replicates", int, 20, "replicates per chain"),
    ],
    "breakdown": _COMMON
    + _CHAIN_OPTS
    + _NOISE_OPTS
    + _SOLVER_OPTS
    + _KERNEL_OPTS
    + [
        ("m", int, 50, "clean sample size (>= 10)"),
        ("n-outliers", _int_list, (0, 5, 10, 20, 60), "outlier counts to try"),
        ("magnitudes", _float_list, (1e2, 1e6), "outlier response magnitudes"),
    ],
    "robust-compare": _COMMON
    + _CHAIN_OPTS
    + _NOISE_OPTS
    + _SOLVER_OPTS
    + _KERNEL_OPTS
    + [
        ("m", int, 500, "sample size"),
        ("replicates", int, 20, "number of replicates"),
    ],
}


def _dest(name: str) -> str:
    return name.replace("-", "_")


def build_parser() -> _Parser:
    parser = _Parser(prog="modalmr", description=__doc__)
    parser.add_argument("--version", action="version", version=f"modalmr {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, options in _COMMAND_OPTIONS.items():
        p = sub.add_parser(command, help=f"run {command}")
        for name, typ, _default, help_text in options:
            p.add_argument(f"--{name}", type=typ, default=None, dest=_dest(name), help=help_text)
    return parser


def _read_config_file(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InputError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def _merge_options(args, options):
    """Layer defaults < config file < explicit flags, rejecting unknown keys."""
    table = {name: (typ, default) for name, typ, default, _ in options}
    merged = {}
    file_values = {}
    if getattr(args, "config", None):
        file_values = _read_config_file(args.config)
        unknown = sorted(set(file_values) - set(table) - {"config"})
        if unknown:
            raise InputError(
                f"unknown config keys {unknown}; valid keys: {sorted(table)}"
            )
    for name, (typ, default) in table.items():
        cli_value = getattr(args, _dest(name))
        if cli_value is not None:
            merged[name] = cli_value
        elif name in file_values:
            merged[name] = typ(file_values[name])
        else:
            merged[name] = default
    return merged


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _chain_from(opts, family_key="chain-family", n_key="chain-n", p_key="chain-p", q_key="chain-q"):
    family = opts[family_key]
    if family == "iid":
        return markov.iid_chain(opts[n_key], d=opts["d"])
    if family == "two-state":
        return markov.two_state_chain(opts[p_key], opts[q_key], d=opts["d"])
    if family == "lazy-walk":
        return markov.lazy_random_walk(opts[n_key], opts["laziness"], d=opts["d"])
    if family == "metropolis":
        return markov.metropolis_grid(opts[n_key], d=opts["d"])
    raise InputError(f"unknown chain family {family!r}")


def _noise_from(opts):
    kind = opts["noise"]
    if kind == "gaussian":
        return risk.gaussian_noise(opts["noise-scale"])
    if kind == "student-t":
        return risk.student_t_noise(opts["dof"], opts["noise-scale"])
    if kind == "shifted-gamma":
        return risk.shifted_gamma_noise(opts["shape"], opts["noise-scale"])
    raise InputError(f"unknown noise kind {kind!r}")


def _kernel_from(opts):
    kind = opts["kernel"]
    if kind == "polynomial":
        return hypothesis_kernel(kind, degree=opts["degree"], offset=opts["offset"])
    return hypothesis_kernel(kind, bandwidth=opts["bandwidth"])


def _solver_from(opts, lam=None, sigma=None):
    return RmrConfig(
        sigma=opts["sigma"] if sigma is None else sigma,
        lam=opts["lambda"] if lam is None else lam,
        q=opts["q"],
        phi=representing_function(opts["phi"]),
        max_hq_iters=opts["max-iters"],
        tol=opts["tol"],
        inner_max_iters=opts["inner-iters"],
    )


def _schedule_from(opts):
    if opts["schedule"] == "theorem2":
        return harness.Theorem2Schedule(opts["beta"], opts["s"])
    if opts["schedule"] == "fixed":
        return harness.FixedSchedule(opts["lambda"], opts["sigma"])
    raise InputError("schedule must be theorem2 or fixed")


def _require(opts, *names):
    for name in names:
        if opts[name] is None:
            raise InputError(f"--{name} is required for this command")


def _cmd_chain_info(opts) -> int:
    if opts["chain-file"]:
        chain = markov.read_transition_file(opts["chain-file"])
    else:
        _require(opts, "family")
        if opts["family"] == "two-state":
            _require(opts, "p", "q")
        chain = _chain_from(
            {**opts, "chain-family": opts["family"], "chain-n": opts["n"],
             "chain-p": opts["p"], "chain-q": opts["q"]}
        )
    diag = markov.diagnose(chain, k_max=opts["k-max"], t_max=opts["tv-tmax"],
                           start_state=opts["tv-start"])
    pi_text = ", ".join(_fmt(v) for v in diag.pi)
    print(
        f"chain: {chain.n_states} states, reversible={diag.reversible}, "
        f"gamma_a = {_fmt(diag.gamma_abs)}, gamma = {_fmt(diag.gamma)}, "
        f"gamma_p = {_fmt(diag.gamma_pseudo)}, pi = ({pi_text})"
    )
    if opts["out"]:
        harness.write_csv(opts["out"], ["t", "tv_distance"],
                          [(t, tv) for t, tv in diag.tv_decay])
        harness.write_manifest(
            opts["out"] + ".manifest.json", "chain-info", opts,
            {"gamma_abs": diag.gamma_abs, "gamma": diag.gamma,
             "gamma_pseudo": diag.gamma_pseudo, "pi": diag.pi,
             "reversible": diag.reversible},
        )
    return 0


def _cmd_check_kernel(opts) -> int:
    _require(opts, "phi")
    phi = representing_function(opts["phi"])
    compact = np.isfinite(phi.support_halfwidth)
    halfwidth = opts["halfwidth"] if opts["halfwidth"] is not None else (2.0 if compact else 10.0)
    points = opts["points"] if opts["points"] is not None else (10001 if compact else 100001)
    report = check_calibration(phi, halfwidth, points)
    status = "ok" if report.ok() and phi.calibrated else "not-calibrated"
    print(
        f"phi={phi.kind}: symmetry {report.max_symmetry_violation:.3e}, "
        f"peak excess {report.max_excess_over_peak:.3e}, "
        f"|integral-1| {report.integral_error:.3e}, "
        f"second moment {_fmt(report.second_moment)}, "
        f"lipschitz {_fmt(report.lipschitz_estimate)} "
        f"(bound {_fmt(phi.lipschitz_bound)}) -> {status}"
    )
    if opts["out"]:
        harness.write_csv(
            opts["out"],
            ["kind", "symmetry", "peak_excess", "integral_error", "second_moment",
             "lipschitz_estimate", "lipschitz_bound"],
            [(phi.kind, report.max_symmetry_violation, report.max_excess_over_peak,
              report.integral_error, report.second_moment, report.lipschitz_estimate,
              phi.lipschitz_bound)],
        )
    return 0


def _cmd_fit(opts) -> int:
    _require(opts, "data", "out")
    x, y = harness.read_dataset_file(opts["data"])
    model = fit_data(x, y, _kernel_from(opts), _solver_from(opts), method=opts["method"])
    save_model(opts["out"], model)
    if opts["fitted-out"]:
        harness.write_csv(opts["fitted-out"], ["index", "fitted"],
                          list(enumerate(fitted_values(model).tolist())))
    print(
        f"fit: m={model.m}, objective={model.objective_trace[-1]:.12g}, "
        f"iterations={len(model.objective_trace) - 1}, model -> {opts['out']}"
    )
    return 0


def _cmd_predict(opts) -> int:
    _require(opts, "model", "data", "out")
    model = load_model(opts["model"])
    x, _y = harness.read_dataset_file(opts["data"])
    values = predict(model, x)
    harness.write_csv(opts["out"], ["index", "prediction"],
                      list(enumerate(np.atleast_1d(values).tolist())))
    print(f"predict: {len(np.atleast_1d(values))} predictions -> {opts['out']}")
    return 0


def _cmd_learning_curve(opts) -> int:
    _require(opts, "out")
    task = risk.make_task(_chain_from(opts), _noise_from(opts))
    config = harness.ExperimentConfig(
        task=task,
        m_grid=opts["m-grid"],
        n_replicates=opts["replicates"],
        schedule=_schedule_from(opts),
        seed=opts["seed"],
        solver=_solver_from(opts),
        kernel=_kernel_from(opts),
    )
    result = harness.learning_curve(config, jobs=opts["jobs"])
    harness.write_csv(
        opts["out"],
        ["m", "gamma_abs", "replicate", "excess_risk", "lambda_used", "sigma_used"],
        [(r.m, r.gamma_abs, r.replicate, r.excess_risk, r.lambda_used, r.sigma_used)
         for r in result.rows],
    )
    harness.write_manifest(
        opts["out"] + ".manifest.json", "learning-curve", opts,
        {"slope": result.slope, "slope_ci": result.slope_ci,
         "mean_by_m": result.mean_by_m, "n_failed": result.n_failed},
    )
    print(
        f"learning-curve: slope {result.slope:.4f} "
        f"(90% CI {result.slope_ci[0]:.4f}..{result.slope_ci[1]:.4f}), "
        f"{result.n_failed} failed fits -> {opts['out']}"
    )
    return 0


def _cmd_gamma_sweep(opts) -> int:
    _require(opts, "out")
    n = opts["chain-n"]
    chains = []
    for gap in opts["gamma-list"]:
        if not 0.0 < gap <= 1.0:
            raise InputError("gamma values must lie in (0, 1]")
        P = (1.0 - gap) * np.eye(n) + gap * np.full((n, n), 1.0 / n)
        chains.append(markov.transition_kernel(P, markov.iid_chain(n, d=opts["d"]).state_embedding))
    task = risk.make_task(chains[-1], _noise_from(opts))
    config = harness.ExperimentConfig(
        task=task,
        m_grid=(opts["m"],),
        n_replicates=opts["replicates"],
        schedule=_schedule_from(opts),
        seed=opts["seed"],
        solver=_solver_from(opts),
        kernel=_kernel_from(opts),
    )
    rows = harness.gamma_sweep(config, chains, jobs=opts["jobs"])
    harness.write_csv(
        opts["out"],
        ["gamma_abs", "discount", "m", "n_replicates", "mean_excess_risk",
         "lambda_used", "sigma_used"],
        [(r.gamma_abs, r.discount, r.m, r.n_replicates, r.mean_excess_risk,
          r.lambda_used, r.sigma_used) for r in rows],
    )
    harness.write_manifest(opts["out"] + ".manifest.json", "gamma-sweep", opts)
    summary = "; ".join(f"gamma={r.gamma_abs:.3g}: {r.mean_excess_risk:.5g}" for r in rows)
    print(f"gamma-sweep at m={opts['m']}: {summary} -> {opts['out']}")
    return 0


def _cmd_breakdown(opts) -> int:
    _require(opts, "out")
    task = risk.make_task(_chain_from(opts), _noise_from(opts))
    config = _solver_from(opts)
    report = robustness.contamination_experiment(
        task, opts["m"], opts["n-outliers"], opts["magnitudes"], config,
        opts["seed"], kernel=_kernel_from(opts),
    )
    header = {
        "N": report.N,
        "n_star_low": report.n_star_low,
        "n_star_high": report.n_star_high,
        "breakdown_fraction": report.breakdown_fraction,
        "m": report.m,
        "clean_norm": report.clean_norm,
    }
    with open(opts["out"], "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# " + json.dumps(header, sort_keys=True) + "\n")
        fh.write("n_outliers,magnitude,coef_norm\n")
        for n_out, magnitude, norm in report.contamination_curve:
            fh.write(f"{n_out},{_fmt(magnitude)},{_fmt(norm)}\n")
    print(
        f"breakdown: N={report.N:.6g}, bracket=({report.n_star_low}, {report.n_star_high}), "
        f"fraction={report.breakdown_fraction:.6g} -> {opts['out']}"
    )
    return 0


def _cmd_robust_compare(opts) -> int:
    _require(opts, "out")
    task = risk.make_task(_chain_from(opts), _noise_from(opts))
    config = _solver_from(opts)
    result = harness.robustness_comparison(
        task, opts["m"], config, opts["seed"], n_replicates=opts["replicates"],
        kernel=_kernel_from(opts), jobs=opts["jobs"],
    )
    harness.write_csv(
        opts["out"],
        ["replicate", "rmr_mse", "ls_mse"],
        [(r.replicate, r.rmr_mse, r.ls_mse) for r in result.rows],
    )
    harness.write_manifest(
        opts["out"] + ".manifest.json", "robust-compare", opts,
        {"mean_rmr_mse": result.mean_rmr_mse, "mean_ls_mse": result.mean_ls_mse,
         "rmr_win_fraction": result.rmr_win_fraction},
    )
    print(
        f"robust-compare: rmr mse {result.mean_rmr_mse:.5g}, "
        f"ls mse {result.mean_ls_mse:.5g}, rmr wins {result.rmr_win_fraction:.0%} "
        f"-> {opts['out']}"
    )
    return 0


_HANDLERS = {
    "chain-info": _cmd_chain_info,
    "check-kernel": _cmd_check_kernel,
    "fit": _cmd_fit,
    "predict": _cmd_predict,
    "learning-curve": _cmd_learning_curve,
    "gamma-sweep": _cmd_gamma_sweep,
    "breakdown": _cmd_breakdown,
    "robust-compare": _cmd_robust_compare,
}

_LOG_LEVELS = {"quiet": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}


def main(argv=None) -> int:
    level_name = os.environ.get("MODALMR_LOG", "quiet")
    if level_name not in _LOG_LEVELS:
        print(f"error: MODALMR_LOG must be one of {sorted(_LOG_LEVELS)}", file=sys.stderr)
        return 1
    logging.basicConfig(level=_LOG_LEVELS[level_name], stream=sys.stderr)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        opts = _merge_options(args, _COMMAND_OPTIONS[args.command])
        return _HANDLERS[args.command](opts)
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except ModalRegressionError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
