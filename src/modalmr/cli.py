"""Command-line front end.

Commands map one-to-one onto library operations; every run is a pure
function of (argv, config file, input files), so repeated runs write
byte-identical outputs; ``write_csv`` and ``write_manifest`` write every
table and manifest, whose columns and ``results`` are the fields of the
record the library returns.  Exit codes: 0 success, 1 validation error, 2
numeric failure.

A flat ``key = value`` config file (# comments allowed) can supply any
long-flag value but ``config``; explicit flags win.  Unknown keys are
rejected with the list of valid keys for the chosen command.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import InputError, ModalRegressionError, NumericError
from .kernels import (
    _KERNEL_DEFAULTS,
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
    load_model,
    predict,
    read_dataset_file,
    save_model,
    schedule_theorem2,
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
    ("out", str, None, "output path (CSV table or model file)"),
    ("config", str, None, "flat key = value config file; flags win"),
    ("jobs", int, 1, "accepted; replicates run serially, BLAS uses the cores"),
]

# the four experiments draw their data; the other commands draw nothing
_EXPERIMENT_COMMON = [("seed", int, 0, "base random seed")] + _COMMON

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
    ("phi", str, "gaussian",
     f"representing function: {', '.join(PHI_KINDS)}; triangular only by fit --method gradient"),
    ("max-iters", int, 200, "outer iteration cap; gradient fits run max(this, 2000)"),
    ("tol", float, 1e-8, "objective-change stopping threshold"),
]

_KERNEL_OPTS = [
    ("kernel", str, "gaussian-rbf", f"hypothesis kernel: {', '.join(KERNEL_KINDS)}"),
    ("bandwidth", float, 0.5, "kernel bandwidth"),
    ("degree", float, 2.0, "polynomial kernel degree"),
    ("offset", float, 1.0, "polynomial kernel offset"),
]

_SCHEDULE_OPTS = [
    ("schedule", str, "theorem2", "theorem2 | fixed (--lambda and --sigma at every m)"),
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
        ("method", str, "hq", "hq (every phi but triangular) | gradient (any phi)"),
        ("fitted-out", str, None, "also write per-sample fitted values CSV"),
    ],
    "predict": _COMMON
    + [
        ("model", str, None, "model file written by fit"),
        ("data", str, None, "dataset file with covariates to predict on"),
    ],
    "learning-curve": _EXPERIMENT_COMMON
    + _CHAIN_OPTS
    + _NOISE_OPTS
    + _SCHEDULE_OPTS
    + _SOLVER_OPTS
    + _KERNEL_OPTS
    + [
        ("m-grid", _int_list, (64, 128, 256, 512, 1024, 2048), "comma list of sample sizes"),
        ("replicates", int, 20, "replicates per sample size"),
    ],
    "gamma-sweep": _EXPERIMENT_COMMON
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
    "breakdown": _EXPERIMENT_COMMON
    + _CHAIN_OPTS
    + _NOISE_OPTS
    + _SOLVER_OPTS
    + _KERNEL_OPTS
    + [
        ("m", int, 50, "clean sample size (>= 10)"),
        ("n-outliers", _int_list, (0, 5, 10, 20, 60), "outlier counts to try"),
        ("magnitudes", _float_list, (1e2, 1e6), "outlier response magnitudes"),
    ],
    "robust-compare": _EXPERIMENT_COMMON
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


def build_parser(argv) -> _Parser:
    """The parser of every command, with the options of the commands that
    ``argv`` names: each option costs an ``add_argument`` call, so a run
    builds only what it can parse."""
    parser = _Parser(prog="modalmr", description=__doc__)
    parser.add_argument("--version", action="version", version=f"modalmr {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    named = set(argv)
    for command, options in _COMMAND_OPTIONS.items():
        p = sub.add_parser(command, help=f"run {command}")
        for name, typ, _default, help_text in options if command in named else ():
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
            if key.strip() in values:
                raise InputError(f"{path}:{lineno}: repeated key {key.strip()!r}")
            values[key.strip()] = value.strip()
    return values


def _merge_options(args, options):
    """Layer defaults < config file < explicit flags, rejecting unknown keys."""
    table = {name: (typ, default) for name, typ, default, _ in options}
    merged = {}
    file_values = {}
    if getattr(args, "config", None):
        file_values = _read_config_file(args.config)
        valid = set(table) - {"config"}  # a config file cannot name another
        unknown = sorted(set(file_values) - valid)
        if unknown:
            raise InputError(f"unknown config keys {unknown}; valid keys: {sorted(valid)}")
    for name, (typ, default) in table.items():
        cli_value = getattr(args, _dest(name))
        if cli_value is not None:
            merged[name] = cli_value
        elif name in file_values:
            merged[name] = typ(file_values[name])
        else:
            merged[name] = default
    return merged


def _task_from(opts, chain=None):
    """The named noise on ``chain``, by default on the chain the options name."""
    from . import markov, risk

    if chain is None:
        chain = markov.builtin_chain(
            opts["chain-family"], d=opts["d"], n=opts["chain-n"], p=opts["chain-p"],
            q=opts["chain-q"], laziness=opts["laziness"],
        )
    noise = risk.builtin_noise(opts["noise"], opts["noise-scale"], dof=opts["dof"],
                               shape=opts["shape"])
    return risk.make_task(chain, noise)


def _kernel_from(opts):
    """The named kernel; every kernel's shape options are checked, used or not:
    an unused one by each kernel that takes it."""
    kind = opts["kernel"]
    used = _KERNEL_DEFAULTS.get(kind, ())
    for other, names in _KERNEL_DEFAULTS.items():
        hypothesis_kernel(other, **{k: opts[k] for k in names if k not in used})
    return hypothesis_kernel(kind, **{k: opts[k] for k in used})


def _solver_from(opts):
    return RmrConfig(
        sigma=opts["sigma"],
        lam=opts["lambda"],
        q=opts["q"],
        phi=representing_function(opts["phi"]),
        max_hq_iters=opts["max-iters"],
        tol=opts["tol"],
    )


def _schedule_from(opts):
    from . import harness

    schedule_theorem2(1, 1.0, opts["beta"], opts["s"])  # checks --beta and --s, used or not
    if opts["schedule"] == "theorem2":
        return harness.Theorem2Schedule(opts["beta"], opts["s"])
    if opts["schedule"] == "fixed":
        return None  # the solver's --lambda and --sigma
    raise InputError("schedule must be theorem2 or fixed")


def _experiment_from(opts, task, m_grid):
    from . import harness

    return harness.ExperimentConfig(
        task=task, m_grid=m_grid, n_replicates=opts["replicates"],
        schedule=_schedule_from(opts), seed=opts["seed"], solver=_solver_from(opts),
        kernel=_kernel_from(opts),
    )


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def write_csv(path, header, rows) -> None:
    """Fixed column order, 12-significant-digit floats, LF line endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _results(result, table) -> dict:
    """A result record's fields but its table: a manifest's ``results``."""
    results = result._asdict()
    del results[table]
    return results


def _plain(value):
    """A manifest value as plain JSON values: numpy values as Python ones,
    tuples as lists and a non-finite float as None (``null``)."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (np.ndarray, np.generic)):
        return _plain(value.tolist())
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def write_manifest(path, command: str, config: dict, extras: dict | None = None) -> None:
    """JSON record of the full experiment configuration and library version;
    a value that is not a finite number, such as the slope of a one-m learning
    curve, is written as ``null``, so any strict JSON parser reads the file."""
    import json

    payload = {"command": command, "version": __version__, "config": config}
    if extras:
        payload["results"] = extras
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_plain(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _require(opts, *names):
    for name in names:
        if opts[name] is None:
            raise InputError(f"--{name} is required for this command")


def _cmd_chain_info(opts) -> int:
    from . import markov

    if opts["chain-file"]:
        chain = markov.read_transition_file(opts["chain-file"])
    else:
        _require(opts, "family")
        if opts["family"] == "two-state":
            _require(opts, "p", "q")
        chain = markov.builtin_chain(opts["family"], n=opts["n"], p=opts["p"], q=opts["q"],
                                     laziness=opts["laziness"])
    diag = markov.diagnose(chain, k_max=opts["k-max"], t_max=opts["tv-tmax"],
                           start_state=opts["tv-start"])
    pi_text = ", ".join(_fmt(v) for v in diag.pi)
    print(
        f"chain: {chain.n_states} states, reversible={diag.reversible}, "
        f"gamma_a = {_fmt(diag.gamma_abs)}, gamma = {_fmt(diag.gamma)}, "
        f"gamma_p = {_fmt(diag.gamma_pseudo)}, pi = ({pi_text})"
    )
    if opts["out"]:
        write_csv(opts["out"], ["t", "tv_distance"], diag.tv_decay)
        write_manifest(opts["out"] + ".manifest.json", "chain-info", opts,
                       _results(diag, "tv_decay"))
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
        write_csv(
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
    x, y = read_dataset_file(opts["data"])
    model = fit_data(x, y, _kernel_from(opts), _solver_from(opts), method=opts["method"])
    save_model(opts["out"], model)
    if opts["fitted-out"]:
        write_csv(opts["fitted-out"], ["index", "fitted"],
                  list(enumerate(predict(model, x).tolist())))
    print(
        f"fit: m={model.m}, objective={model.objective_trace[-1]:.12g}, "
        f"iterations={len(model.objective_trace) - 1}, model -> {opts['out']}"
    )
    return 0


def _cmd_predict(opts) -> int:
    _require(opts, "model", "data", "out")
    model = load_model(opts["model"])
    x, _y = read_dataset_file(opts["data"])
    values = predict(model, x)
    write_csv(opts["out"], ["index", "prediction"],
              list(enumerate(np.atleast_1d(values).tolist())))
    print(f"predict: {len(np.atleast_1d(values))} predictions -> {opts['out']}")
    return 0


def _cmd_learning_curve(opts) -> int:
    from . import harness

    _require(opts, "out")
    result = harness.learning_curve(_experiment_from(opts, _task_from(opts), opts["m-grid"]))
    write_csv(opts["out"], harness.LearningCurveRow._fields, result.rows)
    write_manifest(opts["out"] + ".manifest.json", "learning-curve", opts,
                   _results(result, "rows"))
    print(
        f"learning-curve: slope {result.slope:.4f} "
        f"(90% CI {result.slope_ci[0]:.4f}..{result.slope_ci[1]:.4f}), "
        f"{result.n_failed} failed fits -> {opts['out']}"
    )
    return 0


def _cmd_gamma_sweep(opts) -> int:
    from . import harness, markov

    _require(opts, "out")
    if not opts["gamma-list"]:
        raise InputError("gamma-list must name at least one gap")
    chains = [markov.uniform_gap_chain(opts["chain-n"], gap, opts["d"])
              for gap in opts["gamma-list"]]
    config = _experiment_from(opts, _task_from(opts, chains[-1]), (opts["m"],))
    rows = harness.gamma_sweep(config, chains)
    columns = [c for c in harness.GammaSweepRow._fields if c != "replicate_excess"]
    write_csv(opts["out"], columns, [[getattr(r, c) for c in columns] for r in rows])
    write_manifest(opts["out"] + ".manifest.json", "gamma-sweep", opts)
    summary = "; ".join(f"gamma={r.gamma_abs:.3g}: {r.mean_excess_risk:.5g}" for r in rows)
    print(f"gamma-sweep at m={opts['m']}: {summary} -> {opts['out']}")
    return 0


def _cmd_breakdown(opts) -> int:
    import json

    from . import robustness

    _require(opts, "out")
    report = robustness.contamination_experiment(
        _task_from(opts), opts["m"], opts["n-outliers"], opts["magnitudes"], _solver_from(opts),
        opts["seed"], kernel=_kernel_from(opts),
    )
    results = _results(report, "contamination_curve")
    with open(opts["out"], "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# " + json.dumps(results, sort_keys=True) + "\n")
        fh.write("n_outliers,magnitude,coef_norm\n")
        for row in report.contamination_curve:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    write_manifest(opts["out"] + ".manifest.json", "breakdown", opts, results)
    print(
        f"breakdown: N={report.N:.6g}, bracket=({report.n_star_low}, {report.n_star_high}), "
        f"fraction={report.breakdown_fraction:.6g} -> {opts['out']}"
    )
    return 0


def _cmd_robust_compare(opts) -> int:
    from . import harness

    _require(opts, "out")
    result = harness.robustness_comparison(
        _task_from(opts), opts["m"], _solver_from(opts), opts["seed"],
        n_replicates=opts["replicates"], kernel=_kernel_from(opts),
    )
    write_csv(opts["out"], harness.RobustnessRow._fields, result.rows)
    write_manifest(opts["out"] + ".manifest.json", "robust-compare", opts,
                   _results(result, "rows"))
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
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
        opts = _merge_options(args, _COMMAND_OPTIONS[args.command])
        return _HANDLERS[args.command](opts)
    except (InputError, ValueError, OSError) as exc:
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
