"""Synthetic experiments: learning curves, gap sweeps, robustness comparison.

Every experiment is a pure function of (config, seed).  Per-replicate seeds
are spawned deterministically from the base seed, replicates are independent
work units (optionally threaded), and aggregation is order-independent, so
repeated runs produce identical tables byte for byte.
"""

from __future__ import annotations

import json
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import __version__
from .errors import InputError, NumericError
from .kernels import HypothesisKernel, hypothesis_kernel
from .markov import TransitionKernel, absolute_spectral_gap, sample_chain
from .risk import NoiseModel, SyntheticTask, excess_risk, make_task
from .solver import (  # noqa: F401 - fit_hq stays importable from here
    RmrConfig,
    distinct_gram,
    fit_data,
    fit_hq,
    predict,
    schedule_theorem2,
)

__all__ = [
    "Dataset",
    "Theorem2Schedule",
    "FixedSchedule",
    "ExperimentConfig",
    "LearningCurveResult",
    "generate_dataset",
    "learning_curve",
    "gamma_sweep",
    "robustness_comparison",
    "read_dataset_file",
    "write_dataset_file",
    "write_csv",
    "write_manifest",
]

log = logging.getLogger(__name__)


def derive_seed(*parts: int) -> int:
    """Stable 64-bit seed from integer components (base seed, indices, tag)."""
    state = np.random.SeedSequence(tuple(int(p) for p in parts)).generate_state(2)
    return int(state[0]) ^ (int(state[1]) << 32)


@dataclass(frozen=True)
class Dataset:
    """Sampled (x, y) pairs plus full provenance of how they were drawn."""

    x: np.ndarray
    y: np.ndarray
    states: np.ndarray
    noise_draws: np.ndarray
    f_star_values: np.ndarray
    seed: int

    @property
    def m(self) -> int:
        return self.y.shape[0]


def generate_dataset(task: SyntheticTask, m: int, seed: int) -> Dataset:
    """Stationary chain path -> embedded covariates -> y = f*(x) + noise."""
    if m < 1:
        raise InputError("m must be at least 1")
    chain_seed = derive_seed(seed, 0)
    noise_seed = derive_seed(seed, 1)
    states = sample_chain(task.chain, m, chain_seed, "stationary")
    x = task.chain.state_embedding[states].copy()
    f_vals = task.state_values[states].copy()
    noise = task.noise.sample(np.random.default_rng(noise_seed), m)
    return Dataset(x=x, y=f_vals + noise, states=states, noise_draws=noise,
                   f_star_values=f_vals, seed=seed)


@dataclass(frozen=True)
class Theorem2Schedule:
    """Gap-aware schedule: lambda and sigma decay as powers of (2g - g^2) m."""

    beta: float
    s: float


@dataclass(frozen=True)
class FixedSchedule:
    lam: float
    sigma: float


def _default_solver() -> RmrConfig:
    return RmrConfig(sigma=1.0, lam=0.1, q=2, max_hq_iters=100, tol=1e-9)


def _default_kernel() -> HypothesisKernel:
    return hypothesis_kernel("gaussian-rbf", bandwidth=0.5)


@dataclass(frozen=True)
class ExperimentConfig:
    task: SyntheticTask
    m_grid: tuple
    n_replicates: int
    schedule: Theorem2Schedule | FixedSchedule
    seed: int
    solver: RmrConfig = field(default_factory=_default_solver)
    kernel: HypothesisKernel = field(default_factory=_default_kernel)

    def __post_init__(self):
        grid = tuple(int(v) for v in self.m_grid)
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise InputError("m_grid must be strictly increasing")
        if not grid:
            raise InputError("m_grid must be nonempty")
        if self.n_replicates < 1:
            raise InputError("n_replicates must be at least 1")
        object.__setattr__(self, "m_grid", grid)


@dataclass(frozen=True)
class LearningCurveRow:
    m: int
    gamma_abs: float
    replicate: int
    excess_risk: float
    lambda_used: float
    sigma_used: float


@dataclass(frozen=True)
class LearningCurveResult:
    rows: tuple
    mean_by_m: tuple  # (m, mean excess risk) pairs
    slope: float
    slope_ci: tuple
    n_failed: int


def _schedule_params(schedule, m: int, gamma_abs: float):
    if isinstance(schedule, Theorem2Schedule):
        _, lam, sigma = schedule_theorem2(m, gamma_abs, schedule.beta, schedule.s)
        return lam, sigma
    return schedule.lam, schedule.sigma


def _fit_one(task, kernel, solver, lam, sigma, m, dataset_seed):
    data = generate_dataset(task, m, dataset_seed)
    model = fit_data(data.x, data.y, kernel, replace(solver, lam=lam, sigma=sigma))
    return excess_risk(task, model)


def _run_jobs(work, jobs: int):
    """Evaluate a list of thunks, optionally on a thread pool (results keep order)."""
    if jobs <= 1 or len(work) <= 1:
        return [fn() for fn in work]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(lambda fn: fn(), work))


def _bootstrap_slope(log_m, excess_lists, seed, draws=1000):
    """Percentile CI of the log-log slope under replicate resampling.

    ``excess_lists`` holds one array of replicate excess risks per m value;
    lengths may differ when fits failed.
    """
    rng = np.random.default_rng(seed)
    slopes = []
    for _ in range(draws):
        means = np.array(
            [vals[rng.integers(0, len(vals), len(vals))].mean() for vals in excess_lists]
        )
        if np.any(means <= 0):
            continue
        slopes.append(np.polyfit(log_m, np.log(means), 1)[0])
    if not slopes:
        return (float("nan"), float("nan"))
    lo, hi = np.percentile(slopes, [5.0, 95.0])
    return (float(lo), float(hi))


def learning_curve(config: ExperimentConfig, jobs: int = 1) -> LearningCurveResult:
    """Mean excess risk versus m, with the log-log slope and a 90% bootstrap CI.

    Replicates with solver failures are dropped from the aggregation and
    counted; the slope uses only m values whose mean excess risk is positive.
    """
    task = config.task
    gamma_abs = absolute_spectral_gap(task.chain)
    rows = []
    n_failed = 0
    for mi, m in enumerate(config.m_grid):
        lam, sigma = _schedule_params(config.schedule, m, gamma_abs)
        work = []
        for rep in range(config.n_replicates):
            dseed = derive_seed(config.seed, mi, rep)
            work.append(
                lambda lam=lam, sigma=sigma, m=m, dseed=dseed: _fit_one(
                    task, config.kernel, config.solver, lam, sigma, m, dseed
                )
            )
        for rep, outcome in enumerate(_run_wrapped(work, jobs)):
            if isinstance(outcome, NumericError):
                n_failed += 1
                log.warning("fit failed at m=%d replicate %d: %s", m, rep, outcome)
                outcome = float("nan")
            rows.append(LearningCurveRow(m, gamma_abs, rep, outcome, lam, sigma))
    means = []
    for m in config.m_grid:
        vals = [r.excess_risk for r in rows if r.m == m and np.isfinite(r.excess_risk)]
        means.append((m, float(np.mean(vals)) if vals else float("nan")))
    usable = [(m, v) for m, v in means if np.isfinite(v) and v > 0]
    if len(usable) >= 3:
        log_m = np.log([m for m, _ in usable])
        log_e = np.log([v for _, v in usable])
        slope = float(np.polyfit(log_m, log_e, 1)[0])
        excess_lists = [
            np.array(
                [r.excess_risk for r in rows if r.m == m and np.isfinite(r.excess_risk)]
            )
            for m, _ in usable
        ]
        ci = _bootstrap_slope(log_m, excess_lists, derive_seed(config.seed, 10**6))
    else:
        slope, ci = float("nan"), (float("nan"), float("nan"))
    return LearningCurveResult(tuple(rows), tuple(means), slope, ci, n_failed)


def _run_wrapped(work, jobs):
    """Run thunks, converting numeric failures into values so one bad
    replicate cannot sink a whole experiment."""

    def guarded(fn):
        def run():
            try:
                return fn()
            except NumericError as exc:
                return exc

        return run

    return _run_jobs([guarded(fn) for fn in work], jobs)


@dataclass(frozen=True)
class GammaSweepRow:
    gamma_abs: float
    discount: float  # 2*gamma - gamma^2
    m: int
    n_replicates: int
    mean_excess_risk: float
    lambda_used: float
    sigma_used: float
    replicate_excess: tuple


def gamma_sweep(base_config: ExperimentConfig, chains, jobs: int = 1):
    """Mean excess risk per chain at fixed m (the largest in the grid).

    Replicate seeds are shared across chains so per-replicate differences
    form a paired comparison.  Rows come back ordered by gamma_abs.
    """
    task = base_config.task
    m = base_config.m_grid[-1]
    rows = []
    for chain in chains:
        if chain.dim != task.chain.dim:
            raise InputError("all sweep chains must share the task's embedding dimension")
        chain_task = make_task(chain, task.noise, task.f_star, task.M)
        gamma = absolute_spectral_gap(chain)
        lam, sigma = _schedule_params(base_config.schedule, m, gamma)
        work = [
            (
                lambda rep=rep, lam=lam, sigma=sigma: _fit_one(
                    chain_task,
                    base_config.kernel,
                    base_config.solver,
                    lam,
                    sigma,
                    m,
                    derive_seed(base_config.seed, 0, rep),
                )
            )
            for rep in range(base_config.n_replicates)
        ]
        excesses = []
        for outcome in _run_wrapped(work, jobs):
            if isinstance(outcome, NumericError):
                log.warning("sweep fit failed on gamma=%.3f: %s", gamma, outcome)
                excesses.append(float("nan"))
            else:
                excesses.append(outcome)
        valid = [v for v in excesses if np.isfinite(v)]
        rows.append(
            GammaSweepRow(
                gamma_abs=gamma,
                discount=2.0 * gamma - gamma * gamma,
                m=m,
                n_replicates=base_config.n_replicates,
                mean_excess_risk=float(np.mean(valid)) if valid else float("nan"),
                lambda_used=lam,
                sigma_used=sigma,
                replicate_excess=tuple(excesses),
            )
        )
    rows.sort(key=lambda r: r.gamma_abs)
    return rows


@dataclass(frozen=True)
class RobustnessRow:
    replicate: int
    rmr_mse: float
    ls_mse: float


@dataclass(frozen=True)
class RobustnessComparison:
    rows: tuple
    mean_rmr_mse: float
    mean_ls_mse: float
    rmr_win_fraction: float


def _pi_weighted_mse(task: SyntheticTask, preds: np.ndarray) -> float:
    diff = preds - task.state_values
    return float(task.pi @ (diff * diff))


def robustness_comparison(
    task: SyntheticTask,
    m: int,
    config: RmrConfig,
    seed: int,
    n_replicates: int = 20,
    kernel: HypothesisKernel | None = None,
    jobs: int = 1,
) -> RobustnessComparison:
    """Modal fit versus kernel ridge on identical data.

    Both use the same kernel and the same lambda; the ridge baseline is
    the closed-form solution of min (1/m)||y - G^T a||^2 + lam ||a||^2.  Like
    the modal fit it is solved over the distinct covariate rows: with row
    counts C and per-row sums beta of a, (K C K^T + lam m C^-1) beta = K s,
    where s holds the per-row sums of y.  Errors are pi-weighted squared
    distances to f* on the chain states.
    """
    if kernel is None:
        kernel = _default_kernel()

    def one(rep: int) -> RobustnessRow:
        data = generate_dataset(task, m, derive_seed(seed, 0, rep))
        model = fit_data(data.x, data.y, kernel, config)
        states = task.chain.state_embedding
        rmr_preds = predict(model, states)
        groups, gram = distinct_gram(kernel, data.x)
        A = (gram * groups.counts) @ gram.T
        A[np.diag_indices_from(A)] += max(config.lam, 1e-12) * m / groups.counts
        ls_beta = np.linalg.solve(A, gram @ groups.sums(data.y))
        ls_preds = ls_beta @ kernel.cross(data.x[groups.first], states)
        return RobustnessRow(rep, _pi_weighted_mse(task, rmr_preds), _pi_weighted_mse(task, ls_preds))

    rows = _run_jobs([lambda rep=rep: one(rep) for rep in range(n_replicates)], jobs)
    wins = sum(1 for r in rows if r.rmr_mse < r.ls_mse)
    return RobustnessComparison(
        rows=tuple(rows),
        mean_rmr_mse=float(np.mean([r.rmr_mse for r in rows])),
        mean_ls_mse=float(np.mean([r.ls_mse for r in rows])),
        rmr_win_fraction=wins / n_replicates,
    )


def write_dataset_file(path, dataset: Dataset) -> None:
    """Plain text: header ``m d`` then rows of d covariates followed by y."""
    m, d = dataset.x.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{m} {d}\n")
        for xi, yi in zip(dataset.x, dataset.y):
            fh.write(" ".join(repr(float(v)) for v in xi) + " " + repr(float(yi)) + "\n")


def read_dataset_file(path):
    """Returns (x, y) arrays from the plain-text dataset format."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise InputError(f"{path}: expected 'm d' header")
        m, d = int(header[0]), int(header[1])
        x = np.empty((m, d))
        y = np.empty(m)
        for i in range(m):
            parts = fh.readline().split()
            if len(parts) != d + 1:
                raise InputError(f"{path}: row {i} has {len(parts)} fields, expected {d + 1}")
            x[i] = [float(v) for v in parts[:d]]
            y[i] = float(parts[d])
    finite = np.isfinite(x).all(axis=1) & np.isfinite(y)
    if not finite.all():
        raise InputError(f"{path}: row {int(np.argmin(finite))} has a non-finite value")
    return x, y


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


def _manifest_value(value):
    if isinstance(value, (Theorem2Schedule, FixedSchedule, RmrConfig)):
        out = {"type": type(value).__name__}
        out.update({k: _manifest_value(v) for k, v in asdict(value).items()})
        return out
    if isinstance(value, HypothesisKernel):
        return {"kind": value.kind, **value.shape_params}
    if isinstance(value, TransitionKernel):
        return {
            "n_states": value.n_states,
            "dim": value.dim,
            "P": value.P.tolist(),
            "embedding": value.state_embedding.tolist(),
        }
    if isinstance(value, NoiseModel):
        return {"kind": value.kind, **value.params}
    if isinstance(value, SyntheticTask):
        return {
            "f_star": getattr(value.f_star, "__name__", "custom"),
            "M": value.M,
            "noise": _manifest_value(value.noise),
            "chain": _manifest_value(value.chain),
        }
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _manifest_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_manifest_value(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def write_manifest(path, command: str, config: dict, extras: dict | None = None) -> None:
    """JSON record of the full experiment configuration and library version."""
    payload = {
        "command": command,
        "version": __version__,
        "config": _manifest_value(config),
    }
    if extras:
        payload["results"] = _manifest_value(extras)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
