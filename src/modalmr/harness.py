"""Synthetic experiments: learning curves, gap sweeps, robustness comparison.

Every experiment is a pure function of (config, seed).  Every replicate
experiment runs through one sweep over (chain, m) pairs, ``_sweep``, which
seeds replicate ``rep`` at grid position ``mi`` with
``derive_seed(seed, mi, rep)`` on every chain and scores a failed fit NaN.
Replicates run one after another (BLAS threads use the cores), so repeated
runs produce identical tables byte for byte.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import InputError, NumericError
from .kernels import HypothesisKernel, hypothesis_kernel
from .solver import (
    RmrConfig,
    _solve_ridge_direct,
    distinct_gram,
    fit_data,
    fit_hq,
    schedule_theorem2,
    # an alias: the benchmark's bench/workloads.py, which changes only with the
    # benchmark, writes its dataset through harness.write_dataset_file
    write_dataset_file,  # noqa: F401
)

if TYPE_CHECKING:  # markov and risk load with the first experiment that needs them
    from .risk import SyntheticTask

__all__ = [
    "Dataset",
    "Theorem2Schedule",
    "ExperimentConfig",
    "LearningCurveResult",
    "generate_dataset",
    "learning_curve",
    "gamma_sweep",
    "robustness_comparison",
]

log = logging.getLogger(__name__)


def derive_seed(*parts: int) -> int:
    """Stable 64-bit seed from nonnegative integer components (base seed,
    indices, tag)."""
    parts = tuple(int(p) for p in parts)
    if any(p < 0 for p in parts):
        raise InputError("seeds must be nonnegative integers")
    state = np.random.SeedSequence(parts).generate_state(2)
    return int(state[0]) ^ (int(state[1]) << 32)


class Dataset(NamedTuple):
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
    from .markov import sample_chain

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


class Theorem2Schedule(NamedTuple):
    """Gap-aware schedule: lambda and sigma decay as powers of (2g - g^2) m."""

    beta: float
    s: float


def _default_solver() -> RmrConfig:
    return RmrConfig(sigma=1.0, lam=0.1, q=2, max_hq_iters=100, tol=1e-9)


def _default_kernel() -> HypothesisKernel:
    return hypothesis_kernel("gaussian-rbf", bandwidth=0.5)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment.  A ``schedule`` sets each fit's lambda and sigma from
    (m, gamma_abs); ``None`` fits every m with the solver's own."""

    task: SyntheticTask
    m_grid: tuple
    n_replicates: int
    schedule: Theorem2Schedule | None
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


class LearningCurveRow(NamedTuple):
    m: int
    gamma_abs: float
    replicate: int
    excess_risk: float
    lambda_used: float
    sigma_used: float


class LearningCurveResult(NamedTuple):
    rows: tuple
    mean_by_m: tuple  # (m, mean excess risk) pairs
    slope: float
    slope_ci: tuple
    n_failed: int


def _sweep(config: ExperimentConfig, chains, score):
    """Replicate fits on each chain at each m of ``config.m_grid``.

    Yields (gap, m, lambda, sigma, replicate scores, failures) per (chain, m);
    ``gap()`` is the chain's absolute spectral gap, an eigensolve made once and
    only if read.  A replicate scores ``score(task, data, solver, kernel)``.
    Replicate ``rep`` at grid position ``mi`` draws its data from
    ``derive_seed(config.seed, mi, rep)`` whatever the chain, so replicates
    pair across chains.  A replicate that raises NumericError logs a warning
    and scores NaN, so one bad replicate cannot sink a whole experiment.
    """
    from .markov import absolute_spectral_gap
    from .risk import make_task

    task = config.task
    for chain in chains:
        if chain.dim != task.chain.dim:
            raise InputError("all sweep chains must share the task's embedding dimension")
        chain_task = make_task(chain, task.noise, task.f_star, task.M)
        gap = functools.cache(functools.partial(absolute_spectral_gap, chain))
        for mi, m in enumerate(config.m_grid):
            solver = config.solver
            if config.schedule is not None:
                beta, s = config.schedule
                _, lam, sigma = schedule_theorem2(m, gap(), beta, s)
                solver = replace(solver, lam=lam, sigma=sigma)
            scores, n_failed = [], 0
            for rep in range(config.n_replicates):
                try:
                    data = generate_dataset(chain_task, m, derive_seed(config.seed, mi, rep))
                    scores.append(score(chain_task, data, solver, config.kernel))
                except NumericError as exc:
                    n_failed += 1
                    log.warning("fit failed at gamma=%.3f, m=%d replicate %d: %s",
                                gap(), m, rep, exc)
                    scores.append(float("nan"))
            yield gap, m, solver.lam, solver.sigma, scores, n_failed


def _excess_score(task, data, solver, kernel) -> float:
    """A replicate's excess risk, fitted through this module's ``fit_data``."""
    from .risk import excess_risk

    return excess_risk(task, fit_data(data.x, data.y, kernel, solver))


_BOOTSTRAP_DRAWS = 1000


def _bootstrap_means(excess_lists, rng, draws):
    """(draws, len(excess_lists)) means of replicate resamples.

    The resamples are a per-draw loop's, which resamples every list in turn
    with ``rng.integers(0, n, n)``: given one bound per element, ``integers``
    draws in C order from the same stream with the same rejections, so one
    call with a (draws, sum n) array of bounds makes them all.
    """
    sizes = [len(vals) for vals in excess_lists]
    bounds = np.repeat(sizes, sizes)
    picks = rng.integers(0, np.broadcast_to(bounds, (draws, len(bounds))))
    rows = np.split(picks, np.cumsum(sizes)[:-1], axis=1)
    return np.column_stack([vals[r].mean(axis=1) for vals, r in zip(excess_lists, rows)])


def _percentiles(values, qs):
    """``np.percentile(values, qs)`` of finite 1-d values, bit for bit, as
    Python floats, without the numpy.ma import np.percentile brings.

    numpy's default ``linear`` method: virtual index v = (n - 1) q / 100,
    neighbours floor(v) and floor(v) + 1 (both the last element once
    v >= n - 1, with t = v + 1), picked by the same partition, and numpy's
    ``_lerp``: a + (b - a) t, or b - (b - a)(1 - t) when t >= 0.5.
    """
    n = len(values)
    spots, kth = [], {0, -1}
    for q in qs:
        virtual = (n - 1) * (float(q) / 100.0)
        below = math.floor(virtual)
        above = below + 1
        if virtual >= n - 1:
            below = above = -1
        spots.append((virtual, below, above))
        kth.update((below, above))
    ordered = np.partition(values, sorted(kth))
    out = []
    for virtual, below, above in spots:
        a, b = float(ordered[below]), float(ordered[above])
        t = virtual - below
        diff = b - a
        out.append(b - diff * (1 - t) if t >= 0.5 else a + diff * t)
    return out


def _bootstrap_slope(log_m, excess_lists, seed, draws=_BOOTSTRAP_DRAWS):
    """Percentile CI of the log-log slope under replicate resampling, and the
    number of draws it used.

    ``excess_lists`` holds one array of replicate excess risks per m value;
    lengths may differ when fits failed.  A draw with a mean at or below zero
    has no log and is dropped.
    """
    means = _bootstrap_means(excess_lists, np.random.default_rng(seed), draws)
    kept = means[~np.any(means <= 0, axis=1)]
    if not len(kept):
        return (float("nan"), float("nan")), 0
    slopes = np.polyfit(log_m, np.log(kept).T, 1)[0]
    lo, hi = _percentiles(slopes, (5.0, 95.0))
    return (lo, hi), len(kept)


def learning_curve(config: ExperimentConfig, jobs: int = 1) -> LearningCurveResult:
    """Mean excess risk versus m, with the log-log slope and a 90% bootstrap CI.

    Replicates with solver failures are dropped from the aggregation and
    counted; the slope uses only m values whose mean excess risk is positive.
    ``jobs`` is accepted and ignored: replicates run one after another.
    """
    rows = []
    finite = {}  # m -> its finite replicate excess risks
    n_failed = 0
    for gap, m, lam, sigma, risks, failed in _sweep(config, [config.task.chain], _excess_score):
        n_failed += failed
        rows += [LearningCurveRow(m, gap(), rep, e, lam, sigma) for rep, e in enumerate(risks)]
        finite[m] = np.array([e for e in risks if np.isfinite(e)])
    means = [(m, float(np.mean(v)) if len(v) else float("nan")) for m, v in finite.items()]
    usable = [(m, v) for m, v in means if np.isfinite(v) and v > 0]
    if len(usable) >= 3:
        log_m = np.log([m for m, _ in usable])
        log_e = np.log([v for _, v in usable])
        slope = float(np.polyfit(log_m, log_e, 1)[0])
        excess_lists = [finite[m] for m, _ in usable]
        ci, kept = _bootstrap_slope(log_m, excess_lists, derive_seed(config.seed, 10**6))
    else:
        slope, ci, kept = float("nan"), (float("nan"), float("nan")), 0
    log.info(
        "learning curve over m = %s: %d failed fits, slope %.6g, %d of %d bootstrap "
        "draws kept", list(config.m_grid), n_failed, slope, kept,
        _BOOTSTRAP_DRAWS if len(usable) >= 3 else 0,
    )
    return LearningCurveResult(tuple(rows), tuple(means), slope, ci, n_failed)


class GammaSweepRow(NamedTuple):
    gamma_abs: float
    discount: float  # 2*gamma - gamma^2
    m: int
    n_replicates: int
    mean_excess_risk: float
    lambda_used: float
    sigma_used: float
    replicate_excess: tuple


def gamma_sweep(base_config: ExperimentConfig, chains, jobs: int = 1):
    """Mean excess risk per chain at every m of the config's grid.

    Replicate seeds are shared across chains so per-replicate differences
    form a paired comparison.  Rows come back ordered by gamma_abs, then by
    m.  ``jobs`` is accepted and ignored: replicates run one after another.
    """
    rows = []
    for gap, m, lam, sigma, excesses, _ in _sweep(base_config, chains, _excess_score):
        gamma, valid = gap(), [v for v in excesses if np.isfinite(v)]
        rows.append(GammaSweepRow(
            gamma, 2.0 * gamma - gamma * gamma, m, base_config.n_replicates,
            float(np.mean(valid)) if valid else float("nan"), lam, sigma, tuple(excesses),
        ))
    rows.sort(key=lambda r: r.gamma_abs)
    return rows


class RobustnessRow(NamedTuple):
    replicate: int
    rmr_mse: float
    ls_mse: float


class RobustnessComparison(NamedTuple):
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
    where s holds the per-row sums of y.  Both fits are evaluated on the
    chain states from their per-row sums, through one cross gram.  Errors
    are pi-weighted squared distances to f* on the chain states.  ``jobs``
    is accepted and ignored: replicates run one after another, through a
    one-m ``_sweep``, whose failure rule puts NaN in both columns of a
    failed replicate and leaves it out of the means and the win fraction.
    """

    def score(task, data, solver, kernel):
        groups, gram = distinct_gram(kernel, data.x)
        model = fit_hq(gram, data.y, solver, groups=groups)
        ridge = max(solver.lam, 1e-12) * data.m / groups.counts
        ls_beta = _solve_ridge_direct(gram, groups.counts, ridge, groups.sums(data.y))
        on_states = kernel.cross(data.x[groups.first], task.chain.state_embedding)
        return (_pi_weighted_mse(task, groups.sums(model.alpha) @ on_states),
                _pi_weighted_mse(task, ls_beta @ on_states))

    experiment = ExperimentConfig(task, (m,), n_replicates, None, seed, config,
                                  kernel or _default_kernel())
    ((*_, pairs, _),) = _sweep(experiment, [task.chain], score)
    # a failed replicate scores one NaN, which fills both columns
    rows = tuple(RobustnessRow(rep, *(p if isinstance(p, tuple) else (p, p)))
                 for rep, p in enumerate(pairs))
    fitted = [r for r in rows if not math.isnan(r.rmr_mse)]
    if not fitted:
        return RobustnessComparison(rows, math.nan, math.nan, math.nan)
    wins = sum(1 for r in fitted if r.rmr_mse < r.ls_mse)
    return RobustnessComparison(rows, float(np.mean([r.rmr_mse for r in fitted])),
                                float(np.mean([r.ls_mse for r in fitted])), wins / len(fitted))
