"""Finite-sample contamination breakdown of the modal regression estimator.

The breakdown statistic of a fitted coefficient vector is

    N = phi(0)^-1 * sum_i phi(r_i / sigma) - phi(0)^-1 * lam * m * sigma * ||alpha||_q^q
      = m * sigma * J(alpha) / phi(0),

J the modal objective (``solver.objective``), and the critical number of
arbitrary outliers n* lies in the width-1 integer bracket [floor(N), floor(N)+1],
giving breakdown fraction n*/(m + n*).  The contamination experiment reproduces both regimes empirically: below the
bracket the refit ignores arbitrarily large outliers; above it the refit
follows them and the coefficient norm grows with the outlier magnitude.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .errors import InputError, NumericError
from .harness import _default_kernel, generate_dataset
from .kernels import representing_function
from .risk import SyntheticTask
from .solver import CovariateGroups, RmrConfig, distinct_gram, fit_hq
from .solver import _check_problem, _solve_ridge_direct

__all__ = [
    "BreakdownReport",
    "breakdown_N",
    "breakdown_bracket",
    "contamination_experiment",
    "fit_hq_multistart",
]

_SINGLETON_ANCHOR_LIMIT = 8  # problems up to this many samples get one anchored start per sample


class BreakdownReport(NamedTuple):
    """Breakdown statistic, bracket and the measured contamination curve."""

    N: float
    n_star_low: int
    n_star_high: int
    breakdown_fraction: float
    m: int
    clean_norm: float
    contamination_curve: tuple  # rows (n_outliers, magnitude, coef_norm)


def breakdown_N(value: float, m: int, config: RmrConfig) -> float:
    """Breakdown statistic N = m sigma J / phi(0) of an m-sample fit whose
    objective value (``objective_trace[-1]``) is J."""
    return m * config.sigma * value / config.phi(0.0)


def breakdown_bracket(N: float, m: int):
    """(n_star_low, n_star_high, fraction) with both ends clamped to [1, m]."""
    if N < 0:
        raise InputError("N must be nonnegative")
    if m < 1:
        raise InputError("m must be at least 1")
    low = int(math.floor(N))
    high = low + 1
    low = min(max(low, 1), m)
    high = min(max(high, 1), m)
    fraction = high / (m + high)
    return low, high, fraction


def _ridge_coefficients(gram, groups, targets, rows=None):
    """Small-ridge least-squares fit used only to seed the solver.

    Minimizes ||t_R - G_R^T a||^2 + r ||a||^2 over the selected sample rows R
    (all samples by default); this is the non-robust estimate that follows
    outliers, which is exactly why it makes a useful second starting point
    for the non-concave modal objective.  The minimizer (G_R G_R^T + r I)^-1
    G_R t_R is constant on each covariate row, so it is solved exactly over
    the per-row sums beta on the n x n gram: (K D K^T + r C^-1) beta = K s,
    where D counts the selected samples per row, C all samples per row and s
    sums the selected targets per row.  r = 1e-8 * (trace(G_R G_R^T)/m + 1).
    """
    picked = groups.index if rows is None else groups.index[rows]
    t = targets if rows is None else targets[rows]
    selected = np.bincount(picked, minlength=groups.n).astype(float)
    ridge = 1e-8 * (groups.counts @ ((gram * gram) @ selected) / groups.m + 1.0)
    sums = np.bincount(picked, weights=t, minlength=groups.n)
    try:
        beta = _solve_ridge_direct(gram, selected, ridge / groups.counts, sums)
    except NumericError:
        return None
    return groups.expand(beta)


def fit_hq_multistart(
    gram,
    y,
    config: RmrConfig,
    extra_inits=(),
    *,
    groups=None,
):
    """Run half-quadratic ascent from several deterministic starts.

    The modal objective is non-concave: each local maximum tracks a subset
    of samples whose residuals it drives toward zero.  A zero start favours
    the bulk consensus and the least-squares seed chases whatever the
    quadratic loss chases; on small problems (up to ``_SINGLETON_ANCHOR_LIMIT``
    samples) one anchored start per sample additionally seeds the basin
    around each sample's consensus.  A compact phi, whose weights vanish
    outside its window, has more local maxima, so it also starts from this
    multistart's optimum for Gaussian phi at the same sigma.  A start whose
    fit fails numerically (``NumericError``) is skipped, and the last failure
    is raised only when every start fails.  Returns the fit with the best
    final objective; it carries no training inputs or kernel.
    ``gram`` covers the rows of ``groups``, as in ``fit_hq``; the seeds are
    solved over those rows, and every start reuses the one grouping.
    """
    gram, y, groups, _ = _check_problem(gram, y, groups=groups)
    m = y.shape[0]
    inits = [np.zeros(m)]
    ls = _ridge_coefficients(gram, groups, y)
    if ls is not None:
        inits.append(ls)
    if m <= _SINGLETON_ANCHOR_LIMIT:
        for i in range(m):
            anchor = _ridge_coefficients(gram, groups, y, rows=np.array([i]))
            if anchor is not None:
                inits.append(anchor)
    inits.extend(np.asarray(v, dtype=float) for v in extra_inits)
    if config.phi.hq is not None and config.phi.support_halfwidth < math.inf:
        gaussian = replace(config, phi=representing_function("gaussian"))
        with contextlib.suppress(NumericError):
            inits.append(fit_hq_multistart(gram, y, gaussian, extra_inits, groups=groups).alpha)
    best = None
    failure = None
    for init in inits:
        try:
            model = fit_hq(gram, y, config, init=init, groups=groups)
        except NumericError as exc:
            failure = exc
            continue
        if best is None or model.objective_trace[-1] > best.objective_trace[-1]:
            best = model
    if best is None:
        raise failure if failure is not None else NumericError("all starts failed")
    return best


def contamination_experiment(
    task: SyntheticTask,
    m: int,
    n_outliers_list,
    magnitudes,
    config: RmrConfig,
    seed: int,
    kernel=None,
) -> BreakdownReport:
    """Refit on progressively corrupted samples and trace the coefficient norm.

    All outliers share one covariate (the first training point's), matching
    the worst-case construction: identical arbitrary points.  Each refit is
    a deterministic multistart so the reported optimum reflects the better
    of the clean-tracking and outlier-tracking modes of the objective.
    The clean data's gram, over their distinct rows, serves every refit.
    """
    if m < 10:
        raise InputError("contamination experiment needs m >= 10")
    for name, values in (("n_outliers_list", n_outliers_list), ("magnitudes", magnitudes)):
        if len(values) == 0:
            raise InputError(f"{name} must be nonempty")
    data = generate_dataset(task, m, seed)
    if kernel is None:
        kernel = _default_kernel()
    groups, gram = distinct_gram(kernel, data.x)
    clean = fit_hq_multistart(gram, data.y, config, groups=groups)
    clean_norm = float(np.linalg.norm(clean.alpha))
    N = breakdown_N(clean.objective_trace[-1], m, config)
    low, high, fraction = breakdown_bracket(max(N, 0.0), m)
    curve = []
    for n in n_outliers_list:
        if n < 0:
            raise InputError("outlier counts must be nonnegative")
        if n == 0:
            curve.extend((0, float(magnitude), clean_norm) for magnitude in magnitudes)
            continue
        # every outlier shares sample 0's covariate, already a row of the clean
        # gram: the contaminated samples keep its rows, so they keep its gram
        groups_c = CovariateGroups._from(
            groups.first, np.concatenate([groups.index, np.full(n, groups.index[0])]))
        for magnitude in magnitudes:
            yc = np.concatenate([data.y, np.full(n, float(magnitude))])
            anchor = _ridge_coefficients(gram, groups_c, yc, rows=np.arange(m, m + n))
            extras = [anchor] if anchor is not None else []
            model = fit_hq_multistart(gram, yc, config, extras, groups=groups_c)
            curve.append((int(n), float(magnitude), float(np.linalg.norm(model.alpha))))
    return BreakdownReport(
        N=N,
        n_star_low=low,
        n_star_high=high,
        breakdown_fraction=fraction,
        m=m,
        clean_norm=clean_norm,
        contamination_curve=tuple(curve),
    )
