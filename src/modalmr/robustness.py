"""Finite-sample contamination breakdown of the modal regression estimator.

The breakdown statistic of a fitted coefficient vector is

    N = phi(0)^-1 * sum_i phi(r_i / sigma) - phi(0)^-1 * lam * m * sigma * ||alpha||_q^q

and the critical number of arbitrary outliers n* lies in the width-1 integer
bracket [floor(N), floor(N)+1], giving breakdown fraction n*/(m + n*).  The
contamination experiment reproduces both regimes empirically: below the
bracket the refit ignores arbitrarily large outliers; above it the refit
follows them and the coefficient norm grows with the outlier magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, SingularSystem
from .kernels import RepresentingFunction, hypothesis_kernel
from .risk import SyntheticTask
from .solver import CovariateGroups, RmrConfig, RmrModel, distinct_gram, fit_hq, fitted_values

__all__ = [
    "BreakdownReport",
    "breakdown_N",
    "breakdown_bracket",
    "contamination_experiment",
    "fit_hq_multistart",
]


@dataclass(frozen=True)
class BreakdownReport:
    """Breakdown statistic, bracket and the measured contamination curve."""

    N: float
    n_star_low: int
    n_star_high: int
    breakdown_fraction: float
    m: int
    clean_norm: float
    contamination_curve: tuple  # rows (n_outliers, magnitude, coef_norm)


def breakdown_N(model: RmrModel, y, phi: RepresentingFunction) -> float:
    """Breakdown statistic of a fitted model on its own training responses."""
    if model.train_inputs is None or model.kernel is None:
        raise InputError("model must carry its training inputs and kernel")
    y = np.asarray(y, dtype=float).ravel()
    if y.shape[0] != model.m:
        raise InputError(f"y has length {y.shape[0]}, model was fit on {model.m}")
    residuals = y - fitted_values(model)
    cfg = model.config
    peak = phi(0.0)
    fit_term = float(np.sum(phi(residuals / cfg.sigma))) / peak
    penalty_term = cfg.lam * model.m * cfg.sigma * model.coefficient_penalty() / peak
    return fit_term - penalty_term


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
    A = (gram * selected) @ gram.T
    ridge = 1e-8 * (groups.counts @ np.diag(A) / groups.m + 1.0)
    A[np.diag_indices_from(A)] += ridge / groups.counts
    try:
        beta = np.linalg.solve(A, gram @ np.bincount(picked, weights=t, minlength=groups.n))
    except np.linalg.LinAlgError:
        return None
    return groups.expand(beta)


def fit_hq_multistart(
    gram,
    y,
    config: RmrConfig,
    extra_inits=(),
    *,
    train_inputs=None,
    kernel=None,
    singleton_anchor_limit: int = 8,
):
    """Run half-quadratic ascent from several deterministic starts.

    The modal objective is non-concave: each local maximum tracks a subset
    of samples whose residuals it drives toward zero.  A zero start favours
    the bulk consensus and the least-squares seed chases whatever the
    quadratic loss chases; on small problems (up to ``singleton_anchor_limit``
    samples) one anchored start per sample additionally seeds the basin
    around each sample's consensus.  Returns the fit with the best final
    objective.  ``gram`` and ``train_inputs`` follow the rule of ``fit_hq``;
    the seeds are solved over the distinct covariate rows.
    """
    y = np.asarray(y, dtype=float).ravel()
    m = y.shape[0]
    groups = CovariateGroups.for_fit(train_inputs, m)
    reduced = groups.reduce_gram(gram)
    inits = [np.zeros(m)]
    ls = _ridge_coefficients(reduced, groups, y)
    if ls is not None:
        inits.append(ls)
    if m <= singleton_anchor_limit:
        for i in range(m):
            anchor = _ridge_coefficients(reduced, groups, y, rows=np.array([i]))
            if anchor is not None:
                inits.append(anchor)
    inits.extend(np.asarray(v, dtype=float) for v in extra_inits)
    best = None
    failure = None
    for init in inits:
        try:
            model = fit_hq(reduced, y, config, init=init, train_inputs=train_inputs, kernel=kernel)
        except SingularSystem as exc:
            failure = exc
            continue
        if best is None or model.objective_trace[-1] > best.objective_trace[-1]:
            best = model
    if best is None:
        raise failure if failure is not None else SingularSystem("all starts failed")
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
    Only grams over the distinct covariate rows are built; the outliers'
    shared covariate adds at most one row.
    """
    from .harness import generate_dataset  # deferred; harness imports risk/solver only

    if m < 10:
        raise InputError("contamination experiment needs m >= 10")
    data = generate_dataset(task, m, seed)
    if kernel is None:
        kernel = hypothesis_kernel("gaussian-rbf", bandwidth=0.5)
    _, gram = distinct_gram(kernel, data.x)
    clean = fit_hq_multistart(gram, data.y, config, train_inputs=data.x, kernel=kernel)
    clean_norm = float(np.linalg.norm(clean.alpha))
    N = breakdown_N(clean, data.y, config.phi)
    low, high, fraction = breakdown_bracket(max(N, 0.0), m)
    outlier_x = data.x[0]
    curve = []
    for n in n_outliers_list:
        if n < 0:
            raise InputError("outlier counts must be nonnegative")
        for magnitude in magnitudes:
            if n == 0:
                curve.append((0, float(magnitude), clean_norm))
                continue
            xc = np.vstack([data.x, np.tile(outlier_x, (n, 1))])
            yc = np.concatenate([data.y, np.full(n, float(magnitude))])
            groups_c, gc = distinct_gram(kernel, xc)
            anchor = _ridge_coefficients(gc, groups_c, yc, rows=np.arange(m, m + n))
            extras = [anchor] if anchor is not None else []
            model = fit_hq_multistart(gc, yc, config, extras, train_inputs=xc, kernel=kernel)
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
