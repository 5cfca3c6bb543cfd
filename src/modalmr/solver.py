"""Regularized modal regression over the sample-dependent hypothesis space.

The estimator maximizes

    J(alpha) = (1/(m sigma)) * sum_i phi((y_i - K_i^T alpha)/sigma) - lam*||alpha||_q^q

where K_i is column i of the gram matrix.  Every phi with a finite
half-quadratic weight (all built-in kinds but triangular) is maximized by
half-quadratic (HQ) alternation; proximal gradient ascent serves any phi.

Samples that share a covariate row share a gram column, so every solver works
on the n distinct rows (``CovariateGroups``) and the n x n gram over them, or
for the gradient fit a low-rank factor of it; all-distinct data is the case
n = m of the same code.
"""

from __future__ import annotations

import logging
import math
import sys
from array import array
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InputError, NumericError
from .kernels import (
    HypothesisKernel,
    RepresentingFunction,
    as_covariate_array,
    hypothesis_kernel,
    representing_function,
)

__all__ = [
    "RmrConfig",
    "RmrModel",
    "CovariateGroups",
    "objective",
    "fit_hq",
    "fit_gradient",
    "fit_data",
    "distinct_gram",
    "predict",
    "schedule_theorem2",
    "save_model",
    "load_model",
    "read_dataset_file",
    "write_dataset_file",
]

_DIRECT_SOLVE_LIMIT = 600  # above this many distinct covariates, the HQ inner solve uses CG
# a gradient fit on n rows runs on a gram factor of rank <= n / 4; an
# iteration on the factor costs about what one on the gram does near rank n / 2
_FACTOR_RANK_SHARE = 0.25
_ACTIVE_SET_STEPS = 100  # step cap of a q=1 inner solve; a cold 384-row start takes 17-29

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class RmrConfig:
    """Solver knobs: modal bandwidth, penalty weight/exponent, phi, outer
    iteration cap and stopping threshold."""

    sigma: float
    lam: float
    q: int = 2
    phi: RepresentingFunction = field(default_factory=lambda: representing_function("gaussian"))
    max_hq_iters: int = 200
    tol: float = 1e-8

    def __post_init__(self):
        # written so that NaN fails each test, which a bare sigma <= 0 would pass;
        # the fits divide by sigma**3, a normal float here; * gives inf where ** raises
        if not sys.float_info.min <= self.sigma * self.sigma * self.sigma < math.inf:
            raise InputError("sigma must be positive and finite, with a cube that is a "
                             "normal float (about 2.81e-103 to 5.64e102)")
        if not 0 <= self.lam < math.inf:
            raise InputError("lambda must be nonnegative and finite")
        if self.q not in (1, 2):
            raise InputError("q must be 1 or 2")
        if self.max_hq_iters < 1:
            raise InputError("max_hq_iters must be at least 1")
        if not 0 < self.tol < math.inf:
            raise InputError("tol must be positive and finite")


@dataclass(frozen=True, eq=False)
class RmrModel:
    """The function f(x) = sum_i alpha_i K(x_i, x) a fit produced: one
    coefficient per centre x_i (``train_inputs``), and the kernel K.

    ``fit_data`` and ``load_model`` fill in the centres and kernel.  The
    gram-level fits (``fit_hq``, ``fit_gradient``, ``fit_hq_multistart``) see
    only a gram: their alpha is per sample, and a model without centres or
    kernel can neither predict nor be saved.  Models compare by identity."""

    alpha: np.ndarray
    train_inputs: np.ndarray | None
    kernel: HypothesisKernel | None
    config: RmrConfig
    objective_trace: tuple

    def __post_init__(self):
        alpha = np.array(self.alpha, dtype=float)
        alpha.setflags(write=False)
        object.__setattr__(self, "alpha", alpha)
        if self.train_inputs is not None:
            ti = as_covariate_array(self.train_inputs).copy()  # frozen below, not the caller's
            if ti.shape[0] != alpha.shape[0]:
                raise InputError("alpha length must equal the number of training inputs")
            if not np.all(np.isfinite(ti)):
                raise InputError("covariates must be finite")
            ti.setflags(write=False)
            object.__setattr__(self, "train_inputs", ti)

    @property
    def m(self) -> int:
        return self.alpha.shape[0]


def _penalty(alpha: np.ndarray, q: int, counts=None):
    """||alpha||_q^q over the last axis, the one penalty used by every
    objective and statistic.

    Given row counts c, ``alpha`` holds per-row sums beta, and the penalty is
    that of alpha_i = beta_s / c_s (``CovariateGroups.expand``): sum_s |beta_s|
    for q=1, sum_s beta_s (beta_s / c_s) for q=2; unit counts give the same bits.

    np.add.reduce is np.sum's arithmetic without its dispatch cost, which
    line searches pay once per block of candidates."""
    if q == 1:
        return np.add.reduce(np.abs(alpha), axis=-1)
    return np.add.reduce(alpha * (alpha if counts is None else alpha / counts), axis=-1)


class CovariateGroups(NamedTuple):
    """Samples grouped by exact covariate row, in first-occurrence order.

    Distinct row s first appears at sample ``first[s]``, sample i lies on row
    ``index[i]`` and ``counts[s]`` samples share row s.  A fit depends on the
    coefficients of one row only through their sum beta_s, so every solver
    works on the n per-row sums.  All-distinct covariates give the identity
    grouping with unit counts; the reductions below then return their input
    unchanged, so that case reproduces the plain m-sample arithmetic exactly.
    """

    first: np.ndarray
    index: np.ndarray
    counts: np.ndarray

    @classmethod
    def of(cls, inputs) -> "CovariateGroups":
        """Group the rows of an (m, d) covariate array; they must be finite
        (np.unique would make every NaN row a group of its own)."""
        x = as_covariate_array(inputs)
        if not np.all(np.isfinite(x)):
            raise InputError("covariates must be finite")
        if x.shape[1] == 1:  # a plain sort of the column, not of (m, 1) row records
            _, first, index = np.unique(x[:, 0], return_index=True, return_inverse=True)
        else:
            _, first, index = np.unique(x, axis=0, return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        return cls._from(first[order], rank[index.reshape(-1)])

    @classmethod
    def _from(cls, first, index):
        counts = np.bincount(index, minlength=first.size).astype(float)
        return cls(first, index, counts)

    @property
    def n(self) -> int:
        return self.first.shape[0]

    @property
    def m(self) -> int:
        return self.index.shape[0]

    def sums(self, values: np.ndarray) -> np.ndarray:
        """Per-row sums of a per-sample vector."""
        if self.n == self.m:
            return values
        return np.bincount(self.index, weights=values, minlength=self.n)

    def spread(self, values: np.ndarray) -> np.ndarray:
        """A per-row vector repeated for each sample on the row; for a 2-D
        array, each of its rows, into a C-contiguous array."""
        return values if self.n == self.m else values.take(self.index, axis=-1)

    def expand(self, beta: np.ndarray) -> np.ndarray:
        """Minimum-norm per-sample coefficients with row sums beta:
        alpha_i = beta_s / c_s, which has the least ||alpha||_2 by
        Cauchy-Schwarz and the least ||alpha||_1 by the triangle inequality."""
        return self.spread(beta / self.counts)


def _check_problem(gram, y, alpha=None, groups=None, *, factor=False):
    """(gram, y, groups, alpha): validated targets, the grouping (one row per
    sample when not given), the gram checked to be finite and n x n over its
    rows (with ``factor``, or n x r with r < n: a factor L of K = L L^T) and a
    fresh finite copy of alpha (zeros when not given)."""
    y = np.asarray(y, dtype=float).ravel()
    m = y.shape[0]
    if m < 1:
        raise InputError("need at least one sample")
    if not np.all(np.isfinite(y)):
        raise InputError("targets must be finite")
    if groups is None:
        groups = CovariateGroups._from(np.arange(m), np.arange(m))  # a row per sample
    if groups.m != m:
        raise InputError(f"{groups.m} training inputs for {m} targets")
    gram = np.asarray(gram, dtype=float)
    n = groups.n
    thin = factor and gram.ndim == 2 and gram.shape[0] == n > gram.shape[1]
    if gram.shape != (n, n) and not thin:
        shapes = f"{n}x{n} or a {n}xr factor with r < {n}" if factor else f"{n}x{n}"
        raise InputError(f"gram must be {shapes} to match the grouping, got {gram.shape}")
    if not np.all(np.isfinite(gram)):
        raise InputError("gram must be finite")
    if alpha is None:
        return gram, y, groups, np.zeros(m)
    alpha = np.array(alpha, dtype=float).ravel()
    if alpha.shape[0] != m:
        raise InputError(f"alpha has length {alpha.shape[0]}, expected {m}")
    if not np.all(np.isfinite(alpha)):
        raise InputError("coefficients must be finite")
    return gram, y, groups, alpha


def _fitted(gram, groups, beta):
    """Per-sample fitted values (K^T beta)[index] from per-row sums beta."""
    return groups.spread(gram.T @ beta)


def _value(alpha, scaled, config, counts=None):
    """Objective at alpha from scaled residuals (y_i - f(x_i)) / sigma (counts: ``_penalty``)."""
    fit = np.add.reduce(config.phi.value(scaled)) / (scaled.shape[0] * config.sigma)
    return float(fit - config.lam * _penalty(alpha, config.q, counts))


def objective(alpha, gram, y, config: RmrConfig, *, groups=None) -> float:
    """Value of the regularized modal objective at alpha, with config.phi.

    ``gram`` covers the rows of ``groups``, as in ``fit_hq``.  Residuals only
    need the per-row sums of alpha, so the value is exact for any alpha,
    constant on each covariate row or not.
    """
    gram, y, groups, alpha = _check_problem(gram, y, alpha, groups)
    return _value(alpha, (y - _fitted(gram, groups, groups.sums(alpha))) / config.sigma, config)


def _solve_ridge_direct(gram, d, r, s):
    """beta solving (K diag(d) K^T + diag(r)) beta = K s by a dense solve,
    retried once with 1e-10 trace / n added to the diagonal if singular, which
    is logged as a warning."""
    A = (gram * d) @ gram.T
    A.flat[:: len(A) + 1] += r
    b = gram @ s
    try:
        out = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        jitter = 1e-10 * np.trace(A) / len(A)
        if jitter <= 0:
            raise NumericError("weighted system singular with zero trace") from None
        log.warning("singular weighted system: retrying with %.3g added to its diagonal",
                    jitter)
        A.flat[:: len(A) + 1] += jitter
        try:
            out = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            raise NumericError("weighted system singular after jitter") from None
    if not np.all(np.isfinite(out)):
        raise NumericError("weighted system produced non-finite coefficients")
    return out


def _solve_weighted_ridge(gram, w, wy, kappa, beta_guess):
    """(beta, capped): beta solving (K diag(w) K^T + diag(kappa)) beta = K wy,
    and whether CG stopped at its iteration cap; w and wy are per-row sums.

    Direct solve for small systems; above _DIRECT_SOLVE_LIMIT, conjugate
    gradients warm-started at beta_guess, step for step SciPy's cg, ending
    once ||r|| < 1e-12 ||b||.  CG keeps the HQ ascent property because it
    monotonically decreases this quadratic starting from the current iterate,
    even when it stops at its cap.
    """
    n = wy.shape[0]
    if n <= _DIRECT_SOLVE_LIMIT:
        return _solve_ridge_direct(gram, w, kappa, wy), False

    def matvec(v):
        return gram @ (w * (gram.T @ v)) + kappa * v
    b = gram @ wy
    if not b.any():
        return np.zeros(n), False
    x, p, rho_prev, capped = beta_guess.copy(), None, None, True
    r = b - matvec(x)
    for _ in range(max(200, n // 4)):
        if np.linalg.norm(r) < 1e-12 * np.linalg.norm(b):
            capped = False
            break
        rho = r @ r
        p = r if p is None else r + (rho / rho_prev) * p
        ap = matvec(p)
        step = rho / (p @ ap)
        x, r, rho_prev = x + step * p, r - step * ap, rho
    if not np.all(np.isfinite(x)):
        raise NumericError("conjugate gradient produced non-finite coefficients")
    return x, capped


_KKT_RTOL = 1e-10  # KKT residual, relative to max(|c|, lam), that ends a q=1 step
_PROX_SHIFT = 1e-12  # proximal shift of H_AA, relative to its largest diagonal entry


def _l1_active_set(gram, tw, twy, beta, lam, max_steps):
    """(beta, capped): feature-sign search (Lee, Battle, Raina & Ng 2007)
    from beta for the minimiser of the q=1 surrogate, which up to a constant is

        F(beta) = (1/2) beta^T H beta - c^T beta + lam ||beta||_1,
        H = K diag(tw) K^T,  c = K twy,  tw and twy per-row sums.

    With g = H beta - c, beta is optimal when g_i = -lam sign(beta_i) on the
    nonzeros (the active set A, signs theta) and |g_i| <= lam on the zeros.
    While a nonzero breaks its condition, a step solves H_AA beta_A =
    c_A - lam theta_A and keeps the lowest F on the segment to that solution,
    among its end and the points where a coefficient crosses zero (which then
    leaves A); after that, the zero with the largest |g_i| > lam enters A with
    theta_i = -sign(g_i).  The solve adds 1e-12 of the largest diagonal entry
    to H_AA, so a singular H_AA (repeated or zero-weight rows) still gives a
    descent direction, which the line search stops where a coefficient
    crosses zero.  When no point of the segment lowers F, the step is the
    exact 1-D soft-threshold step on the entering (or worst nonzero)
    coordinate.  Every step lowers F, which keeps the HQ ascent monotone.

    The search stops when every condition holds to _KKT_RTOL * max(|c|, lam),
    or after max_steps steps (capped).  A step drops at most one nonzero
    unless several cross zero together, so a start with more than max_steps
    nonzeros (a dense least-squares seed) could not be pruned within the cap:
    the search then starts from zero, which the convex lasso allows, and
    returns the start unchanged if it ends above the start's F.  Column j of
    H is built when j first enters A, as K (tw * K_j), and g comes from these
    columns: an n x n matrix-matrix product would be the process's first
    level-3 BLAS call, and OpenBLAS would then allocate its level-3 work buffers.
    """
    n = twy.shape[0]
    c = gram @ twy
    tol = _KKT_RTOL * max(float(np.max(np.abs(c))), lam)
    columns = {}
    restart = np.count_nonzero(beta) > max_steps
    start, beta = beta, (np.zeros(n) if restart else beta.copy())

    def column(j):
        if j not in columns:
            columns[j] = gram @ (tw * gram[j])
        return columns[j]

    def surrogate(b):
        return 0.5 * b @ (gram @ (tw * (gram.T @ b))) - c @ b + lam * np.abs(b).sum()

    steps = 0
    while True:
        active = np.flatnonzero(beta)
        cols = np.array([column(j) for j in active]).reshape(active.size, n)
        x = beta[active]
        g = x @ cols - c
        theta = np.sign(beta)
        violation = np.where(theta != 0, np.abs(g + lam * theta), np.abs(g) - lam)
        converged = violation.max() <= tol
        if converged or steps == max_steps:
            if restart and surrogate(beta) > surrogate(start):
                beta = start.copy()
            return beta, not converged
        steps += 1
        on_nonzeros = np.where(theta != 0, violation, -np.inf)
        j = int(np.argmax(on_nonzeros))
        if on_nonzeros[j] <= tol:
            j = int(np.argmax(violation))
            theta[j] = -np.sign(g[j])
            active = np.append(active, j)
            cols = np.vstack([cols, column(j)])
            x = np.append(x, 0.0)
        h_aa = cols[:, active]
        shifted = h_aa.copy()
        shifted[np.diag_indices_from(shifted)] += _PROX_SHIFT * np.max(np.diag(h_aa))
        try:
            d = np.linalg.solve(shifted, -(g[active] + lam * theta[active]))
        except np.linalg.LinAlgError:  # H_AA = 0: no weight reaches A
            d = np.full_like(x, np.nan)  # no gain below, so the 1-D step follows
        # F(x + t d) - F(x) at the end of the segment and where an x_i crosses zero
        crossing = np.flatnonzero(x * d < 0)
        t_cross = -x[crossing] / d[crossing]
        ts = np.append(t_cross[t_cross < 1.0], 1.0)
        gain = (ts * float(g[active] @ d) + 0.5 * ts * ts * float(d @ (h_aa @ d))
                + lam * (np.abs(x + ts[:, None] * d).sum(axis=1) - np.abs(x).sum()))
        best = int(np.argmin(gain))
        if gain[best] < 0:
            beta[active] = x + ts[best] * d
            beta[active[crossing[t_cross == ts[best]]]] = 0.0
        else:
            curvature = column(j)[j]
            z = curvature * beta[j] - g[j]
            beta[j] = np.sign(z) * max(abs(z) - lam, 0.0) / curvature if curvature > 0 else 0.0


def fit_hq(gram, y, config: RmrConfig, init=None, *, groups=None) -> RmrModel:
    """Half-quadratic ascent for every phi with a finite weight (``phi.hq``).

    With phi(u) = g(u^2), g convex and decreasing, the tangent of g in
    t_i = r_i^2 / sigma^2 minorises the objective and touches it at the current
    coefficients (Nikolova & Ng 2005; Yao, Lindsay & Li 2012).  Each step
    takes weights w_i = -g'(t_i) / C = weight(r_i, sigma) and maximises the
    minoriser const - (C / (m sigma^3)) sum w_i r_i^2 - lam ||alpha||_q^q
    exactly: for q=2 by the weighted least-squares problem min sum w_i r_i^2 +
    kappa ||alpha||^2 with kappa = lam m sigma^3 / C, for q=1 by the weighted
    lasso with tau = 2 C / (m sigma^3) on its quadratic part, which an
    active-set search solves (``_l1_active_set``).  So the objective trace is
    non-decreasing when the inner solve is exact; iteration stops once the
    objective changes by less than config.tol.  A near-singular inner system
    (lam = 0 or tiny on an ill-conditioned gram) can return an inexact
    solution whose step lowers the objective: a step that lowers it by
    config.tol or more is not taken, and the fit keeps the previous
    coefficients, stops by "no ascent step" and logs a warning.  If every
    weight is zero, lam > 0 gives the step beta = 0.
    With lam = 0 a compact phi is flat there and the fit stops by "all weights
    zero"; a Gaussian kind, whose zero weights mean underflow, keeps the inner
    solve, and its direct q=2 solve raises NumericError.  Triangular phi has
    no finite weight and is an InputError.

    Both steps run over the n distinct covariate rows rather than the m
    samples.  Sample i lies on row s(i), row s holds c_s samples, and K is the
    n x n gram over the distinct rows.  The residuals r_i = y_i - (K^T beta)_s(i)
    depend on alpha only through the row sums beta_s = sum_{i in s} alpha_i.
    Among all alpha with given row sums, alpha_i = beta_s / c_s has the least
    ||alpha||^2 = sum_s beta_s^2 / c_s (Cauchy-Schwarz) and the least
    ||alpha||_1 = sum_s |beta_s| (triangle inequality).  With W_s = sum_{i in s} w_i
    and b_s = sum_{i in s} w_i y_i, the q=2 step is therefore the n x n solve

        (K diag(W) K^T + kappa diag(1/c)) beta = K b,

    whose minimum-norm expansion alpha_i = beta_s(i) / c_s(i) is exactly the
    m x m solution of (G W G^T + kappa I) alpha = G W y.  The q=1 step is the
    same lasso on beta with the penalty sum_s |beta_s|, posed in the row sums
    of tw_i = tau w_i and tw_i y_i; one that stops at _ACTIVE_SET_STEPS steps
    still lowers it, and such steps, like CG solves stopped at their cap, are
    counted in one warning per fit.  A step's objective reads its penalty off
    beta and c (``_penalty``), so the loop forms no alpha: the fit returns the
    expansion of the last step's beta, or the start if no step was taken.  A
    warm start is reduced to its row sums after its objective is recorded;
    reducing can only raise the objective, so the trace stays monotone.  The
    half-quadratic ascent argument carries over to beta unchanged, and the
    direct/CG switch at _DIRECT_SOLVE_LIMIT counts distinct rows.

    ``groups`` is the grouping of the samples by covariate row and ``gram``
    the n x n gram over its rows in the same order; ``distinct_gram`` returns
    the two together.  Without ``groups`` every sample is a row of its own
    and ``gram`` is the m x m sample gram.  Any other gram shape is an
    InputError.  The returned alpha is per sample either way.  The model
    carries no training inputs or kernel, so it cannot predict or be saved;
    ``fit_data`` makes the model that does.
    """
    gram, y, groups, alpha = _check_problem(gram, y, init, groups)
    if config.phi.hq is None:
        raise InputError(f"phi {config.phi.kind!r} has no finite half-quadratic weight; "
                         "only fit --method gradient fits it")
    weight, C = config.phi.hq
    m = y.shape[0]
    sigma, lam = config.sigma, config.lam
    row_kappa = lam * m * sigma**3 / C / groups.counts
    tau = 2.0 * C / (m * sigma**3)
    beta = groups.sums(alpha)
    residuals = y - _fitted(gram, groups, beta)
    trace = [_value(alpha, residuals / sigma, config)]
    stopped = "max_hq_iters"
    capped_steps = []  # per inner solve, whether it stopped at its cap
    for step in range(1, config.max_hq_iters + 1):
        w = weight(residuals, sigma)  # nonnegative, so zero exactly where every W_s is
        if not w.any() and (lam > 0 or config.phi.support_halfwidth < math.inf):
            if lam == 0:
                stopped = "all weights zero"
                break
            new_beta, capped = np.zeros(groups.n), False
        elif config.q == 2:
            new_beta, capped = _solve_weighted_ridge(gram, groups.sums(w), groups.sums(w * y),
                                                     row_kappa, beta)
        else:
            tw = tau * w
            new_beta, capped = _l1_active_set(gram, groups.sums(tw), groups.sums(tw * y), beta,
                                              lam, _ACTIVE_SET_STEPS)
        capped_steps.append(capped)
        new_residuals = y - _fitted(gram, groups, new_beta)
        value = _value(new_beta, new_residuals / sigma, config, groups.counts)
        if trace[-1] - value >= config.tol:
            stopped = "no ascent step"
            log.warning("hq fit: step %d lowers the objective by %.3g; the fit keeps the "
                        "coefficients of step %d", step, trace[-1] - value, step - 1)
            break
        beta, residuals = new_beta, new_residuals
        trace.append(value)
        if abs(trace[-1] - trace[-2]) < config.tol:
            stopped = "tol"
            break
    if len(trace) > 1:
        alpha = groups.expand(beta)
    if config.q == 1:
        inner = "active-set"
    else:
        inner = "direct" if groups.n <= _DIRECT_SOLVE_LIMIT else "CG"
    if any(capped_steps):
        log.warning(
            "hq fit: %d of %d %s inner solves stopped at their iteration cap before "
            "reaching their tolerance", sum(capped_steps), len(capped_steps),
            "conjugate-gradient" if inner == "CG" else inner,
        )
    log.info(
        "hq fit (q=%d, %s inner solve, %d distinct of %d samples): "
        "%d iterations, stopped by %s", config.q, inner, groups.n, m, len(trace) - 1, stopped,
    )
    return RmrModel(alpha, None, None, config, tuple(trace))


def _same(values):
    return values


_LINE_SEARCH_STEPS = 51  # the grown step and up to 50 halvings of it


def fit_gradient(
    gram,
    y,
    config: RmrConfig,
    init=None,
    max_iters: int | None = None,
    *,
    groups=None,
) -> RmrModel:
    """Monotone (proximal) gradient ascent for any built-in phi (config.phi).

    q=2 treats the penalty as part of the smooth objective; q=1 takes a
    gradient step on the fit term followed by soft-thresholding.  Each
    iteration grows the last accepted step four times (to at most 1e8) and
    takes the first of it and up to 50 halvings whose objective does not
    decrease; when none ascends (a maximum, or a kink of phi) the fit stops
    there, by "no ascent step".  The iterates stay per-sample; residuals and
    gradients go through the gram over the rows of ``groups`` (the same rule
    as ``fit_hq``), which leaves the ascent in alpha unchanged.  Like
    ``fit_hq``'s, the model carries no inputs or kernel.

    The line search scores its candidates a block at a time, as the rows of
    one array.  A q=2 candidate alpha + s * grad is linear in the step s,
    and so are its fitted values K^T beta + s * K^T (row sums of grad): one
    matrix-vector product per iteration serves every candidate, and a block
    holds the grown step and the two halvings that undo its growth, which
    on smooth stretches is where the search ends.  A further block follows
    only when no row of the last one ascends.  The soft-thresholded q=1
    candidate is not linear in the step and needs its own K^T product, so
    its blocks hold one candidate each.  Steps come from repeated halving and
    each row is scored by the arithmetic of a single candidate, so the
    iterates are bit for bit those of a search that scores one step at a
    time.  The accepted row's scaled residuals give the next gradient.

    At a few hundred rows an iteration costs more in dispatch than in its two
    gram products, so the loop looks nothing up that one fit keeps fixed:
    phi's value and slope, the constants -(m sigma^2), 2 lam and m sigma, and
    the products K v and K^T v are bound once, and with one sample per row the row
    sums and spreads are skipped, as ``CovariateGroups`` would return their
    input.  A block's row values are combined from its two reductions, the
    phi sums f and the penalties p, as Python floats f / (m sigma) - lam p:
    the same IEEE operations, in the same order, as ``_value`` makes.
    ``ndarray.dot`` runs the same gemv as ``@``.  So no bit of the fit moves.

    ``gram`` may also be an n x r factor L with r < n (``HypothesisKernel.factor``):
    the fit is then the one on K = L L^T, and each product K v is the two
    thin products L (L^T v) in place of one over the n x n gram.
    """
    gram, y, groups, alpha = _check_problem(gram, y, init, groups, factor=True)
    if max_iters is None:
        max_iters = max(config.max_hq_iters, 2000)
    q, lam, sigma = config.q, config.lam, config.sigma
    phi_value, phi_slope = config.phi.value, config.phi.slope
    m = y.shape[0]
    m_sigma, grad_scale, two_lam = m * sigma, -(m * sigma**2), 2.0 * lam
    if gram.shape[1] < gram.shape[0]:  # a factor L of K = L L^T
        factor_t = gram.T

        def k_dot(v):
            return gram.dot(factor_t.dot(v))
        kt_dot = k_dot
    else:
        k_dot, kt_dot = gram.dot, gram.T.dot
    sums, spread = (groups.sums, groups.spread) if groups.n < m else (_same, _same)
    block = 3 if q == 2 else 1  # the grown step and the halvings that undo the x4
    fitted = kt_dot(sums(alpha))
    scaled = (y - spread(fitted)) / sigma
    current = _value(alpha, scaled, config)
    trace = [current]
    step = 1.0
    stopped = "max_iters"
    for _ in range(max_iters):
        # the smooth part's gradient; -v / c exactly, in one pass over v
        grad = spread(k_dot(sums(phi_slope(scaled)))) / grad_scale
        if q == 2:
            grad -= two_lam * alpha
            fitted_step = kt_dot(sums(grad))
        step = min(step * 4.0, 1e8)
        for first in range(0, _LINE_SEARCH_STEPS, block):
            steps = []  # halved one at a time, which a single 2^-j factor is not once subnormal
            for _halving in range(min(block, _LINE_SEARCH_STEPS - first)):
                steps.append(step)
                step *= 0.5
            column = np.array(steps)[:, None]
            moved = alpha + column * grad
            if q == 2:
                rows, rows_fitted = moved, fitted + column * fitted_step
            else:
                rows = np.sign(moved) * np.maximum(np.abs(moved) - column * lam, 0.0)
                rows_fitted = np.array([kt_dot(sums(row)) for row in rows])
            rows_scaled = (y - spread(rows_fitted)) / sigma
            fits = np.add.reduce(phi_value(rows_scaled), axis=-1).tolist()
            penalties = _penalty(rows, q).tolist()
            for j, (fit, penalty) in enumerate(zip(fits, penalties)):
                value = fit / m_sigma - lam * penalty
                if value >= current:
                    break
            else:
                continue  # no row of this block ascends
            break
        else:
            stopped = "no ascent step"
            break
        gain = value - current
        step, alpha, current = steps[j], rows[j], value
        fitted, scaled = rows_fitted[j], rows_scaled[j]
        trace.append(current)
        if gain < config.tol:
            stopped = "tol"
            break
    log.info(
        "gradient fit (q=%d, phi=%s, %d distinct of %d samples): "
        "%d iterations, stopped by %s", q, config.phi.kind, groups.n, m, len(trace) - 1, stopped,
    )
    return RmrModel(alpha, None, None, config, tuple(trace))


def distinct_gram(kernel: HypothesisKernel, x):
    """(groups, gram): the grouping of x and the n x n gram over its distinct
    rows in first-occurrence order, the only gram a fit on x needs."""
    groups = CovariateGroups.of(x)
    rows = as_covariate_array(x)[groups.first]
    return groups, kernel.cross(rows, rows)


def fit_data(x, y, kernel: HypothesisKernel, config: RmrConfig, method: str = "hq") -> RmrModel:
    """Fit on raw covariates, grouping them once and building only the gram
    over their n distinct rows, or for the gradient method the gram's
    pivoted-Cholesky factor L when it stops at rank _FACTOR_RANK_SHARE * n or
    below (``HypothesisKernel.factor``).  The model is the expansion the fit
    made: on the distinct rows with the per-row sums beta of the fit's alpha,
    or on the factor's pivots P with c = L_P^-T L^T beta, as L = K[:, P] L_P^-T
    for the lower triangle L_P = L[P] (L L^T is the Nystrom gram; Williams &
    Seeger 2001)."""
    if method not in ("hq", "gradient"):
        raise InputError(f"unknown fit method {method!r}")
    x = as_covariate_array(x)
    groups = CovariateGroups.of(x)
    centres = x[groups.first]
    factor = None
    if method == "gradient":
        factor = kernel.factor(centres, int(_FACTOR_RANK_SHARE * groups.n))
    gram = kernel.cross(centres, centres) if factor is None else factor[0]
    fit = (fit_hq if method == "hq" else fit_gradient)(gram, y, config, groups=groups)
    alpha = groups.sums(fit.alpha)
    if factor is not None and factor[1].size:  # a zero gram's rank-0 factor keeps the rows
        centres, alpha = centres[factor[1]], np.linalg.solve(gram[factor[1]].T, gram.T @ alpha)
    return RmrModel(alpha, centres, kernel, config, fit.objective_trace)


def predict(model: RmrModel, x):
    """f(x) = sum_i alpha_i K(x_i, x) over the model's centres x_i.  A scalar,
    or a 1-D input of the model's dimension d, is one covariate vector and
    gives a float; any other input is read as ``fit_data`` reads covariates
    (a 1-D one as m points in d = 1) and gives one value per point."""
    if model.train_inputs is None or model.kernel is None:
        raise InputError("model lacks training inputs / kernel; cannot predict")
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 0 or arr.shape == (model.train_inputs.shape[1],)
    values = model.alpha @ model.kernel.cross(model.train_inputs,
                                              arr.reshape(1, -1) if single else arr)
    return float(values[0]) if single else values


def schedule_theorem2(m: int, gamma_abs: float, beta: float, s: float):
    """Parameter schedule (theta, lambda, sigma) driven by the chain gap.

    theta = 2 beta / (8 beta + 5 s beta + 2 s + 4), with
    lambda = ((2 g - g^2) m)^(-theta/beta) and sigma = ((2 g - g^2) m)^(-theta/(2 beta))
    for g = gamma_abs.
    """
    if m < 1:
        raise InputError("m must be at least 1")
    if not 0.0 < gamma_abs <= 1.0:
        raise InputError("gamma_abs must lie in (0, 1]")
    if not 0.0 < beta <= 2.0:
        raise InputError("beta must lie in (0, 2]")
    if not 0.0 < s < 2.0:
        raise InputError("s must lie in (0, 2)")
    theta = 2.0 * beta / (8.0 * beta + 5.0 * s * beta + 2.0 * s + 4.0)
    discount = 2.0 * gamma_abs - gamma_abs * gamma_abs
    lam = discount ** (-theta / beta) * m ** (-theta / beta)
    sigma = discount ** (-theta / (2.0 * beta)) * m ** (-theta / (2.0 * beta))
    return theta, lam, sigma


def save_model(path, model: RmrModel) -> None:
    """Plain-text model file, a header ``n d`` for n centres in d dimensions
    first; floats are written with repr so the round trip is bit-faithful."""
    if model.train_inputs is None or model.kernel is None:
        raise InputError("only models with training inputs and kernel can be saved")
    cfg = model.config
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{model.m} {model.train_inputs.shape[1]}\n")
        params = " ".join(
            f"{k}={repr(float(v))}" for k, v in sorted(model.kernel.shape_params.items())
        )
        fh.write(f"kernel {model.kernel.kind} {params}\n".rstrip() + "\n")
        fh.write(f"phi {cfg.phi.kind}\n")
        fh.write(f"sigma {repr(float(cfg.sigma))}\n")
        fh.write(f"lambda {repr(float(cfg.lam))}\n")
        fh.write(f"q {cfg.q}\n")
        fh.write("alpha\n")
        for v in model.alpha:
            fh.write(repr(float(v)) + "\n")
        fh.write("inputs\n")
        for row in model.train_inputs:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def _keyed(line: str, key: str) -> str:
    """The value of a model-file line ``key value``."""
    name, value = line.split()
    if name != key:
        raise InputError(f"expected {key} line")
    return value


def load_model(path) -> RmrModel:
    """Inverse of save_model.  The objective trace is a fit artifact and is
    not persisted; loaded models carry an empty trace."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    try:
        m, d = (int(t) for t in lines[0].split())
        if m < 1 or d < 1:
            raise InputError(f"m and d must be at least 1, got m={m}, d={d}")
        kparts = lines[1].split()
        if kparts[0] != "kernel":
            raise InputError("expected kernel line")
        kkind = kparts[1]
        kparams = {}
        for tok in kparts[2:]:
            key, _, val = tok.partition("=")
            kparams[key] = float(val)
        phi_kind = _keyed(lines[2], "phi")
        sigma = float(_keyed(lines[3], "sigma"))
        lam = float(_keyed(lines[4], "lambda"))
        q = int(_keyed(lines[5], "q"))
        if lines[6] != "alpha":
            raise InputError("expected alpha section")
        alpha = np.array([float(lines[7 + i]) for i in range(m)])
        if lines[7 + m] != "inputs":
            raise InputError("expected inputs section")
        inputs = np.array(
            [[float(t) for t in lines[8 + m + i].split()] for i in range(m)]
        ).reshape(m, d)
        if any(line.strip() for line in lines[8 + 2 * m:]):
            raise InputError("text after the inputs section")
    except (IndexError, ValueError) as exc:
        raise InputError(f"malformed model file {path}: {exc}") from exc
    for name, values in (("kernel parameters", list(kparams.values())), ("sigma", sigma),
                         ("lambda", lam), ("alpha", alpha), ("inputs", inputs)):
        if not np.all(np.isfinite(values)):
            raise InputError(f"model file {path}: non-finite {name}")
    config = RmrConfig(sigma=sigma, lam=lam, q=q, phi=representing_function(phi_kind))
    kernel = hypothesis_kernel(kkind, **kparams)
    if not len(kparts) - 2 == len(kparams) == len(kernel.shape_params):
        raise InputError(
            f"model file {path}: kernel {kkind!r} takes each of {sorted(kernel.shape_params)} once"
        )
    return RmrModel(alpha, inputs, kernel, config, tuple())


def write_dataset_file(path, dataset) -> None:
    """Plain text: header ``m d`` then rows of d covariates followed by y,
    from any record with (m, d) covariates ``x`` and responses ``y``, such as
    ``harness.Dataset``."""
    m, d = dataset.x.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{m} {d}\n")
        for xi, yi in zip(dataset.x, dataset.y):
            fh.write(" ".join(repr(float(v)) for v in xi) + " " + repr(float(yi)) + "\n")


def read_dataset_file(path):
    """Returns (x, y) arrays from the plain-text dataset format.

    The rows are counted against the header as they are read, and nothing is
    allocated from the header's count; blank lines may follow the rows.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise InputError(f"{path}: expected 'm d' header")
        m, d = int(header[0]), int(header[1])
        if m < 1 or d < 1:
            raise InputError(f"{path}: m and d must be at least 1, got m={m}, d={d}")
        values = array("d")
        for i, line in enumerate(fh):
            parts = line.split()
            if i >= m and parts:
                raise InputError(f"{path}: header gives {m} rows, the file has more")
            if i < m and len(parts) != d + 1:
                raise InputError(f"{path}: row {i} has {len(parts)} fields, expected {d + 1}")
            values.extend(map(float, parts))
    if len(values) < m * (d + 1):
        raise InputError(f"{path}: header gives {m} rows, the file has {len(values) // (d + 1)}")
    table = np.frombuffer(values).reshape(m, d + 1)
    x, y = table[:, :d].copy(), table[:, d].copy()
    finite = np.isfinite(x).all(axis=1) & np.isfinite(y)
    if not finite.all():
        raise InputError(f"{path}: row {int(np.argmin(finite))} has a non-finite value")
    return x, y
