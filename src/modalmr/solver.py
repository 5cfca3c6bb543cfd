"""Regularized modal regression over the sample-dependent hypothesis space.

The estimator maximizes

    J(alpha) = (1/(m sigma)) * sum_i phi((y_i - K_i^T alpha)/sigma) - lam*||alpha||_q^q

where K_i is column i of the gram matrix.  For Gaussian-family phi the
maximization runs as half-quadratic (HQ) alternation; for the other
representing functions a proximal gradient-ascent solver is provided.

Samples that share a covariate row share a gram column, so every solver works
on the n distinct rows (``CovariateGroups``) and the n x n gram over them;
all-distinct data is the case n = m of the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.sparse.linalg import LinearOperator, cg

from .errors import InputError, LineSearchFailed, NonGaussianPhi, SingularSystem
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
    "fitted_values",
    "predict",
    "schedule_theorem2",
    "save_model",
    "load_model",
]

# phi(u) = coeff * exp(-u^2 / (2 * a_sq)); the pair (coeff, a_sq) per kind
_GAUSSIAN_FAMILY = {
    "gaussian": (1.0 / math.sqrt(2.0 * math.pi), 1.0),
    "correntropy": (1.0, 0.5),
}

_DIRECT_SOLVE_LIMIT = 600  # above this many distinct covariates, the HQ inner solve uses CG


@dataclass(frozen=True)
class RmrConfig:
    """Solver knobs: modal bandwidth, penalty weight/exponent, iteration caps."""

    sigma: float
    lam: float
    q: int = 2
    phi: RepresentingFunction = field(default_factory=lambda: representing_function("gaussian"))
    max_hq_iters: int = 200
    tol: float = 1e-8
    inner_max_iters: int = 20

    def __post_init__(self):
        if self.sigma <= 0:
            raise InputError("sigma must be positive")
        if self.lam < 0:
            raise InputError("lambda must be nonnegative")
        if self.q not in (1, 2):
            raise InputError("q must be 1 or 2")
        if self.max_hq_iters < 1:
            raise InputError("max_hq_iters must be at least 1")
        if self.tol <= 0:
            raise InputError("tol must be positive")
        if self.inner_max_iters < 1:
            raise InputError("inner_max_iters must be at least 1")


@dataclass(frozen=True)
class RmrModel:
    """Fitted coefficients over the training inputs plus everything needed
    to evaluate f(x) = sum_i alpha_i K(x_i, x)."""

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
            ti = as_covariate_array(self.train_inputs)
            if ti.shape[0] != alpha.shape[0]:
                raise InputError("alpha length must equal the number of training inputs")
            ti.setflags(write=False)
            object.__setattr__(self, "train_inputs", ti)

    @property
    def m(self) -> int:
        return self.alpha.shape[0]

    def coefficient_penalty(self) -> float:
        """||alpha||_q^q for the model's own q."""
        return _penalty(self.alpha, self.config.q)


def _penalty(alpha: np.ndarray, q: int) -> float:
    """||alpha||_q^q, the one penalty used by every objective and statistic.

    np.add.reduce is np.sum's arithmetic without its dispatch cost, which
    line searches pay once per objective evaluation."""
    if q == 1:
        return float(np.add.reduce(np.abs(alpha)))
    return float(np.add.reduce(alpha * alpha))


@dataclass(frozen=True)
class CovariateGroups:
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
        _, first, index = np.unique(x, axis=0, return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        return cls._from(first[order], rank[index.reshape(-1)])

    @classmethod
    def identity(cls, m: int) -> "CovariateGroups":
        """Every sample on a row of its own."""
        return cls._from(np.arange(m), np.arange(m))

    @classmethod
    def for_fit(cls, train_inputs, m: int) -> "CovariateGroups":
        """Grouping of train_inputs, or the identity when they are not given."""
        groups = cls.identity(m) if train_inputs is None else cls.of(train_inputs)
        if groups.m != m:
            raise InputError(f"{groups.m} training inputs for {m} targets")
        return groups

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
        """A per-row vector repeated for each sample on the row."""
        return values if self.n == self.m else values[self.index]

    def expand(self, beta: np.ndarray) -> np.ndarray:
        """Minimum-norm per-sample coefficients with row sums beta:
        alpha_i = beta_s / c_s, which has the least ||alpha||_2 by
        Cauchy-Schwarz and the least ||alpha||_1 by the triangle inequality."""
        return self.spread(beta / self.counts)

    def reduce_gram(self, gram) -> np.ndarray:
        """The n x n gram over the distinct rows, given either that matrix or
        the m x m sample gram (the two shapes coincide when n = m)."""
        gram = np.asarray(gram, dtype=float)
        if gram.shape == (self.n, self.n):
            return gram
        if gram.shape == (self.m, self.m):
            return gram[np.ix_(self.first, self.first)]
        raise InputError(
            f"gram must be {self.m}x{self.m}, or {self.n}x{self.n} over the distinct "
            f"inputs, got {gram.shape}"
        )


def _check_problem(gram, y, train_inputs=None, alpha=None):
    """(n x n gram, y, groups, alpha): validated targets, the grouping of
    train_inputs and a fresh copy of alpha (zeros when not given)."""
    y = np.asarray(y, dtype=float).ravel()
    m = y.shape[0]
    if not np.all(np.isfinite(y)):
        raise InputError("targets must be finite")
    groups = CovariateGroups.for_fit(train_inputs, m)
    gram = groups.reduce_gram(gram)
    if alpha is None:
        return gram, y, groups, np.zeros(m)
    alpha = np.array(alpha, dtype=float).ravel()
    if alpha.shape[0] != m:
        raise InputError(f"alpha has length {alpha.shape[0]}, expected {m}")
    return gram, y, groups, alpha


def _fitted(gram, groups, beta):
    """Per-sample fitted values (K^T beta)[index] from per-row sums beta."""
    return groups.spread(gram.T @ beta)


def _objective(alpha, gram, y, phi, config, groups):
    m = y.shape[0]
    residuals = y - _fitted(gram, groups, groups.sums(alpha))
    fit = float(np.add.reduce(phi(residuals / config.sigma))) / (m * config.sigma)
    return fit - config.lam * _penalty(alpha, config.q)


def objective(
    alpha, gram, y, phi: RepresentingFunction, config: RmrConfig, *, train_inputs=None
) -> float:
    """Value of the regularized modal objective at alpha.

    ``gram`` and ``train_inputs`` follow the rule of ``fit_hq``.  Residuals
    only need the per-row sums of alpha, so the value is exact for any alpha,
    constant on each covariate row or not.
    """
    gram, y, groups, alpha = _check_problem(gram, y, train_inputs, alpha)
    return _objective(alpha, gram, y, phi, config, groups)


def _hq_weights(residuals: np.ndarray, sigma: float, a_sq: float) -> np.ndarray:
    return np.exp(-(residuals * residuals) / (2.0 * a_sq * sigma * sigma))


def _row_targets(groups, w, y):
    """Per-row weights W_s = sum of w_i and weighted-mean targets ybar_s.

    sum_i w_i (y_i - f_s(i))^2 = sum_s W_s (ybar_s - f_s)^2 + const, so a
    weighted least-squares step over the samples is the same step over the
    distinct rows.  A row whose weights all underflow takes the plain mean.
    """
    row_w = groups.sums(w)
    spread_w = groups.spread(row_w)
    share = np.divide(w, spread_w, out=groups.expand(np.ones(groups.n)), where=spread_w > 0)
    return row_w, groups.sums(share * y)


def _solve_weighted_ridge(gram, w, y, kappa, beta_guess):
    """argmin over beta of sum_s w_s (y_s - K_s^T beta)^2 + sum_s kappa_s beta_s^2.

    Normal equations (K W K^T + diag(kappa)) beta = K W y.  Direct solve for
    small systems; warm-started CG above _DIRECT_SOLVE_LIMIT.  CG keeps the
    HQ ascent property because it monotonically decreases this quadratic
    starting from the current iterate.
    """
    n = y.shape[0]
    b = gram @ (w * y)
    if n <= _DIRECT_SOLVE_LIMIT:
        A = (gram * w) @ gram.T
        A[np.diag_indices_from(A)] += kappa
        try:
            out = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            jitter = 1e-10 * np.trace(A) / n
            if jitter <= 0:
                raise SingularSystem("weighted system singular with zero trace") from None
            A[np.diag_indices_from(A)] += jitter
            try:
                out = np.linalg.solve(A, b)
            except np.linalg.LinAlgError:
                raise SingularSystem("weighted system singular after jitter") from None
        if not np.all(np.isfinite(out)):
            raise SingularSystem("weighted system produced non-finite coefficients")
        return out

    def matvec(v):
        return gram @ (w * (gram.T @ v)) + kappa * v

    op = LinearOperator((n, n), matvec=matvec, dtype=float)
    out, info = cg(op, b, x0=beta_guess, rtol=1e-12, atol=0.0, maxiter=max(200, n // 4))
    if info < 0 or not np.all(np.isfinite(out)):
        raise SingularSystem(f"conjugate gradient failed with status {info}")
    return out


def _soft(value: float, threshold: float) -> float:
    if value > threshold:
        return value - threshold
    if value < -threshold:
        return value + threshold
    return 0.0


def _l1_coordinate_descent(gram, w, y, beta, lam, tau, sweeps):
    """Cyclic soft-thresholding on (tau/2) sum_s w_s r_s^2 + lam ||beta||_1.

    Each coordinate update is an exact 1-D minimization, so every sweep
    decreases this surrogate, preserving outer-loop ascent.
    """
    n = y.shape[0]
    beta = beta.copy()
    residual = y - gram.T @ beta
    # quadratic coefficient per coordinate: tau * sum_s w_s K_js^2
    quad = tau * ((gram * gram) @ w)
    for _ in range(sweeps):
        max_change = 0.0
        for j in range(n):
            gj = gram[j]
            old = beta[j]
            lin = tau * (gj @ (w * residual)) + quad[j] * old
            new = _soft(lin, lam) / quad[j] if quad[j] > 0 else 0.0
            if new != old:
                residual += gj * (old - new)
                beta[j] = new
                max_change = max(max_change, abs(new - old))
        if max_change <= 1e-15:
            break
    return beta


def gaussian_family_params(phi: RepresentingFunction):
    """(coefficient, a^2) of phi(u) = c * exp(-u^2/(2 a^2)), or raise."""
    try:
        return _GAUSSIAN_FAMILY[phi.kind]
    except KeyError:
        raise NonGaussianPhi(
            f"half-quadratic updates need a Gaussian-family phi, got {phi.kind!r}"
        ) from None


def fit_hq(gram, y, config: RmrConfig, init=None, *, train_inputs=None, kernel=None) -> RmrModel:
    """Half-quadratic ascent for Gaussian-family representing functions.

    Alternates (a) weights w_i = exp(-r_i^2 / (2 a^2 sigma^2)) at the current
    coefficients with (b) the exact penalized weighted least-squares update
    (q=2) or cyclic soft-thresholding sweeps (q=1).  The objective trace is
    non-decreasing by construction; iteration stops once the objective gain
    drops below config.tol.

    The q=2 ridge constant comes from matching stationarity of the surrogate
    with the true objective: grad of the fit term is
    (c/(a^2 m sigma^3)) * G W r, and grad of lam||alpha||^2 is 2 lam alpha,
    so the inner problem is min sum w_i r_i^2 + kappa||alpha||^2 with
    kappa = 2 a^2 lam m sigma^3 / c.  For q=1 the same matching gives the
    scaling tau = c / (a^2 m sigma^3) on the quadratic part.

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
    m x m solution of (G W G^T + kappa I) alpha = G W y.  The q=1 step runs
    coordinate descent on beta with the penalty sum_s |beta_s|.  A warm start
    is reduced to its row sums after its objective is recorded; reducing can
    only raise the objective, so the trace stays monotone.  The half-quadratic
    ascent argument carries over to beta unchanged, and the direct/CG switch
    at _DIRECT_SOLVE_LIMIT counts distinct rows.

    Without ``train_inputs`` every sample is its own row and ``gram`` is the
    m x m sample gram.  With them, ``gram`` may be the m x m sample gram (its
    submatrix at the first occurrences is used) or the n x n gram over the
    distinct rows in first-occurrence order; the two shapes coincide when
    n = m.  The returned alpha is per sample either way.
    """
    gram, y, groups, alpha = _check_problem(gram, y, train_inputs, init)
    coeff, a_sq = gaussian_family_params(config.phi)
    m = y.shape[0]
    sigma = config.sigma
    kappa = 2.0 * a_sq * config.lam * m * sigma**3 / coeff
    tau = coeff / (a_sq * m * sigma**3)
    trace = [_objective(alpha, gram, y, config.phi, config, groups)]
    beta = groups.sums(alpha)
    for _ in range(config.max_hq_iters):
        residuals = y - _fitted(gram, groups, beta)
        row_w, row_y = _row_targets(groups, _hq_weights(residuals, sigma, a_sq), y)
        if config.q == 2:
            beta = _solve_weighted_ridge(gram, row_w, row_y, kappa / groups.counts, beta)
        else:
            beta = _l1_coordinate_descent(
                gram, row_w, row_y, beta, config.lam, tau, config.inner_max_iters
            )
        alpha = groups.expand(beta)
        trace.append(_objective(alpha, gram, y, config.phi, config, groups))
        if abs(trace[-1] - trace[-2]) < config.tol:
            break
    return RmrModel(alpha, train_inputs, kernel, config, tuple(trace))


def _smooth_gradient(alpha, gram, y, phi, config, groups=None):
    """Gradient of the fit term (and of the q=2 penalty, which is smooth).

    The fit-term gradient is -(K @ per-row sums of phi'(r_i/sigma))[s(i)]
    / (m sigma^2), exact for any alpha.  ``groups`` None means every sample
    is its own row (``gram`` is then the m x m sample gram).
    """
    m = y.shape[0]
    if groups is None:
        groups = CovariateGroups.identity(m)
    residuals = y - _fitted(gram, groups, groups.sums(alpha))
    slopes = groups.sums(phi.derivative(residuals / config.sigma))
    grad = -groups.spread(gram @ slopes) / (m * config.sigma**2)
    if config.q == 2:
        grad = grad - 2.0 * config.lam * alpha
    return grad


def fit_gradient(
    gram,
    y,
    phi: RepresentingFunction,
    config: RmrConfig,
    init=None,
    max_iters: int | None = None,
    *,
    train_inputs=None,
    kernel=None,
) -> RmrModel:
    """Monotone (proximal) gradient ascent for any built-in phi.

    q=2 treats the penalty as part of the smooth objective; q=1 takes a
    gradient step on the fit term followed by soft-thresholding.  Steps are
    accepted only when the objective does not decrease, with up to 50
    halvings of the step size before LineSearchFailed.  The iterates stay
    per-sample; residuals and gradients go through the n x n gram over the
    distinct rows (``gram`` and ``train_inputs`` follow the rule of
    ``fit_hq``), which leaves the ascent in alpha unchanged.
    """
    gram, y, groups, alpha = _check_problem(gram, y, train_inputs, init)
    cfg = replace(config, phi=phi)
    if max_iters is None:
        max_iters = max(cfg.max_hq_iters, 2000)
    current = _objective(alpha, gram, y, phi, cfg, groups)
    trace = [current]
    step = 1.0
    for _ in range(max_iters):
        grad = _smooth_gradient(alpha, gram, y, phi, cfg, groups)
        step = min(step * 4.0, 1e8)
        for _halving in range(51):
            if cfg.q == 1:
                moved = alpha + step * grad
                candidate = np.sign(moved) * np.maximum(np.abs(moved) - step * cfg.lam, 0.0)
            else:
                candidate = alpha + step * grad
            value = _objective(candidate, gram, y, phi, cfg, groups)
            if value >= current:
                break
            step *= 0.5
        else:
            raise LineSearchFailed("no ascent step found after 50 halvings")
        gain = value - current
        alpha, current = candidate, value
        trace.append(current)
        if gain < cfg.tol:
            break
    return RmrModel(alpha, train_inputs, kernel, cfg, tuple(trace))


def distinct_gram(kernel: HypothesisKernel, x):
    """(groups, gram): the grouping of x and the n x n gram over its distinct
    rows in first-occurrence order, the only gram a fit on x needs."""
    groups = CovariateGroups.of(x)
    rows = as_covariate_array(x)[groups.first]
    return groups, kernel.cross(rows, rows)


def fit_data(
    x, y, kernel: HypothesisKernel, config: RmrConfig, method: str = "hq", init=None
) -> RmrModel:
    """Fit on raw covariates, building only the gram over their distinct rows."""
    if method not in ("hq", "gradient"):
        raise InputError(f"unknown fit method {method!r}")
    x = as_covariate_array(x)
    _, gram = distinct_gram(kernel, x)
    if method == "hq":
        return fit_hq(gram, y, config, init, train_inputs=x, kernel=kernel)
    return fit_gradient(gram, y, config.phi, config, init, train_inputs=x, kernel=kernel)


def fitted_values(model: RmrModel) -> np.ndarray:
    """In-sample fits f(x_i) = sum_j alpha_j K(x_j, x_i), through the gram
    over the distinct training rows."""
    if model.train_inputs is None or model.kernel is None:
        raise InputError("model lacks training inputs / kernel; cannot evaluate fits")
    groups, gram = distinct_gram(model.kernel, model.train_inputs)
    return _fitted(gram, groups, groups.sums(model.alpha))


def predict(model: RmrModel, x):
    """f(x) = sum_i alpha_i K(x_i, x); scalar for a single covariate vector."""
    if model.train_inputs is None or model.kernel is None:
        raise InputError("model lacks training inputs / kernel; cannot predict")
    arr = np.asarray(x, dtype=float)
    single = arr.ndim < 2
    pts = as_covariate_array(np.atleast_2d(arr))
    if pts.shape[1] != model.train_inputs.shape[1]:
        raise InputError(
            f"covariate dimension {pts.shape[1]} does not match training dimension "
            f"{model.train_inputs.shape[1]}"
        )
    values = model.alpha @ model.kernel.cross(model.train_inputs, pts)
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
    """Plain-text model file; floats are written with repr so the round trip
    is bit-faithful."""
    if model.train_inputs is None or model.kernel is None:
        raise InputError("only models with training inputs and kernel can be saved")
    m = model.m
    d = model.train_inputs.shape[1]
    cfg = model.config
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{m} {d}\n")
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


def load_model(path) -> RmrModel:
    """Inverse of save_model.  The objective trace is a fit artifact and is
    not persisted; loaded models carry an empty trace."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    try:
        m, d = (int(t) for t in lines[0].split())
        kparts = lines[1].split()
        if kparts[0] != "kernel":
            raise InputError("expected kernel line")
        kkind = kparts[1]
        kparams = {}
        for tok in kparts[2:]:
            key, _, val = tok.partition("=")
            kparams[key] = float(val)
        phi_kind = lines[2].split()[1]
        sigma = float(lines[3].split()[1])
        lam = float(lines[4].split()[1])
        q = int(lines[5].split()[1])
        if lines[6] != "alpha":
            raise InputError("expected alpha section")
        alpha = np.array([float(lines[7 + i]) for i in range(m)])
        if lines[7 + m] != "inputs":
            raise InputError("expected inputs section")
        inputs = np.array(
            [[float(t) for t in lines[8 + m + i].split()] for i in range(m)]
        ).reshape(m, d)
    except (IndexError, ValueError) as exc:
        raise InputError(f"malformed model file {path}: {exc}") from exc
    config = RmrConfig(sigma=sigma, lam=lam, q=q, phi=representing_function(phi_kind))
    kernel = hypothesis_kernel(kkind, **kparams)
    return RmrModel(alpha, inputs, kernel, config, tuple())
