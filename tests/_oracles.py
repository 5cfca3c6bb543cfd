"""Independent reference computations used by the test suite.

These deliberately avoid the library's own code paths: the grid search
finds the exact maximum over a coefficient grid, the eigenvalue cross-check
goes through the characteristic polynomial, and the q=1 inner problem, which
the library solves by an active-set search, is solved by plain cyclic
coordinate descent.  The chain walk, the bootstrap slope CI and the covariate grouping
are the library's earlier per-step, per-draw and row-record forms, and the
gradient fit keeps its earlier line search that scores one halving at a
time: each kept verbatim as the reference its batched form must reproduce.
The compact kinds' phi values keep the masked forms that np.fmax clipping
replaced.
"""

import numpy as np


def objective_value(alpha, gram, y, phi, sigma, lam, q):
    """Direct evaluation of the modal objective for oracle comparisons."""
    alpha = np.asarray(alpha, dtype=float)
    r = np.asarray(y, dtype=float) - np.asarray(gram, dtype=float).T @ alpha
    fit = float(np.sum(phi(r / sigma))) / (len(r) * sigma)
    pen = float(np.sum(np.abs(alpha))) if q == 1 else float(alpha @ alpha)
    return fit - lam * pen


def _grid_axis(lo, hi, step):
    return lo + step * np.arange(int(round((hi - lo) / step)) + 1)


def _grid_values(points, gram, y, phi, sigma, lam, q):
    """(fit term, objective) at each row of ``points``, in float64."""
    r = y[None, :] - points @ gram
    fit = phi(r / sigma).sum(axis=1) / (len(y) * sigma)
    pen = np.abs(points).sum(axis=1) if q == 1 else (points * points).sum(axis=1)
    return fit, fit - lam * pen


def grid_sweep_max(gram, y, phi, sigma, lam, q, lo=-3.0, hi=3.0, step=0.01):
    """Maximum of the modal objective over a coefficient grid, evaluated at
    every grid point at once; for m = 3, coarse grids only."""
    gram, y = np.asarray(gram, dtype=float), np.asarray(y, dtype=float)
    grids = np.meshgrid(*[_grid_axis(lo, hi, step)] * len(y), indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=1)
    return float(_grid_values(points, gram, y, phi, sigma, lam, q)[1].max())


# max |phi'(u)| of each kind's formula in ``phi_derivative``: at u = +-1
# (gaussian, epanechnikov), +-1/sqrt(2) (correntropy), +-1/sqrt(3) (quadratic)
# and anywhere inside the support (triangular)
_MAX_SLOPE = {
    "gaussian": np.exp(-0.5) / np.sqrt(2.0 * np.pi),
    "correntropy": np.sqrt(2.0 / np.e),
    "epanechnikov": 1.5,
    "quadratic": 5.0 * np.sqrt(3.0) / 6.0,
    "triangular": 1.0,
}


def grid_oracle_max(gram, y, phi, sigma, lam, q, lo=-3.0, hi=3.0, step=0.01):
    """Maximum of the modal objective over a coefficient grid.

    Handles m in {1, 2, 3}.  m <= 2 sweeps the grid (``grid_sweep_max``).
    m = 3 finds the same grid maximum by branch-and-bound over boxes of grid
    points, which ``grid_sweep_max`` checks on coarse grids.  A box's fit
    term exceeds its value at the box's middle grid point by at most
    sum_j L_j h_j, where h_j is the box's reach from that point along a_j
    and L_j = max|phi'| / (m sigma^2) * sum_i |K_ji| bounds the fit term's
    slope along a_j; less lam times the least penalty on the box, that
    bounds every grid value in it; phi is Lipschitz for every kind, so the
    bound holds for each.  Boxes whose bound falls below the best
    value seen are dropped, the rest halved along every axis until they hold
    one point.
    """
    gram = np.asarray(gram, dtype=float)
    y = np.asarray(y, dtype=float)
    m = len(y)
    if m <= 2:
        return grid_sweep_max(gram, y, phi, sigma, lam, q, lo, hi, step)
    if m != 3:
        raise ValueError("grid oracle supports m <= 3 only")
    axis = _grid_axis(lo, hi, step)
    lipschitz = _MAX_SLOPE[phi.kind] / (m * sigma * sigma) * np.abs(gram).sum(axis=1)
    first = np.zeros((1, m), dtype=np.int64)  # grid index ranges, ends included
    last = np.full((1, m), len(axis) - 1)
    best = -np.inf
    while len(first):
        mid = (first + last) // 2
        fit, value = _grid_values(axis[mid], gram, y, phi, sigma, lam, q)
        best = max(best, float(value.max()))
        reach = np.maximum(mid - first, last - mid) * step
        a, b = axis[first], axis[last]
        least = np.where(a > 0, a, np.where(b < 0, -b, 0.0))  # min |a_j| on the box
        pen = least.sum(axis=1) if q == 1 else (least * least).sum(axis=1)
        keep = (fit + reach @ lipschitz - lam * pen > best - 1e-12) & (first < last).any(axis=1)
        first, last, mid = first[keep], last[keep], mid[keep]
        for j in range(m):
            split = first[:, j] < last[:, j]
            upper = first[split]
            upper[:, j] = mid[split, j] + 1
            lower = last.copy()
            lower[split, j] = mid[split, j]
            first = np.concatenate([first, upper])
            last = np.concatenate([lower, last[split]])
            mid = np.concatenate([mid, mid[split]])
    return best


def l1_coordinate_descent(gram, w, y, beta, lam, tau, sweeps):
    """Cyclic soft-thresholding on (tau/2) sum_s w_s r_s^2 + lam ||beta||_1,
    written plainly: each coordinate recomputes its weighted residual
    correlation from the residual vector r = y - gram^T beta."""
    n = y.shape[0]
    beta = beta.copy()
    residual = y - gram.T @ beta
    quad = tau * ((gram * gram) @ w)
    for _ in range(sweeps):
        max_change = 0.0
        for j in range(n):
            gj = gram[j]
            old = beta[j]
            lin = tau * (gj @ (w * residual)) + quad[j] * old
            if lin > lam:
                shrunk = lin - lam
            elif lin < -lam:
                shrunk = lin + lam
            else:
                shrunk = 0.0
            new = shrunk / quad[j] if quad[j] > 0 else 0.0
            if new != old:
                residual += gj * (old - new)
                beta[j] = new
                max_change = max(max_change, abs(new - old))
        if max_change <= 1e-15:
            break
    return beta


def char_poly_eigen_moduli(P):
    """Eigenvalue moduli via the characteristic polynomial's roots."""
    coeffs = np.poly(np.asarray(P, dtype=float))
    return np.sort(np.abs(np.roots(coeffs)))[::-1]


def sample_chain_per_step(P, pi, m, seed, start="stationary"):
    """State path with one searchsorted call per step; ``pi`` is the
    stationary vector the "stationary" start draws from."""
    rng = np.random.default_rng(seed)
    cum = np.cumsum(P, axis=1)
    cum[:, -1] = 1.0
    states = np.empty(m, dtype=np.int64)
    if isinstance(start, str):
        cpi = np.cumsum(pi)
        cpi[-1] = 1.0
        states[0] = int(np.searchsorted(cpi, rng.random(), side="right"))
    else:
        states[0] = int(start)
    draws = rng.random(m - 1)
    cur = states[0]
    for t in range(1, m):
        cur = int(np.searchsorted(cum[cur], draws[t - 1], side="right"))
        states[t] = cur
    return states


def fit_gradient_per_halving(gram, y, config, max_iters, groups=None):
    """(alpha, trace, stopped, halvings) of the gradient fit whose line search
    scores one candidate per halving; ``halvings`` counts the halvings
    before each accepted step.  ``gram`` covers the rows of ``groups``
    (first, index, counts), or the samples when it is None."""
    y = np.asarray(y, dtype=float)
    m = y.shape[0]
    n = m if groups is None else groups.first.shape[0]

    def sums(values):
        return values if n == m else np.bincount(groups.index, weights=values, minlength=n)

    def spread(values):
        return values if n == m else values[groups.index]

    def value_at(alpha, residuals):
        fit = float(np.add.reduce(config.phi(residuals / config.sigma))) / (m * config.sigma)
        pen = np.abs(alpha) if config.q == 1 else alpha * alpha
        return fit - config.lam * float(np.add.reduce(pen))

    def gradient(alpha, residuals):
        slopes = sums(config.phi.slope(residuals / config.sigma))
        grad = -spread(gram @ slopes) / (m * config.sigma**2)
        return grad - 2.0 * config.lam * alpha if config.q == 2 else grad

    alpha = np.zeros(m)
    fitted = gram.T @ sums(alpha)
    residuals = y - spread(fitted)
    current = value_at(alpha, residuals)
    trace, halvings = [current], []
    step = 1.0
    stopped = "max_iters"
    for _ in range(max_iters):
        grad = gradient(alpha, residuals)
        if config.q == 2:
            fitted_step = gram.T @ sums(grad)
        step = min(step * 4.0, 1e8)
        for halving in range(51):
            if config.q == 1:
                moved = alpha + step * grad
                candidate = np.sign(moved) * np.maximum(np.abs(moved) - step * config.lam, 0.0)
                candidate_fitted = gram.T @ sums(candidate)
            else:
                candidate = alpha + step * grad
                candidate_fitted = fitted + step * fitted_step
            candidate_residuals = y - spread(candidate_fitted)
            value = value_at(candidate, candidate_residuals)
            if value >= current:
                break
            step *= 0.5
        else:
            stopped = "no ascent step"
            break
        halvings.append(halving)
        gain = value - current
        alpha, current = candidate, value
        fitted, residuals = candidate_fitted, candidate_residuals
        trace.append(current)
        if gain < config.tol:
            stopped = "tol"
            break
    return alpha, tuple(trace), stopped, halvings


def bootstrap_slope_per_draw(log_m, excess_lists, seed, draws=1000):
    """Per-draw resampled means (draws, len(excess_lists)), the 5-95%
    percentile CI of the log-log slope, and the number of draws kept: one
    resample, mean and polyfit per draw."""
    rng = np.random.default_rng(seed)
    all_means, slopes = [], []
    for _ in range(draws):
        means = np.array(
            [vals[rng.integers(0, len(vals), len(vals))].mean() for vals in excess_lists]
        )
        all_means.append(means)
        if np.any(means <= 0):
            continue
        slopes.append(np.polyfit(log_m, np.log(means), 1)[0])
    if not slopes:
        return np.array(all_means), (float("nan"), float("nan")), 0
    lo, hi = np.percentile(slopes, [5.0, 95.0])
    return np.array(all_means), (float(lo), float(hi)), len(slopes)


def group_rows(x):
    """(first, index, counts) of the distinct rows of an (m, d) array in
    first-occurrence order, from np.unique over row records (axis=0)."""
    _, first, index = np.unique(x, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    index = rank[index.reshape(-1)]
    return first[order], index, np.bincount(index, minlength=first.size).astype(float)


def trapezoid_density_normal(scale, at=0.0):
    """Standalone normal density value, independent of scipy."""
    return np.exp(-0.5 * (at / scale) ** 2) / (scale * np.sqrt(2.0 * np.pi))


_SQRT_2PI = np.sqrt(2.0 * np.pi)


def phi_value(kind, u):
    """phi(u) by the per-kind formulas the kind table replaced, verbatim."""
    u = np.asarray(u, dtype=float)
    if kind == "gaussian":
        out = np.exp(-0.5 * u * u) / _SQRT_2PI
    elif kind == "correntropy":
        out = np.exp(-(u * u))
    elif kind == "epanechnikov":
        out = np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)
    elif kind == "quadratic":
        t = 1.0 - u * u
        out = np.where(np.abs(u) <= 1.0, (15.0 / 16.0) * t * t, 0.0)
    elif kind == "triangular":
        out = np.where(np.abs(u) <= 1.0, 1.0 - np.abs(u), 0.0)
    else:
        raise ValueError(kind)
    return float(out) if out.ndim == 0 else out


def _inside(u, values):
    return np.where(np.abs(u) <= 1.0, values, 0.0)


# the compact kinds' values as the kind table masked them with _inside before
# it clipped them with np.fmax, verbatim
MASKED_PHI_VALUES = {
    "epanechnikov": lambda u: _inside(u, 0.75 * (1.0 - u * u)),
    "quadratic": lambda u: _inside(u, (15.0 / 16.0) * (1.0 - u * u) * (1.0 - u * u)),
    "triangular": lambda u: _inside(u, 1.0 - np.abs(u)),
}


def phi_derivative(kind, u):
    """phi'(u) by the per-kind formulas the kind table replaced, verbatim."""
    u = np.asarray(u, dtype=float)
    if kind == "gaussian":
        out = -u * np.exp(-0.5 * u * u) / _SQRT_2PI
    elif kind == "correntropy":
        out = -2.0 * u * np.exp(-(u * u))
    elif kind == "epanechnikov":
        out = np.where(np.abs(u) <= 1.0, -1.5 * u, 0.0)
    elif kind == "quadratic":
        out = np.where(np.abs(u) <= 1.0, -(15.0 / 4.0) * u * (1.0 - u * u), 0.0)
    elif kind == "triangular":
        out = np.where(np.abs(u) <= 1.0, -np.sign(u), 0.0)
    else:
        raise ValueError(kind)
    return float(out) if out.ndim == 0 else out
