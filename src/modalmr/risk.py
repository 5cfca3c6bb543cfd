"""Modal risk functionals for synthetic generators.

The synthetic data model is y = f*(x) + eps with mode(eps) = 0, covariates
riding a finite-state chain.  Because the covariate marginal is the chain's
stationary vector and the noise density is known, the true modal risk
R(f) = sum_s pi_s * p_eps(f(x_s) - f*(x_s)) is exact, the surrogate risk is
one quadrature per state, and the comparison-gap bound C1*sigma^2 can be
checked directly.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InputError, NonSmoothNoise
from .kernels import _SQRT_2PI, RepresentingFunction
from .markov import TransitionKernel, stationary_distribution
from .solver import RmrModel, predict

__all__ = [
    "NoiseModel",
    "SyntheticTask",
    "gaussian_noise",
    "student_t_noise",
    "shifted_gamma_noise",
    "mixture_noise",
    "make_task",
    "empirical_modal_risk",
    "true_modal_risk",
    "surrogate_risk",
    "comparison_gap",
    "excess_risk",
]

log = logging.getLogger(__name__)

_MODE_GRID_POINTS = 10001
_MAX_GRID_STEPS = 2**20
# series and continued fractions of the incomplete beta and gamma functions
_SERIES_TERMS = 100_000
_SERIES_EPS = 1e-16
# quantile root finding on log x: at most this many steps, and the relative
# step that counts as converged
_ROOT_STEPS = 200
_ROOT_TOL = 1e-14


@dataclass(frozen=True)
class NoiseModel:
    """A noise distribution with density mode pinned at zero.

    ``grid_halfwidth`` is wide enough that the density carries all but 1e-4
    of its mass inside [-H, H]; heavy-tailed kinds therefore use grids much
    wider than 10x their nominal scale.  ``smooth`` records whether the
    density has a bounded second derivative (needed by comparison_gap).
    """

    kind: str
    params: dict
    grid_halfwidth: float
    smooth: bool
    components: tuple = field(default_factory=tuple)
    weights: tuple = field(default_factory=tuple)

    def density(self, t):
        """Density at t.  Each kind uses the arithmetic of SciPy's distribution
        objects, with the log-gamma constants from ``math.lgamma``; the values
        agree with SciPy's to about 1e-15 relative."""
        t = np.asarray(t, dtype=float)
        if self.kind == "gaussian":
            scale = self.params["scale"]
            x = t / scale
            out = np.exp(-x**2 / 2.0) / _SQRT_2PI / scale
        elif self.kind == "student-t":
            dof, scale = self.params["dof"], self.params["scale"]
            x = t / scale
            log_pdf = _student_t_log_norm(dof) - (dof + 1) / 2 * np.log1p(x * x / dof)
            out = np.exp(log_pdf) / scale
        elif self.kind == "shifted-gamma":
            k, theta = self.params["shape"], self.params["scale"]
            x = (t + (k - 1.0) * theta) / theta
            # the support is x > 0, and x = 0 too at shape 1, where the
            # (k - 1) log x term is 0 everywhere (0 log 0 = 0)
            inside = x >= 0.0 if k == 1.0 else x > 0.0
            x_in = np.where(inside, x, 1.0)
            x_log_x = (k - 1.0) * np.log(x_in) if k != 1.0 else 0.0
            log_pdf = x_log_x - x_in - math.lgamma(k)
            out = np.where(inside, np.exp(log_pdf) / theta, 0.0)
        elif self.kind == "mixture":
            out = sum(
                w * comp.density(t) for w, comp in zip(self.weights, self.components)
            )
        else:  # pragma: no cover - constructors prevent this
            raise InputError(f"unknown noise kind {self.kind!r}")
        return float(out) if np.ndim(out) == 0 else out

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == "gaussian":
            return rng.normal(0.0, self.params["scale"], size)
        if self.kind == "student-t":
            return rng.standard_t(self.params["dof"], size) * self.params["scale"]
        if self.kind == "shifted-gamma":
            k, theta = self.params["shape"], self.params["scale"]
            return rng.gamma(k, theta, size) - (k - 1.0) * theta
        if self.kind == "mixture":
            idx = rng.choice(len(self.weights), size=size, p=np.asarray(self.weights))
            out = np.empty(size)
            for c, comp in enumerate(self.components):
                mask = idx == c
                count = int(mask.sum())
                if count:
                    out[mask] = comp.sample(rng, count)
            return out
        raise InputError(f"unknown noise kind {self.kind!r}")  # pragma: no cover


def _student_t_log_norm(dof: float) -> float:
    """log of the t(dof) density at 0: Gamma((dof+1)/2) / (Gamma(dof/2) sqrt(dof pi))."""
    return math.lgamma(0.5 * dof + 0.5) - math.lgamma(0.5 * dof) - 0.5 * (
        math.log(dof) + math.log(math.pi))


def _log_root(log_value, target: float, lo: float, hi: float, u: float) -> float:
    """The u in [lo, hi] where a monotone log F(u) equals ``target``.

    ``log_value(u)`` returns (log F(u), d log F / du).  Newton steps from u;
    a step that would leave the bracket, which every evaluation narrows,
    bisects it instead.
    """
    for _ in range(_ROOT_STEPS):
        value, slope = log_value(u)
        gap = value - target
        if gap * slope > 0.0:
            hi = u
        else:
            lo = u
        new = u - gap / slope if slope else math.inf
        if not lo <= new <= hi:
            new = 0.5 * (lo + hi)
        if abs(new - u) <= _ROOT_TOL * max(1.0, abs(u)):
            return new
        u = new
    return u


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of I_x(a, b) x^-a (1-x)^-b B(a, b) a, by modified
    Lentz; it converges fast for x < (a+1)/(a+b+2)."""
    c, d = 1.0, 1.0 / (1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, _SERIES_TERMS):
        m2 = 2 * m
        aa = m * (b - m) * x / ((a - 1.0 + m2) * (a + m2))
        d = 1.0 / (1.0 + aa * d)
        c = 1.0 + aa / c
        h *= d * c
        aa = -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2))
        d = 1.0 / (1.0 + aa * d)
        c = 1.0 + aa / c
        h *= d * c
        if abs(d * c - 1.0) < _SERIES_EPS:
            break
    return h


def _student_t_quantile(q: float, dof: float, scale: float) -> float:
    """The q-quantile of scale * t(dof).

    For t > 0 with x = dof/(dof+t^2) and y = 1 - x, the two tails give
    2 P(T > t) = I_x(dof/2, 1/2) and the centre P(|T| < t) = I_y(1/2, dof/2).
    The tails solve the first form and the centre (q within 1/4 of the
    median) the second, so the target is never a difference of nearly equal
    numbers.  One continued fraction gives both forms, the smaller one to
    full relative accuracy, and its prefactor x^a y^b / B(a, b) is t times
    the density, the slope of the Newton steps on log F against log t.  The
    bracket: P(|T| < t) <= 2 t p(0) from below, and the power-law envelope
    of the density, P(T > t) <= p(0) dof^((dof-1)/2) t^-dof, from above.
    """
    if q == 0.5:
        return 0.0
    tail = min(q, 1.0 - q)
    central = tail >= 0.25
    a = 0.5 * dof
    log_norm = _student_t_log_norm(dof)
    log_beta = -log_norm - 0.5 * math.log(dof)  # log B(dof/2, 1/2)

    def log_value(u):
        r = math.exp(2.0 * u) / dof  # t^2 / dof
        x, log_x = 1.0 / (1.0 + r), -math.log1p(r)
        log_front = a * log_x + 0.5 * (math.log(r) + log_x) - log_beta
        if x < (a + 1.0) / (a + 2.5):
            log_tail = log_front + math.log(_beta_fraction(a, 0.5, x) / a)
            log_centre = math.log1p(-math.exp(log_tail))
        else:
            log_centre = log_front + math.log(2.0 * _beta_fraction(0.5, a, r * x))
            log_tail = math.log1p(-math.exp(log_centre))
        if central:
            return log_centre, 2.0 * math.exp(log_front - log_centre)
        return log_tail, -2.0 * math.exp(log_front - log_tail)

    lo = math.log(1.0 - 2.0 * tail) - math.log(2.0) - log_norm
    hi = (log_norm + 0.5 * (dof - 1.0) * math.log(dof) - math.log(tail)) / dof
    if central:
        u = _log_root(log_value, math.log(1.0 - 2.0 * tail), lo, hi, lo)
    else:
        u = _log_root(log_value, math.log(2.0 * tail), lo, hi, hi)
    return math.copysign(math.exp(u), q - 0.5) * scale


def _gamma_fraction(a: float, x: float) -> float:
    """Continued fraction of Q(a, x) e^x x^-a Gamma(a), by modified Lentz;
    it converges fast for x >= a + 1."""
    b = x + 1.0 - a
    c, d = math.inf, 1.0 / b
    h = d
    for i in range(1, _SERIES_TERMS):
        an = -i * (i - a)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        h *= d * c
        if abs(d * c - 1.0) < _SERIES_EPS:
            break
    return h


def _gamma_quantile(q: float, shape: float, scale: float) -> float:
    """The q-quantile of Gamma(shape, scale).

    Newton steps on log P(shape, x) (below the median) or log Q(shape, x)
    against log x, with slope +-x p(x) / P or Q from the gamma density p.
    P comes from its power series below x = shape + 1 and Q from its
    continued fraction above; each is exact to rounding there and the other
    is its complement.  The bracket: P <= x^shape / Gamma(shape+1) from below
    and the Chernoff bound Q <= 2^shape e^(-x/2) from above.
    """
    lower = q < 0.5
    log_gamma = math.lgamma(shape)

    def log_value(u):
        x = math.exp(u)
        log_front = shape * u - x - log_gamma  # log of x p(x)
        if x < shape + 1.0:
            term = total = 1.0 / shape
            for n in range(1, _SERIES_TERMS):
                term *= x / (shape + n)
                total += term
                if term < total * _SERIES_EPS:
                    break
            log_p = log_front + math.log(total)
            log_q = math.log1p(-math.exp(log_p))
        else:
            log_q = log_front + math.log(_gamma_fraction(shape, x))
            log_p = math.log1p(-math.exp(log_q))
        if lower:
            return log_p, math.exp(log_front - log_p)
        return log_q, -math.exp(log_front - log_q)

    lo = (math.log(q) + math.lgamma(shape + 1.0)) / shape
    hi = math.log(2.0 * (shape * math.log(2.0) - math.log1p(-q)))
    if lower:
        u = _log_root(log_value, math.log(q), lo, hi, lo)
    else:
        u = _log_root(log_value, math.log1p(-q), lo, hi, hi)
    return math.exp(u) * scale


def _grid_mass(model: NoiseModel, grid: np.ndarray, dens: np.ndarray) -> float:
    """Trapezoid mass of the density on an increasing grid around the mode 0.

    Each side of 0 is integrated on its own and closed at 0 by the density
    just on that side (1e-9 steps away), so a density that jumps at its mode
    (shifted gamma of shape 1) counts the jump as a jump; one trapezoid across
    it would add half a grid step of mass.  Where the density is continuous
    at 0 this equals the plain trapezoid rule up to rounding.
    """
    left, right = grid < 0.0, grid > 0.0
    below, above = model.density(np.array([-1e-9, 1e-9]) * (grid[1] - grid[0]))
    return float(
        np.trapezoid(np.append(dens[left], below), np.append(grid[left], 0.0))
        + np.trapezoid(np.insert(dens[right], 0, above), np.insert(grid[right], 0, 0.0))
    )


def _validate_noise(model: NoiseModel) -> NoiseModel:
    """Grid check of the mode-at-zero and unit-mass requirements.

    The grid has 10001 points, or more where that keeps its step under
    1/(8 p(0)) so that it resolves the peak: a student-t grid spans 1.3e4
    scales at dof 1, and 10001 points there put the trapezoid mass at 1.185.
    At most about 1e6 points bound the memory of the check.  A NaN peak or
    halfwidth keeps 10001 points, and the finiteness check below fails.
    """
    steps = 16.0 * model.grid_halfwidth * model.density(0.0)
    points = _MODE_GRID_POINTS
    if steps > points - 1:
        points = 2 * math.ceil(min(steps, _MAX_GRID_STEPS) / 2) + 1
    grid = np.linspace(-model.grid_halfwidth, model.grid_halfwidth, points)
    dens = model.density(grid)
    if not np.all(np.isfinite(dens)):
        raise InputError(f"{model.kind} density is not finite on its grid")
    step = grid[1] - grid[0]
    peak_at = grid[int(np.argmax(dens))]
    if abs(peak_at) > step * (1 + 1e-12):
        raise InputError(
            f"{model.kind} noise mode sits at {peak_at:.4g}, not at 0"
        )
    mass = _grid_mass(model, grid, dens)
    if abs(mass - 1.0) > 1e-4:
        raise InputError(f"{model.kind} density mass on its grid is {mass:.6f}, not 1")
    return model


def gaussian_noise(scale: float = 1.0) -> NoiseModel:
    if scale <= 0:
        raise InputError("scale must be positive")
    return _validate_noise(
        NoiseModel("gaussian", {"scale": float(scale)}, 10.0 * scale, smooth=True)
    )


def student_t_noise(dof: float, scale: float = 1.0) -> NoiseModel:
    """Student-t noise; dof 1 is Cauchy noise.  Below dof 1 the grid that holds
    all but 5e-5 of the mass widens fast (1.3e5 scales at dof 0.8, 1.6e8 at
    dof 0.5), and the check grid with it, so dof must be at least 1."""
    if not 0 < scale < math.inf:
        raise InputError("scale must be positive and finite")
    if not 1 <= dof < math.inf:
        raise InputError(f"student-t dof must be at least 1 and finite, got {dof}")
    half = scale * max(10.0, _student_t_quantile(1.0 - 2.5e-5, dof, 1.0))
    return _validate_noise(
        NoiseModel("student-t", {"dof": float(dof), "scale": float(scale)}, half, smooth=True)
    )


def shifted_gamma_noise(shape: float, scale: float = 1.0) -> NoiseModel:
    """Gamma(shape, scale) shifted left by (shape-1)*scale so the mode is 0.

    An asymmetric noise whose conditional mean differs from its mode, which
    is the case modal regression targets and mean regression cannot.
    """
    if not 1.0 <= shape < math.inf:
        raise InputError("shape must be at least 1 and finite, for a finite mode at zero")
    if not 0 < scale < math.inf:
        raise InputError("scale must be positive and finite")
    shift = (shape - 1.0) * scale
    right = _gamma_quantile(1.0 - 5e-5, shape, scale) - shift
    half = max(10.0 * scale, shift, right)
    return _validate_noise(
        NoiseModel(
            "shifted-gamma",
            {"shape": float(shape), "scale": float(scale)},
            half,
            smooth=shape >= 2.0,
        )
    )


def mixture_noise(weights, components) -> NoiseModel:
    w = tuple(float(v) for v in weights)
    comps = tuple(components)
    if len(w) != len(comps) or not comps:
        raise InputError("weights and components must be equal-length and nonempty")
    if any(v < 0 for v in w) or abs(sum(w) - 1.0) > 1e-12:
        raise InputError("weights must be a probability vector")
    half = max(c.grid_halfwidth for c in comps)
    return _validate_noise(
        NoiseModel(
            "mixture",
            {},
            half,
            smooth=all(c.smooth for c in comps),
            components=comps,
            weights=w,
        )
    )


@dataclass(frozen=True)
class SyntheticTask:
    """Ground-truth regression target, noise and covariate chain."""

    f_star: Callable
    M: float
    noise: NoiseModel
    chain: TransitionKernel
    pi: np.ndarray = None
    state_values: np.ndarray = None

    def __post_init__(self):
        pi = stationary_distribution(self.chain)
        values = np.array(
            [float(self.f_star(x)) for x in self.chain.state_embedding], dtype=float
        )
        if np.max(np.abs(values)) > self.M + 1e-12:
            raise InputError(
                f"|f*| reaches {np.max(np.abs(values)):.4g} on the states, above M={self.M}"
            )
        values.setflags(write=False)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "state_values", values)


_TARGET_GRID = np.linspace(0.0, 1.0, 20001)
_TARGET_SCALE = float(np.max(np.abs(np.sin(2.0 * np.pi * _TARGET_GRID) * np.exp(-_TARGET_GRID))))


def default_target(x) -> float:
    """sin(2 pi x1) * exp(-x1), rescaled to sup-norm 1 on [0, 1]."""
    x1 = float(np.atleast_1d(x)[0])
    return math.sin(2.0 * math.pi * x1) * math.exp(-x1) / _TARGET_SCALE


def make_task(
    chain: TransitionKernel, noise: NoiseModel, f_star: Callable | None = None, M: float = 1.0
) -> SyntheticTask:
    return SyntheticTask(f_star or default_target, M, noise, chain)


def empirical_modal_risk(f_values, y, phi: RepresentingFunction, sigma: float) -> float:
    """(1/(m sigma)) sum_i phi((y_i - f(x_i))/sigma)."""
    f_values = np.asarray(f_values, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if f_values.shape != y.shape:
        raise InputError(f"f has length {f_values.shape[0]}, y has {y.shape[0]}")
    if sigma <= 0:
        raise InputError("sigma must be positive")
    m = y.shape[0]
    return float(np.sum(phi((y - f_values) / sigma))) / (m * sigma)


def _state_offsets(task: SyntheticTask, f_values_on_states) -> np.ndarray:
    f = np.asarray(f_values_on_states, dtype=float).ravel()
    if f.shape[0] != task.chain.n_states:
        raise InputError(
            f"need one value per state ({task.chain.n_states}), got {f.shape[0]}"
        )
    return f - task.state_values


def true_modal_risk(task: SyntheticTask, f_values_on_states) -> float:
    """R(f) = sum_s pi_s * p_eps(f(x_s) - f*(x_s)), exact for finite chains."""
    offsets = _state_offsets(task, f_values_on_states)
    return float(task.pi @ task.noise.density(offsets))


def surrogate_risk(
    task: SyntheticTask,
    f_values_on_states,
    phi: RepresentingFunction,
    sigma: float,
    quad_points: int = 20001,
) -> float:
    """Smoothed risk sum_s pi_s * int (1/sigma) phi((t - Delta_s)/sigma) p(t) dt.

    Composite trapezoid over a grid wide enough for both the noise mass and
    the shifted bumps.
    """
    if sigma <= 0:
        raise InputError("sigma must be positive")
    if quad_points < 3:
        raise InputError("quad_points too small for quadrature")
    offsets = _state_offsets(task, f_values_on_states)
    reach = phi.support_halfwidth if math.isfinite(phi.support_halfwidth) else 8.0
    half = task.noise.grid_halfwidth + float(np.max(np.abs(offsets))) + sigma * reach
    grid = np.linspace(-half, half, int(quad_points))
    dens = task.noise.density(grid)
    bumps = phi((grid[None, :] - offsets[:, None]) / sigma) / sigma
    per_state = np.trapezoid(bumps * dens[None, :], grid, axis=1)
    return float(task.pi @ per_state)


def comparison_gap(
    task: SyntheticTask,
    f_values_on_states,
    phi: RepresentingFunction,
    sigma: float,
    quad_points: int = 20001,
):
    """|R(f*) - R(f) - (R^s(f*) - R^s(f))| and its second-order bound.

    The bound is C1 * sigma^2 with C1 = sup|p''| * int u^2 phi(u) du; the
    density curvature is estimated by central differences on the noise grid.
    """
    if not task.noise.smooth:
        raise NonSmoothNoise(
            f"{task.noise.kind} noise lacks a bounded second derivative"
        )
    r_true_star = true_modal_risk(task, task.state_values)
    r_true_f = true_modal_risk(task, f_values_on_states)
    r_sur_star = surrogate_risk(task, task.state_values, phi, sigma, quad_points)
    r_sur_f = surrogate_risk(task, f_values_on_states, phi, sigma, quad_points)
    gap = abs(r_true_star - r_true_f - (r_sur_star - r_sur_f))
    grid = np.linspace(-task.noise.grid_halfwidth, task.noise.grid_halfwidth, int(quad_points))
    dens = task.noise.density(grid)
    step = grid[1] - grid[0]
    curvature = np.abs(dens[2:] - 2.0 * dens[1:-1] + dens[:-2]) / (step * step)
    bound = float(np.max(curvature)) * phi.second_moment * sigma * sigma
    return gap, bound


def excess_risk(task: SyntheticTask, model: RmrModel) -> float:
    """R(f*) - R(f_model), with model evaluated on the chain states."""
    preds = predict(model, task.chain.state_embedding)
    value = true_modal_risk(task, task.state_values) - true_modal_risk(task, preds)
    if value < -1e-9:
        log.warning("excess risk %.3e is negative beyond tolerance", value)
    return float(value)
