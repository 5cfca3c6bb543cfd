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
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import InputError
from .kernels import _SQRT_2PI, RepresentingFunction, _boole
from .markov import TransitionKernel, stationary_distribution
from .solver import RmrModel, predict

__all__ = [
    "NoiseModel",
    "SyntheticTask",
    "gaussian_noise",
    "student_t_noise",
    "shifted_gamma_noise",
    "builtin_noise",
    "make_task",
    "true_modal_risk",
    "surrogate_risk",
    "comparison_gap",
    "excess_risk",
]

log = logging.getLogger(__name__)

_MASS_POINTS = 10001  # quad_points of the rule that checks a noise density
_BODY_SCALES = 10.0  # the noise body ends this many scales from the mode
_BUMP_REACH = 8.0  # a phi of unbounded support is cut this many sigma out
_JUMP_GAP = 1e-9  # the piece left of a support start ends this fraction short of it


def _student_t_density(t, p):
    dof, scale = p["dof"], p["scale"]
    x = t / scale
    # the log of the t(dof) density at 0: Gamma((dof+1)/2) / (Gamma(dof/2) sqrt(dof pi))
    log_norm = math.lgamma(0.5 * dof + 0.5) - math.lgamma(0.5 * dof) - 0.5 * (
        math.log(dof) + math.log(math.pi))
    return np.exp(log_norm - (dof + 1) / 2 * np.log1p(x * x / dof)) / scale


def _shifted_gamma_density(t, p):
    k, theta = p["shape"], p["scale"]
    x = (t + (k - 1.0) * theta) / theta
    # the support is x > 0, and x = 0 too at shape 1, where the
    # (k - 1) log x term is 0 everywhere (0 log 0 = 0)
    inside = x >= 0.0 if k == 1.0 else x > 0.0
    x_in = np.where(inside, x, 1.0)
    x_log_x = (k - 1.0) * np.log(x_in) if k != 1.0 else 0.0
    log_pdf = x_log_x - x_in - math.lgamma(k)
    return np.where(inside, np.exp(log_pdf) / theta, 0.0)


class _NoiseKind(NamedTuple):
    """A noise kind: its parameters, density p(t), sampler, whether p'' is bounded
    and its support start (None: none), each a function of ``NoiseModel.params``."""

    params: tuple
    density: Callable
    sample: Callable
    smooth: Callable = lambda p: True
    start: Callable = lambda p: None


_NOISE_TABLE = {
    "gaussian": _NoiseKind(
        ("scale",), lambda t, p: np.exp(-(t / p["scale"])**2 / 2.0) / _SQRT_2PI / p["scale"],
        lambda rng, size, p: rng.normal(0.0, p["scale"], size)),
    "student-t": _NoiseKind(
        ("dof", "scale"), _student_t_density,
        lambda rng, size, p: rng.standard_t(p["dof"], size) * p["scale"]),
    "shifted-gamma": _NoiseKind(
        ("shape", "scale"), _shifted_gamma_density,
        lambda rng, size, p: rng.gamma(p["shape"], p["scale"], size)
        - (p["shape"] - 1.0) * p["scale"],
        smooth=lambda p: p["shape"] >= 3.0, start=lambda p: -(p["shape"] - 1.0) * p["scale"]),
}
NOISE_KINDS = tuple(_NOISE_TABLE)


class NoiseModel(NamedTuple):
    """A noise distribution of a kind in ``NOISE_KINDS`` with density mode pinned at
    zero; ``smooth`` records whether the density has a bounded second derivative
    (needed by comparison_gap)."""

    kind: str
    params: dict
    smooth: bool

    def density(self, t):
        """Density at t.  Each kind uses the arithmetic of SciPy's distribution
        objects, with the log-gamma constants from ``math.lgamma``; the values
        agree with SciPy's to about 1e-15 relative."""
        out = _NOISE_TABLE[self.kind].density(np.asarray(t, dtype=float), self.params)
        return float(out) if np.ndim(out) == 0 else out

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return _NOISE_TABLE[self.kind].sample(rng, size, self.params)


def _noise_cuts(model: NoiseModel):
    """(cuts, support starts, scale) of a noise density, for ``_line_rule``.

    The cuts are the mode 0 (where a shape-1 shifted gamma jumps), a shifted
    gamma's support start, and the ends of the noise body 10 scales from the
    mode.
    """
    scale = model.params["scale"]
    body = _BODY_SCALES * scale
    start = _NOISE_TABLE[model.kind].start(model.params)
    if start is None:
        return [-body, 0.0, body], [], scale
    return [start, 0.0, body], [start], scale


def _line_rule(noise: NoiseModel, cuts, points: int):
    """Nodes and weights of a quadrature rule for integrands p(t) g(t) over
    the whole real line, p the noise density.

    The line is cut at ``cuts`` and at the density's own cuts
    (``_noise_cuts``), so that a kink or jump of g or p sits on a node.
    Between the outermost cuts each piece gets composite Boole with a step
    of at most 1/(points - 1) of their span, and at least points/16 intervals,
    which resolves a noise body much narrower than the span.  A piece that
    starts at a shifted gamma's support start is mapped t = a + (b - a) u^2:
    p rises like (t - a)^(shape - 1) there, and p dt like u^(2 shape - 1) du,
    which is smooth for shape 1.  The piece left of a support start ends
    1e-9 of its length short of it, so that a jump there (shape 1) is not
    counted on both sides.  Beyond the outermost cuts each tail is mapped
    t = cut +- scale tan(theta), theta in [0, pi/2]: there the Cauchy
    density is uniform in theta, and a Student-t with dof >= 1 decays no
    slower.  theta = (pi/2) v (2 - v), uniform in v, grades the tail mesh
    towards pi/2, where p dt vanishes like (pi/2 - theta)^(dof - 1) for dof
    just above 1; the last node, at tan(pi/2) ~ 1.6e16 in floating point,
    has weight 0.  Nodes come out increasing, each cut once.
    """
    own, starts, scale = _noise_cuts(noise)
    cuts = sorted({*own, *map(float, cuts)})
    step = (cuts[-1] - cuts[0]) / (points - 1)
    least = 4 * math.ceil(points / 64)
    u, w = _boole(least)
    tan = np.tan(0.5 * math.pi * u * (2.0 - u))
    tail_w = math.pi * scale * (1.0 + tan * tan) * (1.0 - u) * w
    left = cuts[0] - (_JUMP_GAP * scale if cuts[0] in starts else 0.0)
    segments = [(left - scale * tan[::-1], tail_w[::-1])]
    for a, b in zip(cuts[:-1], cuts[1:]):
        # a piece of exactly k steps gets k intervals despite rounding
        u, w = _boole(max(least, 4 * math.ceil((b - a) / (4.0 * step) - 1e-9)))
        if b in starts:
            b -= _JUMP_GAP * (b - a)
        if a in starts:
            u, w = u * u, 2.0 * u * w
        x = a + (b - a) * u
        x[-1] = b  # exactly the next piece's first node
        segments.append((x, (b - a) * w))
    segments.append((cuts[-1] + scale * tan, tail_w))
    nodes, weights = [], []
    for x, w in segments:
        if nodes and x[0] == nodes[-1][-1]:
            weights[-1][-1] += w[0]
            x, w = x[1:], w[1:]
        nodes.append(x)
        weights.append(w.copy())
    return np.concatenate(nodes), np.concatenate(weights)


def _validate_noise(model: NoiseModel) -> NoiseModel:
    """Check on ``_line_rule`` that the density peaks at 0 and has unit mass."""
    nodes, weights = _line_rule(model, [], _MASS_POINTS)
    dens = model.density(nodes)
    if not np.all(np.isfinite(dens)):
        raise InputError(f"{model.kind} density is not finite on its grid")
    peak = int(np.argmax(dens))
    if dens[peak] > model.density(0.0) * (1.0 + 1e-12):
        raise InputError(f"{model.kind} noise mode sits at {nodes[peak]:.4g}, not at 0")
    mass = float(np.sum(weights * dens))
    if abs(mass - 1.0) > 1e-4:
        raise InputError(f"{model.kind} density mass on its grid is {mass:.6f}, not 1")
    return model


# every parameter's one check and its message, in the order builtin_noise runs them
_PARAM_CHECKS = {
    "dof": (lambda dof: 1 <= dof < math.inf, "student-t dof must be at least 1 and finite, got {}"),
    "shape": (lambda shape: 1.0 <= shape < math.inf,
              "shape must be at least 1 and finite, for a finite mode at zero"),
    "scale": (lambda scale: 0 < scale < math.inf, "scale must be positive and finite"),
}


def builtin_noise(kind: str, scale: float = 1.0, **params) -> NoiseModel:
    """Noise of a kind in ``NOISE_KINDS``: gaussian, student-t (``dof``) or
    shifted-gamma (``shape``); a parameter None is not given.  Every parameter
    given is checked, used or not; only the named noise is built."""
    params["scale"] = 1.0 if scale is None else scale
    given = {key: value for key, value in params.items() if value is not None}
    for key, (holds, message) in _PARAM_CHECKS.items():
        if key in given and not holds(given[key]):
            raise InputError(message.format(given[key]))
    if kind not in _NOISE_TABLE:
        raise InputError(f"unknown noise kind {kind!r}")
    record = _NOISE_TABLE[kind]
    for key in record.params:
        if key not in given:
            raise InputError(f"{kind} noise needs parameter {key!r}")
    values = {key: float(given[key]) for key in record.params}
    return _validate_noise(NoiseModel(kind, values, smooth=record.smooth(values)))


def gaussian_noise(scale: float = 1.0) -> NoiseModel:
    return builtin_noise("gaussian", scale)


def student_t_noise(dof: float, scale: float = 1.0) -> NoiseModel:
    """Student-t noise; dof 1 is Cauchy noise.  Below dof 1 the density decays slower
    than 1/t^2, so on the tan-mapped tails of ``_line_rule`` its integrand grows
    without bound towards theta = pi/2; dof must be at least 1."""
    return builtin_noise("student-t", scale, dof=dof)


def shifted_gamma_noise(shape: float, scale: float = 1.0) -> NoiseModel:
    """Gamma(shape, scale) shifted left by (shape-1)*scale so the mode is 0: an
    asymmetric noise whose conditional mean differs from its mode, the case modal
    regression targets and mean regression cannot.  p rises like x^(shape - 1), so
    p'' is bounded (``smooth``) from shape 3."""
    return builtin_noise("shifted-gamma", scale, shape=shape)


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

    One ``_line_rule`` for all states, cut at each Delta_s and at Delta_s +-
    sigma * reach, where reach is phi's support halfwidth (8 for the Gaussian
    kinds); ``quad_points`` is the least number of nodes.
    """
    if not 0 < sigma < math.inf:
        raise InputError("sigma must be positive and finite")
    if quad_points < 3:
        raise InputError("quad_points too small for quadrature")
    offsets = _state_offsets(task, f_values_on_states)
    if not np.all(np.isfinite(offsets)):
        raise InputError("f values on the states must be finite")
    half = sigma * min(phi.support_halfwidth, _BUMP_REACH)
    cuts = np.concatenate([offsets - half, offsets, offsets + half])
    nodes, weights = _line_rule(task.noise, cuts, int(quad_points))
    bumps = phi((nodes[None, :] - offsets[:, None]) / sigma) / sigma
    per_state = np.sum(bumps * (weights * task.noise.density(nodes)), axis=1)
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
    density curvature is estimated by central differences on the nodes of
    the noise's own ``_line_rule``, whose step near the mode is 20 scales /
    (quad_points - 1).
    """
    if not task.noise.smooth:
        raise InputError(f"{task.noise.kind} noise lacks a bounded second derivative")
    r_true_star = true_modal_risk(task, task.state_values)
    r_true_f = true_modal_risk(task, f_values_on_states)
    r_sur_star = surrogate_risk(task, task.state_values, phi, sigma, quad_points)
    r_sur_f = surrogate_risk(task, f_values_on_states, phi, sigma, quad_points)
    gap = abs(r_true_star - r_true_f - (r_sur_star - r_sur_f))
    nodes, _ = _line_rule(task.noise, [], int(quad_points))
    steps = np.diff(nodes)
    slopes = np.diff(task.noise.density(nodes)) / steps
    curvature = np.abs(2.0 * np.diff(slopes) / (steps[1:] + steps[:-1]))
    bound = float(np.max(curvature)) * phi.second_moment * sigma * sigma
    return gap, bound


def excess_risk(task: SyntheticTask, model: RmrModel) -> float:
    """R(f*) - R(f_model), with model evaluated on the chain states."""
    preds = predict(model, task.chain.state_embedding)
    value = true_modal_risk(task, task.state_values) - true_modal_risk(task, preds)
    if value < -1e-9:
        log.warning("excess risk %.3e is negative beyond tolerance", value)
    return float(value)
