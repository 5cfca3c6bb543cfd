"""Finite-state Markov chains: construction, sampling, and mixing diagnostics.

State spaces are finite and embedded as grid points in [0,1]^d, so the
spectral quantities are exact eigendecompositions rather than estimates.
Three gaps are computed: the reversible spectral gap, read as ``diagnose(...).gamma``
(range [0, 2]: a reversible chain's spectrum lives in [-1, 1]), the absolute
spectral gap (range [0, 1]) and the pseudo spectral gap max_k gap((P*)^k P^k)/k.
"""

from __future__ import annotations

import itertools
import logging
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InputError, NumericError

__all__ = [
    "TransitionKernel",
    "ChainDiagnostics",
    "transition_kernel",
    "stationary_distribution",
    "is_reversible",
    "adjoint_kernel",
    "absolute_spectral_gap",
    "pseudo_spectral_gap",
    "sample_chain",
    "tv_mixing_curve",
    "builtin_chain",
    "iid_chain",
    "two_state_chain",
    "lazy_random_walk",
    "metropolis_grid",
    "uniform_gap_chain",
    "diagnose",
    "read_transition_file",
    "write_transition_file",
]

log = logging.getLogger(__name__)

CHAIN_FAMILIES = ("iid", "two-state", "lazy-walk", "metropolis")

_SIMPLE_TOL = 1e-8  # |lambda - 1| below this counts as the unit eigenvalue
_ROW_TOL = 1e-12
_BALANCE_TOL = 1e-10  # absolute, on probability flows pi_i P_ij, which sum to 1
_WALK_BLOCK = 1 << 16  # chain steps converted to Python floats at a time


@dataclass(frozen=True)
class TransitionKernel:
    """Row-stochastic transition matrix plus covariate embedding of states."""

    P: np.ndarray
    state_embedding: np.ndarray
    # the stationary vector, kept by stationary_distribution on first use
    _pi: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        P = np.array(self.P, dtype=float)
        emb = np.array(self.state_embedding, dtype=float)
        if emb.ndim == 1:
            emb = emb[:, None]
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise InputError("transition matrix must be square")
        n = P.shape[0]
        if not np.all(np.isfinite(P)):
            raise InputError("transition probabilities must be finite")
        if np.any(P < 0):
            raise InputError("transition probabilities must be nonnegative")
        rows = P.sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > _ROW_TOL:
            raise InputError(f"row sums deviate from 1 by {np.max(np.abs(rows - 1.0)):.3e}")
        if emb.shape[0] != n:
            raise InputError("state_embedding must have one vector per state")
        if not np.all((emb >= 0) & (emb <= 1)):
            raise InputError("state embedding coordinates must lie in [0, 1]")
        P.setflags(write=False)
        emb.setflags(write=False)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "state_embedding", emb)

    @property
    def n_states(self) -> int:
        return self.P.shape[0]

    @property
    def dim(self) -> int:
        return self.state_embedding.shape[1]


def transition_kernel(P, state_embedding) -> TransitionKernel:
    return TransitionKernel(P, state_embedding)


def stationary_distribution(kernel: TransitionKernel) -> np.ndarray:
    """Unique probability vector pi with pi P = pi, read-only.

    The dense eigendecomposition behind it runs once per kernel; the vector
    is kept on the kernel for every later call.  Raises NumericError
    when eigenvalue 1 of P is not simple (for example the identity chain or
    a disconnected chain).
    """
    if kernel._pi is not None:
        return kernel._pi
    P = kernel.P
    vals, vecs = np.linalg.eig(P.T)
    unit = np.flatnonzero(np.abs(vals - 1.0) < _SIMPLE_TOL)
    if len(unit) != 1:
        raise NumericError(
            f"eigenvalue 1 has multiplicity {len(unit)}; stationary distribution not unique"
        )
    v = np.real(vecs[:, unit[0]])
    v = np.abs(v)
    pi = v / v.sum()
    residual = np.max(np.abs(pi @ P - pi))
    if residual > 1e-10:
        raise NumericError(f"stationary residual {residual:.3e} exceeds tolerance")
    pi.setflags(write=False)
    object.__setattr__(kernel, "_pi", pi)
    return pi


def is_reversible(kernel: TransitionKernel, pi: np.ndarray) -> bool:
    """Detailed balance pi_i P_ij == pi_j P_ji within ``_BALANCE_TOL``."""
    flow = pi[:, None] * kernel.P
    return bool(np.max(np.abs(flow - flow.T)) <= _BALANCE_TOL)


def adjoint_kernel(kernel: TransitionKernel, pi: np.ndarray) -> np.ndarray:
    """Time-reversed kernel P*_ij = pi_j P_ji / pi_i (row-stochastic)."""
    pi = np.asarray(pi, dtype=float)
    if np.any(pi <= 0):
        raise InputError("adjoint requires a strictly positive stationary distribution")
    adj = (kernel.P.T * pi[None, :]) / pi[:, None]
    return adj


def _gap(vals: np.ndarray, size) -> float:
    """1 - max size(lambda) over the eigenvalues other than the one nearest 1,
    at least 0; 1 for a single state and 0 if eigenvalue 1 repeats."""
    rest = vals[np.argsort(np.abs(vals - 1.0))[1:]]
    if len(rest) == 0:
        return 1.0
    if np.any(np.abs(rest - 1.0) < _SIMPLE_TOL):
        return 0.0
    return max(1.0 - float(np.max(size(rest))), 0.0)


def absolute_spectral_gap(kernel: TransitionKernel) -> float:
    """1 - max |lambda| over non-unit eigenvalues; 0 if eigenvalue 1 repeats."""
    return _gap(np.linalg.eigvals(kernel.P), np.abs)


def _gap_of_reversible(P: np.ndarray, pi: np.ndarray) -> float:
    """1 - (largest eigenvalue below 1) of a pi-reversible P, from the
    spectrum of the symmetrized D^1/2 P D^-1/2."""
    if np.any(pi <= 0):
        raise InputError("spectral decomposition requires positive stationary mass")
    root = np.sqrt(pi)
    sym = (root[:, None] * P) / root[None, :]
    return _gap(np.linalg.eigvalsh(0.5 * (sym + sym.T)), np.real)


def pseudo_spectral_gap(kernel: TransitionKernel, k_max: int) -> float:
    """max over k = 1..k_max of gap((P*)^k P^k) / k.

    (P*)^k P^k is self-adjoint in L2(pi) and positive, so its gap comes from
    the symmetrized eigendecomposition directly.  Non-decreasing in k_max.
    """
    if k_max < 1:
        raise InputError("k_max must be at least 1")
    pi = stationary_distribution(kernel)
    adj = adjoint_kernel(kernel, pi)
    best = 0.0
    forward = np.eye(kernel.n_states)
    backward = np.eye(kernel.n_states)
    for k in range(1, k_max + 1):
        forward = forward @ kernel.P
        backward = backward @ adj
        best = max(best, _gap_of_reversible(backward @ forward, pi) / k)
    return best


def sample_chain(kernel: TransitionKernel, m: int, seed: int, start="stationary") -> np.ndarray:
    """Length-m state-index path, reproducible for a given seed.

    ``start`` is either the string "stationary" (draw the first state from
    pi) or an explicit state index.
    """
    if m < 1:
        raise InputError("path length m must be at least 1")
    rng = np.random.default_rng(seed)
    n = kernel.n_states
    cum = np.cumsum(kernel.P, axis=1)
    cum[:, -1] = 1.0
    states = np.empty(m, dtype=np.int64)
    if isinstance(start, str):
        if start != "stationary":
            raise InputError(f"start must be 'stationary' or a state index, got {start!r}")
        pi = stationary_distribution(kernel)
        cpi = np.cumsum(pi)
        cpi[-1] = 1.0
        states[0] = int(np.searchsorted(cpi, rng.random(), side="right"))
    else:
        s0 = int(start)
        if not 0 <= s0 < n:
            raise InputError(f"start state {s0} outside [0, {n})")
        states[0] = s0
    draws = rng.random(m - 1)
    # bisect_right on Python lists is searchsorted(side="right") without a
    # numpy call per step.  A row is sorted except that its last entry, set
    # to 1.0, may sit an ulp below the one before; every draw is below 1.0,
    # so both searches find the same first entry above the draw.
    rows = cum.tolist()
    cur = int(states[0])
    for lo in range(0, m - 1, _WALK_BLOCK):
        path = []
        for u in draws[lo:lo + _WALK_BLOCK].tolist():
            cur = bisect_right(rows[cur], u)
            path.append(cur)
        states[lo + 1:lo + 1 + len(path)] = path
    return states


def tv_mixing_curve(kernel: TransitionKernel, start_state: int, t_max: int):
    """Total-variation distance of P^t(start, .) to pi for t = 1..t_max."""
    if t_max < 1:
        raise InputError("t_max must be at least 1")
    if not 0 <= start_state < kernel.n_states:
        raise InputError(f"start state {start_state} outside [0, {kernel.n_states})")
    pi = stationary_distribution(kernel)
    row = np.zeros(kernel.n_states)
    row[start_state] = 1.0
    curve = []
    for t in range(1, t_max + 1):
        row = row @ kernel.P
        curve.append((t, 0.5 * float(np.sum(np.abs(row - pi)))))
    return curve


def _grid_embedding(n: int, d: int) -> np.ndarray:
    """First n points of the row-major [0,1]^d lattice whose side is the least
    integer >= 2 with side^d >= n.  The float root only seeds the search; it
    can overshoot (3125 ** (1/5) is 5.000000000000001) or fall short."""
    if d < 1:
        raise InputError("embedding dimension d must be at least 1")
    side = max(2, math.ceil(n ** (1.0 / d)))
    while side > 2 and (side - 1) ** d >= n:
        side -= 1
    while side**d < n:
        side += 1
    axis = np.linspace(0.0, 1.0, side)
    pts = list(itertools.islice(itertools.product(axis, repeat=d), n))
    return np.array(pts, dtype=float)


def iid_chain(n: int, target=None, d: int = 1) -> TransitionKernel:
    """Chain whose every row equals the target distribution (gap 1)."""
    if n < 2:
        raise InputError("iid chain needs at least 2 states")
    pi = np.full(n, 1.0 / n) if target is None else np.asarray(target, dtype=float)
    if len(pi) != n or np.any(pi < 0) or abs(pi.sum() - 1.0) > 1e-12:
        raise InputError("target must be a length-n probability vector")
    P = np.tile(pi, (n, 1))
    return TransitionKernel(P, _grid_embedding(n, d))


def two_state_chain(p: float, q: float, d: int = 1) -> TransitionKernel:
    """Two states with flip probabilities p (0 -> 1) and q (1 -> 0)."""
    if not (0.0 <= p <= 1.0 and 0.0 <= q <= 1.0):
        raise InputError("flip probabilities must lie in [0, 1]")
    P = np.array([[1.0 - p, p], [q, 1.0 - q]])
    return TransitionKernel(P, _grid_embedding(2, d))


def lazy_random_walk(n: int, laziness: float, d: int = 1) -> TransitionKernel:
    """Lazy nearest-neighbour walk on a path of n states (reversible)."""
    if n < 2:
        raise InputError("walk needs at least 2 states")
    if not 0.0 <= laziness < 1.0:
        raise InputError("laziness must lie in [0, 1)")
    P = np.zeros((n, n))
    move = 1.0 - laziness
    for i in range(n):
        P[i, i] += laziness
        neighbours = [j for j in (i - 1, i + 1) if 0 <= j < n]
        for j in neighbours:
            P[i, j] += move / len(neighbours)
    return TransitionKernel(P, _grid_embedding(n, d))


def metropolis_grid(n: int, target=None, d: int = 1) -> TransitionKernel:
    """Metropolis walk on a path of n states targeting the given distribution."""
    if n < 2:
        raise InputError("metropolis chain needs at least 2 states")
    t = np.full(n, 1.0 / n) if target is None else np.asarray(target, dtype=float)
    if len(t) != n or np.any(t <= 0) or abs(t.sum() - 1.0) > 1e-12:
        raise InputError("target must be a strictly positive length-n probability vector")
    P = np.zeros((n, n))
    for i in range(n):
        for j in (i - 1, i + 1):
            if 0 <= j < n:
                P[i, j] = 0.5 * min(1.0, t[j] / t[i])
        P[i, i] = 1.0 - P[i].sum()
    return TransitionKernel(P, _grid_embedding(n, d))


def uniform_gap_chain(n: int, gap: float, d: int = 1) -> TransitionKernel:
    """(1 - gap) I + gap / n on n grid states, with absolute spectral gap ``gap``."""
    if not 0.0 < gap <= 1.0:
        raise InputError("gamma values must lie in (0, 1]")
    if n < 2:
        raise InputError("uniform-gap chain needs at least 2 states")
    P = (1.0 - gap) * np.eye(n) + gap * np.full((n, n), 1.0 / n)
    return TransitionKernel(P, _grid_embedding(n, d))


def builtin_chain(family: str, d: int = 1, **params) -> TransitionKernel:
    """Dispatch on family name: iid, two-state, lazy-walk, metropolis.  The flip
    probabilities and the laziness are checked whenever given, used or not."""
    two_state_chain(params.get("p") or 0.0, params.get("q") or 0.0)
    lazy_random_walk(2, params.get("laziness") or 0.0)
    if family == "iid":
        return iid_chain(int(params.pop("n", 2)), params.pop("target", None), d)
    if family == "two-state":
        return two_state_chain(float(params.pop("p")), float(params.pop("q")), d)
    if family == "lazy-walk":
        return lazy_random_walk(int(params.pop("n")), float(params.pop("laziness", 0.5)), d)
    if family == "metropolis":
        return metropolis_grid(int(params.pop("n")), params.pop("target", None), d)
    raise InputError(f"unknown chain family {family!r}; choose from {CHAIN_FAMILIES}")


class ChainDiagnostics(NamedTuple):
    """Stationary distribution, reversibility and the three gaps.

    ``gamma`` is NaN for non-reversible chains (the reversible gap is not
    defined there); note it can reach 2 for reversible chains with spectrum
    near -1, while ``gamma_abs`` always lies in [0, 1].
    """

    pi: np.ndarray
    reversible: bool
    gamma: float
    gamma_abs: float
    gamma_pseudo: float
    tv_decay: list


def diagnose(
    kernel: TransitionKernel, k_max: int = 5, t_max: int = 30, start_state: int = 0
) -> ChainDiagnostics:
    pi = stationary_distribution(kernel)
    reversible = is_reversible(kernel, pi)
    gamma = _gap_of_reversible(kernel.P, pi) if reversible else math.nan
    if not reversible:
        adj = adjoint_kernel(kernel, pi)
        commutator = np.max(np.abs(kernel.P @ adj - adj @ kernel.P))
        if commutator > 1e-10:  # P is not normal in L2(pi)
            log.warning("P is not normal in L2(pi) (max |P P* - P* P| = %.3g): gamma_a is read "
                        "from the eigenvalues of a non-normal P and can be far off", commutator)
    return ChainDiagnostics(
        pi=pi,
        reversible=reversible,
        gamma=gamma,
        gamma_abs=absolute_spectral_gap(kernel),
        gamma_pseudo=pseudo_spectral_gap(kernel, k_max),
        tv_decay=tv_mixing_curve(kernel, start_state, t_max),
    )


def read_transition_file(path) -> TransitionKernel:
    """Load the plain-text chain format.

    Line 1: ``n d``; then n rows of n transition probabilities; then n rows
    of d embedding coordinates.  Whitespace-separated decimals throughout.
    """
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise InputError(f"{path}: expected 'n d' header")
    n, d = int(tokens[0]), int(tokens[1])
    if n < 1 or d < 1:
        raise InputError(f"{path}: n and d must be at least 1, got n={n}, d={d}")
    need = 2 + n * n + n * d
    if len(tokens) != need:
        raise InputError(f"{path}: expected {need} tokens for n={n}, d={d}, found {len(tokens)}")
    body = np.array([float(t) for t in tokens[2:]])
    if not np.all(np.isfinite(body)):
        raise InputError(f"{path}: non-finite value in the transition matrix or embedding")
    P = body[: n * n].reshape(n, n)
    emb = body[n * n :].reshape(n, d)
    return TransitionKernel(P, emb)


def write_transition_file(path, kernel: TransitionKernel) -> None:
    n, d = kernel.n_states, kernel.dim
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{n} {d}\n")
        for row in kernel.P:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")
        for row in kernel.state_embedding:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")
