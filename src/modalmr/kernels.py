"""Smoothing kernels for the modal loss and kernels for the hypothesis space.

Two unrelated kinds of "kernel" live here and are kept deliberately distinct:

* ``RepresentingFunction`` is the symmetric, peaked-at-zero, unit-integral
  bump that turns mode seeking into a kernel-density-style objective.
* ``HypothesisKernel`` is the two-argument similarity K(x, x') whose sections
  K(x_i, .) span the sample-dependent hypothesis space.  It is not required
  to be symmetric or positive semi-definite, although all built-in kinds are
  symmetric.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import InputError

__all__ = [
    "PHI_KINDS",
    "KERNEL_KINDS",
    "RepresentingFunction",
    "CalibrationReport",
    "HypothesisKernel",
    "representing_function",
    "hypothesis_kernel",
    "check_calibration",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_INTEGRAL_TOL = 1e-6  # largest |integral - 1| that passes; gaussian phi cut at 5 misses 5.7e-7


class RepresentingFunction(NamedTuple):
    """A smoothing kernel phi: its frozen calibration constants, phi and phi',
    and the half-quadratic pair ``hq = (weight, C)``: with phi(u) = g(u^2), g
    convex and decreasing, -g'(r^2 / sigma^2) = C * weight(r, sigma) (None for
    triangular phi, whose g'(t) is unbounded at t = 0).

    ``lipschitz_bound`` and ``second_moment`` are exact values for the
    built-in kinds; ``check_calibration`` re-derives them numerically.
    ``calibrated`` is False for the correntropy variant, whose integral is
    sqrt(pi) rather than 1 (it exists to reproduce the exp(-r^2/s) weight
    convention used by correntropy-style estimators).
    """

    kind: str
    peak_value: float
    lipschitz_bound: float
    second_moment: float
    support_halfwidth: float
    calibrated: bool
    value: Callable
    slope: Callable
    hq: tuple | None = None

    def __call__(self, u):
        out = self.value(np.asarray(u, dtype=float))
        return float(out) if out.ndim == 0 else out


def _inside(u, values):
    return np.where(np.abs(u) <= 1.0, values, 0.0)


def _quadratic_value(u):
    t = np.fmax(1.0 - u * u, 0.0)
    return (15.0 / 16.0) * t * t


# The compact kinds' values are clipped at 0 by np.fmax, not masked by
# _inside: each clipped expression is negative exactly where |u| > 1 (and
# -inf at u = +-inf), +0 at u = +-1, and fmax maps NaN to 0, so the two forms
# agree bit for bit on every float64, in about half the time on a line
# search's block.  The slopes change sign inside the support, so they keep
# the mask.
_PHI_TABLE = {phi.kind: phi for phi in (
    RepresentingFunction(
        "gaussian", 1.0 / _SQRT_2PI, math.exp(-0.5) / _SQRT_2PI, 1.0, math.inf, True,
        lambda u: np.exp(-0.5 * u * u) / _SQRT_2PI,
        lambda u: -u * np.exp(-0.5 * u * u) / _SQRT_2PI,
        (lambda r, s: np.exp(-(r * r) / (2.0 * s * s)), 0.5 / _SQRT_2PI),
    ),
    RepresentingFunction(
        "epanechnikov", 0.75, 1.5, 0.2, 1.0, True,
        lambda u: np.fmax(0.75 * (1.0 - u * u), 0.0),
        lambda u: _inside(u, -1.5 * u),
        (lambda r, s: (np.abs(r) < s) * 1.0, 0.75),
    ),
    # quartic polynomial from the same beta family as Epanechnikov
    RepresentingFunction(
        "quadratic", 15.0 / 16.0, 5.0 * math.sqrt(3.0) / 6.0, 1.0 / 7.0, 1.0, True,
        _quadratic_value,
        lambda u: _inside(u, -(15.0 / 4.0) * u * (1.0 - u * u)),
        (lambda r, s: np.maximum(1.0 - r * r / (s * s), 0.0), 15.0 / 8.0),
    ),
    RepresentingFunction(
        "triangular", 1.0, 1.0, 1.0 / 6.0, 1.0, True,
        lambda u: np.fmax(1.0 - np.abs(u), 0.0),
        lambda u: _inside(u, -np.sign(u)),
    ),
    RepresentingFunction(
        "correntropy", 1.0, math.sqrt(2.0 / math.e), math.sqrt(math.pi) / 2.0, math.inf, False,
        lambda u: np.exp(-(u * u)),
        lambda u: -2.0 * u * np.exp(-(u * u)),
        (lambda r, s: np.exp(-(r * r) / (s * s)), 1.0),
    ),
)}
PHI_KINDS = tuple(_PHI_TABLE)


def representing_function(kind: str) -> RepresentingFunction:
    """Build one of the built-in representing functions by name."""
    if kind not in _PHI_TABLE:
        raise InputError(f"unknown representing function {kind!r}; choose from {PHI_KINDS}")
    return _PHI_TABLE[kind]


class CalibrationReport(NamedTuple):
    """Numerical check of the representing-function requirements."""

    kind: str
    max_symmetry_violation: float
    max_excess_over_peak: float
    integral_error: float
    second_moment: float
    lipschitz_estimate: float

    def ok(self) -> bool:
        return (
            self.max_symmetry_violation < 1e-12
            and self.max_excess_over_peak <= 0.0
            and self.integral_error < _INTEGRAL_TOL
            and math.isfinite(self.second_moment)
        )


def _boole(intervals: int):
    """Nodes and composite Boole weights on [0, 1]; ``intervals`` is a
    multiple of 4.  The rule is exact for quintics, and its error on a smooth
    piece, h^6 (f^(5)(b) - f^(5)(a)) / 1890 to leading order, cancels between
    neighbouring pieces of about equal step."""
    u = np.linspace(0.0, 1.0, intervals + 1)
    w = np.full(intervals + 1, 32.0)
    w[2::4] = 12.0
    w[4::4] = 14.0
    w[0] = w[-1] = 7.0
    return u, w * (2.0 / (45.0 * intervals))


def check_calibration(
    phi: RepresentingFunction, grid_halfwidth: float, grid_points: int
) -> CalibrationReport:
    """Verify symmetry, peak dominance, unit integral and moments on a grid.

    The grid should cover the support generously (halfwidth >= 8 for the
    Gaussian kind).  [0, halfwidth] is cut at the compact kinds' support end
    1 when it lies inside, each piece gets composite Boole on 4 or more
    intervals of an equal step at most 2 halfwidth / (grid_points - 1), and
    the rule is mirrored onto [-halfwidth, 0].  So the kinks at 0 and +-1 end
    panels at any halfwidth and point count, and phi(t) meets phi(-t) exactly.
    """
    # NaN fails this test, which a bare grid_halfwidth <= 0 passes; the moment squares t
    if not (0 < grid_halfwidth and grid_halfwidth * grid_halfwidth < math.inf):
        raise InputError("grid halfwidth (--halfwidth) must be positive with a finite square")
    if grid_points <= 2:
        raise InputError("grid_points must exceed 2")
    step = 2.0 * grid_halfwidth / (int(grid_points) - 1)
    cuts = [0.0, grid_halfwidth]
    if phi.support_halfwidth < grid_halfwidth:
        cuts.insert(1, phi.support_halfwidth)
    pieces = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        # a piece of exactly k steps gets k intervals despite rounding
        u, w = _boole(max(4, 4 * math.ceil((b - a) / (4.0 * step) - 1e-9)))
        t = a + (b - a) * u
        t[-1] = b  # exactly the next piece's first node
        pieces.append((t, (b - a) * w))
    t, w = (np.concatenate(parts) for parts in zip(*pieces))
    right, left = phi(t), phi(-t)
    both = right + left
    slopes = [np.abs(np.diff(phi(sign * x))) / np.diff(x) for x, _ in pieces for sign in (1, -1)]
    return CalibrationReport(
        kind=phi.kind,
        max_symmetry_violation=float(np.max(np.abs(right - left))),
        max_excess_over_peak=float(max(np.max(right), np.max(left)) - phi.peak_value),
        integral_error=abs(float(w @ both) - 1.0),
        second_moment=float(w @ (t * t * both)),
        lipschitz_estimate=float(max(np.max(s) for s in slopes)),
    )


_CACHE_LINE = 64  # bytes
_FACTOR_RTOL = 1e-15  # residual trace, relative to the trace, that ends a gram factor


def _line_aligned_empty(rows: int, cols: int) -> np.ndarray:
    """An uninitialised C-contiguous float matrix that starts on a 64-byte
    boundary, which a heap allocation meets only by chance: OpenBLAS's
    matrix-vector products over a 384 x 384 gram run about twice as fast
    from one, and give the same bits from any start."""
    spare = np.empty(rows * cols + _CACHE_LINE // 8)
    # the address, read without building a ctypes object as .ctypes would
    start = -spare.__array_interface__["data"][0] % _CACHE_LINE // 8
    return spare[start:start + rows * cols].reshape(rows, cols)


class HypothesisKernel(NamedTuple):
    """Two-argument kernel K(x, x') used to span the hypothesis space."""

    kind: str
    shape_params: dict

    def cross(self, centers, points) -> np.ndarray:
        """Matrix with entry (i, p) = K(centers[i], points[p]), C-contiguous
        and starting on a 64-byte boundary (``_line_aligned_empty``).  A
        gaussian-rbf entry whose point equals its centre is exactly 1."""
        c = as_covariate_array(centers)
        p = as_covariate_array(points)
        if c.shape[1] != p.shape[1]:
            raise InputError(
                f"covariate dimension mismatch: {c.shape[1]} versus {p.shape[1]}"
            )
        if self.kind == "gaussian-rbf":
            bw = self.shape_params["bandwidth"]
            sq = (
                np.sum(c * c, axis=1)[:, None]
                + np.sum(p * p, axis=1)[None, :]
                - 2.0 * (c @ p.T)
            )
            np.maximum(sq, 0.0, out=sq)
            if c.shape[1] > 1:
                # |x|^2 + |x|^2 - 2 x.x rounds off zero once d > 1, so a point
                # equal to a centre gets its exact distance 0; in d = 1 it is
                # 2 rd(x^2) - 2 rd(x^2), exactly 0 already
                same = c[:, :1] == p[:, 0]
                for k in range(1, c.shape[1]):
                    same &= c[:, k:k + 1] == p[:, k]
                np.copyto(sq, 0.0, where=same)
            with np.errstate(over="ignore"):  # a distance far beyond bw: exp(-inf) = 0
                return np.exp(-sq / (bw * bw), out=_line_aligned_empty(len(c), len(p)))
        if self.kind == "laplacian":
            bw = self.shape_params["bandwidth"]
            l1 = np.sum(np.abs(c[:, None, :] - p[None, :, :]), axis=2)
            with np.errstate(over="ignore"):
                return np.exp(-l1 / bw, out=_line_aligned_empty(len(c), len(p)))
        if self.kind == "polynomial":
            return self._polynomial(c @ p.T, _line_aligned_empty(len(c), len(p)))
        raise InputError(f"unknown hypothesis kernel kind {self.kind!r}")

    def _polynomial(self, dots, out=None):
        """(x.x' + offset)^degree from the inner products x.x', checked finite."""
        degree = self.shape_params["degree"]
        offset = self.shape_params["offset"]
        with np.errstate(all="ignore"):
            values = np.power(dots + offset, degree, out=out)
        if not np.all(np.isfinite(values)):
            raise InputError(
                f"polynomial kernel with degree {degree:g} and offset {offset:g} is not "
                "finite on these covariates (a non-integer degree needs x.x' + offset >= 0)"
            )
        return values

    def factor(self, points, max_rank: int):
        """L, C-contiguous n x r, with K(points, points) = L L^T to rounding,
        by greedy pivoted Cholesky (Fine & Scheinberg 2001; Harbrecht, Peters
        & Schneider 2012), or None if r would exceed ``max_rank``.

        Each step takes the point with the largest residual diagonal as its
        pivot j and appends the column (K_j - L L_j^T) / sqrt(residual_j),
        from ``cross(points, points[j])``; the n x n gram is never formed.
        The diagonal costs O(n d): exactly 1 for the gaussian-rbf kind.  The
        factor ends once the residual diagonal sums to at most _FACTOR_RTOL
        of the trace, which bounds max |K - L L^T| for a positive
        semi-definite gram.  A polynomial gram need not be one (a negative
        offset, or a degree that is not a whole number), so such a kernel
        gets None.  A laplacian gram of distinct points is positive definite,
        so it has full rank and gets None before any column is built.  Only
        matrix-vector products are used: a first matrix-matrix product would
        make OpenBLAS allocate its level-3 work buffers."""
        x = as_covariate_array(points)
        if self.kind == "laplacian":
            return None
        if self.kind == "polynomial":
            degree, offset = self.shape_params["degree"], self.shape_params["offset"]
            if offset < 0 or degree < 0 or not float(degree).is_integer():
                return None
            residual = self._polynomial(np.einsum("ij,ij->i", x, x))
        else:
            residual = np.ones(len(x))
        stop = _FACTOR_RTOL * np.add.reduce(residual)
        columns = np.empty((max_rank, len(x)))  # row k holds column k of L
        pivots = []
        for k in range(max_rank + 1):
            if np.add.reduce(residual) <= stop:
                return np.ascontiguousarray(columns[:k].T)
            if k == max_rank:
                return None
            j = int(np.argmax(residual))
            column = columns[k]
            np.subtract(self.cross(x, x[j:j + 1])[:, 0], columns[:k, j] @ columns[:k],
                        out=column)
            column /= math.sqrt(residual[j])
            pivots.append(j)
            column[pivots] = 0.0  # on the pivots taken, as in exact arithmetic
            column[j] = math.sqrt(residual[j])
            residual -= column * column
            residual[j] = 0.0


_KERNEL_DEFAULTS = {
    "gaussian-rbf": {"bandwidth": 1.0},
    "laplacian": {"bandwidth": 1.0},
    "polynomial": {"degree": 2.0, "offset": 1.0},
}
KERNEL_KINDS = tuple(_KERNEL_DEFAULTS)


def hypothesis_kernel(kind: str, **shape_params: float) -> HypothesisKernel:
    """Build a hypothesis kernel by name, filling default shape parameters."""
    if kind not in _KERNEL_DEFAULTS:
        raise InputError(f"unknown hypothesis kernel {kind!r}; choose from {KERNEL_KINDS}")
    params = dict(_KERNEL_DEFAULTS[kind])
    for key, value in shape_params.items():
        if key not in params:
            raise InputError(f"kernel {kind!r} has no shape parameter {key!r}")
        params[key] = float(value)
        if not math.isfinite(params[key]):
            raise InputError(f"kernel {kind!r} shape parameter {key!r} must be finite")
    if "bandwidth" in params and params["bandwidth"] <= 0:
        raise InputError("kernel bandwidth must be positive")
    if kind == "gaussian-rbf" and params["bandwidth"] * params["bandwidth"] == 0.0:
        # exp(-0 / 0) would put NaN on the gram's diagonal
        raise InputError(f"gaussian-rbf bandwidth {params['bandwidth']:g} is too small: "
                         "its square underflows to 0")
    return HypothesisKernel(kind, params)


def as_covariate_array(inputs) -> np.ndarray:
    """Coerce a list of covariate vectors to a float (m, d) array."""
    try:
        arr = np.asarray(inputs, dtype=float)
    except ValueError as exc:
        raise InputError(f"covariate vectors have mismatched dimensions: {exc}") from exc
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[1] < 1:
        raise InputError("covariates must form an (m, d) array with d >= 1")
    return arr
