import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import MASKED_PHI_VALUES, phi_derivative, phi_value
from modalmr.errors import InputError
from modalmr.kernels import (
    PHI_KINDS,
    HypothesisKernel,
    check_calibration,
    hypothesis_kernel,
    representing_function,
)
from modalmr.solver import distinct_gram

CALIBRATED = [k for k in PHI_KINDS if k != "correntropy"]


def test_epanechnikov_at_zero():
    phi = representing_function("epanechnikov")
    assert phi(0.0) == 0.75


def test_gaussian_symmetry_pointwise():
    phi = representing_function("gaussian")
    assert phi(1.3) == phi(-1.3)


def test_gaussian_peak_closed_form():
    phi = representing_function("gaussian")
    assert phi(0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=1e-12)
    assert phi(0.0) == pytest.approx(0.3989422804, abs=1e-9)


def test_compact_support_is_zero_outside():
    for kind in ("epanechnikov", "quadratic", "triangular"):
        phi = representing_function(kind)
        assert phi(1.0001) == 0.0
        assert phi(-5.0) == 0.0


@pytest.mark.parametrize("kind", PHI_KINDS)
def test_symmetry_property_random(kind):
    phi = representing_function(kind)
    rng = np.random.default_rng(11)
    u = rng.uniform(-4, 4, 1000)
    left, right = phi(u), phi(-u)
    if math.isfinite(phi.support_halfwidth):
        assert np.array_equal(left, right)
    else:
        np.testing.assert_allclose(left, right, atol=1e-14)
    assert np.all(left <= phi.peak_value)


def test_unknown_kind_rejected():
    with pytest.raises(InputError):
        representing_function("uniform")


# the kinks and support edges, plus points well outside the compact supports
PHI_POINTS = st.one_of(st.floats(-6.0, 6.0),
                       st.sampled_from([0.0, -0.0, 1.0, -1.0, 1.0000001, -1.5, 40.0]))


class TestPhiTable:
    """The kind table reproduces the per-kind formulas it replaced, bit for bit."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(PHI_KINDS), st.lists(PHI_POINTS, max_size=30), PHI_POINTS)
    def test_value_and_derivative_match_old_formulas(self, kind, values, point):
        phi = representing_function(kind)
        for u in (np.array(values), np.array(values).reshape(-1, 1), np.array(point), point):
            assert type(phi(u)) is type(phi_value(kind, u))
            for new, old in ((phi(u), phi_value(kind, u)),
                             (phi.slope(np.asarray(u, dtype=float)), phi_derivative(kind, u))):
                assert np.asarray(new).tobytes() == np.asarray(old).tobytes()

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from([("gaussian", (1.0 / math.sqrt(2.0 * math.pi), 1.0)),
                            ("correntropy", (1.0, 0.5))]),
           st.lists(st.floats(-1e3, 1e3), max_size=30), st.floats(1e-3, 1e3))
    def test_gaussian_family_weights_are_the_old_expressions(self, kind_pair, r, sigma):
        # phi(u) = coeff exp(-u^2 / (2 a^2)); the half-quadratic weight is the
        # expression the Gaussian-only solver used, bit for bit, and
        # C = -g'(t) / weight = coeff / (2 a^2)
        kind, (coeff, a_sq) = kind_pair
        phi = representing_function(kind)
        u = np.linspace(-4.0, 4.0, 81)
        np.testing.assert_allclose(phi(u), coeff * np.exp(-u * u / (2.0 * a_sq)), rtol=1e-15)
        weight, C = phi.hq
        assert C == coeff / (2.0 * a_sq)
        r = np.array(r)
        old = np.exp(-(r * r) / (2.0 * a_sq * sigma * sigma))
        assert weight(r, sigma).tobytes() == old.tobytes()

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from([k for k in PHI_KINDS if k != "triangular"]),
           st.lists(st.floats(1e-3, 3.0).filter(lambda u: abs(u - 1.0) > 1e-6), max_size=30),
           st.floats(1e-2, 1e2))
    def test_hq_pair_is_the_slope_of_g(self, kind, u, sigma):
        # phi(u) = g(u^2), so C * weight(u sigma, sigma) = -g'(u^2) = -phi'(u) / (2u)
        weight, C = representing_function(kind).hq
        u = np.array(u)
        np.testing.assert_allclose(C * weight(u * sigma, sigma),
                                   -phi_derivative(kind, u) / (2.0 * u), rtol=1e-9, atol=1e-15)

    def test_triangular_has_no_half_quadratic_weight(self):
        # g(t) = 1 - sqrt(t) has an unbounded slope at t = 0
        assert representing_function("triangular").hq is None


# the support edges and their neighbours, and values whose square overflows
CLIP_EDGES = [0.0, -0.0, 1.0, -1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0),
              np.nextafter(-1.0, 0.0), np.nextafter(-1.0, -2.0), 1e200, -1e200]
# any float64 bit pattern: every NaN payload, +-inf and the subnormals
ANY_BITS = st.integers(-2**63, 2**63 - 1).map(lambda b: float(np.int64(b).view(np.float64)))


class TestClippedValues:
    """The compact kinds' values are clipped at 0 by np.fmax; they keep the
    bits of the masked forms they replaced on every float64."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(sorted(MASKED_PHI_VALUES)),
           st.lists(st.floats() | ANY_BITS | st.sampled_from(CLIP_EDGES), max_size=40))
    def test_fmax_forms_match_masked_forms(self, kind, values):
        u = np.array(values + CLIP_EDGES + [math.inf, -math.inf, math.nan, 5e-324, -5e-324])
        with np.errstate(all="ignore"):
            new = representing_function(kind).value(u)
            old = MASKED_PHI_VALUES[kind](u)
        assert new.view(np.int64).tolist() == old.view(np.int64).tolist()


class TestCalibration:
    def test_epanechnikov_report(self):
        report = check_calibration(representing_function("epanechnikov"), 2, 10001)
        assert report.integral_error < 1e-8
        # closed form: integral of u^2 * 0.75(1-u^2) over [-1, 1] is 1/5
        assert report.second_moment == pytest.approx(0.2, abs=1e-6)
        assert report.max_symmetry_violation == 0.0
        assert report.max_excess_over_peak <= 0.0

    def test_gaussian_second_moment(self):
        report = check_calibration(representing_function("gaussian"), 10, 100001)
        assert report.second_moment == pytest.approx(1.0, abs=1e-4)
        assert report.integral_error < 1e-8

    def test_triangular_unit_area_peak(self):
        phi = representing_function("triangular")
        report = check_calibration(phi, 2, 10001)
        assert phi.peak_value == 1.0
        assert report.integral_error < 1e-8
        # integral of u^2 (1-|u|) over [-1, 1] is 1/6
        assert report.second_moment == pytest.approx(1.0 / 6.0, abs=1e-6)

    def test_quadratic_second_moment(self):
        report = check_calibration(representing_function("quadratic"), 2, 10001)
        assert report.second_moment == pytest.approx(1.0 / 7.0, abs=1e-6)

    @pytest.mark.parametrize("kind", PHI_KINDS)
    def test_lipschitz_estimate_below_bound(self, kind):
        phi = representing_function(kind)
        half = 2.0 if math.isfinite(phi.support_halfwidth) else 10.0
        report = check_calibration(phi, half, 20001)
        assert report.lipschitz_estimate <= phi.lipschitz_bound * 1.01

    def test_correntropy_not_unit_integral(self):
        phi = representing_function("correntropy")
        assert not phi.calibrated
        report = check_calibration(phi, 10, 100001)
        assert report.integral_error == pytest.approx(math.sqrt(math.pi) - 1.0, abs=1e-8)

    @pytest.mark.parametrize("kind", ["triangular", "epanechnikov", "quadratic"])
    @pytest.mark.parametrize("points", [1000, 1002, 10001])
    @pytest.mark.parametrize("half", [2.0, 2.5, 3.0])
    def test_kinks_end_panels_at_any_grid(self, kind, points, half):
        # the kinks at 0 and +-1 are nodes whatever the point count and halfwidth
        report = check_calibration(representing_function(kind), half, points)
        assert report.integral_error < 1e-12
        assert report.ok()

    def test_rejects_bad_grid(self):
        phi = representing_function("gaussian")
        with pytest.raises(InputError):
            check_calibration(phi, -1.0, 1001)
        with pytest.raises(InputError):
            check_calibration(phi, 2.0, 0)
        for half in (1e200, 1e308):  # finite, with an infinite square
            with pytest.raises(InputError, match="--halfwidth"):
                check_calibration(phi, half, 5)

    @pytest.mark.parametrize("kind", ["epanechnikov", "quadratic", "triangular"])
    @pytest.mark.parametrize("half, points", [(1e150, 5), (1e9, 3)])
    def test_compact_piece_far_shorter_than_the_step(self, kind, half, points):
        # the support piece [0, 1] gets one Boole panel, 4 intervals, and
        # integrates these polynomials of degree at most 4 exactly
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = check_calibration(representing_function(kind), half, points)
        assert report.integral_error < 1e-12
        assert report.max_symmetry_violation == 0.0
        assert math.isfinite(report.second_moment) and math.isfinite(report.lipschitz_estimate)


class TestGram:
    def test_single_input_is_one(self):
        k = hypothesis_kernel("gaussian-rbf")
        assert k.cross([[0.3]], [[0.3]]) == pytest.approx(np.array([[1.0]]))

    def test_identical_inputs_all_ones(self):
        k = hypothesis_kernel("gaussian-rbf")
        g = k.cross([[0.4], [0.4]], [[0.4], [0.4]])
        np.testing.assert_allclose(g, np.ones((2, 2)), atol=1e-15)

    def test_two_point_off_diagonal(self):
        k = hypothesis_kernel("gaussian-rbf", bandwidth=1.0)
        g = k.cross([[0.0], [1.0]], [[0.0], [1.0]])
        assert g[0, 1] == pytest.approx(math.exp(-1.0), abs=1e-12)
        assert g[1, 0] == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(3)
        x = rng.random((12, 2))
        g = hypothesis_kernel("gaussian-rbf", bandwidth=0.7).cross(x, x)
        assert np.max(np.abs(g - g.T)) < 1e-12
        assert np.all(g > 0) and np.all(g <= 1.0)

    @pytest.mark.parametrize("bandwidth", [1e-100, 1e-9, 1e-6, 1e-3])
    def test_self_gram_has_a_unit_diagonal(self, bandwidth):
        # |x|^2 + |x|^2 - 2 x.x rounds off zero at 7 of these 5-d points, which
        # a small bandwidth turned into K(x, x) < 1, down to 0; a point equal to
        # a centre gets K = 1 from any pair of arrays, in any order
        x = np.random.default_rng(6).uniform(0.0, 100.0, (50, 5))
        kernel = hypothesis_kernel("gaussian-rbf", bandwidth=bandwidth)
        _, gram = distinct_gram(kernel, x)
        assert np.all(np.diag(gram) == 1.0)
        assert np.all(np.diag(kernel.cross(x, x)) == 1.0)
        assert np.all(np.diag(kernel.cross(x, x.copy())) == 1.0)
        assert np.all(np.diag(kernel.cross(x, x[::-1])[:, ::-1]) == 1.0)

    def test_other_kinds_finite_on_unit_cube(self):
        rng = np.random.default_rng(4)
        x = rng.random((8, 3))
        for kind in ("laplacian", "polynomial"):
            g = hypothesis_kernel(kind).cross(x, x)
            assert np.all(np.isfinite(g))
            np.testing.assert_array_equal(g, hypothesis_kernel(kind).cross(x, x))

    @pytest.mark.parametrize("kind, params", [
        ("gaussian-rbf", {"bandwidth": 0.7}),
        ("laplacian", {"bandwidth": 0.7}),
        ("polynomial", {"degree": 2.0, "offset": 1.0}),
        ("polynomial", {"degree": 3.0, "offset": 0.5}),
        ("polynomial", {"degree": 0.5, "offset": 1.0}),
        ("polynomial", {"degree": 1.5, "offset": 1.0}),
        ("polynomial", {"degree": -1.0, "offset": 1.0}),
    ])
    def test_cross_is_line_aligned_with_unchanged_bits(self, kind, params):
        # every gram starts on a 64-byte boundary, whatever the heap gives,
        # and holds the bits of the plain expressions
        def plain(c, p):
            if kind == "gaussian-rbf":
                sq = (np.sum(c * c, axis=1)[:, None] + np.sum(p * p, axis=1)[None, :]
                      - 2.0 * (c @ p.T))
                np.maximum(sq, 0.0, out=sq)
                return np.exp(-sq / (params["bandwidth"] ** 2))
            if kind == "laplacian":
                return np.exp(-np.sum(np.abs(c[:, None, :] - p[None, :, :]), axis=2)
                              / params["bandwidth"])
            return (c @ p.T + params["offset"]) ** params["degree"]

        k = hypothesis_kernel(kind, **params)
        rng = np.random.default_rng(5)
        shapes = [(n, n) for n in (1, 2, 3, 6, 9, 23, 100, 384)]
        shapes += [(n, 16) for n in (1, 5, 23, 384)]
        for rows, cols in shapes:
            c, p = rng.random((rows, 2)), rng.random((cols, 2))
            g = k.cross(c, p)
            assert g.shape == (rows, cols) and g.dtype == np.float64
            assert g.flags.c_contiguous and g.ctypes.data % 64 == 0, (rows, cols)
            assert g.tobytes() == plain(c, p).tobytes(), (rows, cols)

    @pytest.mark.parametrize("degree, offset", [(2.5, 1.0), (0.5, -1.0), (-1.0, 0.0)])
    def test_polynomial_rejects_non_finite_values(self, degree, offset):
        # a non-integer power of a negative base, or a negative power of 0,
        # is not a kernel value; nothing is left to warn about
        k = hypothesis_kernel("polynomial", degree=degree, offset=offset)
        x = np.array([[-2.0], [0.0], [1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match=f"degree {degree:g} and offset {offset:g}"):
                k.cross(x, x)

    @pytest.mark.parametrize("kind, bandwidth", [
        ("gaussian-rbf", 1e-161), ("gaussian-rbf", 1e-154), ("laplacian", 5e-324),
        ("laplacian", 1e-300),
    ])
    def test_tiny_bandwidth_reaches_the_limit_silently(self, kind, bandwidth):
        # distances far beyond the bandwidth overflow the exponent to -inf,
        # whose exp is the kernel's limit 0: no warning, and the bits of the
        # plain expression, with the unit diagonal of a self-gram
        k = hypothesis_kernel(kind, bandwidth=bandwidth)
        x = np.random.default_rng(6).random((9, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = k.cross(x, x)
        with np.errstate(over="ignore"):
            if kind == "gaussian-rbf":
                sq = (np.sum(x * x, axis=1)[:, None] + np.sum(x * x, axis=1)[None, :]
                      - 2.0 * (x @ x.T))
                np.fill_diagonal(sq, 0.0)
                plain = np.exp(-np.maximum(sq, 0.0) / (bandwidth * bandwidth))
            else:
                plain = np.exp(-np.sum(np.abs(x[:, None, :] - x[None, :, :]), axis=2) / bandwidth)
        assert g.tobytes() == plain.tobytes()
        assert np.count_nonzero(g - np.eye(9)) == 0

    @pytest.mark.parametrize("bandwidth", [1e-162, 1e-300, 5e-324])
    def test_gaussian_bandwidth_whose_square_underflows_rejected(self, bandwidth):
        # exp(-0 / 0) would put NaN on the gram's diagonal
        with pytest.raises(InputError, match=f"gaussian-rbf bandwidth {bandwidth:g} is too "
                                             "small: its square underflows to 0"):
            hypothesis_kernel("gaussian-rbf", bandwidth=bandwidth)
        hypothesis_kernel("laplacian", bandwidth=bandwidth)

    def test_dimension_mismatch(self):
        k = hypothesis_kernel("gaussian-rbf")
        with pytest.raises(InputError):
            k.cross([[0.0, 1.0], [0.5]], [[0.0, 1.0], [0.5]])
        with pytest.raises(InputError):
            k.cross([[0.0, 1.0]], [[0.5]])
        with pytest.raises(InputError, match=r"\(m, d\) array"):
            k.cross(np.zeros((2, 1, 1)), [[0.5]])

    def test_unknown_kernel_and_params(self):
        with pytest.raises(InputError):
            hypothesis_kernel("matern")
        with pytest.raises(InputError):
            hypothesis_kernel("gaussian-rbf", degree=3)
        with pytest.raises(InputError):
            hypothesis_kernel("gaussian-rbf", bandwidth=0.0)

    @pytest.mark.parametrize("kind, param", [("gaussian-rbf", "bandwidth"),
                                             ("polynomial", "offset")])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_shape_parameters_rejected(self, kind, param, bad):
        with pytest.raises(InputError, match="finite"):
            hypothesis_kernel(kind, **{param: bad})


def distinct_points(max_size=24):
    """Distinct 1-D or 2-D points in [-1, 1]^d as an (n, d) array."""
    return st.integers(1, 2).flatmap(lambda d: st.lists(
        st.tuples(*[st.floats(-1.0, 1.0)] * d), min_size=1, max_size=max_size, unique=True,
    )).map(np.array)


FACTOR_KERNELS = [hypothesis_kernel("gaussian-rbf", bandwidth=0.5), hypothesis_kernel("polynomial")]


class TestFactor:
    """HypothesisKernel.factor: greedy pivoted Cholesky from kernel columns."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(distinct_points(), st.sampled_from(FACTOR_KERNELS))
    def test_reproduces_the_gram(self, x, kernel):
        # the stop rule bounds every residual entry by 1e-15 of the trace,
        # which is at most n max diag; rounding adds a few eps max diag
        gram = kernel.cross(x, x)
        factor = kernel.factor(x, len(x))
        assert factor.flags.c_contiguous and factor.shape[0] == len(x)
        assert factor.shape[1] <= len(x)
        top = float(np.max(np.diag(gram)))
        eps = np.finfo(float).eps
        assert np.max(np.abs(gram - factor @ factor.T)) <= 8 * len(x) * eps * top

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=40, unique=True))
    def test_quadratic_polynomial_in_one_dimension_has_rank_at_most_three(self, points):
        # (x x' + 1)^2 = 1 + 2 x x' + x^2 x'^2 has three features
        x = np.array(points).reshape(-1, 1)
        factor = hypothesis_kernel("polynomial", degree=2.0, offset=1.0).factor(x, 3)
        assert factor is not None and factor.shape[1] <= 3

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.integers(0, 100), min_size=2, max_size=30, unique=True))
    def test_laplacian_on_full_rank_points_reaches_the_cap(self, grid):
        # points at least 0.01 apart: the laplacian gram is positive definite
        x = np.array(grid, dtype=float).reshape(-1, 1) / 100.0
        assert hypothesis_kernel("laplacian").factor(x, len(x) - 1) is None

    @pytest.mark.parametrize("degree, offset", [(2.0, -0.5), (1.5, 1.0), (-1.0, 1.0)])
    def test_polynomial_that_need_not_be_semi_definite_gets_none(self, degree, offset):
        x = np.linspace(-1.0, 1.0, 9).reshape(-1, 1)
        assert hypothesis_kernel("polynomial", degree=degree, offset=offset).factor(x, 8) is None

    @pytest.mark.parametrize("kernel", FACTOR_KERNELS, ids=lambda k: k.kind)
    def test_builds_no_gram(self, kernel, monkeypatch):
        cross, shapes = HypothesisKernel.cross, []

        def spy(self, centers, points):
            values = cross(self, centers, points)
            shapes.append(values.shape)
            return values

        monkeypatch.setattr(HypothesisKernel, "cross", spy)
        x = np.random.default_rng(2).uniform(0.0, 1.0, (60, 2))
        kernel.factor(x, 15)
        assert shapes and all(shape == (60, 1) for shape in shapes)
