import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import objective_value
from modalmr.errors import InputError
from modalmr.kernels import PHI_KINDS, hypothesis_kernel, representing_function
from modalmr.markov import iid_chain, transition_kernel, two_state_chain
from modalmr.risk import (
    NOISE_KINDS,
    NoiseModel,
    _line_rule,
    _validate_noise,
    builtin_noise,
    comparison_gap,
    default_target,
    excess_risk,
    gaussian_noise,
    make_task,
    shifted_gamma_noise,
    student_t_noise,
    surrogate_risk,
    true_modal_risk,
)
from modalmr.solver import RmrConfig, RmrModel, fit_hq, objective

GAUSS = representing_function("gaussian")


def normal_pdf(t, scale=1.0):
    return math.exp(-0.5 * (t / scale) ** 2) / (scale * math.sqrt(2 * math.pi))


def uniform_two_state():
    P = np.array([[0.5, 0.5], [0.5, 0.5]])
    return transition_kernel(P, [[0.0], [1.0]])


class TestNoiseModels:
    @pytest.mark.parametrize(
        "model",
        [
            gaussian_noise(1.0),
            gaussian_noise(0.25),
            student_t_noise(2.0),
            student_t_noise(5.0, 0.5),
            shifted_gamma_noise(2.0, 0.5),
            shifted_gamma_noise(3.5, 1.0),
        ],
    )
    def test_mode_at_zero_and_unit_mass(self, model):
        nodes, weights = _line_rule(model, [], 10001)
        dens = model.density(nodes)
        assert nodes[int(np.argmax(dens))] == 0.0
        assert np.sum(weights * dens) == pytest.approx(1.0, abs=1e-9)

    def test_sampling_matches_density_roughly(self):
        model = shifted_gamma_noise(2.0, 1.0)
        draws = model.sample(np.random.default_rng(0), 200000)
        # mode-zero shift: the sample mean equals scale (gamma mean k*theta minus shift)
        assert np.mean(draws) == pytest.approx(1.0, abs=0.02)
        assert np.min(draws) >= -1.0

    def test_invalid_constructions(self):
        for scale in (0.0, math.nan, math.inf):
            with pytest.raises(InputError):
                gaussian_noise(scale)
        for shape, scale in [(0.5, 1.0), (math.nan, 1.0), (math.inf, 1.0), (2.0, math.nan)]:
            with pytest.raises(InputError):
                shifted_gamma_noise(shape, scale)
        with pytest.raises(InputError):
            student_t_noise(-1.0)
        with pytest.raises(InputError, match="scale must be positive and finite"):
            student_t_noise(3.0, 0.0)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.one_of(st.just(1.0), st.floats(1.0, 50.0)), st.sampled_from([0.01, 0.5, 1.0, 3.0]))
    def test_student_t_builds_for_every_dof_from_one(self, dof, scale):
        # dof 1 is Cauchy noise
        model = student_t_noise(dof, scale)
        assert model.density(0.0) == pytest.approx(
            math.gamma((dof + 1) / 2) / (math.sqrt(dof * math.pi) * math.gamma(dof / 2)) / scale)

    @pytest.mark.parametrize("dof", [0.999, 0.5, float("nan"), float("inf")])
    def test_student_t_below_one_names_the_limit(self, dof, monkeypatch):
        def no_grid_check(model):
            raise AssertionError("the grid check ran")

        monkeypatch.setattr("modalmr.risk._validate_noise", no_grid_check)
        with pytest.raises(InputError, match="at least 1"):
            student_t_noise(dof)

    def test_validator_rejects_bad_mass_and_mode(self):
        class Bent(NoiseModel):
            # a gaussian density scaled by ``gain`` and moved right by ``shift``
            def density(self, t):
                x = np.asarray(t, dtype=float) - self.params["shift"]
                return self.params["gain"] * np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)

        heavy = Bent("gaussian", {"scale": 1.0, "gain": 1.4, "shift": 0.0}, smooth=True)
        with pytest.raises(InputError, match="mass on its grid is 1.400000"):
            _validate_noise(heavy)
        moved = Bent("gaussian", {"scale": 1.0, "gain": 1.0, "shift": 0.8}, smooth=True)
        with pytest.raises(InputError, match=r"mode sits at 0\.8,"):
            _validate_noise(moved)

    @pytest.mark.parametrize("scale", [0.01, 0.5, 1.0, 3.0])
    def test_shape_one_passes_its_grid_check(self, scale):
        # exponential noise: the density jumps from 0 to 1/scale at the mode,
        # and the rule counts the jump on its right side only
        model = shifted_gamma_noise(1.0, scale)
        assert model.density(0.0) == 1.0 / scale
        assert model.density(-1e-9 * scale) == 0.0
        nodes, weights = _line_rule(model, [], 10001)
        assert np.sum(weights * model.density(nodes)) == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("shape", [1.01, 1.05, 1.125, 1.15, 1.17, 1.2])
    @pytest.mark.parametrize("scale", [0.01, 0.5, 1.0, 3.0])
    def test_shifted_gamma_builds_near_shape_one(self, shape, scale):
        # the density rises like x^(shape - 1) from its support start
        model = shifted_gamma_noise(shape, scale)
        nodes, weights = _line_rule(model, [], 10001)
        assert np.sum(weights * model.density(nodes)) == pytest.approx(1.0, abs=1e-7)

    @pytest.mark.parametrize(
        "model, mean, square",
        [(gaussian_noise(0.4), 0.0, 0.16),
         (student_t_noise(5.0, 0.5), 0.0, 0.25 * 5.0 / 3.0),
         (shifted_gamma_noise(1.0, 0.5), 0.5, 0.5),
         (shifted_gamma_noise(1.05, 0.01), 0.01, 2.05e-4),
         (shifted_gamma_noise(1.125, 3.0), 3.0, 19.125),
         (shifted_gamma_noise(7.0, 2.0), 2.0, 32.0)],
        ids=["gaussian", "student_t", "gamma-1", "gamma-1.05", "gamma-1.125", "gamma-7"],
    )
    def test_rule_gives_mean_and_second_moment(self, model, mean, square):
        # shifted gamma: mean scale, second moment (shape + 1) scale^2
        nodes, weights = _line_rule(model, [], 10001)
        dens = weights * model.density(nodes)
        assert np.sum(nodes * dens) == pytest.approx(mean, rel=1e-9, abs=1e-14)
        assert np.sum(nodes * nodes * dens) == pytest.approx(square, rel=1e-9)

    def test_smooth_flags(self):
        assert gaussian_noise(1.0).smooth
        assert student_t_noise(2.0).smooth
        assert not shifted_gamma_noise(2.0).smooth  # p'' is unbounded below shape 3
        assert not shifted_gamma_noise(1.5).smooth


# every parameter builtin_noise reads besides scale, all valid, and the ones
# each kind needs
NOISE_PARAMS = {"dof": 3.0, "shape": 2.0}
REQUIRED_NOISE = {"gaussian": (), "student-t": ("dof",), "shifted-gamma": ("shape",)}
SHAPE = "shape must be at least 1 and finite, for a finite mode at zero"
BAD_NOISE_PARAMS = [
    *[("dof", value, f"student-t dof must be at least 1 and finite, got {value}")
      for value in (math.nan, 0.5, -1.0, math.inf, -math.inf)],
    *[("shape", value, SHAPE) for value in (math.nan, 0.5, -1.0, math.inf, -math.inf)],
    *[("scale", value, "scale must be positive and finite")
      for value in (math.nan, 0.0, -1.0, math.inf, -math.inf)],
]


class TestNoiseTable:
    def test_required_lists_every_kind(self):
        assert tuple(REQUIRED_NOISE) == NOISE_KINDS

    @pytest.mark.parametrize("kind, name", [
        (kind, name) for kind, names in REQUIRED_NOISE.items() for name in names])
    @pytest.mark.parametrize("absent", ["dropped", "None"])
    def test_missing_parameter_is_an_input_error(self, kind, name, absent):
        params = {key: value for key, value in NOISE_PARAMS.items() if key != name}
        if absent == "None":
            params[name] = None
        with pytest.raises(InputError, match=f"^{kind} noise needs parameter '{name}'$"):
            builtin_noise(kind, 0.5, **params)

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    @pytest.mark.parametrize("name, value, message", BAD_NOISE_PARAMS)
    def test_every_given_parameter_is_checked(self, kind, name, value, message):
        # whether or not the kind uses it
        params = {"scale": 0.5, **NOISE_PARAMS, name: value}
        with pytest.raises(InputError) as exc:
            builtin_noise(kind, **params)
        assert str(exc.value) == message

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    @pytest.mark.parametrize("name", ["sahpe", "df", "Scale"])
    def test_unknown_parameter_is_an_input_error(self, kind, name):
        with pytest.raises(InputError, match=f"^unknown noise parameter '{name}'; choose from"):
            builtin_noise(kind, 0.5, **NOISE_PARAMS, **{name: 2.0})

    @pytest.mark.parametrize("kind, expected", [
        ("gaussian", gaussian_noise(1.0)),
        ("student-t", student_t_noise(3.0)),
        ("shifted-gamma", shifted_gamma_noise(2.0)),
    ])
    def test_none_is_not_given(self, kind, expected):
        # a parameter left None is skipped by the checks; scale falls back on 1
        given = {key: NOISE_PARAMS[key] if key in REQUIRED_NOISE[kind] else None
                 for key in NOISE_PARAMS}
        assert builtin_noise(kind, None, **given) == expected


EXACT = settings(max_examples=200, deadline=None, derandomize=True, database=None)
SCALES = st.floats(1e-3, 10.0, exclude_min=True)
DOFS = st.floats(0.5, 50.0, exclude_min=True)
SHAPES = st.one_of(st.just(1.0), st.floats(1.0, 10.0))
# points in units of the scale, reaching far into the tails
UNITS = st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=40)


class TestScipyExactness:
    """The densities agree with scipy.stats, the Gaussian density bit for bit
    and the others within 1e-13 relative (exactly 0.0 where SciPy gives 0).
    scipy.stats is imported here only, as the reference."""

    @staticmethod
    def _assert_close(model, t, reference, rtol=1e-13):
        # atol 0: a zero reference value must come out exactly 0.0
        np.testing.assert_allclose(model.density(t), reference(t), rtol=rtol, atol=0.0)
        assert model.density(float(t[0])) == pytest.approx(float(reference(t[0])),
                                                            rel=rtol, abs=0.0)

    @EXACT
    @given(SCALES, UNITS)
    def test_gaussian_density(self, scale, units):
        from scipy import stats

        model = NoiseModel("gaussian", {"scale": scale}, smooth=True)
        t = np.array(units) * scale
        assert np.array_equal(model.density(t), stats.norm.pdf(t, scale=scale))
        assert model.density(float(t[0])) == float(stats.norm.pdf(t[0], scale=scale))

    @EXACT
    @given(DOFS, SCALES, UNITS)
    def test_student_t_density(self, dof, scale, units):
        from scipy import stats

        model = NoiseModel("student-t", {"dof": dof, "scale": scale}, smooth=True)
        self._assert_close(model, np.array(units) * scale,
                           lambda t: stats.t.pdf(t, df=dof, scale=scale))

    @EXACT
    @given(SHAPES, SCALES, UNITS)
    def test_shifted_gamma_density_inside_and_outside_support(self, shape, scale, units):
        from scipy import stats

        shift = (shape - 1.0) * scale
        model = NoiseModel("shifted-gamma", {"shape": shape, "scale": scale},
                           smooth=shape >= 2.0)
        # the support starts at -shift: points on its edge, one ulp left of it,
        # and at the drawn distances from the edge and from the mode
        t = np.concatenate([[-shift, np.nextafter(-shift, -np.inf)],
                            np.array(units) * scale - shift, np.array(units) * scale])
        self._assert_close(model, t, lambda t: stats.gamma.pdf(t + shift, shape, scale=scale))
        assert model.density(-shift - scale) == 0.0


class TestTask:
    def test_default_target_bounded(self):
        grid = np.linspace(0, 1, 5001)
        values = np.array([default_target([t]) for t in grid])
        assert np.max(np.abs(values)) <= 1.0 + 1e-12

    def test_sup_bound_enforced(self):
        with pytest.raises(InputError):
            make_task(iid_chain(4), gaussian_noise(1.0), f_star=lambda x: 5.0, M=1.0)

    def test_state_values_cached(self):
        task = make_task(two_state_chain(0.3, 0.2), gaussian_noise(1.0), f_star=lambda x: x[0])
        np.testing.assert_allclose(task.state_values, [0.0, 1.0])
        np.testing.assert_allclose(task.pi, [0.4, 0.6], atol=1e-12)


class TestTrueRisk:
    def test_truth_achieves_density_peak(self):
        task = make_task(uniform_two_state(), gaussian_noise(1.0), f_star=lambda x: x[0])
        assert true_modal_risk(task, task.state_values) == pytest.approx(
            normal_pdf(0.0), abs=1e-14
        )

    def test_offset_beyond_bounded_support(self):
        # shifted gamma densities vanish left of -(shape-1)*scale
        task = make_task(uniform_two_state(), shifted_gamma_noise(2.0, 1.0), f_star=lambda x: x[0])
        assert true_modal_risk(task, task.state_values - 5.0) == 0.0

    def test_hand_mixture_of_offsets(self):
        task = make_task(uniform_two_state(), gaussian_noise(1.0), f_star=lambda x: x[0])
        value = true_modal_risk(task, task.state_values + np.array([0.0, 1.0]))
        assert value == pytest.approx(0.5 * (normal_pdf(0) + normal_pdf(1)), abs=1e-14)
        assert value == pytest.approx(0.32046, abs=1e-5)

    def test_truth_is_global_maximizer(self):
        rng = np.random.default_rng(123)
        noises = [gaussian_noise(0.7), student_t_noise(3.0), shifted_gamma_noise(2.5)]
        for i in range(100):
            noise = noises[i % 3]
            chain = iid_chain(int(rng.integers(2, 8)))
            task = make_task(chain, noise)
            f = task.state_values + rng.normal(0, 1.0, chain.n_states)
            assert (
                true_modal_risk(task, task.state_values) - true_modal_risk(task, f)
                >= -1e-12
            )


class TestSurrogateRisk:
    def test_small_sigma_approaches_true_risk(self):
        task = make_task(uniform_two_state(), gaussian_noise(1.0), f_star=lambda x: x[0])
        value = surrogate_risk(task, task.state_values, GAUSS, 0.01, 40001)
        assert value == pytest.approx(normal_pdf(0.0), abs=2e-3)

    def test_gaussian_convolution_identity(self):
        scale, sigma = 0.8, 0.5
        task = make_task(uniform_two_state(), gaussian_noise(scale), f_star=lambda x: x[0])
        value = surrogate_risk(task, task.state_values, GAUSS, sigma, 40001)
        expected = normal_pdf(0.0, math.sqrt(scale**2 + sigma**2))
        assert value == pytest.approx(expected, abs=1e-9)

    def test_symmetric_offsets_equal(self):
        task = make_task(uniform_two_state(), gaussian_noise(1.0), f_star=lambda x: x[0])
        up = surrogate_risk(task, task.state_values + 0.7, GAUSS, 0.3, 20001)
        down = surrogate_risk(task, task.state_values - 0.7, GAUSS, 0.3, 20001)
        assert up == pytest.approx(down, rel=1e-12)

    def test_monotone_convergence_in_sigma(self):
        rng = np.random.default_rng(6)
        task = make_task(iid_chain(5), gaussian_noise(1.0))
        for _ in range(20):
            f = task.state_values + rng.normal(0, 0.8, 5)
            r = true_modal_risk(task, f)
            coarse = abs(surrogate_risk(task, f, GAUSS, 0.1, 20001) - r)
            fine = abs(surrogate_risk(task, f, GAUSS, 0.05, 20001) - r)
            assert coarse >= fine - 1e-6


    def test_cauchy_noise_matches_a_fine_uniform_grid(self):
        # 0.5011025237379 is the trapezoid value on 2e6 uniform points; a
        # uniform grid of 20001 points over the noise's 1e-4 mass interval,
        # 1.3e4 scales wide, reads 0.56159
        task = make_task(iid_chain(4), student_t_noise(1.0, 0.5))
        value = surrogate_risk(task, task.state_values + 0.1, GAUSS, 0.3)
        assert value == pytest.approx(0.5011025237379, abs=1e-12)

    @pytest.mark.parametrize("offset", [0.0, 0.3, 3.0, -7.5])
    def test_triangular_phi_on_cauchy_noise_closed_form(self, offset):
        # phi(u) = 1 - |u| has kinks at u = 0, +-1; with F(t) = atan(t/s)/pi
        # and G(t) = s ln(1 + (t/s)^2) / (2 pi), the antiderivatives of p and
        # t p, the smoothed density at offset d is
        # (G(d) - G(a) - a (F(d) - F(a)) + c (F(c) - F(d)) - G(c) + G(d)) / sigma^2
        # with a = d - sigma and c = d + sigma
        s, sigma = 0.1, 1.0
        task = make_task(iid_chain(2), student_t_noise(1.0, s), f_star=lambda x: 0.0)
        F = lambda t: math.atan(t / s) / math.pi  # noqa: E731
        G = lambda t: s * math.log1p((t / s) ** 2) / (2.0 * math.pi)  # noqa: E731
        a, d, c = offset - sigma, offset, offset + sigma
        exact = (G(d) - G(a) - a * (F(d) - F(a)) + c * (F(c) - F(d)) - G(c) + G(d)) / sigma**2
        value = surrogate_risk(task, [offset, offset], representing_function("triangular"), sigma)
        assert value == pytest.approx(exact, rel=1e-10, abs=0.0)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        st.one_of(
            st.builds(student_t_noise, st.one_of(st.just(1.0), st.floats(1.0, 50.0)),
                      st.floats(0.1, 3.0)),
            st.builds(gaussian_noise, st.floats(0.1, 3.0)),
            st.builds(shifted_gamma_noise, st.one_of(st.just(1.0), st.floats(1.0, 10.0)),
                      st.floats(0.1, 3.0)),
        ),
        st.floats(0.05, 2.0),
        st.sampled_from(PHI_KINDS),
        st.integers(2, 6),
        st.integers(0, 2**32 - 1),
    )
    def test_converged_at_the_default_points(self, noise, sigma, kind, n, seed):
        task = make_task(iid_chain(n), noise)
        f = task.state_values + np.random.default_rng(seed).normal(0.0, 0.5, n)
        phi = representing_function(kind)
        fine = surrogate_risk(task, f, phi, sigma, 200010)
        assert surrogate_risk(task, f, phi, sigma) == pytest.approx(fine, rel=1e-6, abs=0.0)

    def test_non_finite_f_rejected(self):
        task = make_task(iid_chain(3), gaussian_noise(1.0))
        with pytest.raises(InputError, match="finite"):
            surrogate_risk(task, [0.0, math.nan, 0.0], GAUSS, 0.5)

    def test_too_few_quadrature_points_rejected(self):
        task = make_task(iid_chain(3), gaussian_noise(1.0))
        with pytest.raises(InputError, match="quad_points too small"):
            surrogate_risk(task, task.state_values, GAUSS, 0.5, quad_points=2)

    @pytest.mark.parametrize("n_values", [2, 4])
    def test_one_value_per_state_required(self, n_values):
        task = make_task(iid_chain(3), gaussian_noise(1.0))
        with pytest.raises(InputError, match=r"need one value per state \(3\)"):
            true_modal_risk(task, np.zeros(n_values))


class TestComparisonGap:
    def test_truth_gap_is_zero(self):
        task = make_task(iid_chain(4), gaussian_noise(1.0))
        gap, bound = comparison_gap(task, task.state_values, GAUSS, 0.5)
        assert gap == 0.0
        assert bound > 0.0

    def test_gap_below_bound_and_second_order(self):
        rng = np.random.default_rng(77)
        task = make_task(iid_chain(6), gaussian_noise(1.0))
        for _ in range(5):
            f = task.state_values + rng.normal(0, 0.7, 6)
            gaps = []
            for sigma in (0.5, 0.25, 0.125):
                gap, bound = comparison_gap(task, f, GAUSS, sigma)
                assert gap <= bound
                gaps.append(gap)
            assert gaps[1] / gaps[0] < 0.5 + 0.1
            assert gaps[2] / gaps[1] < 0.5 + 0.1

    @pytest.mark.parametrize("shape", [1.5, 2.0, 2.5])
    def test_non_smooth_noise_rejected(self, shape):
        task = make_task(iid_chain(4), shifted_gamma_noise(shape))
        with pytest.raises(InputError, match="shifted-gamma noise lacks a bounded second"):
            comparison_gap(task, task.state_values + 0.1, GAUSS, 0.3)


@pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("risk", ["surrogate", "gap"])
def test_sigma_must_be_positive_and_finite(risk, sigma):
    task = make_task(iid_chain(3), gaussian_noise(1.0))
    f = task.state_values + 0.1
    call = {
        "surrogate": lambda: surrogate_risk(task, f, GAUSS, sigma),
        "gap": lambda: comparison_gap(task, f, GAUSS, sigma),
    }[risk]
    with pytest.raises(InputError, match="sigma must be positive and finite"):
        call()


class TestExcessRisk:
    def make_model(self, task, alpha, inputs):
        kernel = hypothesis_kernel("gaussian-rbf", bandwidth=1.0)
        cfg = RmrConfig(sigma=1.0, lam=0.1, q=2)
        return RmrModel(np.asarray(alpha, float), np.asarray(inputs, float), kernel, cfg, ())

    def test_exact_reproduction_gives_zero(self):
        task = make_task(two_state_chain(0.3, 0.2), gaussian_noise(1.0), f_star=lambda x: x[0])
        kernel = hypothesis_kernel("gaussian-rbf", bandwidth=1.0)
        gram = kernel.cross(task.chain.state_embedding, task.chain.state_embedding)
        alpha = np.linalg.solve(gram.T, task.state_values)
        model = self.make_model(task, alpha, task.chain.state_embedding)
        assert excess_risk(task, model) == pytest.approx(0.0, abs=1e-12)

    def test_zero_model_on_zero_truth(self):
        task = make_task(iid_chain(3), gaussian_noise(1.0), f_star=lambda x: 0.0)
        model = self.make_model(task, [0.0, 0.0], [[0.0], [1.0]])
        assert excess_risk(task, model) == 0.0

    def test_hand_instance(self):
        task = make_task(uniform_two_state(), gaussian_noise(1.0), f_star=lambda x: x[0])
        model = self.make_model(task, [0.0, 0.0], [[0.0], [1.0]])
        expected = normal_pdf(0.0) - 0.5 * (normal_pdf(0.0) + normal_pdf(1.0))
        assert excess_risk(task, model) == pytest.approx(expected, abs=1e-12)
        assert excess_risk(task, model) == pytest.approx(0.07848, abs=1e-5)


def test_fit_beats_zero_function_on_training_data():
    rng = np.random.default_rng(15)
    x = rng.random((12, 1))
    kernel = hypothesis_kernel("gaussian-rbf", bandwidth=0.5)
    gram = kernel.cross(x, x)
    y = np.sin(2 * np.pi * x[:, 0]) + rng.normal(0, 0.2, 12)
    cfg = RmrConfig(sigma=0.6, lam=0.02, q=2, tol=1e-12)
    model = fit_hq(gram, y, cfg)
    fitted_obj = objective(model.alpha, gram, y, cfg)
    zero_obj = objective(np.zeros(12), gram, y, cfg)
    assert fitted_obj >= zero_obj - 1e-12
    # equivalently: empirical risk of the fit covers the penalty it pays
    fit_risk = objective_value(model.alpha, gram, y, GAUSS, 0.6, 0.0, 2)
    zero_risk = objective_value(np.zeros(12), gram, y, GAUSS, 0.6, 0.0, 2)
    assert fit_risk >= zero_risk + 0.02 * float(model.alpha @ model.alpha) - 1e-12
