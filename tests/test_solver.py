import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modalmr.solver
from _oracles import grid_oracle_max, objective_value
from modalmr.errors import InputError, LineSearchFailed, NonGaussianPhi, SingularSystem
from modalmr.kernels import gram_matrix, hypothesis_kernel, representing_function
from modalmr.solver import (
    CovariateGroups,
    RmrConfig,
    RmrModel,
    fit_data,
    fit_gradient,
    fit_hq,
    load_model,
    objective,
    predict,
    save_model,
    schedule_theorem2,
)

GAUSS = representing_function("gaussian")


def rbf_gram(x, bandwidth=1.0):
    x = np.asarray(x, dtype=float).reshape(-1, 1)
    return np.exp(-((x - x.T) ** 2) / bandwidth**2)


def random_instance(rng, m, bandwidth=1.0):
    gram = rbf_gram(rng.random(m), bandwidth)
    y = rng.uniform(-1.5, 1.5, m)
    return gram, y


class TestObjective:
    def test_zero_alpha_reduces_to_raw_risk(self):
        cfg = RmrConfig(sigma=0.7, lam=0.3, q=2)
        gram = rbf_gram([0.1, 0.5, 0.9])
        y = np.array([0.2, -0.1, 0.4])
        expected = float(np.sum(GAUSS(y / 0.7))) / (3 * 0.7)
        assert objective(np.zeros(3), gram, y, GAUSS, cfg) == pytest.approx(expected, abs=1e-15)

    def test_interpolating_alpha(self):
        cfg = RmrConfig(sigma=1.0, lam=0.05, q=2)
        gram = rbf_gram([0.0, 0.6])
        y = np.array([0.5, -0.2])
        alpha = np.linalg.solve(gram.T, y)
        expected = GAUSS(0.0) / 1.0 - 0.05 * float(alpha @ alpha)
        assert objective(alpha, gram, y, GAUSS, cfg) == pytest.approx(expected, abs=1e-12)

    def test_hand_value(self):
        cfg = RmrConfig(sigma=1.0, lam=0.1, q=2)
        gram = np.array([[1.0, 0.5], [0.5, 1.0]])
        value = objective(np.array([1.0, 0.0]), gram, np.array([1.0, 0.0]), GAUSS, cfg)
        expected = 0.5 * (GAUSS(0.0) + GAUSS(0.5)) - 0.1
        assert value == pytest.approx(expected, abs=1e-15)
        assert value == pytest.approx(0.27551, abs=1e-4)

    def test_dimension_mismatch(self):
        cfg = RmrConfig(sigma=1.0, lam=0.1)
        with pytest.raises(InputError):
            objective(np.zeros(3), np.eye(2), np.zeros(2), GAUSS, cfg)
        with pytest.raises(InputError):
            objective(np.zeros(2), np.eye(2), np.zeros(3), GAUSS, cfg)


class TestFitHq:
    def test_single_point_matches_grid_oracle(self):
        cfg = RmrConfig(sigma=1.0, lam=1e-8, q=2, tol=1e-14)
        model = fit_hq(np.array([[1.0]]), np.array([2.0]), cfg)
        oracle = grid_oracle_max(
            np.array([[1.0]]), np.array([2.0]), GAUSS, 1.0, 1e-8, 2, lo=-5, hi=5, step=1e-4
        )
        assert model.alpha[0] == pytest.approx(2.0, abs=1e-3)
        assert model.objective_trace[-1] >= oracle - 1e-6

    def test_zero_targets_give_zero_coefficients(self):
        gram = rbf_gram([0.2, 0.4, 0.9])
        model = fit_hq(gram, np.zeros(3), RmrConfig(sigma=0.5, lam=0.1, q=2))
        np.testing.assert_array_equal(model.alpha, np.zeros(3))

    @pytest.mark.parametrize("q", [1, 2])
    def test_two_point_matches_grid_oracle(self, q):
        rng = np.random.default_rng(5)
        gram, y = random_instance(rng, 2)
        cfg = RmrConfig(sigma=1.0, lam=0.1, q=q, tol=1e-13)
        model = fit_hq(gram, y, cfg)
        oracle = grid_oracle_max(gram, y, GAUSS, 1.0, 0.1, q)
        assert model.objective_trace[-1] >= oracle - 1e-3

    @pytest.mark.parametrize("q", [1, 2])
    def test_ascent_property(self, q):
        rng = np.random.default_rng(31)
        for _ in range(20):
            m = int(rng.integers(2, 30))
            gram, y = random_instance(rng, m)
            cfg = RmrConfig(
                sigma=float(rng.choice([0.5, 1.0])),
                lam=float(rng.choice([1e-3, 0.05, 0.3])),
                q=q,
                tol=1e-12,
            )
            trace = np.array(fit_hq(gram, y, cfg).objective_trace)
            assert np.all(np.diff(trace) >= -1e-10)

    def test_correntropy_phi_accepted(self):
        phi = representing_function("correntropy")
        gram = rbf_gram([0.1, 0.8])
        y = np.array([0.4, -0.3])
        cfg = RmrConfig(sigma=0.8, lam=0.05, q=2, phi=phi, tol=1e-13)
        model = fit_hq(gram, y, cfg)
        trace = np.array(model.objective_trace)
        assert np.all(np.diff(trace) >= -1e-10)
        oracle = grid_oracle_max(gram, y, phi, 0.8, 0.05, 2)
        assert trace[-1] >= oracle - 1e-3

    def test_non_gaussian_phi_rejected(self):
        cfg = RmrConfig(sigma=1.0, lam=0.1, phi=representing_function("epanechnikov"))
        with pytest.raises(NonGaussianPhi):
            fit_hq(np.eye(2), np.zeros(2), cfg)

    def test_singular_system_signalled(self):
        # enormous target underflows every weight; with lam = 0 there is no ridge
        cfg = RmrConfig(sigma=1.0, lam=0.0, q=2)
        with pytest.raises(SingularSystem):
            fit_hq(np.array([[1.0]]), np.array([1e9]), cfg)

    def test_warm_start_accepted(self):
        gram = rbf_gram([0.1, 0.5, 0.9])
        y = np.array([0.4, 0.1, -0.2])
        cfg = RmrConfig(sigma=0.8, lam=0.01, q=2, tol=1e-13)
        cold = fit_hq(gram, y, cfg)
        warm = fit_hq(gram, y, cfg, init=cold.alpha)
        assert warm.objective_trace[-1] >= cold.objective_trace[-1] - 1e-12

    @pytest.mark.parametrize("q", [1, 2])
    def test_penalty_monotone_in_lambda(self, q):
        rng = np.random.default_rng(8)
        gram, y = random_instance(rng, 6)
        norms = []
        for lam in (0.001, 0.01, 0.1, 1.0):
            model = fit_hq(gram, y, RmrConfig(sigma=0.8, lam=lam, q=q, tol=1e-12))
            norms.append(model.coefficient_penalty())
        assert all(b <= a + 1e-9 for a, b in zip(norms, norms[1:]))

    def test_l1_full_shrinkage_to_exact_zero(self):
        gram = rbf_gram([0.2, 0.7])
        y = np.array([0.5, -0.5])
        # threshold larger than any zero-init coordinate pull kills everything
        model = fit_hq(gram, y, RmrConfig(sigma=1.0, lam=10.0, q=1))
        assert np.array_equal(model.alpha, np.zeros(2))

    def test_large_instance_uses_cg_and_agrees(self, monkeypatch):
        rng = np.random.default_rng(12)
        states = rng.integers(0, 12, 700)
        x = np.linspace(0, 1, 12)[states]
        gram = rbf_gram(x, bandwidth=0.5)
        y = np.sin(2 * np.pi * x) + rng.normal(0, 0.3, 700)
        cfg = RmrConfig(sigma=0.8, lam=0.2, q=2, tol=1e-11)
        via_cg = fit_hq(gram, y, cfg)
        trace = np.array(via_cg.objective_trace)
        assert np.all(np.diff(trace) >= -1e-10)
        monkeypatch.setattr(modalmr.solver, "_DIRECT_SOLVE_LIMIT", 10_000)
        via_direct = fit_hq(gram, y, cfg)
        assert via_cg.objective_trace[-1] == pytest.approx(
            via_direct.objective_trace[-1], abs=1e-9
        )


class TestFitGradient:
    def test_matches_hq_on_gaussian_phi(self):
        rng = np.random.default_rng(7)
        for q in (1, 2):
            gram, y = random_instance(rng, 6)
            cfg = RmrConfig(sigma=0.7, lam=0.05, q=q, tol=1e-12)
            hq = fit_hq(gram, y, cfg)
            grad = fit_gradient(gram, y, GAUSS, cfg, max_iters=20000)
            assert grad.objective_trace[-1] == pytest.approx(
                hq.objective_trace[-1], abs=1e-4
            )

    def test_epanechnikov_zero_targets(self):
        phi = representing_function("epanechnikov")
        gram = rbf_gram([0.3, 0.6])
        model = fit_gradient(gram, np.zeros(2), phi, RmrConfig(sigma=1.0, lam=0.1, q=2))
        np.testing.assert_allclose(model.alpha, np.zeros(2), atol=1e-12)

    def test_epanechnikov_two_point_oracle(self):
        phi = representing_function("epanechnikov")
        gram = np.array([[1.0, 0.6], [0.6, 1.0]])
        y = np.array([0.8, -0.4])
        cfg = RmrConfig(sigma=1.0, lam=0.01, q=2, tol=1e-13)
        model = fit_gradient(gram, y, phi, cfg, max_iters=20000)
        oracle = grid_oracle_max(gram, y, phi, 1.0, 0.01, 2)
        assert model.objective_trace[-1] >= oracle - 1e-2

    def test_trace_monotone(self):
        phi = representing_function("triangular")
        rng = np.random.default_rng(21)
        gram, y = random_instance(rng, 5)
        model = fit_gradient(gram, y, phi, RmrConfig(sigma=0.8, lam=0.02, q=1))
        trace = np.array(model.objective_trace)
        assert np.all(np.diff(trace) >= -1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        gram, y = random_instance(rng, 5)
        cfg = RmrConfig(sigma=0.9, lam=0.07, q=2)
        h = 1e-6
        for _ in range(20):
            alpha = rng.normal(0, 0.5, 5)
            analytic = modalmr.solver._smooth_gradient(alpha, gram, y, GAUSS, cfg)
            for j in range(5):
                e = np.zeros(5)
                e[j] = h
                fd = (
                    objective(alpha + e, gram, y, GAUSS, cfg)
                    - objective(alpha - e, gram, y, GAUSS, cfg)
                ) / (2 * h)
                scale = max(1.0, abs(fd))
                assert abs(analytic[j] - fd) / scale < 1e-5


class TestPredict:
    def kernel_and_model(self, alpha, inputs, sigma=1.0, lam=0.1, q=2):
        kernel = hypothesis_kernel("gaussian-rbf", bandwidth=1.0)
        cfg = RmrConfig(sigma=sigma, lam=lam, q=q)
        return RmrModel(np.asarray(alpha, float), np.asarray(inputs, float), kernel, cfg, ())

    def test_zero_alpha_everywhere_zero(self):
        model = self.kernel_and_model([0.0, 0.0], [[0.1], [0.9]])
        assert predict(model, [0.3]) == 0.0

    def test_single_center_at_training_point(self):
        model = self.kernel_and_model([2.5], [[0.4]])
        assert predict(model, [0.4]) == pytest.approx(2.5, abs=1e-14)

    def test_hand_instance(self):
        model = self.kernel_and_model([1.0, -1.0], [[0.0], [1.0]])
        assert predict(model, [0.0]) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)

    def test_batch_prediction(self):
        model = self.kernel_and_model([1.0, -1.0], [[0.0], [1.0]])
        values = predict(model, np.array([[0.0], [1.0]]))
        assert values.shape == (2,)
        assert values[0] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)

    def test_dimension_mismatch(self):
        model = self.kernel_and_model([1.0], [[0.0, 0.0]])
        with pytest.raises(InputError):
            predict(model, [0.5])

    def test_alpha_length_checked(self):
        kernel = hypothesis_kernel("gaussian-rbf")
        with pytest.raises(InputError):
            RmrModel(np.zeros(3), np.zeros((2, 1)), kernel, RmrConfig(1.0, 0.1), ())


class TestSchedule:
    def test_theta_limit(self):
        theta, _, _ = schedule_theorem2(100, 1.0, 2.0, 1e-9)
        assert theta == pytest.approx(0.2, abs=1e-6)

    def test_power_of_two_values(self):
        _, lam, sigma = schedule_theorem2(1024, 1.0, 2.0, 1e-9)
        assert lam == pytest.approx(0.5, abs=1e-6)
        assert sigma == pytest.approx(math.sqrt(0.5), abs=1e-6)

    def test_closed_form_on_random_inputs(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            m = int(rng.integers(10, 100000))
            g = float(rng.uniform(0.05, 1.0))
            beta = float(rng.uniform(0.2, 2.0))
            s = float(rng.uniform(0.001, 1.9))
            theta, lam, sigma = schedule_theorem2(m, g, beta, s)
            ref_theta = 2 * beta / (8 * beta + 5 * s * beta + 2 * s + 4)
            disc = 2 * g - g * g
            assert theta == pytest.approx(ref_theta, abs=1e-12)
            assert lam == pytest.approx(disc ** (-theta / beta) * m ** (-theta / beta), rel=1e-12)
            assert sigma == pytest.approx(
                disc ** (-theta / (2 * beta)) * m ** (-theta / (2 * beta)), rel=1e-12
            )

    def test_range_validation(self):
        with pytest.raises(InputError):
            schedule_theorem2(0, 1.0, 2.0, 0.1)
        with pytest.raises(InputError):
            schedule_theorem2(10, 0.0, 2.0, 0.1)
        with pytest.raises(InputError):
            schedule_theorem2(10, 1.0, 2.5, 0.1)
        with pytest.raises(InputError):
            schedule_theorem2(10, 1.0, 2.0, 2.0)


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(InputError):
            RmrConfig(sigma=0.0, lam=0.1)
        with pytest.raises(InputError):
            RmrConfig(sigma=1.0, lam=-0.1)
        with pytest.raises(InputError):
            RmrConfig(sigma=1.0, lam=0.1, q=3)
        with pytest.raises(InputError):
            RmrConfig(sigma=1.0, lam=0.1, tol=0.0)

    def test_lambda_zero_allowed(self):
        assert RmrConfig(sigma=1.0, lam=0.0).lam == 0.0


class TestSerialization:
    def test_round_trip_bit_faithful(self, tmp_path):
        rng = np.random.default_rng(9)
        x = rng.random((7, 2))
        kernel = hypothesis_kernel("gaussian-rbf", bandwidth=0.37)
        cfg = RmrConfig(sigma=0.61234567890123, lam=0.0123456789012345, q=1)
        gram = kernel.cross(x, x)
        y = rng.normal(0, 0.4, 7)
        model = fit_hq(gram, y, cfg, train_inputs=x, kernel=kernel)
        path = tmp_path / "model.txt"
        save_model(path, model)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.alpha, model.alpha)
        np.testing.assert_array_equal(loaded.train_inputs, model.train_inputs)
        assert loaded.config.sigma == model.config.sigma
        assert loaded.config.lam == model.config.lam
        assert loaded.config.q == model.config.q
        probe = rng.random((4, 2))
        np.testing.assert_array_equal(predict(loaded, probe), predict(model, probe))

    def test_malformed_model_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("3 1\nkernel gaussian-rbf bandwidth=1.0\n")
        with pytest.raises(InputError):
            load_model(path)


def test_fit_data_wrapper():
    rng = np.random.default_rng(14)
    x = rng.random((6, 1))
    y = rng.normal(0, 0.3, 6)
    kernel = hypothesis_kernel("gaussian-rbf", bandwidth=0.5)
    cfg = RmrConfig(sigma=0.8, lam=0.05, q=2)
    model = fit_data(x, y, kernel, cfg)
    direct = fit_hq(gram_matrix(kernel, x), y, cfg, train_inputs=x, kernel=kernel)
    np.testing.assert_array_equal(model.alpha, direct.alpha)
    grad_model = fit_data(x, y, kernel, cfg, method="gradient")
    assert grad_model.objective_trace[-1] <= model.objective_trace[-1] + 1e-6
    with pytest.raises(InputError):
        fit_data(x, y, kernel, cfg, method="newton")


def test_objective_value_oracle_consistency():
    # the test-suite oracle and the library objective must agree exactly
    rng = np.random.default_rng(2)
    gram, y = random_instance(rng, 3)
    cfg = RmrConfig(sigma=0.5, lam=0.01, q=1)
    alpha = rng.normal(0, 1, 3)
    assert objective(alpha, gram, y, GAUSS, cfg) == pytest.approx(
        objective_value(alpha, gram, y, GAUSS, 0.5, 0.01, 1), abs=1e-14
    )


RBF = hypothesis_kernel("gaussian-rbf", bandwidth=0.5)


class TestCovariateGroups:
    def test_first_occurrence_order(self):
        x = np.array([[0.7], [0.2], [0.7], [0.9], [0.2], [0.7]])
        groups = CovariateGroups.of(x)
        np.testing.assert_array_equal(groups.first, [0, 1, 3])
        np.testing.assert_array_equal(groups.index, [0, 1, 0, 2, 1, 0])
        np.testing.assert_array_equal(groups.counts, [3.0, 2.0, 1.0])
        np.testing.assert_array_equal(groups.sums(np.arange(6.0)), [7.0, 5.0, 3.0])
        np.testing.assert_array_equal(groups.expand(np.array([3.0, 1.0, 5.0])),
                                      [1.0, 0.5, 1.0, 5.0, 0.5, 1.0])

    def test_distinct_rows_give_identity(self):
        groups = CovariateGroups.of(np.array([[0.1, 0.2], [0.1, 0.3], [0.2, 0.2]]))
        np.testing.assert_array_equal(groups.first, np.arange(3))
        np.testing.assert_array_equal(groups.index, np.arange(3))
        np.testing.assert_array_equal(groups.counts, np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_covariates_rejected(self, bad):
        x = np.array([[0.1], [bad], [0.1]])
        with pytest.raises(InputError):
            CovariateGroups.of(x)
        with pytest.raises(InputError):
            fit_data(x, np.zeros(3), RBF, RmrConfig(sigma=1.0, lam=0.1))

    def test_non_finite_targets_rejected(self):
        with pytest.raises(InputError):
            fit_data(np.array([[0.1], [0.2]]), np.array([0.0, np.nan]), RBF,
                     RmrConfig(sigma=1.0, lam=0.1))


class TestGramShapes:
    def setup_method(self):
        rng = np.random.default_rng(4)
        self.x = np.array([0.1, 0.4, 0.8])[rng.integers(0, 3, 20)].reshape(-1, 1)
        self.y = rng.normal(0, 0.5, 20)
        self.cfg = RmrConfig(sigma=0.8, lam=0.05, q=2, tol=1e-12)

    def test_sample_and_distinct_grams_agree(self):
        groups = CovariateGroups.of(self.x)
        rows = self.x[groups.first]
        small = fit_hq(RBF.cross(rows, rows), self.y, self.cfg, train_inputs=self.x, kernel=RBF)
        full = fit_hq(RBF.cross(self.x, self.x), self.y, self.cfg, train_inputs=self.x,
                      kernel=RBF)
        np.testing.assert_array_equal(small.alpha, full.alpha)
        assert small.objective_trace == full.objective_trace

    def test_other_shapes_rejected(self):
        with pytest.raises(InputError):
            fit_hq(np.eye(5), self.y, self.cfg, train_inputs=self.x)
        with pytest.raises(InputError):
            fit_hq(np.eye(3), self.y, self.cfg)

    @pytest.mark.parametrize("q", [1, 2])
    def test_uneven_warm_start_keeps_trace_monotone(self, q):
        cfg = replace(self.cfg, q=q)
        gram = RBF.cross(self.x, self.x)
        init = np.random.default_rng(5).normal(0, 0.3, 20)
        model = fit_hq(gram, self.y, cfg, init=init, train_inputs=self.x, kernel=RBF)
        trace = np.array(model.objective_trace)
        assert trace[0] == objective(init, gram, self.y, GAUSS, cfg, train_inputs=self.x)
        assert trace[0] == pytest.approx(objective(init, gram, self.y, GAUSS, cfg), rel=1e-12)
        assert np.all(np.diff(trace) >= -1e-12 * np.maximum(1.0, np.abs(trace[1:])))


@st.composite
def grouped_problems(draw, max_rows=8, max_samples=64):
    """m <= 64 samples on <= 8 distinct covariates, random y, sigma and lambda."""
    rows = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=max_rows, unique=True))
    n = len(rows)
    m = draw(st.integers(n, max_samples))
    index = np.array(
        list(range(n)) + draw(st.lists(st.integers(0, n - 1), min_size=m - n, max_size=m - n))
    )
    order = draw(st.permutations(range(m)))
    x = np.array(rows)[index[list(order)]].reshape(-1, 1)
    y = np.array(draw(st.lists(st.floats(-1.5, 1.5), min_size=m, max_size=m)))
    sigma = draw(st.floats(0.5, 2.0))
    lam = draw(st.floats(0.01, 1.0))
    return x, y, sigma, lam


PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


class TestDistinctReduction:
    @PROPERTY
    @given(grouped_problems())
    def test_q2_matches_dense_solve(self, problem):
        x, y, sigma, lam = problem
        cfg = RmrConfig(sigma=sigma, lam=lam, q=2, tol=1e-10)
        reduced = fit_data(x, y, RBF, cfg)
        dense = fit_hq(RBF.cross(x, x), y, cfg)
        scale = np.max(np.abs(dense.alpha)) + 1e-300
        np.testing.assert_allclose(reduced.alpha, dense.alpha, rtol=1e-8, atol=1e-8 * scale)
        assert len(reduced.objective_trace) == len(dense.objective_trace)
        np.testing.assert_allclose(reduced.objective_trace[1:], dense.objective_trace[1:],
                                   rtol=1e-10, atol=1e-12)

    @PROPERTY
    @given(grouped_problems())
    def test_q1_constant_per_row_and_monotone(self, problem):
        x, y, sigma, lam = problem
        cfg = RmrConfig(sigma=sigma, lam=lam, q=1, max_hq_iters=50, tol=1e-10)
        model = fit_data(x, y, RBF, cfg)
        groups = CovariateGroups.of(x)
        np.testing.assert_array_equal(model.alpha, model.alpha[groups.first][groups.index])
        trace = np.array(model.objective_trace)
        assert np.all(np.diff(trace) >= -1e-12 * np.maximum(1.0, np.abs(trace[1:])))
        dense_value = objective(model.alpha, RBF.cross(x, x), y, GAUSS, cfg)
        assert dense_value == pytest.approx(trace[-1], rel=1e-12, abs=1e-14)

    @PROPERTY
    @given(grouped_problems(), st.sampled_from(["epanechnikov", "triangular", "gaussian"]),
           st.sampled_from([1, 2]))
    def test_gradient_distinct_gram_matches_sample_gram(self, problem, kind, q):
        x, y, sigma, lam = problem
        phi = representing_function(kind)
        cfg = RmrConfig(sigma=sigma, lam=lam, q=q)
        groups = CovariateGroups.of(x)
        rows = x[groups.first]

        def fit(gram):
            # a subgradient at a kink of a compact phi can stall the line
            # search; both grams must then stall alike
            try:
                return fit_gradient(gram, y, phi, cfg, max_iters=50, train_inputs=x)
            except LineSearchFailed as exc:
                return exc

        small, full = fit(RBF.cross(rows, rows)), fit(RBF.cross(x, x))
        if isinstance(full, LineSearchFailed):
            assert isinstance(small, LineSearchFailed)
            return
        np.testing.assert_allclose(small.alpha, full.alpha, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(small.objective_trace, full.objective_trace,
                                   rtol=1e-12, atol=1e-15)

    @PROPERTY
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=24, unique=True),
           st.integers(0, 2**32 - 1), st.sampled_from([1, 2]))
    def test_all_distinct_is_bit_identical_to_sample_gram(self, rows, seed, q):
        x = np.array(rows).reshape(-1, 1)
        y = np.random.default_rng(seed).uniform(-1.5, 1.5, len(rows))
        cfg = RmrConfig(sigma=0.8, lam=0.05, q=q, max_hq_iters=50)
        model = fit_data(x, y, RBF, cfg)
        direct = fit_hq(RBF.cross(x, x), y, cfg, train_inputs=x, kernel=RBF)
        np.testing.assert_array_equal(model.alpha, direct.alpha)
        assert model.objective_trace == direct.objective_trace
