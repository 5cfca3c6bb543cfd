import numpy as np
import pytest

import modalmr.robustness as robustness
from modalmr.errors import InputError
from modalmr.harness import generate_dataset
from modalmr.kernels import HypothesisKernel, hypothesis_kernel, representing_function
from modalmr.markov import iid_chain, transition_kernel
from modalmr.risk import gaussian_noise, make_task
from modalmr.robustness import (
    breakdown_N,
    breakdown_bracket,
    contamination_experiment,
    fit_hq_multistart,
)
from modalmr.solver import (
    CovariateGroups,
    RmrConfig,
    RmrModel,
    distinct_gram,
    fit_data,
    fit_hq,
    objective,
)

GAUSS = representing_function("gaussian")


def interpolating_model(x, y, lam=0.0, sigma=1.0, q=2):
    kernel = hypothesis_kernel("gaussian-rbf", bandwidth=1.0)
    x = np.asarray(x, float).reshape(-1, 1)
    gram = kernel.cross(x, x)
    alpha = np.linalg.solve(gram.T, y)
    cfg = RmrConfig(sigma=sigma, lam=lam, q=q)
    return RmrModel(alpha, x, kernel, cfg, ()), gram


def single_state_task(scale=1e-12):
    chain = transition_kernel(np.array([[1.0]]), np.array([[0.25]]))
    return make_task(chain, gaussian_noise(scale))


class TestBreakdownN:
    def test_interpolating_fit_without_penalty(self):
        rng = np.random.default_rng(4)
        x = rng.random(6)
        y = rng.normal(0, 0.5, 6)
        model, gram = interpolating_model(x, y, lam=0.0)
        value = objective(model.alpha, gram, y, model.config)
        assert breakdown_N(value, 6, model.config) == pytest.approx(6.0, abs=1e-9)

    def test_compact_support_far_residuals(self):
        phi = representing_function("epanechnikov")
        x = np.linspace(0, 1, 5).reshape(-1, 1)
        gram = hypothesis_kernel("gaussian-rbf", bandwidth=1.0).cross(x, x)
        cfg = RmrConfig(sigma=1.0, lam=0.0, q=2, phi=phi)
        y = np.full(5, 5.0)  # residuals 5 with support [-1, 1]
        assert breakdown_N(objective(np.zeros(5), gram, y, cfg), 5, cfg) == 0.0

    def test_hand_arithmetic(self):
        # two samples, residuals (0, 1), sigma=1, lam=0.1, ||alpha||^2 = 1
        kernel = hypothesis_kernel("gaussian-rbf", bandwidth=1.0)
        x = np.array([[0.0], [1.0]])
        gram = kernel.cross(x, x)
        alpha = np.array([1.0, 0.0])
        alpha = alpha / np.linalg.norm(alpha)  # unit norm
        preds = gram.T @ alpha
        y = preds + np.array([0.0, 1.0])
        cfg = RmrConfig(sigma=1.0, lam=0.1, q=2)
        statistic = breakdown_N(objective(alpha, gram, y, cfg), 2, cfg)
        expected = (GAUSS(0.0) + GAUSS(1.0)) / GAUSS(0.0) - 0.1 * 2 * 1.0 * 1.0 / GAUSS(0.0)
        assert statistic == pytest.approx(expected, abs=1e-12)
        assert statistic == pytest.approx(1.1052, abs=1e-4)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(8)
        x = rng.random(7)
        y = rng.normal(0, 0.5, 7)
        model, gram = interpolating_model(x, y, lam=0.05)
        base = breakdown_N(objective(model.alpha, gram, y, model.config), 7, model.config)
        perm = rng.permutation(7)
        value = objective(model.alpha[perm], gram[np.ix_(perm, perm)], y[perm], model.config)
        assert breakdown_N(value, 7, model.config) == pytest.approx(base, abs=1e-10)

    def test_grouped_and_dense_objectives_agree(self):
        # the statistic of the objective over the distinct rows' gram is the
        # one over the m x m sample gram
        kernel = hypothesis_kernel("gaussian-rbf", bandwidth=1.0)
        x = np.array([[0.1], [0.6], [0.1], [0.9], [0.6], [0.1]])
        y = np.array([0.3, -0.2, 0.5, 0.1, -0.4, 0.2])
        alpha = np.array([0.4, -0.1, 0.2, 0.3, 0.0, -0.2])
        cfg = RmrConfig(sigma=0.7, lam=0.05, q=2)
        groups, gram = distinct_gram(kernel, x)
        statistic = breakdown_N(objective(alpha, gram, y, cfg, groups=groups), 6, cfg)
        dense = objective(alpha, kernel.cross(x, x), y, cfg)
        assert statistic == pytest.approx(6 * 0.7 * dense / GAUSS(0.0), rel=1e-12)


class TestBracket:
    def test_perfect_fit_fraction_half(self):
        low, high, fraction = breakdown_bracket(10.0, 10)
        assert (low, high) == (10, 10)
        assert fraction == 0.5

    def test_small_N_clamped_to_one(self):
        low, high, fraction = breakdown_bracket(0.3, 100)
        assert (low, high) == (1, 1)
        assert fraction == pytest.approx(1 / 101)

    def test_integer_boundary(self):
        low, high, fraction = breakdown_bracket(4.0, 10)
        assert (low, high) == (4, 5)
        assert fraction == pytest.approx(5 / 15)

    def test_bracket_width(self):
        for N in (0.2, 1.7, 3.0, 9.99):
            low, high, _ = breakdown_bracket(N, 12)
            assert low <= high <= low + 1

    def test_negative_N_rejected(self):
        with pytest.raises(InputError):
            breakdown_bracket(-0.5, 10)

    def test_no_samples_rejected(self):
        with pytest.raises(InputError, match="m must be at least 1"):
            breakdown_bracket(0.5, 0)


class TestPenaltyEffectOnN:
    def test_N_non_increasing_in_lambda(self):
        rng = np.random.default_rng(3)
        x = rng.random((15, 1))
        kernel = hypothesis_kernel("gaussian-rbf", bandwidth=0.5)
        y = np.sin(2 * np.pi * x[:, 0]) + rng.normal(0, 0.2, 15)
        values = []
        for lam in (0.01, 0.1, 1.0):
            cfg = RmrConfig(sigma=1.0, lam=lam, q=2, tol=1e-12)
            model = fit_data(x, y, kernel, cfg)
            values.append(breakdown_N(model.objective_trace[-1], 15, cfg))
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))


class TestContamination:
    def test_zero_outlier_rows_match_clean_norm(self):
        task = make_task(iid_chain(6), gaussian_noise(0.2))
        cfg = RmrConfig(sigma=1.0, lam=0.01, q=2, tol=1e-11)
        report = contamination_experiment(task, 12, [0], [1e2, 1e6], cfg, seed=3)
        for n, _, norm in report.contamination_curve:
            assert n == 0
            assert norm == report.clean_norm

    def test_breakdown_dichotomy_single_covariate(self):
        task = single_state_task()
        cfg = RmrConfig(sigma=1.0, lam=0.0, q=2, max_hq_iters=200, tol=1e-12)
        report = contamination_experiment(
            task, 10, [0, 5, 9, 12], [1e2, 1e6], cfg, seed=7
        )
        assert report.N == pytest.approx(10.0, abs=1e-9)
        assert report.breakdown_fraction == 0.5
        curve = {(n, mag): norm for n, mag, norm in report.contamination_curve}
        # below the bracket: magnitude growth leaves the norm alone
        for n in (5, 9):
            assert curve[(n, 1e6)] <= 10 * curve[(n, 1e2)]
        # above the bracket: the refit follows the outliers
        assert curve[(12, 1e6)] > 100 * report.clean_norm

    def test_groups_each_covariate_array_once(self, monkeypatch):
        # the clean data are grouped once and their gram built once; every
        # contaminated refit reuses both
        real = CovariateGroups.of.__func__
        calls = []

        def counted(cls, inputs):
            calls.append(len(inputs))
            return real(cls, inputs)

        cross_calls = []
        real_cross = HypothesisKernel.cross

        def counted_cross(kernel, centers, points):
            cross_calls.append(len(centers))
            return real_cross(kernel, centers, points)

        monkeypatch.setattr(CovariateGroups, "of", classmethod(counted))
        monkeypatch.setattr(HypothesisKernel, "cross", counted_cross)
        task = make_task(iid_chain(4), gaussian_noise(0.1))
        cfg = RmrConfig(sigma=1.0, lam=0.01, q=2)
        contamination_experiment(task, 12, [0, 2, 5], [100.0, 1e4], cfg, seed=2)
        assert calls == [12]
        assert len(cross_calls) == 1

    def test_refits_use_the_contaminated_data_grouping_and_gram(self, monkeypatch):
        # the reused grouping and gram are those of the contaminated covariates,
        # the clean ones with n copies of sample 0's appended
        real = robustness.fit_hq_multistart
        problems = []

        def recorded(gram, y, config, extra_inits=(), *, groups=None):
            problems.append((gram, len(y), groups))
            return real(gram, y, config, extra_inits, groups=groups)

        monkeypatch.setattr(robustness, "fit_hq_multistart", recorded)
        task = make_task(iid_chain(5), gaussian_noise(0.1))
        kernel = hypothesis_kernel("gaussian-rbf", bandwidth=0.5)
        cfg = RmrConfig(sigma=1.0, lam=0.01, q=2)
        contamination_experiment(task, 12, [0, 3], [100.0], cfg, seed=4, kernel=kernel)
        x = generate_dataset(task, 12, 4).x
        (clean_gram, clean_m, _), (gram, m, groups) = problems
        assert (clean_m, m) == (12, 15)
        xc = np.vstack([x, np.tile(x[0], (3, 1))])
        expected = CovariateGroups.of(xc)
        for got, want in zip(groups, expected):
            np.testing.assert_array_equal(got, want)
        rows = xc[expected.first]
        assert gram is clean_gram
        np.testing.assert_array_equal(gram, kernel.cross(rows, rows))

    def test_small_m_rejected(self):
        task = single_state_task()
        cfg = RmrConfig(sigma=1.0, lam=0.0, q=2)
        with pytest.raises(InputError):
            contamination_experiment(task, 5, [0], [10.0], cfg, seed=0)

    def test_negative_outlier_count_rejected(self):
        task = make_task(iid_chain(4), gaussian_noise(0.1))
        cfg = RmrConfig(sigma=1.0, lam=0.01, q=2)
        with pytest.raises(InputError, match="outlier counts must be nonnegative"):
            contamination_experiment(task, 12, [0, -1], [100.0], cfg, seed=2)

    def test_fraction_uses_reported_m(self):
        task = make_task(iid_chain(4), gaussian_noise(0.1))
        cfg = RmrConfig(sigma=1.0, lam=0.001, q=2)
        report = contamination_experiment(task, 11, [0], [100.0], cfg, seed=1)
        assert report.m == 11
        assert report.breakdown_fraction == pytest.approx(
            report.n_star_high / (11 + report.n_star_high)
        )


class TestMultistart:
    def test_better_than_zero_init_alone(self):
        # a far-off cluster the zero start ignores but the least-squares seed finds
        x = np.array([[0.5]] * 10)
        kernel = hypothesis_kernel("gaussian-rbf", bandwidth=0.5)
        gram = kernel.cross(x, x)
        y = np.full(10, 6.0)  # all mass far from zero
        cfg = RmrConfig(sigma=0.5, lam=1e-9, q=2, tol=1e-12)
        zero_fit = fit_hq(gram, y, cfg)
        multi = fit_hq_multistart(gram, y, cfg)
        assert multi.objective_trace[-1] >= zero_fit.objective_trace[-1]
        assert multi.objective_trace[-1] > zero_fit.objective_trace[-1] + 1e-4
