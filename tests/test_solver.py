import logging
import math
import os
import re
import tempfile
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import modalmr.solver
from _oracles import (
    fit_gradient_per_halving,
    grid_oracle_max,
    grid_sweep_max,
    group_rows,
    l1_coordinate_descent,
    objective_value,
    phi_derivative,
)
from modalmr.errors import InputError, NumericError
from modalmr.kernels import (
    PHI_KINDS,
    HypothesisKernel,
    hypothesis_kernel,
    representing_function,
)
from modalmr.risk import default_target, shifted_gamma_noise
from modalmr.robustness import fit_hq_multistart
from modalmr.solver import (
    CovariateGroups,
    RmrConfig,
    RmrModel,
    distinct_gram,
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
HQ_KINDS = [kind for kind in PHI_KINDS if kind != "triangular"]
COMPACT_HQ_KINDS = ["epanechnikov", "quadratic"]


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
        assert objective(np.zeros(3), gram, y, cfg) == pytest.approx(expected, abs=1e-15)

    def test_interpolating_alpha(self):
        cfg = RmrConfig(sigma=1.0, lam=0.05, q=2)
        gram = rbf_gram([0.0, 0.6])
        y = np.array([0.5, -0.2])
        alpha = np.linalg.solve(gram.T, y)
        expected = GAUSS(0.0) / 1.0 - 0.05 * float(alpha @ alpha)
        assert objective(alpha, gram, y, cfg) == pytest.approx(expected, abs=1e-12)

    def test_hand_value(self):
        cfg = RmrConfig(sigma=1.0, lam=0.1, q=2)
        gram = np.array([[1.0, 0.5], [0.5, 1.0]])
        value = objective(np.array([1.0, 0.0]), gram, np.array([1.0, 0.0]), cfg)
        expected = 0.5 * (GAUSS(0.0) + GAUSS(0.5)) - 0.1
        assert value == pytest.approx(expected, abs=1e-15)
        assert value == pytest.approx(0.27551, abs=1e-4)

    def test_dimension_mismatch(self):
        cfg = RmrConfig(sigma=1.0, lam=0.1)
        with pytest.raises(InputError):
            objective(np.zeros(3), np.eye(2), np.zeros(2), cfg)
        with pytest.raises(InputError):
            objective(np.zeros(2), np.eye(2), np.zeros(3), cfg)

    @pytest.mark.parametrize("fit", [fit_hq, fit_gradient])
    def test_no_samples_rejected(self, fit):
        with pytest.raises(InputError, match="at least one sample"):
            fit(np.zeros((0, 0)), np.zeros(0), RmrConfig(sigma=1.0, lam=0.1))


class TestGridOracle:
    @settings(max_examples=30)
    @given(points=arrays(float, 3, elements=st.floats(0.0, 1.0)),
           y=arrays(float, 3, elements=st.floats(-1.5, 1.5)),
           bandwidth=st.sampled_from([0.3, 1.0]), sigma=st.sampled_from([0.5, 1.0]),
           lam=st.sampled_from([0.01, 0.1]), q=st.sampled_from([1, 2]),
           step=st.sampled_from([0.1, 0.15]), kind=st.sampled_from(["gaussian", *COMPACT_HQ_KINDS]))
    def test_branch_and_bound_matches_sweep(self, points, y, bandwidth, sigma, lam, q, step, kind):
        # the m=3 oracle prunes boxes by a bound; on a grid coarse enough to
        # sweep, it must find the sweep's maximum
        gram = rbf_gram(points, bandwidth)
        phi = representing_function(kind)
        got = grid_oracle_max(gram, y, phi, sigma, lam, q, step=step)
        assert got == pytest.approx(grid_sweep_max(gram, y, phi, sigma, lam, q, step=step),
                                    rel=0, abs=1e-12)


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

    def test_triangular_phi_rejected(self):
        # g(t) = 1 - sqrt(t) has no finite weight at t = 0
        cfg = RmrConfig(sigma=1.0, lam=0.1, phi=representing_function("triangular"))
        with pytest.raises(InputError, match="'triangular'.*fit --method gradient"):
            fit_hq(np.eye(2), np.zeros(2), cfg)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from([("gaussian", (1.0 / math.sqrt(2.0 * math.pi), 1.0)),
                            ("correntropy", (1.0, 0.5))]),
           st.integers(1, 12), st.floats(0.1, 100.0), st.floats(1e-6, 100.0),
           st.integers(0, 2**32 - 1), st.sampled_from([1, 2]))
    def test_gaussian_kinds_keep_the_old_weights_and_constants(self, kind_pair, m, sigma, lam,
                                                              seed, q):
        # phi(u) = coeff exp(-u^2 / (2 a^2)): the Gaussian-only solver weighted
        # residuals by exp(-r^2 / (2 a^2 sigma^2)) and used
        # kappa = 2 a^2 lam m sigma^3 / coeff and tau = coeff / (a^2 m sigma^3);
        # the first step must see those values bit for bit
        kind, (coeff, a_sq) = kind_pair
        gram, y = random_instance(np.random.default_rng(seed), m)
        cfg = RmrConfig(sigma=sigma, lam=lam, q=q, phi=representing_function(kind),
                        max_hq_iters=1)
        # the inner solve sees the per-row sums of the weights, which with one
        # sample per row are the weights themselves; q=1 scales them by tau
        inner = "_solve_weighted_ridge" if q == 2 else "_l1_active_set"
        with mock.patch.object(modalmr.solver, inner,
                               wraps=getattr(modalmr.solver, inner)) as solve:
            fit_hq(gram, y, cfg)
        weights = np.exp(-(y * y) / (2.0 * a_sq * sigma * sigma))
        if q == 2:
            kappa = solve.call_args.args[3]
            assert kappa.tobytes() == np.full(m, 2.0 * a_sq * lam * m * sigma**3 / coeff).tobytes()
        else:
            weights = coeff / (a_sq * m * sigma**3) * weights
        assert solve.call_args.args[1].tobytes() == weights.tobytes()
        assert solve.call_args.args[2].tobytes() == (weights * y).tobytes()

    @pytest.mark.parametrize("kind", COMPACT_HQ_KINDS)
    def test_compact_phi_multistart_matches_grid_oracle(self, kind):
        # the m <= 3 instances of acceptance criterion 5 (test_05), for the
        # compact kinds
        rng = np.random.default_rng(555)
        phi = representing_function(kind)
        for index, m in enumerate([1] * 20 + [2] * 22 + [3] * 8):
            gram = rbf_gram(rng.random(m))
            y = rng.uniform(-1.5, 1.5, m)
            sigma = float(rng.choice([0.5, 1.0]))
            lam = float(rng.choice([0.01, 0.1]))
            q = int(rng.choice([1, 2]))
            cfg = RmrConfig(sigma=sigma, lam=lam, q=q, phi=phi, max_hq_iters=300, tol=1e-13)
            model = fit_hq_multistart(gram, y, cfg)
            oracle = grid_oracle_max(gram, y, phi, sigma, lam, q)
            assert model.objective_trace[-1] >= oracle - 1e-3, f"instance {index}"

    def test_singular_system_signalled(self):
        # enormous target underflows every weight; with lam = 0 there is no ridge
        cfg = RmrConfig(sigma=1.0, lam=0.0, q=2)
        with pytest.raises(NumericError, match="weighted system singular with zero trace"):
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
            norms.append(float(np.sum(np.abs(model.alpha) ** q)))
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


@pytest.mark.parametrize("seed", [0, 1])
def test_compact_hq_beats_the_capped_gradient_fit(seed):
    # the fit_predict benchmark's data (384 distinct uniform covariates,
    # shifted-gamma noise with its mode at zero) and solver settings: the
    # epanechnikov q=2 HQ fit ends above the 2000-iteration gradient fit
    from modalmr.risk import default_target, shifted_gamma_noise

    rng = np.random.default_rng([seed, 7])
    x = rng.uniform(0.0, 1.0, size=(384, 1))
    y = np.array([default_target(v) for v in x]) + shifted_gamma_noise(2.0, 0.1).sample(rng, 384)
    cfg = RmrConfig(sigma=0.8, lam=1e-4, q=2, phi=representing_function("epanechnikov"))
    hq = fit_data(x, y, RBF, cfg)
    gradient = fit_data(x, y, RBF, replace(cfg, tol=1e-12), method="gradient")
    assert len(hq.objective_trace) <= 5
    assert hq.objective_trace[-1] > gradient.objective_trace[-1]


class TestZeroWeights:
    """Every residual outside a compact phi's window: every weight is zero."""

    gram = rbf_gram([0.1, 0.5, 0.9])
    y = np.array([5.0, -6.0, 7.0])
    init = np.array([0.1, -0.2, 0.1])

    @pytest.mark.parametrize("kind", COMPACT_HQ_KINDS)
    @pytest.mark.parametrize("q", [1, 2])
    def test_positive_lambda_steps_to_zero(self, monkeypatch, kind, q):
        def no_inner_solve(*args):
            pytest.fail("an all-zero-weight step ran an inner solve")

        for inner in ("_solve_weighted_ridge", "_l1_active_set"):
            monkeypatch.setattr(modalmr.solver, inner, no_inner_solve)
        cfg = RmrConfig(sigma=0.5, lam=0.1, q=q, phi=representing_function(kind))
        model = fit_hq(self.gram, self.y, cfg, init=self.init)
        np.testing.assert_array_equal(model.alpha, np.zeros(3))
        assert model.objective_trace[1:] == (0.0, 0.0)
        assert model.objective_trace[0] < 0.0

    @pytest.mark.parametrize("kind", COMPACT_HQ_KINDS)
    @pytest.mark.parametrize("q", [1, 2])
    def test_zero_lambda_stops_by_its_reason(self, caplog, kind, q):
        caplog.set_level(logging.INFO, logger="modalmr.solver")
        cfg = RmrConfig(sigma=0.5, lam=0.0, q=q, phi=representing_function(kind))
        model = fit_hq(self.gram, self.y, cfg, init=self.init)
        np.testing.assert_array_equal(model.alpha, self.init)
        assert model.objective_trace == (0.0,)
        (line,) = [r.getMessage() for r in caplog.records if r.name == "modalmr.solver"]
        assert line.endswith("0 iterations, stopped by all weights zero")


class TestFitGradient:
    def test_matches_hq_on_gaussian_phi(self):
        rng = np.random.default_rng(7)
        for q in (1, 2):
            gram, y = random_instance(rng, 6)
            cfg = RmrConfig(sigma=0.7, lam=0.05, q=q, tol=1e-12)
            hq = fit_hq(gram, y, cfg)
            grad = fit_gradient(gram, y, replace(cfg, phi=GAUSS), max_iters=20000)
            assert grad.objective_trace[-1] == pytest.approx(
                hq.objective_trace[-1], abs=1e-4
            )

    def test_epanechnikov_zero_targets(self):
        phi = representing_function("epanechnikov")
        gram = rbf_gram([0.3, 0.6])
        model = fit_gradient(gram, np.zeros(2), RmrConfig(sigma=1.0, lam=0.1, q=2, phi=phi))
        np.testing.assert_allclose(model.alpha, np.zeros(2), atol=1e-12)

    def test_epanechnikov_two_point_oracle(self):
        phi = representing_function("epanechnikov")
        gram = np.array([[1.0, 0.6], [0.6, 1.0]])
        y = np.array([0.8, -0.4])
        cfg = RmrConfig(sigma=1.0, lam=0.01, q=2, tol=1e-13)
        model = fit_gradient(gram, y, replace(cfg, phi=phi), max_iters=20000)
        oracle = grid_oracle_max(gram, y, phi, 1.0, 0.01, 2)
        assert model.objective_trace[-1] >= oracle - 1e-2

    def test_trace_monotone(self):
        phi = representing_function("triangular")
        rng = np.random.default_rng(21)
        gram, y = random_instance(rng, 5)
        model = fit_gradient(gram, y, RmrConfig(sigma=0.8, lam=0.02, q=1, phi=phi))
        trace = np.array(model.objective_trace)
        assert np.all(np.diff(trace) >= -1e-12)

    def test_gradient_matches_finite_differences(self):
        # one iteration from alpha takes alpha + s * grad for one of its
        # line-search steps s = 4 * 2^-k, so some s brings the move to the
        # central differences of the objective in every coordinate
        rng = np.random.default_rng(3)
        gram, y = random_instance(rng, 5)
        cfg = RmrConfig(sigma=0.9, lam=0.07, q=2)
        h = 1e-6
        steps = 4.0 * 0.5 ** np.arange(51)
        for _ in range(20):
            alpha = rng.normal(0, 0.5, 5)
            moved = fit_gradient(gram, y, cfg, init=alpha, max_iters=1).alpha - alpha
            fd = np.array([
                (objective(alpha + e, gram, y, cfg) - objective(alpha - e, gram, y, cfg)) / (2 * h)
                for e in h * np.eye(5)
            ])
            errors = np.abs(moved / steps[:, None] - fd) / np.maximum(1.0, np.abs(fd))
            assert errors.max(axis=1).min() < 1e-5


def assert_per_sample_sum(values, alpha, cross):
    """values equal alpha @ cross within 1e-12 of the sum's magnitude
    |alpha| @ cross, the scale of its rounding."""
    np.testing.assert_array_less(np.abs(values - alpha @ cross),
                                 1e-12 * (np.abs(alpha) @ cross) + 1e-300)


def fit_data_and_fit(x, y, kernel, cfg, method="hq"):
    """(model, fit): fit_data's model and the gram-level fit it was made
    from, whose alpha is per sample."""
    name = "fit_hq" if method == "hq" else "fit_gradient"
    real, fits = getattr(modalmr.solver, name), []

    def record(*args, **kwargs):
        fits.append(real(*args, **kwargs))
        return fits[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modalmr.solver, name, record)
        model = fit_data(x, y, kernel, cfg, method=method)
    (fit,) = fits
    return model, fit


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
        # a 1-D input longer than d = 1 is one point per entry, as fit_data reads it
        np.testing.assert_array_equal(predict(model, [0.0, 1.0]), values)
        fitted = fit_data(np.linspace(0.0, 1.0, 10), np.linspace(-1.0, 1.0, 10),
                          hypothesis_kernel("gaussian-rbf"), RmrConfig(sigma=1.0, lam=0.1))
        np.testing.assert_array_equal(predict(fitted, [0.1, 0.2]),
                                      predict(fitted, [[0.1], [0.2]]))
        assert predict(fitted, 0.1) == predict(fitted, [0.1]) == predict(fitted, [[0.1]])[0]

    def test_reproduces_fitted_values_in_five_dimensions(self):
        # predict's cross gram comes from two different arrays, so K(x, x) is
        # 1 only if a point equal to a centre gets distance 0, not the rounding
        # residue of |x|^2 + |x|^2 - 2 x.x that a bandwidth of 1e-3 magnifies
        rng = np.random.default_rng(6)
        x = rng.uniform(0.0, 100.0, (50, 5))
        kernel = hypothesis_kernel("gaussian-rbf", bandwidth=1e-3)
        model = fit_data(x, rng.standard_normal(50), kernel, RmrConfig(sigma=1.0, lam=0.1))
        groups, gram = distinct_gram(kernel, x)
        fitted = gram.T @ groups.sums(model.alpha)
        np.testing.assert_allclose(predict(model, x), fitted, rtol=1e-12, atol=0)

    def test_dimension_mismatch(self):
        model = self.kernel_and_model([1.0], [[0.0, 0.0]])
        for point in ([0.5], [[0.5, 0.5, 0.5]]):
            with pytest.raises(InputError, match="covariate dimension mismatch"):
                predict(model, point)

    @pytest.mark.parametrize("use", [
        lambda model, tmp_path: predict(model, [0.5]),
        lambda model, tmp_path: save_model(tmp_path / "model.txt", model),
    ], ids=["predict", "save_model"])
    def test_gram_level_model_rejected(self, use, tmp_path):
        # a fit from a gram carries no inputs or kernel to evaluate
        model = fit_hq(np.ones((1, 1)), [0.3], RmrConfig(sigma=1.0, lam=0.1))
        with pytest.raises(InputError, match="training inputs"):
            use(model, tmp_path)

    def test_kernel_evaluated_at_distinct_rows_only(self, monkeypatch):
        # 10^4 samples on 4 covariate rows: predict sums the coefficients per
        # row and evaluates the kernel at the 4 rows, not at every sample
        x = np.array([0.1, 0.4, 0.6, 0.9])[np.random.default_rng(0).integers(0, 4, 10_000)]
        model = fit_data(x, np.sin(6.0 * x), RBF, RmrConfig(sigma=0.5, lam=1e-3))
        centres = []
        cross = HypothesisKernel.cross

        def spy(kernel, c, points):
            centres.append(len(c))
            return cross(kernel, c, points)

        monkeypatch.setattr(HypothesisKernel, "cross", spy)
        points = np.linspace(0.0, 1.0, 5)
        values = predict(model, points)
        assert centres == [4] and model.m == 4
        assert_per_sample_sum(values, CovariateGroups.of(x).expand(model.alpha),
                              RBF.cross(x, points))

    def test_models_compare_by_identity(self):
        # a generated __eq__ would compare the alpha arrays, which have no
        # single truth value
        x = np.array([0.7, 0.2, 0.9])
        model = fit_data(x, np.sin(6.0 * x), RBF, RmrConfig(sigma=0.5, lam=1e-3))
        twin = RmrModel(model.alpha, model.train_inputs, model.kernel, model.config,
                        model.objective_trace)
        assert (model == twin) is False
        assert (model == model) is True
        assert len({model, twin, model}) == 2

    def test_non_finite_training_input_rejected(self):
        with pytest.raises(InputError, match="covariates must be finite"):
            self.kernel_and_model([1.0, -1.0], [[0.0], [math.nan]])

    def test_model_freezes_its_own_copies(self):
        # the model's arrays are read-only; the caller's stay writeable
        alpha, inputs = np.array([1.0, -1.0]), np.array([[0.0], [1.0]])
        model = self.kernel_and_model(alpha, inputs)
        assert not model.alpha.flags.writeable and not model.train_inputs.flags.writeable
        assert alpha.flags.writeable and inputs.flags.writeable

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
        with pytest.raises(InputError, match="max_hq_iters"):
            RmrConfig(sigma=1.0, lam=0.1, max_hq_iters=0)

    @pytest.mark.parametrize("field", ["sigma", "lam", "tol"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_values(self, field, bad):
        with pytest.raises(InputError, match="finite"):
            RmrConfig(**{"sigma": 1.0, "lam": 0.1, field: bad})

    @pytest.mark.parametrize("sigma", [1e-120, 2.8e-103, 5.7e102, 1e200])
    def test_sigma_cube_must_be_a_normal_float(self, sigma):
        # the fits divide by sigma**3: 0, subnormal or overflowing outside
        # about [2.81e-103, 5.64e102]
        with pytest.raises(InputError, match="finite, with a cube that is a normal float"):
            RmrConfig(sigma=sigma, lam=0.1)

    def test_lambda_zero_allowed(self):
        assert RmrConfig(sigma=1.0, lam=0.0).lam == 0.0


class TestSerialization:
    def test_round_trip_bit_faithful(self, tmp_path):
        rng = np.random.default_rng(9)
        x = rng.random((7, 2))
        kernel = hypothesis_kernel("gaussian-rbf", bandwidth=0.37)
        cfg = RmrConfig(sigma=0.61234567890123, lam=0.0123456789012345, q=1)
        y = rng.normal(0, 0.4, 7)
        model = fit_data(x, y, kernel, cfg)
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

    # the line of a one-sample model file that holds each value
    @pytest.mark.parametrize("name, line", [("kernel parameters", 1), ("sigma", 3),
                                            ("lambda", 4), ("alpha", 7), ("inputs", 9)])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_model_rejected(self, tmp_path, name, line, bad):
        kernel = hypothesis_kernel("gaussian-rbf", bandwidth=0.5)
        model = fit_data([[0.2]], [0.3], kernel, RmrConfig(sigma=1.0, lam=0.1))
        path = tmp_path / "model.txt"
        save_model(path, model)
        lines = path.read_text().splitlines()
        lines[line] = re.sub(r"[-+0-9.e]+$", bad, lines[line])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InputError, match=f"non-finite {name}"):
            load_model(path)

    def test_rows_after_the_inputs_rejected(self, tmp_path):
        kernel = hypothesis_kernel("gaussian-rbf", bandwidth=0.5)
        model = fit_data([[0.2]], [0.3], kernel, RmrConfig(sigma=1.0, lam=0.1))
        path = tmp_path / "model.txt"
        save_model(path, model)
        path.write_text(path.read_text() + "\n0.7\n")
        with pytest.raises(InputError, match="after the inputs"):
            load_model(path)
        path.write_text(path.read_text().replace("\n0.7\n", "\n \n"))
        assert load_model(path).m == 1

    def test_malformed_model_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("3 1\nkernel gaussian-rbf bandwidth=1.0\n")
        with pytest.raises(InputError):
            load_model(path)


class TestFitLogging:
    """Each fit logs one info line saying how it stopped; CG and active-set
    inner solves that stop at their cap are reported as a warning."""

    @staticmethod
    def _messages(caplog, level):
        return [r.getMessage() for r in caplog.records
                if r.name == "modalmr.solver" and r.levelno == level]

    def test_hq_info_line_reports_cap_and_tolerance(self, caplog):
        caplog.set_level(logging.INFO, logger="modalmr.solver")
        gram, y = random_instance(np.random.default_rng(3), 12)
        fit_hq(gram, y, RmrConfig(sigma=0.7, lam=1e-3, max_hq_iters=2, tol=1e-300))
        fit_hq(gram, y, RmrConfig(sigma=0.7, lam=1e-3, q=1, max_hq_iters=500, tol=1e-3))
        capped, converged = self._messages(caplog, logging.INFO)
        assert capped.startswith("hq fit (q=2, direct inner solve, 12 distinct of 12 samples)")
        assert capped.endswith("2 iterations, stopped by max_hq_iters")
        assert "q=1, active-set inner solve" in converged
        assert converged.endswith("stopped by tol")

    def test_gradient_info_line_reports_cap(self, caplog):
        caplog.set_level(logging.INFO, logger="modalmr.solver")
        gram, y = random_instance(np.random.default_rng(4), 10)
        fit_gradient(gram, y, RmrConfig(sigma=0.7, lam=1e-3, tol=1e-300, phi=GAUSS), max_iters=3)
        (line,) = self._messages(caplog, logging.INFO)
        assert line.startswith("gradient fit (q=2, phi=gaussian, 10 distinct of 10 samples)")
        assert line.endswith("3 iterations, stopped by max_iters")

    def test_cg_stopping_at_its_cap_is_a_warning(self, caplog):
        # 650 distinct 5-d points under a laplacian kernel and a tiny ridge:
        # CG cannot reach its 1e-12 tolerance in its 200 iterations
        rng = np.random.default_rng(0)
        x = rng.uniform(size=(650, 5))
        y = np.sin(6.0 * x[:, 0]) + 0.1 * rng.standard_normal(650)
        kernel = hypothesis_kernel("laplacian", bandwidth=1.0)
        caplog.set_level(logging.INFO, logger="modalmr.solver")
        fit_data(x, y, kernel, RmrConfig(sigma=0.1, lam=1e-10, max_hq_iters=2))
        (warning,) = self._messages(caplog, logging.WARNING)
        assert warning.startswith("hq fit: 2 of 2 conjugate-gradient inner solves stopped")
        (info,) = self._messages(caplog, logging.INFO)
        assert "CG inner solve" in info

    def test_capped_active_set_steps_are_a_warning(self, caplog, monkeypatch):
        monkeypatch.setattr(modalmr.solver, "_ACTIVE_SET_STEPS", 1)
        gram, y = random_instance(np.random.default_rng(3), 12)
        caplog.set_level(logging.INFO, logger="modalmr.solver")
        fit_hq(gram, y, RmrConfig(sigma=0.7, lam=1e-3, q=1, max_hq_iters=3))
        (warning,) = self._messages(caplog, logging.WARNING)
        assert re.fullmatch(r"hq fit: [1-3] of 3 active-set inner solves stopped at their "
                            r"iteration cap before reaching their tolerance", warning)

    def test_jitter_is_a_warning(self, caplog):
        # a rank-one gram and no ridge: LU meets an exact zero pivot
        caplog.set_level(logging.INFO, logger="modalmr.solver")
        beta = modalmr.solver._solve_ridge_direct(np.ones((2, 2)), np.ones(2), np.zeros(2),
                                                  np.ones(2))
        assert np.all(np.isfinite(beta))
        (warning,) = self._messages(caplog, logging.WARNING)
        assert warning == "singular weighted system: retrying with 2e-10 added to its diagonal"

    def test_converged_cg_is_silent(self, caplog):
        rng = np.random.default_rng(1)
        x = rng.uniform(size=(601, 1))
        y = np.sin(6.0 * x[:, 0])
        fit_data(x, y, RBF, RmrConfig(sigma=1.0, lam=0.1, max_hq_iters=2))
        assert self._messages(caplog, logging.WARNING) == []


def test_fit_data_wrapper():
    rng = np.random.default_rng(14)
    x = rng.random((6, 1))
    y = rng.normal(0, 0.3, 6)
    kernel = hypothesis_kernel("gaussian-rbf", bandwidth=0.5)
    cfg = RmrConfig(sigma=0.8, lam=0.05, q=2)
    model = fit_data(x, y, kernel, cfg)
    direct = fit_hq(kernel.cross(x, x), y, cfg)
    np.testing.assert_array_equal(model.alpha, direct.alpha)
    assert model.objective_trace == direct.objective_trace
    # only fit_data's model carries the inputs and kernel that predict
    np.testing.assert_array_equal(model.train_inputs, x)
    assert model.kernel is kernel
    assert direct.train_inputs is None and direct.kernel is None
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
    assert objective(alpha, gram, y, cfg) == pytest.approx(
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

    @settings(max_examples=150)
    @given(shape=st.tuples(st.integers(1, 40), st.integers(1, 3)), data=st.data())
    def test_grouping_matches_row_records(self, shape, data):
        # one column takes a plain sort and more take np.unique(axis=0); both
        # must group ties and +-0.0 alike, in first-occurrence order
        x = data.draw(arrays(float, shape, elements=st.sampled_from(
            [0.0, -0.0, 0.25, -0.25, 1.0, 5e-324, -5e-324, 0.1 + 0.2, 0.3])))
        groups = CovariateGroups.of(x)
        first, index, counts = group_rows(x)
        np.testing.assert_array_equal(groups.first, first)
        np.testing.assert_array_equal(groups.index, index)
        np.testing.assert_array_equal(groups.counts, counts)

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

    @pytest.mark.parametrize("method", ["hq", "gradient"])
    def test_non_finite_init_rejected(self, method):
        # an InputError, which the CLI reports with exit code 1; a NaN start
        # would otherwise give a NaN model without an error
        fit = fit_hq if method == "hq" else fit_gradient
        x = np.array([[0.1], [0.2]])
        with pytest.raises(InputError, match="coefficients must be finite"):
            fit(RBF.cross(x, x), np.zeros(2), RmrConfig(sigma=1.0, lam=0.1),
                init=np.array([0.0, np.nan]))

    @pytest.mark.parametrize("solve", [fit_hq, fit_gradient, objective],
                             ids=["fit_hq", "fit_gradient", "objective"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gram_rejected(self, solve, bad):
        # a gram-level caller gets an InputError, not a NaN fit or value
        gram = np.array([[1.0, bad], [bad, 1.0]])
        args = (gram, np.zeros(2), RmrConfig(sigma=1.0, lam=0.1))
        with pytest.raises(InputError, match="gram must be finite"):
            solve(np.zeros(2), *args) if solve is objective else solve(*args)

    @pytest.mark.parametrize("method", ["hq", "gradient"])
    def test_fit_data_groups_once(self, monkeypatch, method):
        # the grouping distinct_gram builds is the one the fit uses
        real = CovariateGroups.of.__func__
        calls = []

        def counted(cls, inputs):
            calls.append(1)
            return real(cls, inputs)

        monkeypatch.setattr(CovariateGroups, "of", classmethod(counted))
        x = np.array([[0.7], [0.2], [0.7], [0.9], [0.2]])
        y = np.array([0.3, -0.1, 0.4, 0.8, 0.0])
        cfg = RmrConfig(sigma=1.0, lam=0.1, max_hq_iters=5)
        model = fit_data(x, y, RBF, cfg, method=method)
        assert len(calls) == 1
        groups = CovariateGroups.of(x)
        rows = x[groups.first]
        fit = fit_hq if method == "hq" else fit_gradient
        direct = fit(RBF.cross(rows, rows), y, cfg, groups=groups)
        assert model.alpha.tobytes() == groups.sums(direct.alpha).tobytes()
        assert model.train_inputs.tobytes() == rows.tobytes()
        assert model.objective_trace == direct.objective_trace

    def test_fit_data_length_mismatch_rejected(self):
        with pytest.raises(InputError, match="3 training inputs for 2 targets"):
            fit_data(np.array([[0.1], [0.2], [0.1]]), np.zeros(2), RBF,
                     RmrConfig(sigma=1.0, lam=0.1))


class TestGramShapes:
    def setup_method(self):
        rng = np.random.default_rng(4)
        self.x = np.array([0.1, 0.4, 0.8])[rng.integers(0, 3, 20)].reshape(-1, 1)
        self.y = rng.normal(0, 0.5, 20)
        self.cfg = RmrConfig(sigma=0.8, lam=0.05, q=2, tol=1e-12)

    def test_other_shapes_rejected(self):
        # the gram covers the rows of groups: n x n with them, m x m without
        groups, gram = distinct_gram(RBF, self.x)
        for bad, bad_groups in ((np.eye(5), None), (np.eye(3), None), (np.eye(5), groups),
                                (RBF.cross(self.x, self.x), groups)):
            with pytest.raises(InputError, match="gram must be"):
                fit_hq(bad, self.y, self.cfg, groups=bad_groups)
            with pytest.raises(InputError, match="gram must be"):
                objective(np.zeros(20), bad, self.y, self.cfg, groups=bad_groups)
        with pytest.raises(InputError, match="gram must be 3x3"):
            fit_gradient(RBF.cross(self.x, self.x), self.y, self.cfg, groups=groups)
        with pytest.raises(InputError, match="gram must be 3x3"):
            fit_hq_multistart(RBF.cross(self.x, self.x), self.y, self.cfg, groups=groups)
        fit_hq(gram, self.y, self.cfg, groups=groups)

    @pytest.mark.parametrize("q", [1, 2])
    def test_uneven_warm_start_keeps_trace_monotone(self, q):
        cfg = replace(self.cfg, q=q)
        groups, gram = distinct_gram(RBF, self.x)
        init = np.random.default_rng(5).normal(0, 0.3, 20)
        model = fit_hq(gram, self.y, cfg, init=init, groups=groups)
        trace = np.array(model.objective_trace)
        assert trace[0] == objective(init, gram, self.y, cfg, groups=groups)
        dense = RBF.cross(self.x, self.x)
        assert trace[0] == pytest.approx(objective(init, dense, self.y, cfg), rel=1e-12)
        assert np.all(np.diff(trace) >= -1e-12 * np.maximum(1.0, np.abs(trace[1:])))


@st.composite
def grouped_problems(draw, max_rows=8, max_samples=64, lams=st.floats(0.01, 1.0)):
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
    lam = draw(lams)
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
        np.testing.assert_allclose(CovariateGroups.of(x).expand(reduced.alpha), dense.alpha,
                                   rtol=1e-8, atol=1e-8 * scale)
        assert len(reduced.objective_trace) == len(dense.objective_trace)
        np.testing.assert_allclose(reduced.objective_trace[1:], dense.objective_trace[1:],
                                   rtol=1e-10, atol=1e-12)

    @PROPERTY
    @given(grouped_problems())
    def test_q1_constant_per_row_and_monotone(self, problem):
        x, y, sigma, lam = problem
        cfg = RmrConfig(sigma=sigma, lam=lam, q=1, max_hq_iters=50, tol=1e-10)
        model, fit = fit_data_and_fit(x, y, RBF, cfg)
        groups = CovariateGroups.of(x)
        np.testing.assert_array_equal(fit.alpha, fit.alpha[groups.first][groups.index])
        assert model.alpha.tobytes() == groups.sums(fit.alpha).tobytes()
        trace = np.array(model.objective_trace)
        assert np.all(np.diff(trace) >= -1e-12 * np.maximum(1.0, np.abs(trace[1:])))
        dense_value = objective(fit.alpha, RBF.cross(x, x), y, cfg)
        assert dense_value == pytest.approx(trace[-1], rel=1e-12, abs=1e-14)

    @PROPERTY
    @given(grouped_problems(), st.sampled_from(HQ_KINDS), st.sampled_from([1, 2]))
    def test_hq_trace_is_the_objective_of_the_returned_alpha(self, problem, kind, q):
        # a step's value takes its penalty from the row sums and counts; it
        # is the per-sample penalty of the alpha the fit returns
        x, y, sigma, lam = problem
        cfg = RmrConfig(sigma=sigma, lam=lam, q=q, phi=representing_function(kind),
                        max_hq_iters=50)
        groups, gram = distinct_gram(RBF, x)
        model = fit_hq(gram, y, cfg, groups=groups)
        value = objective(model.alpha, gram, y, cfg, groups=groups)
        assert model.objective_trace[-1] == pytest.approx(value, rel=1e-13, abs=0.0)

    @PROPERTY
    @given(grouped_problems(), st.sampled_from(["epanechnikov", "triangular", "gaussian"]),
           st.sampled_from([1, 2]))
    def test_gradient_distinct_gram_matches_sample_gram(self, problem, kind, q):
        x, y, sigma, lam = problem
        phi = representing_function(kind)
        cfg = RmrConfig(sigma=sigma, lam=lam, q=q)
        groups, gram = distinct_gram(RBF, x)

        def fit(gram, groups=None):
            return fit_gradient(gram, y, replace(cfg, phi=phi), max_iters=50, groups=groups)

        small, full = fit(gram, groups), fit(RBF.cross(x, x))
        np.testing.assert_allclose(small.alpha, full.alpha, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(small.objective_trace, full.objective_trace,
                                   rtol=1e-12, atol=1e-15)

    @PROPERTY
    @given(grouped_problems())
    def test_predict_matches_per_sample_sum(self, problem):
        # per-row sums of a fit's alpha, and of arbitrary coefficients a model
        # file may hold, give sum_i alpha_i K(x_i, .) up to rounding
        x, y, sigma, lam = problem
        fitted = fit_data(x, y, RBF, RmrConfig(sigma=sigma, lam=lam))
        points = np.concatenate([x[:, 0], np.linspace(-0.5, 1.5, 9)])
        for model, alpha in ((fitted, CovariateGroups.of(x).expand(fitted.alpha)),
                             (RmrModel(y, x, RBF, fitted.config, ()), y)):
            assert_per_sample_sum(predict(model, points), alpha, RBF.cross(x, points))

    @PROPERTY
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=24, unique=True),
           st.integers(0, 2**32 - 1), st.sampled_from([1, 2]))
    def test_all_distinct_is_bit_identical_to_sample_gram(self, rows, seed, q):
        x = np.array(rows).reshape(-1, 1)
        y = np.random.default_rng(seed).uniform(-1.5, 1.5, len(rows))
        cfg = RmrConfig(sigma=0.8, lam=0.05, q=q, max_hq_iters=50)
        model = fit_data(x, y, RBF, cfg)
        direct = fit_hq(RBF.cross(x, x), y, cfg)
        np.testing.assert_array_equal(model.alpha, direct.alpha)
        assert model.objective_trace == direct.objective_trace
        np.testing.assert_array_equal(predict(model, x), RBF.cross(x, x).T @ model.alpha)


class TestExpansionModel:
    """A fit_data model is the expansion the fit produced: its centres are the
    distinct covariate rows, or the pivots of a gram factor."""

    @PROPERTY
    @given(grouped_problems(), st.sampled_from([1, 2]))
    def test_centres_are_the_distinct_rows(self, problem, q):
        x, y, sigma, lam = problem
        model, fit = fit_data_and_fit(x, y, RBF, RmrConfig(sigma=sigma, lam=lam, q=q,
                                                           max_hq_iters=50))
        groups = CovariateGroups.of(x)
        assert model.m == groups.n
        assert model.train_inputs.tobytes() == x[groups.first].tobytes()
        points = np.concatenate([x[:, 0], np.linspace(-0.5, 1.5, 9)])
        values = predict(model, points)
        assert_per_sample_sum(values, fit.alpha, RBF.cross(x, points))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.txt")
            save_model(path, model)
            with open(path, encoding="utf-8") as fh:
                assert fh.readline() == f"{groups.n} 1\n"
            loaded = load_model(path)
        assert predict(loaded, points).tobytes() == values.tobytes()

    @PROPERTY
    @given(st.lists(st.floats(0.0, 1.0), min_size=20, max_size=40, unique=True),
           st.integers(0, 2**32 - 1), st.sampled_from(["gaussian-rbf", "polynomial"]))
    def test_factor_fit_is_the_expansion_on_its_pivots(self, rows, seed, kind):
        # with the rank cap raised to 0.99 n these fits run on the factor;
        # in-sample the model gives L L^T alpha of the fit on it
        x = np.array(rows).reshape(-1, 1)
        y = np.random.default_rng(seed).uniform(-1.5, 1.5, len(rows))
        kernel = RBF if kind == "gaussian-rbf" else hypothesis_kernel(kind)
        cfg = RmrConfig(sigma=0.8, lam=1e-3, q=2, tol=1e-6)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(modalmr.solver, "_FACTOR_RANK_SHARE", 0.99)
            model, fit = fit_data_and_fit(x, y, kernel, cfg, method="gradient")
        factor, pivots = kernel.factor(x, int(0.99 * len(rows)))
        assert model.m == factor.shape[1] < len(rows)
        assert model.train_inputs.tobytes() == x[pivots].tobytes()
        on_factor = factor @ (factor.T @ fit.alpha)
        np.testing.assert_allclose(predict(model, x), on_factor, rtol=0,
                                   atol=1e-13 * np.max(np.abs(on_factor)))

    def test_predict_save_and_load_group_nothing(self, monkeypatch, tmp_path):
        # an old model file may repeat a row; its model predicts
        # sum_i alpha_i K(x_i, .) over every row, as a fitted one does
        x = np.array([0.7, 0.2, 0.7, 0.9, 0.2, 0.7])
        fitted = fit_data(x, np.sin(6.0 * x), RBF, RmrConfig(sigma=0.5, lam=1e-3))
        old = RmrModel(np.arange(6.0), x, RBF, fitted.config, ())

        def grouped(*args, **kwargs):
            pytest.fail("a CovariateGroups method was called")

        for name in ("of", "_from", "sums", "spread", "expand"):
            monkeypatch.setattr(CovariateGroups, name, grouped)
        points = np.linspace(0.0, 1.0, 7)
        for model in (fitted, old):
            save_model(tmp_path / "model.txt", model)
            loaded = load_model(tmp_path / "model.txt")
            assert loaded.m == model.m
            assert predict(loaded, points).tobytes() == predict(model, points).tobytes()
        assert (fitted.m, old.m) == (3, 6)
        assert_per_sample_sum(predict(old, points), old.alpha, RBF.cross(x, points))


@st.composite
def coordinate_problems(draw, max_rows=40):
    """One q=1 inner problem: an RBF gram over n <= 40 covariates, distinct or
    drawn from a few values (repeated gram rows), with random weights, targets,
    start, tau, step cap and lambda (large lambdas zero out coordinates)."""
    n = draw(st.integers(1, max_rows))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = n if draw(st.booleans()) else draw(st.integers(1, min(n, 4)))
    values = rng.uniform(0.0, 1.0, k)
    x = values[np.concatenate([np.arange(k), rng.integers(0, k, n - k)])].reshape(-1, 1)
    gram = RBF.cross(x, x)
    w = rng.uniform(0.0, 1.0, n) * (rng.random(n) > draw(st.sampled_from([0.0, 0.3])))
    y = rng.uniform(-1.5, 1.5, n)
    beta = rng.normal(0.0, 0.5, n) if draw(st.booleans()) else np.zeros(n)
    lam = draw(st.sampled_from([0.0, 1e-4, 1e-2]) | st.floats(1e-3, 10.0))
    tau = draw(st.floats(0.1, 10.0))
    return gram, w, y, beta, lam, tau, draw(st.integers(1, 30))


def lasso_surrogate(gram, w, y, lam, tau):
    """(H, c, F) of the q=1 inner problem F(b) = b^T H b / 2 - c^T b + lam |b|_1,
    formed densely."""
    H = tau * gram @ (w[:, None] * gram.T)
    c = tau * gram @ (w * y)
    return H, c, lambda b: 0.5 * b @ H @ b - c @ b + lam * np.sum(np.abs(b))


class TestMonotoneTrace:
    """No accepted step lowers the objective, up to 1e-12 relative rounding."""

    @staticmethod
    def assert_monotone(model):
        trace = np.array(model.objective_trace)
        assert np.all(np.diff(trace) >= -1e-12 * np.abs(trace[:-1]))

    @PROPERTY
    @given(grouped_problems(), st.sampled_from(PHI_KINDS), st.sampled_from([1, 2]))
    def test_gradient(self, problem, kind, q):
        x, y, sigma, lam = problem
        cfg = RmrConfig(sigma=sigma, lam=lam, q=q, phi=representing_function(kind))
        groups, gram = distinct_gram(RBF, x)
        model = fit_gradient(gram, y, cfg, max_iters=200, groups=groups)
        self.assert_monotone(model)

    @PROPERTY
    @given(grouped_problems(lams=st.sampled_from([0.0, 1e-12, 1e-8]) | st.floats(0.01, 1.0)),
           st.sampled_from(HQ_KINDS), st.sampled_from([1, 2]))
    def test_hq(self, problem, kind, q):
        # lambda = 0 and tiny lambdas leave the inner system near singular
        x, y, sigma, lam = problem
        cfg = RmrConfig(sigma=sigma, lam=lam, q=q, phi=representing_function(kind))
        self.assert_monotone(fit_data(x, y, RBF, cfg))


class TestBlockLineSearch:
    """The gradient fit scores its line-search steps a block at a time; its
    trace and coefficients are bit for bit those of the earlier search that
    scored one halving at a time (``fit_gradient_per_halving``)."""

    @staticmethod
    def assert_same_fit(gram, y, cfg, max_iters, groups=None):
        model = fit_gradient(gram, y, cfg, max_iters=max_iters, groups=groups)
        alpha, trace, stopped, halvings = fit_gradient_per_halving(gram, y, cfg, max_iters,
                                                                   groups)
        assert model.objective_trace == trace
        np.testing.assert_array_equal(model.alpha, alpha)
        return stopped, halvings

    @PROPERTY
    @given(grouped_problems(), st.sampled_from(PHI_KINDS), st.sampled_from([1, 2]))
    def test_matches_per_halving_search(self, problem, kind, q):
        x, y, sigma, lam = problem
        cfg = RmrConfig(sigma=sigma, lam=lam, q=q, phi=representing_function(kind))
        groups, gram = distinct_gram(RBF, x)
        self.assert_same_fit(gram, y, cfg, 200, groups)
        self.assert_same_fit(RBF.cross(x, x), y, cfg, 200)

    def test_second_block(self):
        # the first block's steps 4, 2 and 1 all lower the objective; the
        # second block's first row, step 1/2, is taken
        x = np.linspace(0.0, 1.0, 5).reshape(-1, 1)
        cfg = RmrConfig(sigma=0.5, lam=2.0, q=2, phi=GAUSS)
        _, halvings = self.assert_same_fit(RBF.cross(x, x), [1.0, -1.0, 1.0, -1.0, 1.0], cfg, 50)
        assert halvings[0] == 3

    def test_exhausted_search(self):
        # alpha = 0 is a local maximum of this triangular-phi objective
        x = np.array([[0.0], [1.0], [0.5], [0.75]])
        cfg = RmrConfig(sigma=1.0, lam=1.0, q=2, phi=representing_function("triangular"))
        stopped, _ = self.assert_same_fit(RBF.cross(x, x), [0.0, 0.0, 0.0, 1.0], cfg, 2000)
        assert stopped == "no ascent step"

    def test_any_gram_alignment(self):
        # a gram reaches BLAS wherever its buffer starts, and where that is
        # changes no bit of the fit
        x = np.linspace(0.0, 1.0, 23).reshape(-1, 1)
        y = np.sin(6.0 * x[:, 0])
        cfg = RmrConfig(sigma=0.5, lam=1e-3, q=2, phi=representing_function("epanechnikov"))
        dense = RBF.cross(x, x)
        spare = np.empty(dense.size + 8)
        for start in range(8):
            gram = spare[start:start + dense.size].reshape(dense.shape)
            gram[...] = dense
            self.assert_same_fit(gram, y, cfg, 300)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fit_predict_benchmark_instance(self, seed):
        # the data and gradient fit of the fit_predict benchmark workload: 384
        # distinct uniform covariates, shifted-gamma noise, epanechnikov phi;
        # at seeds 1 and 2 one reordered iteration moves the final objective
        # by 1.1e-4 and 1.5e-5 relative, so only bit-faithful arithmetic passes
        rng = np.random.default_rng([seed, 7])
        x = rng.uniform(0.0, 1.0, size=(384, 1))
        noise = shifted_gamma_noise(2.0, 0.1).sample(rng, 384)
        y = np.array([default_target(v) for v in x]) + noise
        cfg = RmrConfig(sigma=0.8, lam=1e-4, tol=1e-12, phi=representing_function("epanechnikov"))
        groups, gram = distinct_gram(RBF, x)
        stopped, _ = self.assert_same_fit(gram, y, cfg, 2000, groups)
        assert stopped == "max_iters"


class TestFactorPath:
    """fit_data's gradient fits run on a pivoted-Cholesky factor L of the
    gram when its rank stays at or below _FACTOR_RANK_SHARE of the rows."""

    @staticmethod
    def distinct_problem(m, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 1.0, (m, 1))
        return x, np.sin(6.0 * x[:, 0]) + 0.3 * rng.standard_t(2, m)

    def test_factor_fit_agrees_with_the_gram_fit(self):
        x, y = self.distinct_problem(80, 3)
        cfg = RmrConfig(sigma=0.5, lam=1e-3, q=2, phi=GAUSS)
        factor, _ = RBF.factor(x, 40)
        assert factor.shape[1] < 40
        on_factor = fit_gradient(factor, y, cfg, max_iters=20)
        on_gram = fit_gradient(RBF.cross(x, x), y, cfg, max_iters=20)
        assert len(on_factor.objective_trace) == len(on_gram.objective_trace) == 21
        np.testing.assert_allclose(on_factor.objective_trace, on_gram.objective_trace,
                                   rtol=1e-10, atol=0)
        np.testing.assert_allclose(on_factor.alpha, on_gram.alpha, rtol=0,
                                   atol=1e-10 * np.max(np.abs(on_gram.alpha)))

    def test_fit_predict_benchmark_instance_takes_the_factor(self):
        # the fit_predict workload's gradient fit: 384 distinct rows, and an
        # RBF gram of numerical rank 15
        rng = np.random.default_rng([0, 7])
        x = rng.uniform(0.0, 1.0, size=(384, 1))
        noise = shifted_gamma_noise(2.0, 0.1).sample(rng, 384)
        y = np.array([default_target(v) for v in x]) + noise
        cfg = RmrConfig(sigma=0.8, lam=1e-4, tol=1e-12, phi=representing_function("epanechnikov"))
        with mock.patch.object(modalmr.solver, "fit_gradient", wraps=fit_gradient) as spy:
            model, fit = fit_data_and_fit(x, y, RBF, cfg, method="gradient")
        factor = spy.call_args.args[0]
        assert factor.shape[0] == 384 and factor.shape[1] <= 384 // 4
        assert model.m == factor.shape[1]
        exact = objective(fit.alpha, RBF.cross(x, x), y, cfg)
        assert exact == pytest.approx(model.objective_trace[-1], rel=1e-12)

    @pytest.mark.parametrize("kernel", [hypothesis_kernel("laplacian"),
                                        hypothesis_kernel("polynomial", degree=1.5)],
                             ids=["laplacian", "polynomial-1.5"])
    def test_gram_when_the_factor_stops_at_its_cap(self, kernel):
        x, y = self.distinct_problem(40, 4)
        cfg = RmrConfig(sigma=0.5, lam=1e-3, q=2, phi=GAUSS)
        with mock.patch.object(modalmr.solver, "fit_gradient", wraps=fit_gradient) as spy:
            fit_data(x, y, kernel, cfg, method="gradient")
        assert spy.call_args.args[0].shape == (40, 40)

    def test_laplacian_builds_no_factor_column(self, monkeypatch):
        # a laplacian gram of distinct points is full rank, so the gradient
        # fit computes the gram once and no factor column before it
        x, y = self.distinct_problem(40, 4)
        kernel = hypothesis_kernel("laplacian")
        cross, shapes = HypothesisKernel.cross, []

        def spy(self, centers, points):
            values = cross(self, centers, points)
            shapes.append(values.shape)
            return values

        monkeypatch.setattr(HypothesisKernel, "cross", spy)
        assert kernel.factor(x, 40) is None
        assert shapes == []
        fit_data(x, y, kernel, RmrConfig(sigma=0.5, lam=1e-3, q=2, phi=GAUSS), method="gradient")
        assert shapes == [(40, 40)]

    def test_zero_gram_keeps_the_distinct_rows(self, tmp_path):
        # (x x' + 0)^2 at x = 0: the factor has rank 0, and the model keeps
        # the distinct row, since a model file needs a centre
        kernel = hypothesis_kernel("polynomial", offset=0.0)
        model = fit_data(np.zeros(3), [0.5, 0.7, 0.1], kernel, RmrConfig(sigma=1.0, lam=0.1),
                         method="gradient")
        assert model.m == 1
        save_model(tmp_path / "model.txt", model)
        assert predict(load_model(tmp_path / "model.txt"), [0.0, 2.0]).tolist() == [0.0, 0.0]

    def test_hq_fits_reject_a_factor(self):
        x, y = self.distinct_problem(30, 5)
        factor, _ = RBF.factor(x, 15)
        cfg = RmrConfig(sigma=0.5, lam=1e-3, q=2)
        with pytest.raises(InputError, match="gram must be 30x30 to match"):
            fit_hq(factor, y, cfg)
        with pytest.raises(InputError, match="gram must be 30x30 to match"):
            objective(np.zeros(30), factor, y, cfg)
        with pytest.raises(InputError, match="gram must be 30x30 or a 30xr factor"):
            fit_gradient(np.ones((30, 31)), y, cfg)


class TestAscentGuard:
    """An HQ step that lowers the objective by config.tol or more is not
    taken; a smaller fall ends the fit by its tolerance, as a small gain does."""

    @staticmethod
    def unridged_instance():
        # 40 uniform covariates and t_2 noise: at lambda = 0 the q=2 system
        # K diag(W) K^T has no ridge, is near singular (exactly so where a
        # compact phi's weights vanish), and its direct solve is inexact
        rng = np.random.default_rng(1)
        x = rng.uniform(0.0, 1.0, (40, 1))
        return x, np.sin(6.0 * x[:, 0]) + 0.3 * rng.standard_t(2, 40)

    @pytest.mark.parametrize("kind", ["gaussian", "epanechnikov", "quadratic"])
    def test_falling_step_is_not_taken(self, caplog, kind):
        x, y = self.unridged_instance()
        cfg = RmrConfig(sigma=0.3, lam=0.0, q=2, phi=representing_function(kind))
        caplog.set_level(logging.INFO, logger="modalmr.solver")
        model = fit_data(x, y, RBF, cfg)
        steps = len(model.objective_trace) - 1
        messages = {r.levelno: r.getMessage() for r in caplog.records
                    if r.name == "modalmr.solver" and r.getMessage().startswith("hq fit")}
        assert re.fullmatch(rf"hq fit: step {steps + 1} lowers the objective by \S+; the fit "
                            rf"keeps the coefficients of step {steps}", messages[logging.WARNING])
        assert messages[logging.INFO].endswith(f"{steps} iterations, stopped by no ascent step")
        assert np.all(np.diff(model.objective_trace) >= cfg.tol)
        kept = fit_data(x, y, RBF, replace(cfg, max_hq_iters=steps))
        np.testing.assert_array_equal(model.alpha, kept.alpha)
        assert model.objective_trace == kept.objective_trace

    @pytest.mark.parametrize("tol_per_fall, reason", [(2.0, "tol"), (0.5, "no ascent step")])
    def test_threshold_is_tol(self, monkeypatch, caplog, tol_per_fall, reason):
        # the inner solve returns a near optimum, then a point just below it
        gram, y = random_instance(np.random.default_rng(3), 6)
        cfg = RmrConfig(sigma=0.7, lam=0.05, q=2, tol=1e-12)
        best = fit_hq(gram, y, cfg).alpha
        worse = best + 1e-3
        fall = objective(best, gram, y, cfg) - objective(worse, gram, y, cfg)
        assert fall > 0
        steps = iter([best, worse])
        monkeypatch.setattr(modalmr.solver, "_solve_weighted_ridge",
                            lambda *args: (next(steps), False))
        caplog.set_level(logging.INFO, logger="modalmr.solver")
        model = fit_hq(gram, y, replace(cfg, tol=tol_per_fall * fall))
        assert caplog.records[-1].getMessage().endswith(f"stopped by {reason}")
        taken = [best, worse] if reason == "tol" else [best]
        np.testing.assert_array_equal(model.alpha, taken[-1])
        assert model.objective_trace == (objective(np.zeros(6), gram, y, cfg),
                                         *(objective(a, gram, y, cfg) for a in taken))


class TestHqFixedPoint:
    @PROPERTY
    @given(grouped_problems(), st.sampled_from(HQ_KINDS))
    def test_q2_gradient_vanishes(self, problem, kind):
        # run the q=2 fit until a step leaves the objective exactly unchanged;
        # where phi' is continuous at every residual (no |r| = sigma for the
        # compact kinds), the objective's gradient, formed independently of
        # the solver, vanishes there
        x, y, sigma, lam = problem
        phi = representing_function(kind)
        cfg = RmrConfig(sigma=sigma, lam=lam, q=2, phi=phi, max_hq_iters=1000, tol=1e-300)
        model, fit = fit_data_and_fit(x, y, RBF, cfg)
        assert len(model.objective_trace) <= cfg.max_hq_iters
        gram = RBF.cross(x, x)
        r = y - gram.T @ fit.alpha
        assume(np.min(np.abs(np.abs(r) - sigma)) > 1e-6)
        grad = (-gram @ phi_derivative(kind, r / sigma) / (len(y) * sigma**2)
                - 2.0 * lam * fit.alpha)
        assert np.max(np.abs(grad)) <= 1e-6


class TestInnerLoops:
    """The q=1 active-set step against its optimality conditions and against
    plain coordinate descent, and the vectorised gradient loop."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(coordinate_problems())
    def test_active_set_step_not_above_coordinate_descent(self, problem):
        gram, w, y, beta, lam, tau, _ = problem
        _, _, surrogate = lasso_surrogate(gram, w, y, lam, tau)
        got, _ = modalmr.solver._l1_active_set(gram, tau * w, tau * w * y, beta, lam, 1000)
        oracle = surrogate(l1_coordinate_descent(gram, w, y, beta, lam, tau, 2000))
        assert surrogate(got) <= oracle + 1e-12 * abs(oracle)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(coordinate_problems())
    def test_active_set_step_meets_kkt_unless_capped(self, problem):
        gram, w, y, beta, lam, tau, _ = problem
        H, c, _ = lasso_surrogate(gram, w, y, lam, tau)
        got, capped = modalmr.solver._l1_active_set(gram, tau * w, tau * w * y, beta, lam, 1000)
        if capped:
            return
        g = H @ got - c
        theta = np.sign(got)
        violation = np.where(theta != 0, np.abs(g + lam * theta), np.abs(g) - lam)
        # the dense H @ got carries rounding up to about eps |H|_inf |got|_inf,
        # which outgrows the solver's own tolerance on ill-conditioned H with
        # large coefficients (lam = 0, cond(H) ~ 2e17, |got| ~ 1e6)
        rounding = 4.0 * np.finfo(float).eps * np.linalg.norm(H, np.inf) * np.max(np.abs(got),
                                                                                   initial=0.0)
        assert np.max(violation) <= 1e-9 * max(np.max(np.abs(c)), lam) + rounding

    def test_separable_problem_takes_one_step_per_nonzero(self):
        # with K = I the lasso splits into soft thresholds, b_i =
        # sign(c_i) max(|c_i| - lam, 0) / H_ii; each entering coordinate's
        # solve lands on its own threshold, so k nonzeros take k steps
        rng = np.random.default_rng(6)
        w, y, lam, tau = rng.uniform(0.5, 1.0, 8), rng.uniform(-1.5, 1.5, 8), 0.9, 2.0
        c = tau * w * y
        expected = np.sign(c) * np.maximum(np.abs(c) - lam, 0.0) / (tau * w)
        k = np.count_nonzero(expected)
        assert 0 < k < 8
        got, capped = modalmr.solver._l1_active_set(np.eye(8), tau * w, tau * w * y, np.zeros(8),
                                                    lam, k)
        assert not capped
        np.testing.assert_allclose(got, expected, rtol=1e-10, atol=0.0)
        _, capped = modalmr.solver._l1_active_set(np.eye(8), tau * w, tau * w * y, np.zeros(8),
                                                  lam, k - 1)
        assert capped

    def test_zero_weights_shrink_the_start_to_zero(self):
        # H = 0 makes every active-set system singular; the 1-D steps then
        # minimise F = lam |b|_1 one coordinate at a time
        gram = rbf_gram([0.2, 0.5, 0.9])
        start = np.array([0.5, -0.3, 0.0])
        got, capped = modalmr.solver._l1_active_set(gram, np.zeros(3), np.zeros(3), start,
                                                    0.1, 5)
        assert not capped
        np.testing.assert_array_equal(got, np.zeros(3))

    def test_start_denser_than_the_cap_restarts_from_zero(self):
        # a dense least-squares-like start on 300 rows: a step drops at most
        # one nonzero, so the search runs from zero instead
        rng = np.random.default_rng(8)
        x = rng.uniform(0, 1, 300)
        gram, w, y = rbf_gram(x), rng.uniform(0.5, 1.0, 300), np.sin(2 * np.pi * x)
        _, _, surrogate = lasso_surrogate(gram, w, y, 1e-3, 1.0)
        start = rng.normal(0, 1, 300)
        got, _ = modalmr.solver._l1_active_set(gram, w, w * y, start, 1e-3, 20)
        cold, _ = modalmr.solver._l1_active_set(gram, w, w * y, np.zeros(300), 1e-3, 20)
        np.testing.assert_array_equal(got, cold)
        assert surrogate(got) < surrogate(start)

    def test_restart_ending_above_a_dense_start_keeps_the_start(self):
        # with K = I the soft-threshold solution is dense here; two steps
        # from zero reach two of its eight coordinates, so it is kept
        rng = np.random.default_rng(9)
        w, lam, tau = rng.uniform(0.5, 1.0, 8), 0.01, 2.0
        y = rng.choice([-1.0, 1.0], 8) * rng.uniform(0.5, 1.5, 8)
        c = tau * w * y
        optimum = np.sign(c) * (np.abs(c) - lam) / (tau * w)
        got, capped = modalmr.solver._l1_active_set(np.eye(8), tau * w, tau * w * y, optimum,
                                                    lam, 2)
        assert capped
        np.testing.assert_array_equal(got, optimum)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(coordinate_problems())
    def test_active_set_step_never_raises_surrogate(self, problem):
        # the drawn step count caps the search, so capped exits are covered too
        gram, w, y, beta, lam, tau, steps = problem
        _, _, surrogate = lasso_surrogate(gram, w, y, lam, tau)
        got, _ = modalmr.solver._l1_active_set(gram, tau * w, tau * w * y, beta, lam, steps)
        start = surrogate(beta)
        assert surrogate(got) <= start + 1e-12 * abs(start)

    @PROPERTY
    @given(grouped_problems(), st.sampled_from(["epanechnikov", "triangular", "gaussian"]),
           st.sampled_from([1, 2]), st.booleans(), st.booleans())
    def test_gradient_trace_matches_recomputed_objective(self, problem, kind, q, distinct,
                                                         factor):
        # with the rank cap raised to 0.99 n, small problems fit on the
        # gram's factor, and the trace is the objective on L L^T
        x, y, sigma, lam = problem
        if distinct:
            x = np.arange(x.shape[0], dtype=float).reshape(-1, 1) / x.shape[0]
        phi = representing_function(kind)
        cfg = RmrConfig(sigma=sigma, lam=lam, q=q, phi=phi, tol=1e-14)
        with pytest.MonkeyPatch.context() as patch:
            if factor:
                patch.setattr(modalmr.solver, "_FACTOR_RANK_SHARE", 0.99)
            model, fit = fit_data_and_fit(x, y, RBF, cfg, method="gradient")
        trace = np.array(model.objective_trace)
        assert np.all(np.diff(trace) >= 0.0)
        value = objective(fit.alpha, RBF.cross(x, x), y, cfg)
        assert value == pytest.approx(trace[-1], rel=1e-12, abs=1e-300)

    @PROPERTY
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=24, unique=True),
           st.integers(0, 2**32 - 1), st.sampled_from([1, 2]))
    def test_hq_trace_is_the_objective_on_distinct_data(self, rows, seed, q):
        x = np.array(rows).reshape(-1, 1)
        y = np.random.default_rng(seed).uniform(-1.5, 1.5, len(rows))
        cfg = RmrConfig(sigma=0.8, lam=0.05, q=q, max_hq_iters=30)
        model = fit_data(x, y, RBF, cfg)
        gram = RBF.cross(x, x)
        assert model.objective_trace[-1] == objective(model.alpha, gram, y, cfg)


class TestConjugateGradient:
    """The q=2 inner solve above _DIRECT_SOLVE_LIMIT repeats the arithmetic
    of scipy.sparse.linalg.cg, which is imported here only, as the reference.
    K diag(w) K^T + diag(kappa) is symmetric positive definite for any K."""

    @staticmethod
    def numpy_cg(gram, w, y, kappa, guess):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(modalmr.solver, "_DIRECT_SOLVE_LIMIT", 0)
            return modalmr.solver._solve_weighted_ridge(gram, w, w * y, kappa, guess)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 7, 40, 260]),
           st.sampled_from([1e-9, 1e-3, 1.0, 100.0]), st.booleans(), st.booleans())
    # a tiny ridge on 260 rows needs more than the 200-step cap
    @example(seed=0, n=260, ridge=1e-9, warm=True, zero_b=False)
    @example(seed=0, n=40, ridge=1.0, warm=True, zero_b=True)
    def test_matches_scipy_cg(self, seed, n, ridge, warm, zero_b):
        from scipy.sparse.linalg import LinearOperator, cg

        rng = np.random.default_rng(seed)
        gram = rng.standard_normal((n, n))
        w = rng.uniform(0.1, 1.0, n)
        y = np.zeros(n) if zero_b else rng.standard_normal(n)
        kappa = ridge * rng.uniform(0.5, 2.0, n)
        guess = rng.standard_normal(n) if warm else np.zeros(n)
        op = LinearOperator((n, n), matvec=lambda v: gram @ (w * (gram.T @ v)) + kappa * v,
                            dtype=float)
        ref, info = cg(op, gram @ (w * y), x0=guess.copy(), rtol=1e-12, atol=0.0,
                       maxiter=max(200, n // 4))
        start = guess.copy()
        got, capped = self.numpy_cg(gram, w, y, kappa, start)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)
        assert capped == (info > 0)
        np.testing.assert_array_equal(start, guess)

    def test_non_finite_result_raises(self):
        gram = np.eye(3)
        gram[0, 1] = np.nan
        with pytest.raises(NumericError, match="conjugate gradient produced non-finite"):
            self.numpy_cg(gram, np.ones(3), np.ones(3), np.ones(3), np.zeros(3))
