import logging
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import modalmr.harness
import modalmr.markov
import modalmr.risk
from _oracles import bootstrap_slope_per_draw
from modalmr.cli import write_csv, write_manifest
from modalmr.errors import InputError, NumericError
from modalmr.harness import (
    Dataset,
    ExperimentConfig,
    Theorem2Schedule,
    derive_seed,
    gamma_sweep,
    generate_dataset,
    learning_curve,
    robustness_comparison,
)
from modalmr.harness import (
    _BOOTSTRAP_DRAWS,
    _bootstrap_means,
    _bootstrap_slope,
    _default_solver,
    _percentiles,
)
from modalmr.kernels import hypothesis_kernel
from modalmr.markov import absolute_spectral_gap, iid_chain, transition_kernel
from modalmr.risk import gaussian_noise, make_task, student_t_noise
from modalmr.solver import (
    RmrConfig,
    fit_data,
    predict,
    read_dataset_file,
    schedule_theorem2,
    write_dataset_file,
)


def small_task(noise_scale=0.5, n_states=8):
    return make_task(iid_chain(n_states), gaussian_noise(noise_scale))


class TestGenerateDataset:
    def test_zero_noise_limit(self):
        task = make_task(iid_chain(6), gaussian_noise(1e-12))
        data = generate_dataset(task, 50, seed=3)
        np.testing.assert_allclose(data.y, data.f_star_values, atol=1e-10)

    def test_same_seed_identical(self):
        task = small_task()
        a = generate_dataset(task, 100, seed=11)
        b = generate_dataset(task, 100, seed=11)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.x, b.x)

    def test_different_seed_differs(self):
        task = small_task()
        a = generate_dataset(task, 100, seed=11)
        b = generate_dataset(task, 100, seed=12)
        assert not np.array_equal(a.y, b.y)

    def test_iid_frequencies(self):
        task = small_task(n_states=4)
        m = 10000
        data = generate_dataset(task, m, seed=0)
        freq = np.bincount(data.states, minlength=4) / m
        assert np.max(np.abs(freq - task.pi)) < 3.0 / np.sqrt(m)

    def test_provenance_consistency(self):
        task = small_task()
        data = generate_dataset(task, 30, seed=5)
        np.testing.assert_array_equal(data.x, task.chain.state_embedding[data.states])
        np.testing.assert_allclose(data.y, data.f_star_values + data.noise_draws, atol=1e-15)

    def test_bad_m(self):
        with pytest.raises(InputError):
            generate_dataset(small_task(), 0, seed=1)


class TestLearningCurve:
    def test_zero_truth_large_penalty(self):
        task = make_task(iid_chain(4), gaussian_noise(1.0), f_star=lambda x: 0.0)
        config = ExperimentConfig(
            task=task,
            m_grid=(32, 64),
            n_replicates=3,
            schedule=None,
            seed=4,
            solver=replace(_default_solver(), lam=50.0, sigma=1.0),
        )
        result = learning_curve(config)
        for _, mean in result.mean_by_m:
            assert abs(mean) < 1e-4

    def test_reproducible_rows(self):
        config = ExperimentConfig(
            task=small_task(),
            m_grid=(32, 64, 128),
            n_replicates=2,
            schedule=Theorem2Schedule(2.0, 0.01),
            seed=9,
        )
        a = learning_curve(config)
        b = learning_curve(config)
        assert a.rows == b.rows
        assert np.isfinite(a.slope)
        assert a.slope == b.slope
        assert a.slope_ci == b.slope_ci

    def test_jobs_do_not_change_results(self):
        config = ExperimentConfig(
            task=small_task(),
            m_grid=(32, 64),
            n_replicates=4,
            schedule=Theorem2Schedule(2.0, 0.01),
            seed=2,
        )
        assert learning_curve(config, jobs=1).rows == learning_curve(config, jobs=2).rows

    def test_schedule_rows_match_closed_form(self):
        config = ExperimentConfig(
            task=small_task(),
            m_grid=(32, 64),
            n_replicates=2,
            schedule=Theorem2Schedule(2.0, 0.05),
            seed=13,
        )
        gamma = absolute_spectral_gap(config.task.chain)
        result = learning_curve(config)
        for row in result.rows:
            _, lam, sigma = schedule_theorem2(row.m, gamma, 2.0, 0.05)
            assert row.lambda_used == lam
            assert row.sigma_used == sigma

    def test_weakly_decreasing_means(self):
        config = ExperimentConfig(
            task=small_task(),
            m_grid=(64, 128, 256),
            n_replicates=20,
            schedule=Theorem2Schedule(2.0, 0.01),
            seed=21,
        )
        means = [v for _, v in learning_curve(config, jobs=2).mean_by_m]
        inversions = sum(1 for a, b in zip(means, means[1:]) if b > a)
        assert inversions <= 1

    def test_m_grid_validation(self):
        with pytest.raises(InputError):
            ExperimentConfig(
                task=small_task(), m_grid=(64, 64), n_replicates=2,
                schedule=None, seed=0,
            )
        with pytest.raises(InputError):
            ExperimentConfig(
                task=small_task(), m_grid=(64,), n_replicates=0,
                schedule=None, seed=0,
            )
        with pytest.raises(InputError, match="m_grid must be nonempty"):
            ExperimentConfig(task=small_task(), m_grid=(), n_replicates=2, schedule=None, seed=0)

    @staticmethod
    def tiny_config():
        return ExperimentConfig(
            task=small_task(), m_grid=(32, 64, 128), n_replicates=2,
            schedule=Theorem2Schedule(2.0, 0.01), seed=9,
        )

    def test_no_numpy_call_per_draw_or_step(self, monkeypatch):
        # one polyfit for the point slope and one for all bootstrap draws;
        # a chain path searches with numpy only for its stationary start
        counts = {"polyfit": 0, "searchsorted": 0, "paths": 0}

        def counted(name, real):
            def call(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            return call

        monkeypatch.setattr(np, "polyfit", counted("polyfit", np.polyfit))
        monkeypatch.setattr(np, "searchsorted", counted("searchsorted", np.searchsorted))
        monkeypatch.setattr(modalmr.markov, "sample_chain",
                            counted("paths", modalmr.markov.sample_chain))
        assert np.isfinite(learning_curve(self.tiny_config()).slope_ci).all()
        assert counts["paths"] == 6
        assert counts["polyfit"] <= 2
        assert counts["searchsorted"] <= counts["paths"]

    def test_info_line_reports_the_curve(self, monkeypatch, caplog):
        # a negative score at m=32 makes the draws that resample only it drop
        scores = iter([-0.5, 1.5, 0.4, 0.5, 0.2, 0.3])
        monkeypatch.setattr(modalmr.risk, "excess_risk", lambda task, model: next(scores))
        config = self.tiny_config()
        caplog.set_level(logging.INFO, logger="modalmr.harness")
        result = learning_curve(config)
        (line,) = [r.getMessage() for r in caplog.records
                   if r.name == "modalmr.harness" and r.levelno == logging.INFO]
        kept = re.fullmatch(
            rf"learning curve over m = \[32, 64, 128\]: 0 failed fits, "
            rf"slope {result.slope:.6g}, (\d+) of 1000 bootstrap draws kept", line)
        assert kept
        excess = [np.array([-0.5, 1.5]), np.array([0.4, 0.5]), np.array([0.2, 0.3])]
        _, ci, expected = bootstrap_slope_per_draw(
            np.log(config.m_grid), excess, derive_seed(config.seed, 10**6))
        assert 600 < int(kept.group(1)) == expected < 900
        assert result.slope_ci == ci


class TestBootstrapSlope:
    """The batched bootstrap against the per-draw loop it replaced: the same
    resamples, the same means bit for bit, and the same CI up to the rounding
    of one least-squares solve over many right-hand sides."""

    DROPPED = [[-1.0, 2.0], [1.0, 1.0, 0.5], [0.5]]  # a quarter of draws dropped
    ALL_DROPPED = [[-1.0], [1.0, 2.0], [0.25, 0.5]]  # every draw dropped

    @staticmethod
    def compare(lists, seed, draws):
        excess = [np.array(v, dtype=float) for v in lists]
        log_m = np.log(32.0 * 2.0 ** np.arange(len(excess)))
        means, ci, kept = bootstrap_slope_per_draw(log_m, excess, seed, draws)
        got = _bootstrap_means(excess, np.random.default_rng(seed), draws)
        assert got.tobytes() == means.tobytes()
        got_ci, got_kept = _bootstrap_slope(log_m, excess, seed, draws)
        assert got_kept == kept
        np.testing.assert_allclose(got_ci, ci, rtol=1e-12, atol=0)
        return got_ci, ci, kept

    BENCHMARK = [[0.31, 0.52, 0.47, 0.9], [0.22, 0.4, 0.35, 0.28], [0.2, 0.18, 0.33, 0.25],
                 [0.21, 0.19, 0.3, 0.24], [0.12, 0.15, 0.2, 0.11]]  # 5 m values x 4 replicates
    # lengths 1, 3 and 8: the odd list leaves a spare half that starts the next
    MIXED = [[0.7], [0.2, 0.9, 1.4], [0.3, 0.5, 0.1, 0.8, 1.2, 0.6, 0.4, 0.9]]

    @settings(max_examples=150)
    @given(lists=st.lists(st.lists(st.floats(-0.5, 2.0), min_size=1, max_size=7),
                          min_size=3, max_size=7),
           seed=st.integers(0, 2**63), draws=st.integers(1, 100))
    @example(lists=DROPPED, seed=4, draws=100)
    @example(lists=ALL_DROPPED, seed=5, draws=100)
    @example(lists=BENCHMARK, seed=7, draws=_BOOTSTRAP_DRAWS)
    @example(lists=MIXED, seed=8, draws=_BOOTSTRAP_DRAWS)
    @example(lists=MIXED[::-1], seed=9, draws=3)
    def test_matches_per_draw_loop(self, lists, seed, draws):
        self.compare(lists, seed, draws)

    @settings(max_examples=10)
    @given(lists=st.lists(st.lists(st.floats(0.01, 2.0), min_size=4, max_size=4),
                          min_size=5, max_size=5),
           seed=st.integers(0, 2**63))
    def test_exact_on_five_m_values_of_four_replicates(self, lists, seed):
        # the benchmark's shape: the CI is equal, not only close
        got, ci, _ = self.compare(lists, seed, _BOOTSTRAP_DRAWS)
        assert got == ci

    def test_dropped_draws_are_counted(self):
        *_, kept = self.compare(self.DROPPED, 4, 1000)
        assert 600 < kept < 900
        got, ci, kept = self.compare(self.ALL_DROPPED, 5, 1000)
        assert kept == 0 and np.isnan(got).all() and np.isnan(ci).all()

    @settings(max_examples=100)
    @given(bounds=st.lists(st.one_of(st.integers(1, 9), st.sampled_from([2**31 + 1, 3 * 2**30])),
                           min_size=1, max_size=12),
           rows=st.integers(0, 20), seed=st.integers(0, 2**63))
    @example(bounds=[2**31 + 1, 3 * 2**30], rows=200, seed=1)
    def test_bound_per_element_matches_scalar_calls(self, bounds, rows, seed):
        # what the one-call resample relies on: integers with an array of
        # bounds draws element by element in C order, each as a scalar-bound
        # call would, rejections included (about half of all halves for the
        # two large bounds), and leaves the generator in the same state
        loop, bulk = np.random.default_rng(seed), np.random.default_rng(seed)
        want = [[loop.integers(0, n) for n in bounds] for _ in range(rows)]
        got = bulk.integers(0, np.broadcast_to(bounds, (rows, len(bounds))))
        assert got.tolist() == want
        assert bulk.bit_generator.state == loop.bit_generator.state

    def test_generator_calls_do_not_grow_with_draws(self):
        class Counting:
            """A generator that counts the calls made to it."""

            def __init__(self, seed):
                self.rng, self.calls = np.random.default_rng(seed), 0

            @property
            def bit_generator(self):
                return self.rng.bit_generator

            def integers(self, *args, **kwargs):
                self.calls += 1
                return self.rng.integers(*args, **kwargs)

        excess = [np.array(v) for v in self.MIXED + self.BENCHMARK]
        counts = []
        for draws in (1, 10, _BOOTSTRAP_DRAWS, 5000):
            rng = Counting(11)
            means = _bootstrap_means(excess, rng, draws)
            want, *_ = bootstrap_slope_per_draw(np.arange(len(excess)), excess, 11, draws)
            assert means.tobytes() == want.tobytes()
            counts.append(rng.calls)
        assert counts == [1] * 4


class TestPercentiles:
    """The numpy-free percentile helper against np.percentile, bit for bit."""

    TIES = [-1.5, -0.0, 0.0, 0.25, 0.25000000000000006, 3.0]

    @settings(max_examples=200)
    @given(values=st.one_of(
               st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=2000),
               st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                        max_size=50),
               st.lists(st.sampled_from(TIES), min_size=1, max_size=2000)),
           qs=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=4))
    @example(values=[0.5], qs=[0.0, 100.0])
    @example(values=[-0.0, 0.0, -0.0], qs=[50.0, 75.0])
    # a full sort would put the 0.0 last and give 0.0; the partition keeps -0.0
    @example(values=[-0.0, -0.0, -0.0, -0.0, 0.0, -0.0], qs=[95.0])
    @example(values=list(range(1000)), qs=[5.0, 95.0, 99.95])
    @example(values=[2.0, 1.0], qs=[50.0, 99.99999999999999])
    def test_matches_numpy(self, values, qs):
        # the partition np.percentile makes depends on every q asked for, and
        # tied signed zeros may land on either side of it; so ask as it did
        values = np.array(values, dtype=float)
        for asked in (qs, [5.0, 95.0]):
            got = _percentiles(values, asked)
            assert all(type(v) is float for v in got)
            assert np.array(got).tobytes() == np.percentile(values, asked).tobytes()


class TestGammaSweep:
    def base_config(self, task, m=64, reps=3):
        return ExperimentConfig(
            task=task, m_grid=(m,), n_replicates=reps,
            schedule=Theorem2Schedule(2.0, 0.01), seed=5,
        )

    def test_single_chain_single_row(self):
        task = small_task()
        rows = gamma_sweep(self.base_config(task), [task.chain])
        assert len(rows) == 1
        assert rows[0].m == 64

    def test_identical_chains_identical_results(self):
        task = small_task()
        rows = gamma_sweep(self.base_config(task), [task.chain, iid_chain(8)])
        assert rows[0].replicate_excess == rows[1].replicate_excess

    def test_rows_sorted_by_gamma(self):
        task = small_task(n_states=6)
        n = 6
        slow = transition_kernel(
            0.7 * np.eye(n) + 0.3 * np.full((n, n), 1.0 / n), task.chain.state_embedding
        )
        rows = gamma_sweep(self.base_config(task), [iid_chain(6), slow])
        gammas = [r.gamma_abs for r in rows]
        assert gammas == sorted(gammas)
        assert rows[0].discount == pytest.approx(2 * 0.3 - 0.09)

    def test_dimension_mismatch(self):
        task = small_task()
        with pytest.raises(InputError):
            gamma_sweep(self.base_config(task), [iid_chain(8, d=2)])


class TestSweep:
    """learning_curve and gamma_sweep run one replicate sweep with one seed rule."""

    @settings(max_examples=25)
    @given(grid=st.lists(st.integers(16, 64), min_size=1, max_size=3, unique=True),
           reps=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_every_chain_runs_the_learning_curve(self, grid, reps, seed):
        task = small_task(n_states=6)
        config = ExperimentConfig(task=task, m_grid=tuple(sorted(grid)), n_replicates=reps,
                                  schedule=Theorem2Schedule(2.0, 0.01), seed=seed)
        curve = learning_curve(config)
        # a twin of the task's chain: rows sort stably by gamma, so its rows follow
        rows = gamma_sweep(config, [task.chain, iid_chain(6)])
        first, twin = rows[:len(grid)], rows[len(grid):]
        assert [r.m for r in first] == [r.m for r in twin] == list(config.m_grid)
        for row, twin_row in zip(first, twin):
            assert row.replicate_excess == twin_row.replicate_excess
            mine = [r for r in curve.rows if r.m == row.m]
            assert row.replicate_excess == tuple(r.excess_risk for r in mine)
            assert {(r.lambda_used, r.sigma_used) for r in mine} == {
                (row.lambda_used, row.sigma_used)}

    @pytest.mark.parametrize("seed", [0, 7, 2**40])
    def test_robustness_comparison_draws_the_learning_curves_data(self, monkeypatch, seed):
        task = small_task(n_states=6)
        cfg = RmrConfig(sigma=1.0, lam=1e-3, q=2)
        real = modalmr.harness.generate_dataset
        drawn = []

        def recorded(task, m, seed):
            drawn.append((m, seed))
            return real(task, m, seed)

        monkeypatch.setattr(modalmr.harness, "generate_dataset", recorded)
        robustness_comparison(task, 40, cfg, seed, n_replicates=3)
        compared = drawn[:]
        drawn.clear()
        learning_curve(ExperimentConfig(task, (40,), 3, None, seed, cfg))
        assert compared == drawn == [(40, derive_seed(seed, 0, rep)) for rep in range(3)]


class TestReplicateFailures:
    """A replicate whose fit raises a numeric error scores NaN, is counted and
    logged once, and the other replicates run on unchanged."""

    @staticmethod
    def fail_on(monkeypatch, task, m, seed, fit_name="fit_data"):
        bad_y = generate_dataset(task, m, seed).y
        real = getattr(modalmr.harness, fit_name)

        def fit(x_or_gram, y, *args, **kwargs):
            if np.array_equal(y, bad_y):
                raise NumericError("injected failure")
            return real(x_or_gram, y, *args, **kwargs)

        monkeypatch.setattr(modalmr.harness, fit_name, fit)

    @staticmethod
    def warnings(caplog):
        return [r.getMessage() for r in caplog.records
                if r.name == "modalmr.harness" and r.levelno == logging.WARNING]

    def test_learning_curve_counts_the_failure(self, monkeypatch, caplog):
        config = ExperimentConfig(
            task=small_task(), m_grid=(32, 64, 128), n_replicates=3,
            schedule=Theorem2Schedule(2.0, 0.01), seed=2,
        )
        clean = learning_curve(config)
        assert clean.n_failed == 0
        self.fail_on(monkeypatch, config.task, 64, derive_seed(2, 1, 1))
        caplog.set_level(logging.WARNING, logger="modalmr.harness")
        result = learning_curve(config)
        assert result.n_failed == 1
        (warning,) = self.warnings(caplog)
        assert "m=64 replicate 1" in warning and "injected failure" in warning
        failed = [(r.m, r.replicate) for r in result.rows if np.isnan(r.excess_risk)]
        assert failed == [(64, 1)]
        kept = [r for r in clean.rows if (r.m, r.replicate) != (64, 1)]
        assert [r for r in result.rows if (r.m, r.replicate) != (64, 1)] == kept
        survivors = [r.excess_risk for r in kept if r.m == 64]
        assert dict(result.mean_by_m)[64] == float(np.mean(survivors))

    def test_gamma_sweep_averages_the_other_replicates(self, monkeypatch, caplog):
        task = small_task()
        config = ExperimentConfig(
            task=task, m_grid=(64,), n_replicates=3,
            schedule=Theorem2Schedule(2.0, 0.01), seed=5,
        )
        (clean,) = gamma_sweep(config, [task.chain])
        self.fail_on(monkeypatch, task, 64, derive_seed(5, 0, 2))
        caplog.set_level(logging.WARNING, logger="modalmr.harness")
        (row,) = gamma_sweep(config, [task.chain])
        (warning,) = self.warnings(caplog)
        assert "fit failed at gamma=1.000, m=64 replicate 2: injected failure" in warning
        assert np.isnan(row.replicate_excess[2])
        assert row.replicate_excess[:2] == clean.replicate_excess[:2]
        assert row.mean_excess_risk == float(np.mean(clean.replicate_excess[:2]))

    def test_robustness_comparison_averages_the_other_replicates(self, monkeypatch, caplog):
        task = small_task()
        cfg = RmrConfig(sigma=1.0, lam=1e-3, q=2)
        clean = robustness_comparison(task, 64, cfg, seed=3, n_replicates=4)
        self.fail_on(monkeypatch, task, 64, derive_seed(3, 0, 1), fit_name="fit_hq")
        caplog.set_level(logging.WARNING, logger="modalmr.harness")
        result = robustness_comparison(task, 64, cfg, seed=3, n_replicates=4)
        (warning,) = self.warnings(caplog)
        assert "fit failed at gamma=1.000, m=64 replicate 1: injected failure" in warning
        failed = result.rows[1]
        assert failed.replicate == 1 and np.isnan(failed.rmr_mse) and np.isnan(failed.ls_mse)
        kept = [r for r in clean.rows if r.replicate != 1]
        assert [r for r in result.rows if r.replicate != 1] == kept
        assert result.mean_rmr_mse == float(np.mean([r.rmr_mse for r in kept]))
        assert result.mean_ls_mse == float(np.mean([r.ls_mse for r in kept]))
        assert result.rmr_win_fraction == sum(r.rmr_mse < r.ls_mse for r in kept) / 3

    def test_gap_is_computed_once_and_only_where_read(self, monkeypatch, caplog):
        # the gap is a dense eigenvalue solve; robust-compare reads it only
        # in a failure warning, a learning curve once per chain
        calls = []
        real = modalmr.markov.absolute_spectral_gap
        monkeypatch.setattr(modalmr.markov, "absolute_spectral_gap",
                            lambda chain: calls.append(chain) or real(chain))
        task = small_task()
        cfg = RmrConfig(sigma=1.0, lam=1e-3, q=2)
        robustness_comparison(task, 64, cfg, seed=3, n_replicates=4)
        assert calls == []
        learning_curve(ExperimentConfig(task, (32, 64), 2, Theorem2Schedule(2.0, 0.01), 3, cfg))
        assert calls == [task.chain]
        calls.clear()
        self.fail_on(monkeypatch, task, 64, derive_seed(3, 0, 1), fit_name="fit_hq")
        caplog.set_level(logging.WARNING, logger="modalmr.harness")
        robustness_comparison(task, 64, cfg, seed=3, n_replicates=4)
        assert calls == [task.chain]
        (warning,) = self.warnings(caplog)
        assert "fit failed at gamma=1.000, m=64 replicate 1: injected failure" in warning

    def test_robustness_comparison_with_no_fitted_replicate(self, monkeypatch, caplog):
        def fail(*args, **kwargs):
            raise NumericError("injected failure")

        monkeypatch.setattr(modalmr.harness, "fit_hq", fail)
        caplog.set_level(logging.WARNING, logger="modalmr.harness")
        cfg = RmrConfig(sigma=1.0, lam=1e-3, q=2)
        result = robustness_comparison(small_task(), 32, cfg, seed=3, n_replicates=2)
        assert len(self.warnings(caplog)) == 2
        assert [r.replicate for r in result.rows] == [0, 1]
        assert all(np.isnan(v) for r in result.rows for v in r[1:])
        assert all(np.isnan(v) for v in result[1:])


class TestRobustnessComparison:
    def test_zero_noise_both_tiny(self):
        task = make_task(iid_chain(6), gaussian_noise(1e-7))
        cfg = RmrConfig(sigma=1.0, lam=1e-9, q=2, tol=1e-13)
        out = robustness_comparison(task, 200, cfg, seed=1, n_replicates=3)
        assert out.mean_rmr_mse < 1e-4
        assert out.mean_ls_mse < 1e-4

    def test_gaussian_noise_comparable_errors(self):
        task = make_task(iid_chain(16), gaussian_noise(0.1))
        cfg = RmrConfig(sigma=2.0, lam=1e-7, q=2, tol=1e-11)
        out = robustness_comparison(task, 300, cfg, seed=5, n_replicates=10, jobs=2)
        ratio = out.mean_rmr_mse / out.mean_ls_mse
        assert 0.5 <= ratio <= 2.0

    def test_reproducible_and_parallel_safe(self):
        task = make_task(iid_chain(8), student_t_noise(3.0, 0.5))
        cfg = RmrConfig(sigma=1.0, lam=1e-3, q=2)
        a = robustness_comparison(task, 100, cfg, seed=2, n_replicates=4, jobs=1)
        b = robustness_comparison(task, 100, cfg, seed=2, n_replicates=4, jobs=2)
        assert a.rows == b.rows

    def test_modal_error_matches_the_predicting_model(self):
        # the per-row sums on the distinct rows give fit_data's predictions
        task = make_task(iid_chain(8), student_t_noise(3.0, 0.5))
        cfg = RmrConfig(sigma=1.0, lam=1e-3, q=2)
        kernel = modalmr.harness._default_kernel()
        out = robustness_comparison(task, 100, cfg, seed=2, n_replicates=2)
        for row in out.rows:
            data = generate_dataset(task, 100, derive_seed(2, 0, row.replicate))
            preds = predict(fit_data(data.x, data.y, kernel, cfg), task.chain.state_embedding)
            diff = preds - task.state_values
            assert row.rmr_mse == pytest.approx(float(task.pi @ (diff * diff)), rel=1e-9)

    def test_no_replicates_rejected(self):
        cfg = RmrConfig(sigma=1.0, lam=1e-3, q=2)
        with pytest.raises(InputError, match="n_replicates must be at least 1"):
            robustness_comparison(small_task(), 20, cfg, seed=0, n_replicates=0)


class TestIO:
    def test_dataset_file_round_trip(self, tmp_path):
        task = small_task()
        data = generate_dataset(task, 25, seed=8)
        path = tmp_path / "data.txt"
        write_dataset_file(path, data)
        x, y = read_dataset_file(path)
        np.testing.assert_array_equal(x, data.x)
        np.testing.assert_array_equal(y, data.y)

    @settings(max_examples=60)
    @given(st.integers(1, 6), st.integers(1, 3), st.data())
    def test_dataset_file_round_trip_is_bit_faithful(self, tmp_path_factory, m, d, data):
        values = st.floats(allow_nan=False, allow_infinity=False)
        x = np.array(data.draw(st.lists(values, min_size=m * d, max_size=m * d))).reshape(m, d)
        y = np.array(data.draw(st.lists(values, min_size=m, max_size=m)))
        path = tmp_path_factory.mktemp("io") / "data.txt"
        write_dataset_file(path, Dataset(x, y, np.zeros(m, int), y, y, 0))
        got_x, got_y = read_dataset_file(path)
        assert got_x.shape == x.shape and got_x.tobytes() == x.tobytes()
        assert got_y.shape == y.shape and got_y.tobytes() == y.tobytes()

    @pytest.mark.parametrize("text", ["1 1\n0.1 0.2\n0.3 0.4\n", "100000000000 1\n0.1 0.2\n"],
                             ids=["extra-row", "huge-header"])
    def test_row_count_must_match_header(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(InputError, match="header gives"):
            read_dataset_file(path)

    def test_trailing_blank_lines_allowed(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("2 1\n0.1 0.2\n0.3 0.4\n\n  \n")
        x, y = read_dataset_file(path)
        assert x.tolist() == [[0.1], [0.3]] and y.tolist() == [0.2, 0.4]

    def test_malformed_dataset(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 1\n0.5 1.0\n0.25\n")
        with pytest.raises(InputError):
            read_dataset_file(path)

    @pytest.mark.parametrize("row", ["nan 1.0", "0.5 nan", "inf 1.0", "0.5 -inf"])
    def test_non_finite_dataset_rejected(self, tmp_path, row):
        path = tmp_path / "bad.txt"
        path.write_text(f"2 1\n0.25 0.5\n{row}\n")
        with pytest.raises(InputError, match="row 1"):
            read_dataset_file(path)

    def test_csv_formatting(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [(1, 0.123456789012345), (2, 1e-13)])
        lines = path.read_text().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,0.123456789012"
        assert lines[2] == "2,1e-13"

    def test_manifest_is_deterministic(self, tmp_path):
        cfg = {"m": 10, "kernel": hypothesis_kernel("gaussian-rbf", bandwidth=0.5),
               "schedule": Theorem2Schedule(2.0, 0.01)}
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        write_manifest(p1, "demo", cfg, {"value": 1.25})
        write_manifest(p2, "demo", cfg, {"value": 1.25})
        assert p1.read_bytes() == p2.read_bytes()


def test_derive_seed_stability():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
