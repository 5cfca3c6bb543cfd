import numpy as np
import pytest

from modalmr.errors import InputError
from modalmr.harness import (
    ExperimentConfig,
    FixedSchedule,
    Theorem2Schedule,
    derive_seed,
    gamma_sweep,
    generate_dataset,
    learning_curve,
    read_dataset_file,
    robustness_comparison,
    write_csv,
    write_dataset_file,
    write_manifest,
)
from modalmr.kernels import hypothesis_kernel
from modalmr.markov import absolute_spectral_gap, iid_chain, transition_kernel
from modalmr.risk import gaussian_noise, make_task, student_t_noise
from modalmr.solver import RmrConfig, schedule_theorem2


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
            schedule=FixedSchedule(lam=50.0, sigma=1.0),
            seed=4,
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
                schedule=FixedSchedule(0.1, 1.0), seed=0,
            )
        with pytest.raises(InputError):
            ExperimentConfig(
                task=small_task(), m_grid=(64,), n_replicates=0,
                schedule=FixedSchedule(0.1, 1.0), seed=0,
            )


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


class TestIO:
    def test_dataset_file_round_trip(self, tmp_path):
        task = small_task()
        data = generate_dataset(task, 25, seed=8)
        path = tmp_path / "data.txt"
        write_dataset_file(path, data)
        x, y = read_dataset_file(path)
        np.testing.assert_array_equal(x, data.x)
        np.testing.assert_array_equal(y, data.y)

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
