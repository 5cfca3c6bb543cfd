import logging

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import modalmr.markov
from _oracles import char_poly_eigen_moduli, sample_chain_per_step
from modalmr.errors import InputError, NumericError
from modalmr.markov import (
    absolute_spectral_gap,
    adjoint_kernel,
    builtin_chain,
    diagnose,
    iid_chain,
    is_reversible,
    lazy_random_walk,
    metropolis_grid,
    pseudo_spectral_gap,
    read_transition_file,
    sample_chain,
    stationary_distribution,
    transition_kernel,
    tv_mixing_curve,
    two_state_chain,
    write_transition_file,
)


def cyclic3():
    P = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
    return transition_kernel(P, np.linspace(0, 1, 3))


class TestStationary:
    def test_two_state_analytic(self):
        # pi solves pi P = pi: (q, p) / (p + q)
        chain = two_state_chain(0.3, 0.2)
        np.testing.assert_allclose(stationary_distribution(chain), [0.4, 0.6], atol=1e-12)

    def test_doubly_stochastic_uniform(self):
        P = np.array([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]])
        chain = transition_kernel(P, np.linspace(0, 1, 3))
        np.testing.assert_allclose(stationary_distribution(chain), np.full(3, 1 / 3), atol=1e-12)

    def test_identity_not_unique(self):
        chain = transition_kernel(np.eye(3), np.linspace(0, 1, 3))
        with pytest.raises(NumericError, match="eigenvalue 1 has multiplicity 3"):
            stationary_distribution(chain)

    def test_not_stochastic_rejected(self):
        with pytest.raises(InputError, match="row sums deviate from 1 by 1.000e-01"):
            transition_kernel(np.array([[0.5, 0.4], [0.2, 0.8]]), [0.0, 1.0])
        with pytest.raises(InputError, match="transition probabilities must be nonnegative"):
            transition_kernel(np.array([[1.1, -0.1], [0.2, 0.8]]), [0.0, 1.0])
        with pytest.raises(InputError, match="transition matrix must be square"):
            transition_kernel(np.full((2, 3), 1 / 3), [0.0, 1.0])

    @pytest.mark.parametrize("where", [(0, 0), (1, 0)])
    def test_nan_transition_rejected(self, where):
        P = np.array([[0.5, 0.5], [0.2, 0.8]])
        P[where] = np.nan
        with pytest.raises(InputError, match="transition probabilities must be finite"):
            transition_kernel(P, [0.0, 1.0])

    def test_embedding_bounds(self):
        with pytest.raises(InputError):
            transition_kernel(np.eye(2), [[-0.1], [1.0]])
        with pytest.raises(InputError):
            transition_kernel(np.eye(2), [[np.nan], [1.0]])
        with pytest.raises(InputError, match="one vector per state"):
            transition_kernel(np.eye(2), [[0.0], [0.5], [1.0]])

    @pytest.mark.parametrize(
        "chain",
        [
            iid_chain(5),
            two_state_chain(0.3, 0.2),
            lazy_random_walk(4, 0.5),
            metropolis_grid(5),
        ],
    )
    def test_builtin_fixed_point(self, chain):
        pi = stationary_distribution(chain)
        assert np.max(np.abs(pi @ chain.P - pi)) < 1e-10
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)


class TestReversibility:
    def test_two_state_always_reversible(self):
        chain = two_state_chain(0.45, 0.1)
        assert is_reversible(chain, stationary_distribution(chain))

    def test_cycle_not_reversible(self):
        chain = cyclic3()
        assert not is_reversible(chain, stationary_distribution(chain))

    def test_symmetric_matrix_reversible(self):
        P = np.array([[0.6, 0.3, 0.1], [0.3, 0.4, 0.3], [0.1, 0.3, 0.6]])
        chain = transition_kernel(P, np.linspace(0, 1, 3))
        assert is_reversible(chain, stationary_distribution(chain))

    def test_adjoint_of_reversible_is_itself(self):
        chain = two_state_chain(0.3, 0.2)
        pi = stationary_distribution(chain)
        np.testing.assert_allclose(adjoint_kernel(chain, pi), chain.P, atol=1e-12)

    def test_adjoint_of_cycle_reverses(self):
        chain = cyclic3()
        pi = stationary_distribution(chain)
        adj = adjoint_kernel(chain, pi)
        np.testing.assert_allclose(adj, chain.P.T, atol=1e-12)
        np.testing.assert_allclose(adj.sum(axis=1), 1.0, atol=1e-10)

    def test_adjoint_zero_mass(self):
        chain = two_state_chain(0.3, 0.2)
        with pytest.raises(InputError, match="adjoint requires a strictly positive"):
            adjoint_kernel(chain, np.array([1.0, 0.0]))


class TestGaps:
    def test_two_state_gaps(self):
        chain = two_state_chain(0.3, 0.2)
        assert absolute_spectral_gap(chain) == pytest.approx(0.5, abs=1e-10)
        assert diagnose(chain).gamma == pytest.approx(0.5, abs=1e-10)

    def test_iid_gap_is_one(self, tmp_path):
        assert absolute_spectral_gap(iid_chain(8)) == pytest.approx(1.0, abs=1e-10)
        # a single state has no eigenvalue besides 1: the gap is 1 by convention
        path = tmp_path / "one.txt"
        path.write_text("1 1\n1.0\n0.5\n")
        assert absolute_spectral_gap(read_transition_file(path)) == 1.0

    def test_swap_chain(self):
        chain = two_state_chain(1.0, 1.0)
        assert absolute_spectral_gap(chain) == pytest.approx(0.0, abs=1e-12)
        # spectrum {1, -1}: the reversible gap reaches its upper endpoint 2
        assert diagnose(chain).gamma == pytest.approx(2.0, abs=1e-12)

    def test_identity_multiplicity_branch(self):
        chain = transition_kernel(np.eye(3), np.linspace(0, 1, 3))
        assert absolute_spectral_gap(chain) == 0.0

    def test_reversible_dominates_absolute(self):
        for chain in (two_state_chain(0.3, 0.2), lazy_random_walk(5, 0.4), metropolis_grid(4)):
            assert diagnose(chain).gamma >= absolute_spectral_gap(chain) - 1e-12

    def test_char_poly_cross_check(self):
        for chain in (two_state_chain(0.3, 0.2), cyclic3(), lazy_random_walk(4, 0.3)):
            reference = char_poly_eigen_moduli(chain.P)
            mine = np.sort(np.abs(np.linalg.eigvals(chain.P)))[::-1]
            np.testing.assert_allclose(mine, reference, atol=1e-8)


class TestPseudoGap:
    def test_two_state_value(self):
        chain = two_state_chain(0.3, 0.2)  # second eigenvalue 0.5
        assert pseudo_spectral_gap(chain, 3) == pytest.approx(0.75, abs=1e-10)

    def test_iid_value(self):
        assert pseudo_spectral_gap(iid_chain(6), 2) == pytest.approx(1.0, abs=1e-10)

    def test_k_one_matches_definition(self):
        chain = lazy_random_walk(4, 0.3)
        pi = stationary_distribution(chain)
        adj = adjoint_kernel(chain, pi)
        product = transition_kernel(adj @ chain.P, chain.state_embedding)
        assert pseudo_spectral_gap(chain, 1) == pytest.approx(
            diagnose(product).gamma, abs=1e-10
        )

    def test_monotone_in_k_max(self):
        chain = lazy_random_walk(5, 0.7)
        values = [pseudo_spectral_gap(chain, k) for k in range(1, 6)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_k_max_validation(self):
        with pytest.raises(InputError):
            pseudo_spectral_gap(iid_chain(3), 0)


class TestSampling:
    def test_deterministic_cycle_path(self):
        path = sample_chain(cyclic3(), 4, seed=0, start=0)
        np.testing.assert_array_equal(path, [0, 1, 2, 0])

    def test_same_seed_same_path(self):
        chain = lazy_random_walk(5, 0.3)
        a = sample_chain(chain, 500, seed=42)
        b = sample_chain(chain, 500, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_iid_frequencies_match_pi(self):
        chain = iid_chain(4, target=[0.1, 0.2, 0.3, 0.4])
        m = 10000
        path = sample_chain(chain, m, seed=9)
        freq = np.bincount(path, minlength=4) / m
        assert np.max(np.abs(freq - [0.1, 0.2, 0.3, 0.4])) < 3.0 / np.sqrt(m)

    def test_transition_frequencies_match_rows(self):
        chain = lazy_random_walk(3, 0.4)
        m = 100000
        path = sample_chain(chain, m, seed=17)
        counts = np.zeros((3, 3))
        np.add.at(counts, (path[:-1], path[1:]), 1.0)
        rows = counts / counts.sum(axis=1, keepdims=True)
        assert np.max(np.abs(rows - chain.P)) < 0.02

    @settings(max_examples=150)
    @given(n=st.integers(1, 6), m=st.integers(1, 40), seed=st.integers(0, 2**63),
           start=st.integers(-1, 5), block=st.integers(1, 8), data=st.data())
    @example(n=3, m=1, seed=0, start=-1, block=1, data=None)
    @example(n=3, m=2, seed=1, start=2, block=1, data=None)
    @example(n=4, m=40, seed=2, start=-1, block=3, data=None)
    def test_walk_matches_per_step_search(self, n, m, seed, start, block, data):
        # random row-stochastic matrices with zero entries; blocks of a few
        # steps so that paths cross block boundaries
        weights = np.ones((n, n))
        if data is not None:
            weights = data.draw(arrays(float, (n, n), elements=st.sampled_from(
                [0.0, 0.0, 0.1, 1 / 3, 0.5, 1.0, 7.0])))
        weights[weights.sum(axis=1) == 0, 0] = 1.0
        chain = transition_kernel(weights / weights.sum(axis=1, keepdims=True),
                                  np.linspace(0, 1, n))
        pi = None
        if start < 0:
            try:
                pi, start = stationary_distribution(chain), "stationary"
            except NumericError:
                start = 0
        start = start if isinstance(start, str) else start % n
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(modalmr.markov, "_WALK_BLOCK", block)
            path = sample_chain(chain, m, seed, start)
        np.testing.assert_array_equal(path, sample_chain_per_step(chain.P, pi, m, seed, start))

    def test_walk_crosses_the_default_block(self):
        chain = lazy_random_walk(6, 0.3)
        m = modalmr.markov._WALK_BLOCK + 5
        path = sample_chain(chain, m, seed=3)
        np.testing.assert_array_equal(
            path, sample_chain_per_step(chain.P, stationary_distribution(chain), m, 3))

    def test_invalid_start(self):
        with pytest.raises(InputError):
            sample_chain(iid_chain(3), 5, seed=0, start=7)
        with pytest.raises(InputError):
            sample_chain(iid_chain(3), 0, seed=0)
        with pytest.raises(InputError, match="'stationary' or a state index"):
            sample_chain(iid_chain(3), 5, seed=0, start="bogus")


class TestMixingCurve:
    def test_iid_converges_in_one_step(self):
        curve = tv_mixing_curve(iid_chain(5), 0, 4)
        assert all(tv == pytest.approx(0.0, abs=1e-14) for _, tv in curve)

    def test_two_state_closed_form(self):
        curve = tv_mixing_curve(two_state_chain(0.3, 0.2), 0, 8)
        for t, tv in curve:
            assert tv == pytest.approx(0.6 * 0.5**t, abs=1e-12)

    def test_single_entry(self):
        assert len(tv_mixing_curve(two_state_chain(0.3, 0.2), 0, 1)) == 1

    @pytest.mark.parametrize("start, t_max, message", [
        (0, 0, "t_max must be at least 1"),
        (3, 4, "start state 3 outside"),
        (-1, 4, "start state -1 outside"),
    ])
    def test_invalid_arguments(self, start, t_max, message):
        with pytest.raises(InputError, match=message):
            tv_mixing_curve(iid_chain(3), start, t_max)

    def test_non_increasing(self):
        curve = tv_mixing_curve(metropolis_grid(6, target=[0.3, 0.2, 0.2, 0.1, 0.1, 0.1]), 5, 40)
        tvs = [tv for _, tv in curve]
        assert all(b <= a + 1e-10 for a, b in zip(tvs, tvs[1:]))


class TestBuiltins:
    def test_two_state_embedding_and_gap(self):
        chain = builtin_chain("two-state", p=0.3, q=0.2)
        np.testing.assert_array_equal(chain.state_embedding, [[0.0], [1.0]])
        assert absolute_spectral_gap(chain) == pytest.approx(0.5, abs=1e-12)

    def test_iid_uniform_gap(self):
        chain = builtin_chain("iid", n=8)
        assert absolute_spectral_gap(chain) == pytest.approx(1.0, abs=1e-12)

    def test_lazy_walk_reversible(self):
        chain = builtin_chain("lazy-walk", n=3, laziness=0.5)
        assert is_reversible(chain, stationary_distribution(chain))

    def test_metropolis_targets(self):
        target = [0.4, 0.3, 0.2, 0.1]
        chain = metropolis_grid(4, target)
        np.testing.assert_allclose(stationary_distribution(chain), target, atol=1e-10)

    def test_builtin_metropolis_is_metropolis_grid(self):
        target = [0.4, 0.3, 0.2, 0.1]
        for d, params in ((1, {}), (2, {"target": target})):
            chain = builtin_chain("metropolis", d=d, n=4, **params)
            grid = metropolis_grid(4, params.get("target"), d)
            np.testing.assert_array_equal(chain.P, grid.P)
            np.testing.assert_array_equal(chain.state_embedding, grid.state_embedding)

    def test_one_dimensional_grid_is_evenly_spaced(self):
        for n in range(1, 300):
            np.testing.assert_array_equal(modalmr.markov._grid_embedding(n, 1),
                                          np.linspace(0.0, 1.0, n)[:, None])

    def test_grid_side_is_exact_when_the_float_root_overshoots(self):
        # 3125 ** (1/5) is 5.000000000000001; the lattice side is still 5
        emb = modalmr.markov._grid_embedding(3125, 5)
        for k in range(5):
            np.testing.assert_array_equal(np.unique(emb[:, k]), np.linspace(0.0, 1.0, 5))

    def test_grid_embedding_2d(self):
        chain = builtin_chain("iid", d=2, n=5)
        emb = chain.state_embedding
        assert emb.shape == (5, 2)
        assert np.all(emb >= 0) and np.all(emb <= 1)
        # row-major: the second coordinate varies fastest
        assert emb[0, 0] == emb[1, 0]

    def test_invalid_parameters(self):
        with pytest.raises(InputError):
            builtin_chain("two-state", p=1.5, q=0.2)
        with pytest.raises(InputError):
            builtin_chain("iid", n=1)
        with pytest.raises(InputError):
            builtin_chain("lazy-walk", n=4, laziness=1.0)
        with pytest.raises(InputError, match="walk needs at least 2 states"):
            builtin_chain("lazy-walk", n=1, laziness=0.5)
        with pytest.raises(InputError, match="metropolis chain needs at least 2 states"):
            builtin_chain("metropolis", n=1)
        with pytest.raises(InputError, match="length-n probability vector"):
            iid_chain(3, target=[0.5, 0.5])
        with pytest.raises(InputError, match="strictly positive length-n probability vector"):
            metropolis_grid(3, [0.5, 0.5, 0.0])
        with pytest.raises(InputError):
            builtin_chain("unknown")


class TestDiagnostics:
    def test_reversible_chain_report(self):
        diag = diagnose(two_state_chain(0.3, 0.2))
        assert diag.reversible
        assert diag.gamma >= diag.gamma_abs
        assert diag.pi.sum() == pytest.approx(1.0, abs=1e-12)
        tvs = [tv for _, tv in diag.tv_decay]
        assert all(b <= a + 1e-10 for a, b in zip(tvs, tvs[1:]))

    def test_non_reversible_gamma_nan(self):
        diag = diagnose(cyclic3())
        assert not diag.reversible
        assert np.isnan(diag.gamma)
        assert 0.0 <= diag.gamma_abs <= 1.0

    @pytest.mark.parametrize("chain", [cyclic3(), lazy_random_walk(6, 0.5)],
                             ids=["cyclic3", "lazy-walk"])
    def test_normal_chain_does_not_warn(self, caplog, chain):
        # cyclic3 is not reversible, but it commutes with its adjoint; the
        # CLI test of chain-info shows a chain that does not
        caplog.set_level(logging.WARNING, logger="modalmr.markov")
        diagnose(chain)
        assert caplog.records == []


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        chain = lazy_random_walk(4, 0.25, d=2)
        path = tmp_path / "chain.txt"
        write_transition_file(path, chain)
        loaded = read_transition_file(path)
        np.testing.assert_array_equal(loaded.P, chain.P)
        np.testing.assert_array_equal(loaded.state_embedding, chain.state_embedding)

    @settings(max_examples=60)
    @given(st.integers(1, 5), st.integers(1, 3), st.data())
    def test_round_trip_is_bit_faithful(self, tmp_path_factory, n, d, data):
        weights = data.draw(arrays(float, (n, n), elements=st.floats(0.01, 1.0)))
        P = weights / weights.sum(axis=1, keepdims=True)
        emb = data.draw(arrays(float, (n, d), elements=st.floats(0.0, 1.0)))
        path = tmp_path_factory.mktemp("chain") / "chain.txt"
        write_transition_file(path, transition_kernel(P, emb))
        loaded = read_transition_file(path)
        assert loaded.P.tobytes() == P.tobytes()
        assert loaded.state_embedding.tobytes() == emb.tobytes()

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 1\n0.5 0.5\n")
        with pytest.raises(InputError):
            read_transition_file(path)
        path.write_text("")
        with pytest.raises(InputError, match="expected 'n d' header"):
            read_transition_file(path)
