import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from etac.analysis import build_lambda_chain, return_time_pmf_truncated
from etac.domain import NoiseSpec, StochasticEnv, make_sat_plant, make_scalar_plant
from etac.oracle import (
    BufferState,
    empirical_transition_matrix,
    lambda_path_from_counts,
    lambda_transition_matrix,
    reference_anytime_step,
    simulate_lambda_chain,
    tv_distance,
    update_lambda,
)
from etac.runtime import RngStream, run_trajectory

WORKED_ENV = StochasticEnv(q=0.75, p=(0.2, 0.3, 0.5), capacity=2)


def replay(trace, plant, rows):
    """Feed a trace's step inputs to the reference step on a ``rows``-row buffer.

    Yields each record with the reference's input and buffer after that step.
    """
    buf = BufferState.zeros(rows, plant.input_dim)
    for r in trace.records:
        x = r.x if r.beta == 1 else None
        u, buf = reference_anytime_step(x, r.beta, min(r.n, rows), buf, plant)
        yield r, u, buf


class TestLambdaPath:
    def test_matches_recursion_fold(self):
        rng = np.random.default_rng(60)
        for _ in range(200):
            m = int(rng.integers(1, 200))
            received = rng.random(m) < 0.6
            draws = rng.integers(0, 5, size=m)
            n_seq = np.where(received, draws, 0)
            path = lambda_path_from_counts(n_seq)
            lam = 0
            for i, n in enumerate(n_seq):
                beta = 1 if received[i] else 0
                lam = update_lambda(lam, beta, int(n))
                assert path[i] == lam

    @given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_fold_property(self, counts):
        n_seq = np.array(counts)
        path = lambda_path_from_counts(n_seq)
        lam = 0
        for i, n in enumerate(counts):
            lam = update_lambda(lam, 1 if n >= 1 else 0, n)
            assert path[i] == lam


class TestSimulateLambdaChain:
    def test_no_reception_returns_every_step(self):
        env = StochasticEnv(q=0.0, p=(0.2, 0.3, 0.5), capacity=2)
        pmf = simulate_lambda_chain(env, 5000, RngStream(61, 0))
        assert pmf.total == 5000
        assert np.array_equal(pmf.counts, np.array([5000]))

    def test_worked_example_first_return_mass(self):
        pmf = simulate_lambda_chain(WORKED_ENV, 1_000_000, RngStream(62, 0))
        half_width = 3.0 * math.sqrt(0.4 * 0.6 / pmf.total)
        assert abs(pmf.frequencies[0] - 0.4) < half_width

    def test_worked_example_tv_and_mean(self):
        pmf = simulate_lambda_chain(WORKED_ENV, 1_000_000, RngStream(63, 0))
        chain = build_lambda_chain(WORKED_ENV)
        analytic = return_time_pmf_truncated(chain)
        assert tv_distance(analytic, pmf) < 0.01
        support = np.arange(1, len(analytic) + 1)
        mean_analytic = float(support @ analytic)
        second = float((support**2) @ analytic)
        sigma = math.sqrt(max(second - mean_analytic**2, 0.0))
        assert abs(pmf.mean() - mean_analytic) < 3.0 * sigma / math.sqrt(pmf.total)

    def test_chi_square_against_analytic(self):
        pmf = simulate_lambda_chain(WORKED_ENV, 1_000_000, RngStream(64, 0))
        chain = build_lambda_chain(WORKED_ENV)
        analytic = return_time_pmf_truncated(chain)
        width = max(len(analytic), len(pmf.counts))
        probs = np.zeros(width)
        probs[: len(analytic)] = analytic
        observed = np.zeros(width)
        observed[: len(pmf.counts)] = pmf.counts
        expected = probs * pmf.total
        # merge outcomes with expected count below 25 into one tail bucket
        keep = expected >= 25.0
        obs = np.append(observed[keep], observed[~keep].sum())
        exp = np.append(expected[keep], expected[~keep].sum())
        if exp[-1] == 0.0:
            obs, exp = obs[:-1], exp[:-1]
        exp *= obs.sum() / exp.sum()
        chi2 = float(((obs - exp) ** 2 / exp).sum())
        threshold = stats.chi2.ppf(0.999, df=len(exp) - 1)
        assert chi2 < threshold

    def test_deterministic_given_stream(self):
        a = simulate_lambda_chain(WORKED_ENV, 50_000, RngStream(65, 3))
        b = simulate_lambda_chain(WORKED_ENV, 50_000, RngStream(65, 3))
        assert np.array_equal(a.counts, b.counts)

    def test_small_block_crossing(self, monkeypatch):
        # force tiny blocks so gaps straddle block boundaries
        import etac.oracle as oracle_mod

        monkeypatch.setattr(oracle_mod, "_MAX_BLOCK", 17)
        pmf_small = simulate_lambda_chain(WORKED_ENV, 3000, RngStream(66, 0))
        assert pmf_small.total == 3000
        assert pmf_small.mean() < 20.0

    def test_frequencies_sum_to_one(self):
        pmf = simulate_lambda_chain(WORKED_ENV, 10_000, RngStream(67, 0))
        assert pmf.counts.sum() == pmf.total
        assert float(pmf.frequencies.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_never_returning_chain(self):
        env = StochasticEnv(q=1.0, p=(0.0, 1.0), capacity=1)
        with pytest.raises(ValueError):
            simulate_lambda_chain(env, 100, RngStream(68, 0))


class TestEmpiricalTransitionMatrix:
    def test_no_reception_is_pure_countdown(self):
        env = StochasticEnv(q=0.0, p=(0.2, 0.3, 0.5), capacity=2)
        est = empirical_transition_matrix(env, 100_000, RngStream(70, 0))
        assert est.matrix[1, 0] == 1.0  # from length 2 always to 1
        assert est.matrix[0].sum() == 0.0  # from length 1 always escapes

    def test_worked_example_within_three_sigma(self):
        est = empirical_transition_matrix(WORKED_ENV, 2_000_000, RngStream(71, 0))
        g = lambda_transition_matrix(WORKED_ENV)
        sigma = np.sqrt(g * (1.0 - g) / est.visits[:, None])
        assert np.all(np.abs(est.matrix - g) <= 3.0 * sigma + 1e-12)

    def test_row_sums(self):
        est = empirical_transition_matrix(WORKED_ENV, 400_000, RngStream(72, 0))
        sums = est.matrix.sum(axis=1)
        assert sums[1] == pytest.approx(1.0, abs=1e-12)  # no escape from length 2
        assert sums[0] < 1.0

    def test_warns_on_sparse_rows(self):
        with pytest.warns(UserWarning, match="1000"):
            empirical_transition_matrix(WORKED_ENV, 600, RngStream(73, 0))


class TestReferenceAnytimeStep:
    def test_differential_equality(self):
        plant = make_sat_plant(1.0)
        noise = NoiseSpec("gaussian-iid", 1.0)
        env = StochasticEnv(q=0.6, p=(0.2,) * 5, capacity=4)
        steps, betas, ns = 0, set(), set()
        for trial in range(170):
            trace = run_trajectory(plant, env, noise, "anytime", 60, RngStream(74, trial))
            for r, u, buf in replay(trace, plant, env.capacity):
                assert np.array_equal(r.u, u)
                assert r.lam == buf.lam
                # rows past the effective length are always padding zeros
                assert np.all(buf.blocks[buf.lam :] == 0.0)
                steps += 1
                betas.add(r.beta)
                ns.add(r.n)
        assert steps >= 10_000
        assert betas == {0, 1, 2} and ns == set(range(env.capacity + 1))

    def test_silent_step_empties(self):
        plant = make_sat_plant(1.0)
        buf = BufferState(np.ones((3, 2)), 3)
        u, out = reference_anytime_step(None, 2, 0, buf, plant)
        assert np.array_equal(u, np.zeros(2))
        assert np.array_equal(out.blocks, np.zeros((3, 2)))
        assert out.lam == 0

    def test_single_slot_matches_baseline(self):
        plant = make_scalar_plant(2.0, 1.5, 0.5)
        env = StochasticEnv(q=0.6, p=(0.3, 0.3, 0.4), capacity=2)
        steps = 0
        for trial in range(40):
            trace = run_trajectory(plant, env, NoiseSpec(), "baseline", 50, RngStream(75, trial))
            for r, u, _ in replay(trace, plant, 1):
                assert np.array_equal(r.u, u)
                steps += 1
        assert steps >= 1000

    def test_contract_violations(self):
        plant = make_scalar_plant(2.0, 1.5, 0.0)
        with pytest.raises(ValueError):
            reference_anytime_step(np.array([1.0]), 0, 1, BufferState.zeros(2, 1), plant)
        with pytest.raises(ValueError):
            reference_anytime_step(None, 1, 0, BufferState.zeros(2, 1), plant)


class TestTvDistance:
    def test_identical_pmfs(self):
        from etac.oracle import EmpiricalPmf

        emp = EmpiricalPmf(counts=np.array([40, 60]), total=100)
        assert tv_distance(np.array([0.4, 0.6]), emp) == pytest.approx(0.0, abs=1e-15)

    def test_disjoint_support(self):
        from etac.oracle import EmpiricalPmf

        emp = EmpiricalPmf(counts=np.array([0, 100]), total=100)
        assert tv_distance(np.array([1.0]), emp) == pytest.approx(1.0)
