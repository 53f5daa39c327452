import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import stats

from etac.analysis import build_lambda_chain, return_time_pmf_truncated
from etac.cli import ExperimentConfig, PlantSelector, build_plant, run_paired_cells
from etac.domain import NoiseSpec, StochasticEnv, make_sat_plant, make_scalar_plant
from etac.oracle import (
    BufferState,
    _evaluation_counts,
    lambda_transition_matrix,
    plan_inputs,
    reference_anytime_step,
    reference_trajectory,
    simulate_lambda_chain,
    tv_distance,
    update_lambda,
)
from etac.runtime import RngStream, run_trajectory
from test_runtime import assert_runs_bitwise_equal

WORKED_ENV = StochasticEnv(q=0.75, p=(0.2, 0.3, 0.5), capacity=2)


def int64_path(n_seq):
    """The length-path unroll in int64 with 1-based positions, as before the integer kernel."""
    n_seq = np.asarray(n_seq, dtype=np.int64)
    pos = np.arange(1, n_seq.size + 1, dtype=np.int64)
    refill = np.where(n_seq >= 1, pos, 0)
    last = np.maximum.accumulate(refill)
    filled = np.where(last > 0, n_seq[last - 1], 0)
    return np.maximum(filled - (pos - last), 0)


class TestLambdaPath:
    def test_matches_recursion_fold(self):
        rng = np.random.default_rng(60)
        for _ in range(200):
            m = int(rng.integers(1, 200))
            received = rng.random(m) < 0.6
            draws = rng.integers(0, 5, size=m)
            n_seq = np.where(received, draws, 0)
            path = int64_path(n_seq)
            lam = 0
            for i, n in enumerate(n_seq):
                beta = 1 if received[i] else 0
                lam = update_lambda(lam, beta, int(n))
                assert path[i] == lam

    @given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_fold_property(self, counts):
        n_seq = np.array(counts)
        path = int64_path(n_seq)
        lam = 0
        for i, n in enumerate(counts):
            lam = update_lambda(lam, 1 if n >= 1 else 0, n)
            assert path[i] == lam


    @given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=300),
           st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=2000))
    @settings(max_examples=100, deadline=None)
    def test_fold_with_long_countdowns(self, counts, leading_zeros, refill_free_run):
        # the runs of zeros the event walk skips whole: before the first refill
        # and long after the last one, where the length sits at zero
        n_seq = [0] * leading_zeros + counts + [0] * refill_free_run
        path = int64_path(n_seq)
        lam = 0
        for i, n in enumerate(n_seq):
            lam = update_lambda(lam, 1 if n >= 1 else 0, n)
            assert path[i] == lam

    def test_edge_sequences(self):
        for n_seq in ([0], [3], [0, 0, 0], [0, 0, 0, 4], [5, 0, 0, 0, 0, 0, 0, 0], [0, 0, 2] + [0] * 10_000, [1] * 7):
            lam, fold = 0, []
            for n in n_seq:
                lam = update_lambda(lam, 1 if n >= 1 else 0, n)
                fold.append(lam)
            assert int64_path(n_seq).tolist() == fold

def searchsorted_counts(env, u):
    """The evaluation count of each processor uniform by ``searchsorted``, as before the integer kernel."""
    return np.minimum(np.searchsorted(np.cumsum(env.p), u, side="right"), env.capacity)


def crafted_uniforms(env):
    """Uniforms on, just below and just above every cumulative-pmf entry, plus 0 and 1-."""
    cum = np.cumsum(env.p)
    u = np.concatenate((cum, np.nextafter(cum, 0.0), np.nextafter(cum, 1.0), [0.0, np.nextafter(1.0, 0.0)]))
    return np.clip(u, 0.0, np.nextafter(1.0, 0.0))


class TestIntegerKernel:
    ENVS = [
        WORKED_ENV,
        StochasticEnv(q=0.6, p=(0.1,) * 10, capacity=9),  # cum[-1] = 1 - 2**-53 by rounding
        StochasticEnv(q=0.5, p=(0.0, 0.4, 0.0, 0.0, 0.6), capacity=4),  # repeated cum values
        StochasticEnv(q=0.0, p=(0.2, 0.3, 0.5), capacity=2),
        StochasticEnv(q=1.0, p=(0.3, 0.7), capacity=1),
        StochasticEnv(q=1.0, p=(0.0, 0.0, 1.0), capacity=2),
        StochasticEnv(q=0.7, p=(0.0, 0.25, 0.5, 0.25, 0.0), capacity=4),  # zero mass at both ends
        StochasticEnv(q=0.8, p=(0.5,) + (0.01,) * 50, capacity=50),
        StochasticEnv(q=0.8, p=(0.3,) + (0.007,) * 100, capacity=100),
    ]

    @pytest.mark.parametrize("env", ENVS, ids=["worked", "rounded", "repeated", "q0", "q1", "deterministic",
                                               "zero-ends", "capacity50", "capacity100"])
    def test_counts_equal_searchsorted_on_boundaries(self, env):
        u = crafted_uniforms(env)
        out = np.empty(u.size, dtype=np.int32)
        got = _evaluation_counts(np.cumsum(env.p), u, out)
        assert got is out
        assert np.array_equal(got, searchsorted_counts(env, u))

    def test_clamp_when_cum_ends_below_one(self):
        env = self.ENVS[1]
        assert np.cumsum(env.p)[-1] < 1.0
        u = np.full(3, np.nextafter(1.0, 0.0))
        got = _evaluation_counts(np.cumsum(env.p), u, np.empty(3, dtype=np.int32))
        assert np.array_equal(got, [env.capacity] * 3)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), env_index=st.integers(0, len(ENVS) - 1),
           m=st.integers(min_value=1, max_value=5000))
    @settings(max_examples=100, deadline=None)
    def test_counts_equal_searchsorted_on_a_stream(self, seed, env_index, m):
        env = self.ENVS[env_index]
        u = np.random.default_rng(seed).random(m)
        got = _evaluation_counts(np.cumsum(env.p), u, np.empty(m, dtype=np.int32))
        assert np.array_equal(got, searchsorted_counts(env, u))


#: (env, returns, stream seed) runs of ``simulate_lambda_chain`` and the SHA-256 of
#: their counts, recorded before the integer kernel.  They cover one large block
#: plus a short one (worked), six blocks (long gaps), whole blocks with no return
#: (slow: the carry across blocks), cum[-1] < 1 by rounding, q = 0 and q = 1.
SIMULATION_DIGESTS = [
    (WORKED_ENV, 200_000, 70, "0b8f5e05007c207cc23c21af33e51c8fea11c9ee2146f39a81eab333e626db51"),
    (StochasticEnv(q=0.9, p=(0.05, 0.05, 0.1, 0.1, 0.2, 0.2, 0.3), capacity=6), 100_000, 71,
     "0d3bb5e4ed2a69ba888bf92567d1a4ad9e4900bea5108a779d58dff5b6105c72"),
    (StochasticEnv(q=0.995, p=(0.01, 0.0, 0.99), capacity=2), 3, 72,
     "861dc6eac9b2721cdc7f84c86995c8715403361bc8b9ac39460a790a069f72f6"),
    (StochasticEnv(q=0.6, p=(0.1,) * 10, capacity=9), 50_000, 73,
     "2b532e3a8ddbdee57a310479fe23a71d558f2e4d9fcdb994bf8c1744debcc982"),
    (StochasticEnv(q=0.0, p=(0.2, 0.3, 0.5), capacity=2), 1000, 74,
     "921ac7f259f864606624eb7fc29124712ff65b425e9500a35dd32b71ddb9332c"),
    (StochasticEnv(q=1.0, p=(0.3, 0.7), capacity=1), 20_000, 75,
     "33efce75861e4aca654c4ab03d2566390f2db6115142f9c9fab52868574a909f"),
]

SIMULATION_IDS = ["worked", "long", "slow", "rounded", "q0", "q1"]

#: The worked run with ``_MAX_BLOCK = 17``, so that gaps straddle many blocks.
TINY_BLOCKS_RUN = (WORKED_ENV, 3000, 66, "12ded44d639123b4ae6db36c65c7a022dbe03c16661e481319eb4c04f899660c")

#: (chunk, run) pairs that check the digests above, and the ``_MAX_BLOCK = 17``
#: digest ("tiny-blocks"), with the block walked ``_CHUNK`` steps at a time.
#: Chunks of 1 and 7 make gaps straddle chunk and block boundaries and split
#: every block unevenly; the slow run has whole blocks with no return.  They
#: take one Python iteration per chunk, so only the runs of at most 70k steps
#: are walked at those sizes; the worked, long and rounded runs (0.5M-10M
#: steps) are walked in chunks of 1000.
CHUNKED_RUNS = [
    (chunk, run)
    for chunk in (1, 7, 1000)
    for run in SIMULATION_IDS + ["tiny-blocks"]
    if chunk == 1000 or run in ("slow", "q0", "q1", "tiny-blocks")
]


def sha256(array, dtype):
    return hashlib.sha256(np.ascontiguousarray(array, dtype=dtype).tobytes()).hexdigest()


def assert_simulation_digest(env, returns, seed, digest):
    pmf = simulate_lambda_chain(env, returns, RngStream(seed, 0))
    assert pmf.counts.dtype == np.int64
    assert pmf.total == returns
    assert sha256(pmf.counts, "<i8") == digest


class TestPinnedOutputs:
    @pytest.mark.parametrize("env, returns, seed, digest", SIMULATION_DIGESTS, ids=SIMULATION_IDS)
    def test_simulation_counts(self, env, returns, seed, digest):
        assert_simulation_digest(env, returns, seed, digest)

    def test_simulation_counts_with_tiny_blocks(self, monkeypatch):
        import etac.oracle as oracle_mod

        monkeypatch.setattr(oracle_mod, "_MAX_BLOCK", 17)
        assert_simulation_digest(*TINY_BLOCKS_RUN)

    @pytest.mark.parametrize("chunk, run", CHUNKED_RUNS)
    def test_simulation_counts_at_any_chunk(self, monkeypatch, chunk, run):
        import etac.oracle as oracle_mod

        monkeypatch.setattr(oracle_mod, "_CHUNK", chunk)
        if run == "tiny-blocks":
            monkeypatch.setattr(oracle_mod, "_MAX_BLOCK", 17)
            assert_simulation_digest(*TINY_BLOCKS_RUN)
        else:
            assert_simulation_digest(*SIMULATION_DIGESTS[SIMULATION_IDS.index(run)])


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

    def test_memory_does_not_grow_with_returns(self):
        import tracemalloc

        def peak(n_returns):
            tracemalloc.start()
            try:
                simulate_lambda_chain(WORKED_ENV, n_returns, RngStream(69, 0))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        simulate_lambda_chain(WORKED_ENV, 1000, RngStream(69, 0))  # first-call allocations
        small, large = peak(100_000), peak(3_000_000)
        assert large < 8 * 2**20
        assert large <= small + 64 * 2**10

    def test_rejects_never_returning_chain(self):
        env = StochasticEnv(q=1.0, p=(0.0, 1.0), capacity=1)
        with pytest.raises(ValueError):
            simulate_lambda_chain(env, 100, RngStream(68, 0))
        # nor does it take a request for no returns, on any chain
        with pytest.raises(ValueError, match="n_returns must be >= 1"):
            simulate_lambda_chain(WORKED_ENV, 0, RngStream(68, 0))


def definition_counts(env, n_returns, rng, max_block):
    """Return-time counts by the definition, for checking the event walk.

    Each block of the kernel's schedule is drawn whole from one generator in
    the documented layout (its reception uniforms, then its processor
    uniforms), counted by ``searchsorted`` on the received steps, and its
    length path unrolled by one ``int64_path`` call after a step that carries
    the length in; the gaps between zeros are cut at the n-th.
    """
    gen = rng.generator()
    gaps, total, steps_done, last_zero, lam = [], 0, 0, -1, 0
    while total < n_returns:
        if total == 0:
            block = min(max(4 * n_returns, 4096), max_block)
        else:
            mean_gap = steps_done / total
            block = min(int(1.25 * mean_gap * (n_returns - total)) + 4096, max_block)
        received_u = gen.random(block)
        n_seq = np.where(received_u < env.q, searchsorted_counts(env, gen.random(block)), 0)
        path = int64_path(np.concatenate(([lam], n_seq)))[1:]
        zeros = np.flatnonzero(path == 0)
        gaps.append(np.diff(zeros, prepend=last_zero))
        total += zeros.size
        last_zero = (zeros[-1] if zeros.size else last_zero) - block
        lam = path[-1]
        steps_done += block
    return np.bincount(np.concatenate(gaps)[:n_returns])[1:]


@st.composite
def walk_cases(draw):
    """(env, returns, chunk, max block, seed) for a walk of about a thousand chunks or blocks at most."""
    capacity = draw(st.integers(1, 8))
    weights = draw(st.lists(st.just(0.0) | st.floats(0.05, 1.0), min_size=capacity + 1,
                            max_size=capacity + 1).filter(any))
    q = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.01, 0.99))
    if q == 1.0 and weights[0] == 0.0:
        weights[0] = draw(st.floats(0.05, 1.0))
    env = StochasticEnv(q=q, p=tuple(w / sum(weights) for w in weights), capacity=capacity)
    chunk = draw(st.sampled_from([1, 7]) | st.integers(2, 400))
    max_block = draw(st.sampled_from([17, 2_000_000]))
    # Kac: the mean return time is 1 / det(I - G); expect at most about a
    # thousand chunks or blocks per walk
    mean_gap = 1.0 / np.linalg.det(np.eye(capacity) - lambda_transition_matrix(env))
    most = int(1000 * min(chunk, max_block) / mean_gap)
    assume(most >= 1)
    returns = draw(st.integers(1, min(3000, most)))
    return env, returns, chunk, max_block, draw(st.integers(0, 2**32 - 1))


class TestEventWalk:
    @given(walk_cases())
    @settings(max_examples=150, deadline=None)
    def test_counts_equal_the_definition(self, case):
        import etac.oracle as oracle_mod

        env, returns, chunk, max_block, seed = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle_mod, "_CHUNK", chunk)
            mp.setattr(oracle_mod, "_MAX_BLOCK", max_block)
            pmf = simulate_lambda_chain(env, returns, RngStream(seed, 0))
        assert pmf.total == returns
        assert pmf.counts.dtype == np.int64
        expected = definition_counts(env, returns, RngStream(seed, 0), max_block)
        assert np.array_equal(pmf.counts, expected)


class TestTransitionFrequencies:
    @pytest.mark.parametrize("env", [
        WORKED_ENV,
        StochasticEnv(q=0.6, p=(0.1,) * 10, capacity=9),
        StochasticEnv(q=1.0, p=(0.3, 0.7), capacity=1),
        StochasticEnv(q=0.3, p=(0.1, 0.2, 0.3, 0.4), capacity=3),
        StochasticEnv(q=0.9, p=(0.5, 0.0, 0.5), capacity=2),
    ], ids=["worked", "rounded", "q1", "rare-reception", "gap"])
    def test_simulator_lengths_fit_dense_matrix(self, env):
        # At d = 0 every step transmits, so the simulator's lambda column walks
        # the buffer-length chain: from each length l >= 1 the next length is
        # j >= 1 w.p. g[l-1, j-1] and 0 with the rest of the row's mass.
        g = lambda_transition_matrix(env)
        expected_rows = np.hstack((1.0 - g.sum(axis=1, keepdims=True), g))
        observed = np.zeros_like(expected_rows)
        plant = make_scalar_plant(0.5, 0.2, 0.0)
        for trial in range(4):
            lam = run_trajectory(plant, env, NoiseSpec(), "anytime", 20_000, RngStream(71, trial)).lam
            lam = np.asarray(lam)
            prev, nxt = lam[:-1], lam[1:]
            active = prev >= 1
            np.add.at(observed, (prev[active] - 1, nxt[active]), 1)
        expected = expected_rows * observed.sum(axis=1, keepdims=True)
        assert np.all(observed[expected == 0.0] == 0)
        # one chi-square over every row, merging each row's cells expected below 25
        chi2, df = 0.0, 0
        for obs_row, exp_row in zip(observed, expected):
            keep = exp_row >= 25.0
            obs = np.append(obs_row[keep], obs_row[~keep].sum())
            exp = np.append(exp_row[keep], exp_row[~keep].sum())
            if exp[-1] == 0.0:
                obs, exp = obs[:-1], exp[:-1]
            chi2 += float(((obs - exp) ** 2 / exp).sum())
            df += len(exp) - 1
        assert df >= 1
        assert chi2 < stats.chi2.ppf(0.999, df=df)

class TestReferenceAnytimeStep:
    def test_fill_shift_silent_sequence(self):
        # fill two inputs from x = 4, then play the plan, then go silent
        plant = make_scalar_plant(2.0, 1.5, 0.0)
        plan = plan_inputs(np.array([4.0]), 2, plant)
        assert [float(u[0]) for u in plan] == [-6.0, -3.0]  # kappa(f(4, -6)) = kappa(2)
        with pytest.raises(ValueError):
            plan_inputs(np.array([4.0]), 0, plant)
        buf = BufferState.zeros(2, 1)
        u, buf = reference_anytime_step(np.array([4.0]), 1, 2, buf, plant)
        assert u[0] == -6.0 and buf.lam == 2
        assert np.array_equal(buf.blocks, np.array([[-6.0], [-3.0]]))
        u, buf = reference_anytime_step(None, 0, 0, buf, plant)
        assert u[0] == -3.0 and buf.lam == 1
        u, buf = reference_anytime_step(None, 2, 0, buf, plant)
        assert u[0] == 0.0 and buf.lam == 0
        assert np.array_equal(buf.blocks, np.zeros((2, 1)))

    def test_silent_step_empties(self):
        plant = make_sat_plant(1.0)
        buf = BufferState(np.ones((3, 2)), 3)
        u, out = reference_anytime_step(None, 2, 0, buf, plant)
        assert np.array_equal(u, np.zeros(2))
        assert np.array_equal(out.blocks, np.zeros((3, 2)))
        assert out.lam == 0

    @given(capacity=st.integers(1, 6),
           steps=st.lists(st.tuples(st.sampled_from([0, 1, 2]), st.integers(0, 6),
                                    st.lists(st.floats(-20.0, 20.0), min_size=2, max_size=2)),
                          max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_rows_from_lam_on_are_padding_zeros(self, capacity, steps):
        plant = make_sat_plant()
        buf = BufferState.zeros(capacity, plant.input_dim)
        for beta, n, x in steps:
            n = min(n, capacity) if beta == 1 else 0
            _, buf = reference_anytime_step(np.array(x) if beta == 1 else None, beta, n, buf, plant)
            assert np.all(buf.blocks[buf.lam :] == 0.0)

    def test_contract_violations(self):
        plant = make_scalar_plant(2.0, 1.5, 0.0)
        x = np.array([1.0])
        # evaluations without reception, reception without the state, a state
        # without reception, and more evaluations than the buffer's two rows
        for args, message in (((x, 0, 1), "requires beta == 1"), ((None, 1, 0), "exactly when"),
                              ((x, 0, 0), "exactly when"), ((x, 1, 3), "exceeds buffer capacity")):
            with pytest.raises(ValueError, match=message):
                reference_anytime_step(*args, BufferState.zeros(2, 1), plant)


#: The saturated plant, a stable scalar plant and a scalar plant that diverges.
REFERENCE_PLANTS = [make_sat_plant(), make_scalar_plant(1.2, 0.9, 0.0), make_scalar_plant(3.0, 2.5, 0.0)]


def array_maps(plant):
    """The plant with its maps behind plain array lambdas, which have no float form."""
    dynamics, control_law = plant.dynamics, plant.control_law
    return replace(plant, dynamics=lambda x, u: dynamics(x, u), control_law=lambda x: control_law(x))


class TestReferenceTrajectory:
    @given(
        plant_index=st.integers(0, len(REFERENCE_PLANTS) - 1),
        capacity=st.integers(1, 6),
        data=st.data(),
        noise_std=st.none() | st.floats(0.01, 2.0),
        radii=st.sets(st.sampled_from([0.0, 0.3, 1.0, 3.0]), min_size=1),
        reverse=st.booleans(),
        horizon=st.integers(1, 80),
        seed=st.integers(0, 2**64 - 1),
        t=st.integers(0, 2**40),
    )
    @settings(max_examples=150, deadline=None)
    def test_sweep_on_one_stream_equals_reference(
        self, plant_index, capacity, data, noise_std, radii, reverse, horizon, seed, t
    ):
        # every radius and both controllers on one stream, in the montecarlo
        # cell order or reversed, so that runs follow the kept runs; once with
        # the built-in maps, whose float forms the loop calls, and once with
        # array lambdas around them, which it calls through their arrays
        plant = REFERENCE_PLANTS[plant_index]
        weights = data.draw(st.lists(st.floats(0.0, 1.0), min_size=capacity + 1,
                                     max_size=capacity + 1).filter(any))
        env = StochasticEnv(q=data.draw(st.floats(0.0, 1.0)),
                            p=tuple(w / sum(weights) for w in weights), capacity=capacity)
        noise = NoiseSpec() if noise_std is None else NoiseSpec("gaussian-iid", noise_std)
        x0 = None
        if data.draw(st.integers(0, 4)) == 0:
            x0 = np.array(data.draw(st.lists(st.floats(-5.0, 5.0), min_size=plant.state_dim,
                                             max_size=plant.state_dim)))
        lambdas = array_maps(plant)  # one pair of map objects for every radius
        cells = [(d, c) for d in sorted(radii) for c in ("baseline", "anytime")]
        if reverse:
            cells.reverse()
        built_in_stream, lambda_stream = RngStream(seed, t), RngStream(seed, t)
        for d, controller in cells:
            ref = reference_trajectory(replace(plant, d=d), env, noise, controller, horizon, seed, t, x0=x0)
            for cell_plant, stream in ((plant, built_in_stream), (lambdas, lambda_stream)):
                trace = run_trajectory(replace(cell_plant, d=d), env, noise, controller, horizon,
                                       stream, x0=x0)
                assert_runs_bitwise_equal(trace, ref)

    @pytest.mark.parametrize("config, any_diverged", [
        (ExperimentConfig(
            plant=PlantSelector("saturated"), env=StochasticEnv(q=0.4, p=(0.2,) * 5, capacity=4),
            d_sweep=(0.0, 1.0, 3.0), horizon=30, trials=12, seed=7,
            noise=NoiseSpec("gaussian-iid", 0.5),
        ), False),
        (ExperimentConfig(
            plant=PlantSelector("scalar", 1.2, 0.8), env=StochasticEnv(q=0.6, p=(0.3, 0.3, 0.4), capacity=2),
            d_sweep=(0.0, 0.5, 2.0), horizon=40, trials=12, seed=8, x0=(4.0,),
        ), False),
        (ExperimentConfig(
            plant=PlantSelector("scalar", 3.0, 2.5), env=StochasticEnv(q=0.5, p=(0.3, 0.2, 0.2, 0.3), capacity=3),
            d_sweep=(0.0, 1.0), horizon=60, trials=12, seed=9,
        ), True),
    ], ids=["noisy-saturated", "fixed-x0-scalar", "diverging-scalar"])
    def test_paired_cells_equal_reference(self, config, any_diverged):
        costs, utils, diverged = run_paired_cells(config)
        for di, d in enumerate(config.d_sweep):
            plant = build_plant(config.plant, d)
            for ci, controller in enumerate(config.controllers):
                for t in range(config.trials):
                    ref = reference_trajectory(plant, config.env, config.noise, controller,
                                               config.horizon, config.seed, t, x0=config.x0)
                    sent = sum(beta != 2 for beta in ref.beta)
                    x = np.array(ref.x)
                    cost = math.fsum((x * x).sum(axis=1).tolist()) / config.horizon
                    assert costs[di, ci, t] == cost
                    assert utils[di, ci, t] == 100.0 * sent / config.horizon
                    assert diverged[di, ci, t] == ref.diverged
        assert diverged.any() == any_diverged

    def test_refuses_unknown_controller(self):
        with pytest.raises(ValueError):
            reference_trajectory(make_sat_plant(), WORKED_ENV, NoiseSpec(), "pid", 10, 0, 0)


class TestTvDistance:
    def test_identical_pmfs(self):
        from etac.oracle import EmpiricalPmf

        emp = EmpiricalPmf(counts=np.array([40, 60]), total=100)
        assert tv_distance(np.array([0.4, 0.6]), emp) == pytest.approx(0.0, abs=1e-15)

    def test_disjoint_support(self):
        from etac.oracle import EmpiricalPmf

        emp = EmpiricalPmf(counts=np.array([0, 100]), total=100)
        assert tv_distance(np.array([1.0]), emp) == pytest.approx(1.0)
