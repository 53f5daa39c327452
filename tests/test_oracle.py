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
    _draw_counts,
    empirical_transition_matrix,
    lambda_path_from_counts,
    lambda_transition_matrix,
    reference_anytime_step,
    reference_trajectory,
    simulate_lambda_chain,
    tv_distance,
    update_lambda,
)
from etac.runtime import RngStream, run_trajectory

WORKED_ENV = StochasticEnv(q=0.75, p=(0.2, 0.3, 0.5), capacity=2)


def replay(trace, plant, rows):
    """Feed a trace's step inputs to the reference step on a ``rows``-row buffer.

    Yields each step's index with the reference's input and buffer after it.
    """
    buf = BufferState.zeros(rows, plant.input_dim)
    for k, (x, beta, n) in enumerate(zip(trace.x, trace.beta, trace.n)):
        u, buf = reference_anytime_step(x if beta == 1 else None, beta, min(n, rows), buf, plant)
        yield k, u, buf


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


def searchsorted_counts(env, received_u, u):
    """Per-step evaluation counts by ``searchsorted``, as before the integer kernel."""
    received = received_u < env.q
    cum = np.cumsum(env.p)
    draws = np.minimum(np.searchsorted(cum, u, side="right"), env.capacity)
    return np.where(received, draws, 0).astype(np.int64)


def int64_path(n_seq):
    """The length-path unroll in int64 with 1-based positions, as before the integer kernel."""
    n_seq = np.asarray(n_seq, dtype=np.int64)
    pos = np.arange(1, n_seq.size + 1, dtype=np.int64)
    refill = np.where(n_seq >= 1, pos, 0)
    last = np.maximum.accumulate(refill)
    filled = np.where(last > 0, n_seq[last - 1], 0)
    return np.maximum(filled - (pos - last), 0)


class FixedDraws:
    """Stands in for a generator: ``random`` hands out the given arrays in order."""

    def __init__(self, *arrays):
        self.arrays = list(arrays)

    def random(self, m):
        out = self.arrays.pop(0)
        assert out.size == m
        return out


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
        received_u = np.resize(np.array([0.0, 0.3, 0.75, np.nextafter(1.0, 0.0)]), u.size)
        out = np.empty(u.size, dtype=np.int32)
        got = _draw_counts(env, FixedDraws(received_u, u), out)
        assert got is out
        assert np.array_equal(got, searchsorted_counts(env, received_u, u))

    def test_clamp_when_cum_ends_below_one(self):
        env = self.ENVS[1]
        assert np.cumsum(env.p)[-1] < 1.0
        u = np.full(3, np.nextafter(1.0, 0.0))
        got = _draw_counts(env, FixedDraws(np.zeros(3), u), np.empty(3, dtype=np.int32))
        assert np.array_equal(got, [env.capacity] * 3)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), env_index=st.integers(0, len(ENVS) - 1),
           m=st.integers(min_value=1, max_value=5000))
    @settings(max_examples=100, deadline=None)
    def test_counts_equal_searchsorted_on_a_stream(self, seed, env_index, m):
        env = self.ENVS[env_index]
        gen = np.random.default_rng(seed)
        got = _draw_counts(env, np.random.default_rng(seed), np.empty(m, dtype=np.int32))
        received_u = gen.random(m)
        assert np.array_equal(got, searchsorted_counts(env, received_u, gen.random(m)))

    @given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=300),
           st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=2000))
    @settings(max_examples=200, deadline=None)
    def test_path_equals_int64_formula(self, counts, leading_zeros, refill_free_run):
        n_seq = np.array([0] * leading_zeros + counts + [0] * refill_free_run)
        path = lambda_path_from_counts(n_seq)
        assert path.dtype == np.int32
        assert np.array_equal(path, int64_path(n_seq))

    def test_path_edge_sequences(self):
        for n_seq in ([0], [3], [0, 0, 0], [0, 0, 0, 4], [5, 0, 0, 0, 0, 0, 0, 0], [0, 0, 2] + [0] * 10_000, [1] * 7):
            assert np.array_equal(lambda_path_from_counts(np.array(n_seq)), int64_path(np.array(n_seq)))


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

#: (env, stream seed) runs of ``empirical_transition_matrix`` with 20000 draws per
#: row, and the SHA-256 of their matrix and visits, recorded before the integer kernel.
TRANSITION_DIGESTS = [
    (WORKED_ENV, 80, "4deae5eb3de9646398d2ec3c4851801cc06d2fd432a1374806fffe59fc02d5bf",
     "08b7a44a9cc191d2a66282cf3203094cd82db2454e5ade86b609b76097a4ca61"),
    (StochasticEnv(q=0.6, p=(0.1,) * 10, capacity=9), 81,
     "8b9cc252b0bb3d2152e6fde6471186d00bd8e9b1199c527ea3bd05a08e42b5db",
     "f7c4d0e6e45a76aab1b953e52c5a2c2218429e4cd73e89ca22107778a78ce7cd"),
    (StochasticEnv(q=1.0, p=(0.3, 0.7), capacity=1), 82,
     "6242f2312fd42ea2e43eacdbc0658477b788152cc19de74bbe3ea60e8de99ceb",
     "ae9475d31b535bec000c9bfc7abc79b6a07db9eea2dd0e5066adddfb349bb53b"),
    (StochasticEnv(q=0.0, p=(0.2, 0.3, 0.5), capacity=2), 83,
     "ee282b9a2a908de59370144927dbde8229713e5d8873d82b72a649cb2e6c621a",
     "08b7a44a9cc191d2a66282cf3203094cd82db2454e5ade86b609b76097a4ca61"),
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

    @pytest.mark.parametrize("env, seed, matrix_digest, visits_digest", TRANSITION_DIGESTS,
                             ids=["worked", "rounded", "q1", "q0"])
    def test_transition_estimate(self, env, seed, matrix_digest, visits_digest):
        est = empirical_transition_matrix(env, 20_000 * env.capacity, RngStream(seed, 0))
        assert sha256(est.matrix, "<f8") == matrix_digest
        assert sha256(est.visits, "<i8") == visits_digest


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


def definition_counts(env, n_returns, rng, max_block):
    """Return-time counts by the definition, for checking the event walk.

    Each block of the kernel's schedule is drawn whole from one generator in
    the documented layout (its reception uniforms, then its processor
    uniforms), counted by ``searchsorted``, and its length path unrolled by one
    ``lambda_path_from_counts`` call after a step that carries the length in;
    the gaps between zeros are cut at the n-th.
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
        n_seq = searchsorted_counts(env, received_u, gen.random(block))
        path = lambda_path_from_counts(np.concatenate(([lam], n_seq)))[1:]
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
            for k, u, buf in replay(trace, plant, env.capacity):
                assert np.array_equal(trace.u[k], u)
                assert trace.lam[k] == buf.lam
                # rows past the effective length are always padding zeros
                assert np.all(buf.blocks[buf.lam :] == 0.0)
                steps += 1
            betas.update(trace.beta)
            ns.update(trace.n)
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
            for k, u, _ in replay(trace, plant, 1):
                assert np.array_equal(trace.u[k], u)
                steps += 1
        assert steps >= 1000

    def test_contract_violations(self):
        plant = make_scalar_plant(2.0, 1.5, 0.0)
        with pytest.raises(ValueError):
            reference_anytime_step(np.array([1.0]), 0, 1, BufferState.zeros(2, 1), plant)
        with pytest.raises(ValueError):
            reference_anytime_step(None, 1, 0, BufferState.zeros(2, 1), plant)


#: The saturated plant, a stable scalar plant and a scalar plant that diverges.
REFERENCE_PLANTS = [make_sat_plant(), make_scalar_plant(1.2, 0.9, 0.0), make_scalar_plant(3.0, 2.5, 0.0)]


def assert_run_equals_reference(trace, ref):
    """x, u, beta, N, lambda and the divergence flag, bit for bit."""
    assert np.array(trace.x).tobytes() == ref.x.tobytes()
    assert np.array(trace.u).tobytes() == ref.u.tobytes()
    assert trace.beta == ref.beta.tolist()
    assert trace.n == ref.n.tolist()
    assert trace.lam == ref.lam.tolist()
    assert trace.diverged == ref.diverged


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
        # cell order or reversed, so that runs follow the kept runs
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
        cells = [(replace(plant, d=d), c) for d in sorted(radii) for c in ("baseline", "anytime")]
        if reverse:
            cells.reverse()
        stream = RngStream(seed, t)
        for cell_plant, controller in cells:
            trace = run_trajectory(cell_plant, env, noise, controller, horizon, stream, x0=x0)
            ref = reference_trajectory(cell_plant, env, noise, controller, horizon, seed, t, x0=x0)
            assert_run_equals_reference(trace, ref)

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
                    sent = int(np.count_nonzero(ref.beta != 2))
                    cost = math.fsum(float(x.dot(x)) for x in ref.x) / config.horizon
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
