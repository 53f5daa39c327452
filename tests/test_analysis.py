import math
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from etac.analysis import (
    _resolvent_factor,
    _return_time_pmf,
    analyze,
    anytime_contraction,
    anytime_contraction_series,
    anytime_mean_bound,
    baseline_contraction,
    baseline_mean_bound,
    boundary_alpha_anytime,
    boundary_alpha_baseline,
    boundary_curves,
    build_lambda_chain,
    return_time_pmf_truncated,
)
from etac.domain import StochasticEnv, make_sat_plant, make_scalar_plant, validate_env
from etac.oracle import lambda_transition_matrix, simulate_lambda_chain
from etac.runtime import RngStream

# worked example used throughout: capacity 2, q = 0.75, p = (0.2, 0.3, 0.5)
WORKED_ENV = StochasticEnv(q=0.75, p=(0.2, 0.3, 0.5), capacity=2)
REFERENCE_ENV = StochasticEnv(q=0.75, p=(0.2,) * 5, capacity=4)

# omega for (alpha, rho) = (1.2, 0.5) on the worked chain, solved by hand:
# (I - 0.5 G)^{-1} e1 = (0.8125, 0.3125)/0.6625, theta = (0.225, 0.375),
# bracket = 1 + 0.5 * 0.3/0.6625, omega = 1.2 * 0.4 * bracket
WORKED_OMEGA = 0.48 * (1.0 + 0.5 * (0.3 / 0.6625))


def dense_pmf(env, j_max):
    """Pr{j} = r (j = 1), r theta^T G**(j-2) e1 (j >= 2) from the oracle's dense G."""
    g = lambda_transition_matrix(env)
    theta = env.q * np.asarray(env.p[1:])
    r = 1.0 - env.q + env.p[0] * env.q
    out = [r]
    v = np.eye(env.capacity)[0]
    for _ in range(2, j_max + 1):
        out.append(r * float(theta @ v))
        v = g @ v
    return np.array(out)


def dense_resolvent(env, rho):
    """theta^T (I - rho G)^{-1} e1 by a dense solve on the oracle's G."""
    g = lambda_transition_matrix(env)
    e1 = np.eye(env.capacity)[0]
    return float(env.q * np.asarray(env.p[1:]) @ np.linalg.solve(np.eye(env.capacity) - rho * g, e1))


def random_env(rng, max_capacity=8, q_hi=0.95):
    capacity = int(rng.integers(1, max_capacity + 1))
    q = float(rng.uniform(0.05, q_hi))
    p = rng.dirichlet(np.ones(capacity + 1))
    p = tuple(float(v) for v in p)
    env = StochasticEnv(q=q, p=p, capacity=capacity)
    assert validate_env(env) == []
    return env


def env_of(q, p0):
    """The one-slot environment with success probability q and processor pmf (p0, 1 - p0)."""
    return StochasticEnv(q=q, p=(p0, 1.0 - p0), capacity=1)


class TestBaselineContraction:
    def test_lossless_always_computing(self):
        assert baseline_contraction(env_of(1.0, 0.0), 1.5, 0.5) == 0.5

    def test_never_transmitting(self):
        assert baseline_contraction(env_of(0.0, 0.2), 1.5, 0.5) == 1.5

    def test_worked_value(self):
        assert baseline_contraction(env_of(0.75, 0.2), 1.5, 0.5) == pytest.approx(0.900)

    def test_special_case_reductions(self):
        # q = 1: (1-q) term drops; p0 = 0: processor term drops
        a, r = 1.3, 0.4
        assert baseline_contraction(env_of(1.0, 0.3), a, r) == pytest.approx(0.3 * a + 0.7 * r)
        assert baseline_contraction(env_of(0.6, 0.0), a, r) == pytest.approx(0.4 * a + 0.6 * r)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            baseline_contraction(env_of(0.5, 0.5), 1.5, 1.0)
        with pytest.raises(ValueError):
            baseline_contraction(env_of(0.5, 0.5), 0.3, 0.5)
        # an environment refuses its own q and p0 when it is built
        with pytest.raises(ValueError):
            baseline_contraction(env_of(1.5, 0.5), 1.5, 0.5)
        with pytest.raises(ValueError):
            baseline_contraction(env_of(0.5, -0.1), 1.5, 0.5)

    def test_monotone_in_alpha_rho_and_q(self):
        alphas = np.linspace(1.0, 2.5, 7)
        rhos = np.linspace(0.0, 0.9, 7)
        qs = np.linspace(0.0, 1.0, 7)
        base = [baseline_contraction(env_of(0.6, 0.2), a, 0.5) for a in alphas]
        assert np.all(np.diff(base) >= 0)
        base = [baseline_contraction(env_of(0.6, 0.2), 1.5, r) for r in rhos]
        assert np.all(np.diff(base) >= 0)
        base = [baseline_contraction(env_of(q, 0.2), 1.5, 0.5) for q in qs]
        assert np.all(np.diff(base) <= 0)


class TestBaselineMeanBound:
    def _setup(self):
        plant = make_scalar_plant(2.0, 1.5, 1.0)
        env = StochasticEnv(q=0.9, p=(0.1, 0.9), capacity=1)
        return plant, env

    def test_zero_radius_leaves_transient_only(self):
        plant = make_scalar_plant(2.0, 1.5, 0.0)
        env = StochasticEnv(q=0.9, p=(0.1, 0.9), capacity=1)
        gamma = baseline_contraction(env, plant.alpha, plant.rho)
        for k in (0, 3, 10):
            assert baseline_mean_bound(plant, env, k, 2.0) == pytest.approx(gamma**k * 2.0)

    def test_worked_bound(self):
        plant, env = self._setup()
        gamma = baseline_contraction(env, plant.alpha, plant.rho)
        assert gamma == pytest.approx(0.785)
        tail = 0.9 * 0.9 * 1.5 * 1.0 / (1.0 - 0.785)  # = 5.651...
        assert baseline_mean_bound(plant, env, 0, 1.0) == pytest.approx(1.0 + tail, rel=1e-9)

    def test_large_k_limit_is_tail(self):
        plant, env = self._setup()
        tail = 0.9 * 0.9 * 1.5 * 1.0 / 0.215
        assert baseline_mean_bound(plant, env, 10_000, 1.0) == pytest.approx(tail, rel=1e-6)

    def test_rejects_supercritical(self):
        plant = make_scalar_plant(3.0, 2.2, 1.0)  # alpha = 3
        env = StochasticEnv(q=0.5, p=(0.5, 0.5), capacity=1)
        with pytest.raises(ValueError):
            baseline_mean_bound(plant, env, 5, 1.0)


class TestLambdaChain:
    def test_worked_matrix(self):
        expected = np.array([[0.225, 0.375], [0.625, 0.375]])
        assert lambda_transition_matrix(WORKED_ENV) == pytest.approx(expected, rel=1e-12)
        chain = build_lambda_chain(WORKED_ENV)
        assert chain.theta == pytest.approx(np.array([0.225, 0.375]), rel=1e-12)
        assert chain.return1 == pytest.approx(0.4, rel=1e-12)
        assert chain.tails == pytest.approx(np.array([0.6, 0.375]), rel=1e-12)

    def test_no_reception_is_pure_countdown(self):
        env = StochasticEnv(q=0.0, p=(0.2, 0.3, 0.5), capacity=2)
        assert lambda_transition_matrix(env) == pytest.approx(np.array([[0.0, 0.0], [1.0, 0.0]]))
        chain = build_lambda_chain(env)
        assert chain.return1 == 1.0
        assert np.array_equal(return_time_pmf_truncated(chain), np.array([1.0]))

    def test_row_sum_identities(self):
        sums = lambda_transition_matrix(WORKED_ENV).sum(axis=1)
        assert abs(sums[0] - 0.75 * (1 - 0.2)) < 1e-13
        assert abs(sums[1] - 1.0) < 1e-13

    def test_rejects_invalid_env(self):
        with pytest.raises(ValueError):
            build_lambda_chain(StochasticEnv(q=1.5, p=(0.5, 0.5), capacity=1))

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_row_sums_property(self, seed):
        env = random_env(np.random.default_rng(seed))
        g = lambda_transition_matrix(env)
        sums = g.sum(axis=1)
        assert abs(sums[0] - env.q * (1.0 - env.p[0])) < 1e-13
        for s in sums[1:]:
            assert abs(s - 1.0) < 1e-13
        assert np.all(g >= 0.0) and np.all(g <= 1.0)


class TestReturnTimePmf:
    def test_worked_values(self):
        pmf = return_time_pmf_truncated(build_lambda_chain(WORKED_ENV))
        assert pmf[0] == pytest.approx(0.4, rel=1e-12)
        assert pmf[1] == pytest.approx(0.09, rel=1e-12)
        assert pmf[2] == pytest.approx(0.114, rel=1e-12)

    def test_prefix_matches_dense_reference(self):
        pmf = return_time_pmf_truncated(build_lambda_chain(WORKED_ENV))
        assert len(pmf) > 12
        reference = dense_pmf(WORKED_ENV, 12)
        assert np.max(np.abs(pmf[:12] - reference)) < 1e-15

    def test_rejects_j_zero(self):
        chain = build_lambda_chain(WORKED_ENV)
        with pytest.raises(ValueError):
            anytime_contraction_series(chain, 1.2, 0.5, 0)

    def test_truncated_reaches_mass(self):
        chain = build_lambda_chain(WORKED_ENV)
        pmf = return_time_pmf_truncated(chain)
        assert pmf.sum() >= 1.0 - 1e-6
        assert pmf[:-1].sum() < 1.0 - 1e-6  # shortest such prefix
        assert np.all(pmf >= 0.0)

    def test_truncated_rejects_degenerate(self):
        env = StochasticEnv(q=1.0, p=(0.0, 1.0), capacity=1)
        chain = build_lambda_chain(env)
        with pytest.raises(ValueError):
            return_time_pmf_truncated(chain)

    def test_normalization_via_resolvent_at_one(self):
        # return1 * (1 + theta^T (I - G)^{-1} e1) telescopes the full mass
        assert 0.4 * (1.0 + dense_resolvent(WORKED_ENV, 1.0)) == pytest.approx(1.0, abs=1e-12)
        rng = np.random.default_rng(321)
        for _ in range(25):
            env = random_env(rng)
            chain = build_lambda_chain(env)
            total = chain.return1 * (1.0 + dense_resolvent(env, 1.0))
            assert total == pytest.approx(1.0, abs=1e-9)


@st.composite
def chain_envs(draw):
    """Envs with capacity 1..40, q anywhere in [0, 1] (0 and 1 included) and zero pmf entries."""
    capacity = draw(st.integers(min_value=1, max_value=40))
    q = draw(st.sampled_from([0.0, 1.0]) | st.floats(min_value=0.0, max_value=1.0))
    weights = draw(
        st.lists(st.sampled_from([0.0]) | st.floats(min_value=0.01, max_value=1.0),
                 min_size=capacity + 1, max_size=capacity + 1)
    )
    if sum(weights) == 0.0:
        weights[draw(st.integers(min_value=0, max_value=capacity))] = 1.0
    total = math.fsum(weights)
    return StochasticEnv(q=q, p=tuple(w / total for w in weights), capacity=capacity)


PMF_CALLS = st.one_of(
    st.tuples(st.just("pmf"), st.integers(min_value=1, max_value=600)),
    st.tuples(st.just("truncated")),
    st.tuples(st.just("series"), st.floats(min_value=0.95, max_value=3.0),
              st.floats(min_value=0.0, max_value=0.95), st.sampled_from([1, 500])),
)


def call_bytes(chain, call):
    """The bytes one pmf-side call returns on ``chain``, or the truncated pmf's refusal.

    A call is ("pmf", n), ("truncated",) or ("series", alpha, rho, j_max).
    """
    if call[0] == "pmf":
        return _return_time_pmf(chain, call[1]).tobytes()
    if call[0] == "series":
        return np.array(anytime_contraction_series(chain, *call[1:])).tobytes()
    try:
        return return_time_pmf_truncated(chain).tobytes()
    except ValueError as exc:  # never or too slowly returning chains
        return str(exc)


def assert_calls_match_new_chains(env, calls):
    """Each call on one chain, in turn, returns what it returns on a new chain, which keeps no pmf."""
    chain = build_lambda_chain(env)
    for call in calls:
        assert call_bytes(chain, call) == call_bytes(build_lambda_chain(env), call)


class TestMemoisedPmf:
    # Small enough that slow-returning chains fail fast, and not a power of two,
    # so the truncated pmf's last doubling is clamped.
    MAX_TERMS = 3000

    @given(env=chain_envs(), calls=st.lists(PMF_CALLS, min_size=1, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_pmf_is_a_pure_function_of_the_chain(self, env, calls):
        with mock.patch("etac.analysis.PMF_MAX_TERMS", self.MAX_TERMS):
            assert_calls_match_new_chains(env, calls)

    @pytest.mark.parametrize(
        "calls",
        [
            [("pmf", 500), ("pmf", 3)],
            [("series", 1.2, 0.5, 500), ("truncated",)],
            [("truncated",), ("series", 1.2, 0.5, 500)],
        ],
        ids=["long-then-short", "series-then-truncated", "truncated-then-series"],
    )
    def test_call_orders(self, calls):
        for env in (WORKED_ENV, REFERENCE_ENV, StochasticEnv(q=1.0, p=(0.3, 0.0, 0.7), capacity=2)):
            assert_calls_match_new_chains(env, calls)

    def test_chains_from_one_env_share_no_state(self):
        a, b = build_lambda_chain(REFERENCE_ENV), build_lambda_chain(REFERENCE_ENV)
        anytime_contraction_series(a, 1.2, 0.5, 500)
        return_time_pmf_truncated(a)
        assert b._pmf.size == 0
        # a serves a prefix of its kept pmf, b runs the recursion anew
        assert _return_time_pmf(b, 40).tobytes() == _return_time_pmf(a, 40).tobytes()
        assert not np.shares_memory(a._pmf, b._pmf)
        assert "_pmf" not in repr(a)

    def test_a_returned_pmf_is_the_callers_own(self):
        chain = build_lambda_chain(REFERENCE_ENV)
        _return_time_pmf(chain, 100)[:] = 0.0
        return_time_pmf_truncated(chain)[:] = 0.0
        new = build_lambda_chain(REFERENCE_ENV)
        assert _return_time_pmf(chain, 100).tobytes() == _return_time_pmf(new, 100).tobytes()


class TestOmega:
    def test_closed_form_worked_value(self):
        chain = build_lambda_chain(WORKED_ENV)
        assert anytime_contraction(chain, 1.2, 0.5) == pytest.approx(WORKED_OMEGA, rel=1e-12)

    def test_rho_zero_reduces_to_return_mass(self):
        chain = build_lambda_chain(WORKED_ENV)
        assert anytime_contraction(chain, 1.2, 0.0) == pytest.approx(0.48, rel=1e-12)
        series = anytime_contraction_series(chain, 1.2, 0.0, 50)
        assert series.value == pytest.approx(0.48, rel=1e-12)

    def test_series_matches_closed_form(self):
        chain = build_lambda_chain(WORKED_ENV)
        series = anytime_contraction_series(chain, 1.2, 0.5, 200)
        assert series.value == pytest.approx(anytime_contraction(chain, 1.2, 0.5), abs=1e-9)
        assert series.value == pytest.approx(0.5887, abs=1e-4)
        for rho in (0.0, 0.5, 0.99):
            series = anytime_contraction_series(chain, 0.0, rho, 50)
            assert series.value == anytime_contraction(chain, 0.0, rho) == 0.0
            assert series.tail_bound == 0.0
        with pytest.raises(ValueError, match=r"alpha=-0\.1"):
            anytime_contraction_series(chain, -0.1, 0.5, 50)
        # both forms refuse a negative or nan alpha
        for alpha in (-1.0, -1e-300, float("nan")):
            pattern = rf"alpha={alpha}"
            with pytest.raises(ValueError, match=pattern):
                anytime_contraction(chain, alpha, 0.5)
            with pytest.raises(ValueError, match=pattern):
                anytime_contraction_series(chain, alpha, 0.5, 50)

    def test_single_term_is_lower_bound(self):
        chain = build_lambda_chain(WORKED_ENV)
        series = anytime_contraction_series(chain, 1.2, 0.5, 1)
        assert series.value == pytest.approx(1.2 * 0.4, rel=1e-12)
        assert series.value <= anytime_contraction(chain, 1.2, 0.5)

    def test_stated_truncation_tail_is_tiny(self):
        # the length the callers state (criterion 2 and the benchmark pass 500)
        # leaves a tail cap far below any decision margin, and brackets omega
        chain = build_lambda_chain(WORKED_ENV)
        series = anytime_contraction_series(chain, 1.2, 0.5, 500)
        assert series.tail_bound < 1e-12
        omega = anytime_contraction(chain, 1.2, 0.5)
        assert series.value - 1e-12 <= omega <= series.value + series.tail_bound + 1e-12

    def test_length_is_required(self):
        chain = build_lambda_chain(WORKED_ENV)
        with pytest.raises(TypeError, match="j_max"):
            anytime_contraction_series(chain, 1.2, 0.5)
        with pytest.raises(ValueError, match="j_max must be >= 1"):
            anytime_contraction_series(chain, 1.2, 0.5, 0)

    def test_monotone_in_alpha_rho_and_q(self):
        chain = build_lambda_chain(WORKED_ENV)
        vals = [anytime_contraction(chain, a, 0.5) for a in np.linspace(0.5, 2.5, 9)]
        assert np.all(np.diff(vals) >= 0)
        vals = [anytime_contraction(chain, 1.2, r) for r in np.linspace(0.0, 0.95, 9)]
        assert np.all(np.diff(vals) >= 0)
        vals = []
        for q in np.linspace(0.05, 0.95, 9):
            env = StochasticEnv(q=float(q), p=(0.2, 0.3, 0.5), capacity=2)
            vals.append(anytime_contraction(build_lambda_chain(env), 1.2, 0.5))
        assert np.all(np.diff(vals) <= 0)

    def test_stability_decision_matches_resolvent_inequality(self):
        # alternative acceptance form: p_vec^T (I - rho G)^{-1} e1 against
        # (1 - alpha + alpha q (1 - p0)) / (alpha rho q (1 - q (1 - p0)))
        rng = np.random.default_rng(98765)
        checked = 0
        while checked < 200:
            env = random_env(rng)
            rho = float(rng.uniform(0.05, 0.95))
            alpha = float(rng.uniform(rho, 3.0))
            r = 1.0 - env.q * (1.0 - env.p[0])
            if alpha * rho * env.q * r == 0.0:
                continue
            chain = build_lambda_chain(env)
            g = lambda_transition_matrix(env)
            e1 = np.eye(env.capacity)[0]
            lhs = float(np.asarray(env.p[1:]) @ np.linalg.solve(np.eye(env.capacity) - rho * g, e1))
            rhs = (1.0 - alpha + alpha * env.q * (1.0 - env.p[0])) / (alpha * rho * env.q * r)
            omega = anytime_contraction(chain, alpha, rho)
            if abs(omega - 1.0) < 1e-9:
                continue  # skip knife-edge cases where the decisions may round apart
            assert (lhs < rhs) == (omega < 1.0)
            checked += 1


def exact_resolvent_factor(chain, rho):
    """1 + rho N / (1 - rho D) in exact rationals, from the chain's float theta and r."""
    theta = [Fraction(float(t)) for t in chain.theta]
    rho = Fraction(rho)
    x = rho * Fraction(chain.return1)
    n = d = Fraction(0)
    for m in reversed(range(len(theta))):  # Horner in x; T_m = sum of theta_l for l > m
        n = n * x + theta[m]
        d = d * x + sum(theta[m:])
    return 1 + rho * n / (1 - rho * d)


class TestResolventConditioning:
    @pytest.mark.parametrize("rho", [0.99, 0.999])
    def test_relative_error_within_1e_15_over_one_minus_rho(self, rho):
        # The error grows like 2e-16 / (1 - rho) from the conditioning of
        # x = rho r (see the analysis module docstring); long buffers, busy
        # channels and a small p0, as in the 50-digit probe behind that bound.
        rng = np.random.default_rng(31)
        envs = [StochasticEnv(q=0.99, p=(0.01,) + (0.99 / 54,) * 54, capacity=54)]
        for _ in range(5):
            capacity = int(rng.integers(1, 60))
            p0 = float(rng.uniform(0.0, 0.05))
            rest = (1.0 - p0) * rng.dirichlet(np.ones(capacity))
            envs.append(StochasticEnv(
                q=float(rng.uniform(0.5, 0.999)), p=(p0, *map(float, rest)), capacity=capacity
            ))
        for env in envs:
            chain = build_lambda_chain(env)
            exact = exact_resolvent_factor(chain, rho)
            error = abs(Fraction(float(_resolvent_factor(chain, rho))) - exact) / exact
            assert error <= Fraction(1e-15) / (1 - Fraction(rho)), (env, float(error))


class TestClosedFormsAgainstDenseReference:
    def test_fuzz_against_oracle_matrix(self):
        # capacities up to 100: the closed forms have no size limit
        rng = np.random.default_rng(20260)
        grid = np.array([0.0, 0.3, 0.7, 0.95, 0.999])
        worst = {"omega": 0.0, "pmf": 0.0, "alpha_star": 0.0}
        for _ in range(1000):
            env = random_env(rng, max_capacity=100, q_hi=0.999)
            chain = build_lambda_chain(env)
            cap, r, theta = env.capacity, chain.return1, chain.theta
            g = lambda_transition_matrix(env)
            shift = np.eye(cap, k=-1)
            assert np.max(np.abs(g - (np.outer(np.ones(cap), theta) + r * shift))) < 1e-15

            rho = float(rng.uniform(0.0, 0.99))
            alpha = float(rng.uniform(max(rho, 0.05), 3.0))
            dense = alpha * r * (1.0 + rho * dense_resolvent(env, rho))
            closed = anytime_contraction(chain, alpha, rho)
            worst["omega"] = max(worst["omega"], abs(closed - dense) / dense)

            series = anytime_contraction_series(chain, alpha, rho, 40)
            assert series.value <= closed * (1.0 + 1e-12)
            prefix = _return_time_pmf(chain, 40)
            worst["pmf"] = max(worst["pmf"], float(np.max(np.abs(prefix - dense_pmf(env, 40)))))

            curves = boundary_curves(env, grid)
            for row in curves:
                assert row[2] == boundary_alpha_anytime(float(row[0]), env)
                dense_star = 1.0 / (r * (1.0 + row[0] * dense_resolvent(env, row[0])))
                worst["alpha_star"] = max(worst["alpha_star"], abs(row[2] - dense_star) / dense_star)
        assert worst["omega"] < 1e-12, worst
        assert worst["pmf"] < 1e-15, worst
        assert worst["alpha_star"] < 1e-12, worst


def worked_plant(d, alpha=1.2):
    """The saturated plant's phi2(s) = 2 s with (alpha, rho) = (alpha, 0.5) and radius d."""
    return replace(make_sat_plant(d), alpha=alpha, rho=0.5)


class TestAnytimeMeanBound:
    def test_worked_value(self):
        plant = worked_plant(1.0)
        expected = (1.0 + 1.2 - 0.5) / 0.5 * 1.0 + 2.0 / (1.0 - WORKED_OMEGA)
        got = anytime_mean_bound(plant, WORKED_ENV, 0, 1.0)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(8.2624, abs=1e-4)
        # the transient dies out, leaving the tail that analyze reports
        tail = analyze(plant, WORKED_ENV).anytime_tail
        assert anytime_mean_bound(plant, WORKED_ENV, 10_000, 1.0) == tail

    def test_zero_radius_vanishes_in_the_limit(self):
        val = anytime_mean_bound(worked_plant(0.0), WORKED_ENV, 400, 1.0)
        assert val == pytest.approx(0.0, abs=1e-80)

    def test_monotone_decreasing_in_cycle_index(self):
        vals = [anytime_mean_bound(worked_plant(1.0), WORKED_ENV, i, 1.0) for i in range(8)]
        assert np.all(np.diff(vals) < 0)

    def test_rejects_supercritical(self):
        with pytest.raises(ValueError, match="omega="):
            anytime_mean_bound(worked_plant(1.0, alpha=3.0), WORKED_ENV, 0, 1.0)
        # with no channel r = 1 and theta = 0, so omega = alpha: the boundary itself
        no_channel = StochasticEnv(q=0.0, p=(0.2, 0.8), capacity=1)
        with pytest.raises(ValueError, match="omega=1.0 "):
            anytime_mean_bound(worked_plant(1.0, alpha=1.0), no_channel, 0, 1.0)


class TestBoundaries:
    def test_baseline_worked_value(self):
        assert boundary_alpha_baseline(0.5, WORKED_ENV) == pytest.approx(0.7 / 0.4, rel=1e-12)

    def test_baseline_tightens_to_one(self):
        assert boundary_alpha_baseline(1.0 - 1e-9, WORKED_ENV) == pytest.approx(1.0, abs=1e-6)

    def test_baseline_infinite_when_always_computing(self):
        assert boundary_alpha_baseline(0.5, StochasticEnv(q=1.0, p=(0.0, 1.0), capacity=1)) == math.inf

    def test_baseline_no_channel(self):
        assert boundary_alpha_baseline(0.5, StochasticEnv(q=0.0, p=(0.2, 0.8), capacity=1)) == 1.0

    def test_anytime_rho_zero(self):
        assert boundary_alpha_anytime(0.0, WORKED_ENV) == pytest.approx(1.0 / 0.4, rel=1e-12)

    def test_anytime_worked_value_and_fixed_point(self):
        star = boundary_alpha_anytime(0.5, WORKED_ENV)
        assert star == pytest.approx(1.2 / WORKED_OMEGA, rel=1e-12)
        chain = build_lambda_chain(WORKED_ENV)
        assert anytime_contraction(chain, star, 0.5) == pytest.approx(1.0, abs=1e-9)

    def test_anytime_dominates_baseline_on_grid(self):
        for rho in np.arange(0.05, 0.96, 0.05):
            base = boundary_alpha_baseline(float(rho), REFERENCE_ENV)
            anyt = boundary_alpha_anytime(float(rho), REFERENCE_ENV)
            assert anyt >= base

    def test_no_channel_pins_both_to_one(self):
        env = StochasticEnv(q=0.0, p=(0.2,) * 5, capacity=4)
        curves = boundary_curves(env, np.linspace(0.01, 0.99, 25))
        assert np.allclose(curves[:, 1], 1.0)
        assert np.allclose(curves[:, 2], 1.0)

    def test_curves_shape_and_content(self):
        grid = np.linspace(0.01, 0.99, 181)
        curves = boundary_curves(REFERENCE_ENV, grid)
        assert curves.shape == (181, 3)
        assert np.array_equal(curves[:, 0], grid)


class TestAnalyze:
    def test_bundle_consistency(self):
        plant = make_scalar_plant(2.0, 1.5, 1.0)
        env = StochasticEnv(q=0.9, p=(0.1, 0.9), capacity=1)
        result = analyze(plant, env)
        assert result.gamma == pytest.approx(0.785)
        chain = build_lambda_chain(env)
        assert result.omega == pytest.approx(anytime_contraction(chain, plant.alpha, plant.rho))
        # one slot: every step returns with probability r = 0.19, a geometric law
        assert result.mean_return_time == pytest.approx(1.0 / 0.19)
        assert result.baseline_tail == pytest.approx(
            0.9 * 0.9 * (plant.alpha - plant.rho) * 1.0 / (1.0 - result.gamma)
        )
        assert result.anytime_tail == pytest.approx(1.0 / (1.0 - result.omega))
        # the boundaries at the plant's rho
        assert result.alpha_star_baseline == boundary_alpha_baseline(plant.rho, env)
        assert result.alpha_star_anytime == boundary_alpha_anytime(plant.rho, env)

    @pytest.mark.parametrize("env", [REFERENCE_ENV, StochasticEnv(q=1.0, p=(0.0, 1.0), capacity=1)],
                             ids=["reference", "never-returning"])
    def test_every_field_is_a_float(self, env):
        result = analyze(make_sat_plant(1.0), env)
        assert [type(v) for v in result] == [float] * len(result)

    def test_supercritical_tails_are_infinite(self):
        plant = make_scalar_plant(3.0, 2.2, 1.0)
        env = StochasticEnv(q=0.3, p=(0.5, 0.5), capacity=1)
        result = analyze(plant, env)
        assert result.gamma > 1.0 and result.baseline_tail == math.inf
        assert result.omega > 1.0 and result.anytime_tail == math.inf

    def test_refuses_only_what_gamma_and_omega_refuse(self):
        # alpha < rho is outside the model; the slow and never-returning
        # environments below are not refused
        with pytest.raises(ValueError, match="alpha"):
            analyze(make_scalar_plant(0.2, -0.7, 0.0), WORKED_ENV)


def dense_det(env):
    """det(I - G) on the oracle's dense G."""
    return float(np.linalg.det(np.eye(env.capacity) - lambda_transition_matrix(env)))


def dense_hitting_times(env):
    """Expected steps to reach length 0 from each length 1..L: (I - G) h = 1."""
    g = lambda_transition_matrix(env)
    return np.linalg.solve(np.eye(env.capacity) - g, np.ones(env.capacity))


class TestMeanReturnTime:
    """Kac's lemma: E[return time] = 1 / pi_0 with pi_0 = r N(r) / T_0 = det(I - G)."""

    SAT = make_sat_plant(0.0)

    def test_worked_value(self):
        # D(r) = T_0 + T_1 r = 0.6 + 0.375 * 0.4 = 0.75
        assert analyze(self.SAT, WORKED_ENV).mean_return_time == 4.0

    @pytest.mark.parametrize("p0", [1e-6, 1e-9, 1e-12])
    def test_rare_return_is_exact(self, p0):
        # q = 1, one slot: a geometric return with mean 1 / p0.  1 - D(r) loses
        # about 1e-16 / p0 relative here (2.2e-5 at p0 = 1e-12).
        env = StochasticEnv(q=1.0, p=(p0, 1.0 - p0), capacity=1)
        expected = 1.0 / p0
        assert abs(analyze(self.SAT, env).mean_return_time - expected) <= 2 * math.ulp(expected)

    @pytest.mark.parametrize("q, p", [(0.0, (0.5, 0.5)), (0.7, (1.0, 0.0, 0.0))])
    def test_length_that_never_leaves_zero_returns_every_step(self, q, p):
        # T_0 = 0: no step refills, so every step is a return
        env = StochasticEnv(q=q, p=p, capacity=len(p) - 1)
        assert analyze(self.SAT, env).mean_return_time == 1.0

    def test_fuzz_against_dense_determinant(self):
        rng = np.random.default_rng(20261)
        worst = 0.0
        for _ in range(1000):
            env = random_env(rng, max_capacity=100, q_hi=0.999)
            pi0 = 1.0 / analyze(self.SAT, env).mean_return_time
            worst = max(worst, abs(pi0 - dense_det(env)))
        assert worst < 1e-14, worst

    @pytest.mark.parametrize("env", [WORKED_ENV, REFERENCE_ENV], ids=["worked", "capacity-4"])
    def test_matches_simulation_within_three_sigma(self, env):
        sim = simulate_lambda_chain(env, 200_000, RngStream(71, 0))
        support = np.arange(1, sim.counts.size + 1)
        second = float((support**2) @ sim.frequencies)
        sigma = math.sqrt(second - sim.mean() ** 2)
        mean = analyze(self.SAT, env).mean_return_time
        assert abs(sim.mean() - mean) < 3.0 * sigma / math.sqrt(sim.total)

    def test_within_truncated_pmf_slack(self):
        # The pmf stops at J with mass m_J, so the rest has Delta > J; from the
        # length at step J the return takes at most max_l h_l more steps on
        # average, h the dense hitting times.
        rng = np.random.default_rng(20262)
        for _ in range(300):
            env = random_env(rng)
            pmf = return_time_pmf_truncated(build_lambda_chain(env))
            j = pmf.size
            head = float(np.arange(1, j + 1) @ pmf)
            rest = 1.0 - float(pmf.sum())
            mean = analyze(self.SAT, env).mean_return_time
            lo = head + rest * (j + 1)
            hi = head + rest * (j + float(dense_hitting_times(env).max()))
            assert lo * (1.0 - 1e-12) <= mean <= hi * (1.0 + 1e-12), (env, lo, mean, hi)

    @pytest.mark.parametrize("p", [(0.0, 1.0), (0.0, 0.1, 0.2, 0.7), (0.0, 0.3, 0.3, 0.4)])
    def test_never_returning_length_is_infinite(self, p):
        # q = 1, p0 = 0: r = 0.  (0.1, 0.2, 0.7) sums to 1 - 2**-53 in the tails,
        # so 1 - D rounds to 1.1e-16 rather than 0.
        env = StochasticEnv(q=1.0, p=p, capacity=len(p) - 1)
        assert analyze(self.SAT, env).mean_return_time == math.inf

    def test_slow_env_builds_no_pmf(self):
        # r ~ 2e-3: the truncated pmf passes PMF_MAX_TERMS terms before its mass target
        env = StochasticEnv(q=0.999, p=(0.001,) + (0.999 / 50,) * 50, capacity=50)
        with mock.patch("etac.analysis._return_time_pmf", side_effect=AssertionError("pmf built")):
            result = analyze(self.SAT, env)
        assert result.mean_return_time == pytest.approx(24962.50625, rel=1e-9)
        assert 1.0 / result.mean_return_time == pytest.approx(dense_det(env), abs=1e-14)
