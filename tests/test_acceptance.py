"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines and timings.
"""

import math
import time

import numpy as np
import pytest

from etac.analysis import (
    anytime_contraction,
    anytime_contraction_series,
    baseline_contraction,
    baseline_mean_bound,
    boundary_curves,
    build_lambda_chain,
    return_time_pmf_truncated,
)
from etac.cli import parse_config, run_paired_cells
from etac.domain import NoiseSpec, StochasticEnv, _sq_norm, make_sat_plant, make_scalar_plant
from etac.oracle import (
    BufferState,
    lambda_transition_matrix,
    plan_inputs,
    reference_anytime_step,
    simulate_lambda_chain,
    tv_distance,
    update_lambda,
)
from etac.runtime import RngStream, run_trajectory

REFERENCE_ENV = StochasticEnv(q=0.75, p=(0.2,) * 5, capacity=4)


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")


def random_env(rng: np.random.Generator, max_capacity: int, q_lo=0.05, q_hi=0.9) -> StochasticEnv:
    capacity = int(rng.integers(1, max_capacity + 1))
    q = float(rng.uniform(q_lo, q_hi))
    p = tuple(float(v) for v in rng.dirichlet(np.ones(capacity + 1)))
    return StochasticEnv(q=q, p=p, capacity=capacity)


def test_criterion_1_return_time_pmf_oracle():
    """Analytic first-return pmf vs 1e6-sample simulation on six environments."""
    start = time.time()
    rng = np.random.default_rng(20240811)
    envs = [StochasticEnv(q=0.75, p=(0.2, 0.3, 0.5), capacity=2)]
    envs += [random_env(rng, max_capacity=6, q_lo=0.2) for _ in range(5)]
    worst_tv = 0.0
    for i, env in enumerate(envs):
        chain = build_lambda_chain(env)
        analytic = return_time_pmf_truncated(chain)
        empirical = simulate_lambda_chain(env, 1_000_000, RngStream(101, i))
        tv = tv_distance(analytic, empirical)
        worst_tv = max(worst_tv, tv)
        r1 = chain.return1
        half_width = 3.0 * math.sqrt(r1 * (1.0 - r1) / empirical.total)
        assert abs(empirical.frequencies[0] - r1) < half_width, (env, r1)
        assert tv < 0.01, (env, tv)
    elapsed = time.time() - start
    ok = worst_tv < 0.01 and elapsed < 30.0
    report(1, "return-time pmf oracle", ok, f"worst TV {worst_tv:.5f} over 6 envs, {elapsed:.1f} s")
    assert elapsed < 30.0


def test_criterion_2_omega_consistency():
    """Closed-form omega vs 500-term series on 1000 fuzzed tuples."""
    start = time.time()
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(1000):
        env = random_env(rng, max_capacity=8, q_hi=0.95)
        rho = float(rng.uniform(0.0, 0.95))
        alpha = float(rng.uniform(max(rho, 0.05), 3.0))
        chain = build_lambda_chain(env)
        closed = anytime_contraction(chain, alpha, rho)
        series = anytime_contraction_series(chain, alpha, rho, 500)
        worst = max(worst, abs(closed - series.value))
        assert abs(closed - series.value) < 1e-9, (env, alpha, rho)
        mass = float(return_time_pmf_truncated(chain).sum())
        assert mass >= 1.0 - 1e-6, env
        sums = lambda_transition_matrix(env).sum(axis=1)
        assert abs(sums[0] - env.q * (1.0 - env.p[0])) < 1e-13, env
        assert np.all(np.abs(sums[1:] - 1.0) < 1e-13), env
    elapsed = time.time() - start
    ok = worst < 1e-9 and elapsed < 10.0
    report(2, "omega series vs closed form", ok, f"worst |diff| {worst:.2e}, {elapsed:.1f} s")
    assert elapsed < 10.0


def test_criterion_3_stability_boundaries():
    """Boundary curves on the 181-point grid: buffered region dominates, both decrease."""
    start = time.time()
    grid = np.linspace(0.01, 0.99, 181)
    curves = boundary_curves(REFERENCE_ENV, grid)
    base, anyt = curves[:, 1], curves[:, 2]
    dominated = bool(np.all(anyt >= base))
    decreasing = bool(np.all(np.diff(base) < 0) and np.all(np.diff(anyt) < 0))
    elapsed = time.time() - start
    ok = dominated and decreasing and elapsed < 1.0
    report(
        3,
        "stability boundary curves",
        ok,
        f"min margin {float(np.min(anyt - base)):.4f}, {elapsed:.2f} s",
    )
    assert dominated and decreasing
    assert elapsed < 1.0


def test_criterion_4_baseline_bound_statistical():
    """Empirical mean of phi1(|x(k)|) stays under the baseline bound at each k."""
    start = time.time()
    plant = make_scalar_plant(2.0, 1.5, 1.0)
    env = StochasticEnv(q=0.9, p=(0.1, 0.9), capacity=1)
    gamma = baseline_contraction(env, plant.alpha, plant.rho)
    assert gamma == pytest.approx(0.785, abs=1e-9)
    tail = env.q * (1.0 - env.p[0]) * (plant.alpha - plant.rho) * 1.0 / (1.0 - gamma)
    assert tail == pytest.approx(5.651, abs=1e-3)

    trials, horizon = 100_000, 60
    sums = np.zeros(horizon)
    sumsq = np.zeros(horizon)
    noise = NoiseSpec()
    for t in range(trials):
        trace = run_trajectory(plant, env, noise, "baseline", horizon, RngStream(404, t))
        v = np.abs(trace.x[:, 0])
        sums[: len(v)] += v
        sumsq[: len(v)] += v * v
    means = sums / trials
    variances = np.maximum(sumsq / trials - means**2, 0.0)
    ses = np.sqrt(variances / trials)
    e_phi2_x0 = math.sqrt(2.0 / math.pi)  # E|x(0)| for a standard normal scalar
    bounds = np.array(
        [baseline_mean_bound(plant, env, k, e_phi2_x0) for k in range(horizon)]
    )
    margins = bounds + 3.0 * ses - means
    elapsed = time.time() - start
    ok = bool(np.all(margins >= 0.0)) and elapsed < 60.0
    report(
        4,
        "baseline mean bound (statistical)",
        ok,
        f"min margin {float(margins.min()):.3f} over {horizon} steps x {trials} trials, {elapsed:.1f} s",
    )
    assert np.all(margins >= 0.0)
    assert elapsed < 60.0


def test_criterion_5_cost_vs_utilization_tradeoff():
    """Paired sweep: buffered controller dominates baseline cost at every d > 0.

    The sweep stops at d = 6: the experiment's control law contracts any state
    into a ball of radius about 4.95, so for larger radii a computed step lands
    inside the silent region, the buffer is wiped before it can be played, and
    the two controllers coincide pathwise (no paired statistic exists there).
    """
    start = time.time()
    config = parse_config(
        {
            "plant": {"kind": "saturated"},
            "env": {"q": 0.4, "p": [0.2, 0.2, 0.2, 0.2, 0.2], "capacity": 4},
            "controllers": ["baseline", "anytime"],
            "d_sweep": [0.0, 0.5, 1.0, 2.0, 4.0, 6.0],
            "horizon": 50,
            "trials": 10_000,
            "seed": 505,
            "noise": {"kind": "gaussian-iid", "std": 1.0},
        }
    )
    costs, utils, diverged = run_paired_cells(config, threads=2)
    assert not diverged.any()
    details = []
    ok = True
    for di, d in enumerate(config.d_sweep):
        j_base, j_any = costs[di, 0], costs[di, 1]
        if d > 0.0:
            diff = j_base - j_any
            t_stat = float(diff.mean() / (diff.std(ddof=1) / math.sqrt(diff.size)))
            details.append(f"d={d:g}: t={t_stat:.1f}")
            ok = ok and (j_any.mean() <= j_base.mean()) and (t_stat >= 3.0)
            assert j_any.mean() <= j_base.mean(), d
            assert t_stat >= 3.0, (d, t_stat)
    mean_utils = utils.mean(axis=2)  # (n_d, n_ctrl)
    assert np.all(mean_utils[0] == 100.0)  # d = 0 transmits every step
    for ci in range(2):
        assert np.all(np.diff(mean_utils[:, ci]) < 0.0), mean_utils[:, ci]
    elapsed = time.time() - start
    ok = ok and elapsed < 300.0
    report(5, "cost vs utilization trade-off", ok, "; ".join(details) + f", {elapsed:.0f} s")
    assert elapsed < 300.0


def test_criterion_6_differential_and_structural():
    """Reference-vs-runtime equality, single-slot equivalence, structural invariants."""
    start = time.time()

    # (a) exact differential equality over 1e5 randomized steps: runtime traces
    # replayed through the reference step, a capacity-row buffer for the
    # anytime controller and a one-row buffer for the baseline
    plant = make_sat_plant(1.0)
    noise = NoiseSpec("gaussian-iid", 1.0)
    rng = np.random.default_rng(606)
    steps = 0
    for capacity in range(1, 7):
        p = tuple(float(v) for v in rng.dirichlet(np.ones(capacity + 1)))
        env = StochasticEnv(q=0.6, p=p, capacity=capacity)
        betas, ns = set(), set()
        for trial in range(210):
            for controller, rows in (("anytime", capacity), ("baseline", 1)):
                trace = run_trajectory(plant, env, noise, controller, 80, RngStream(606, trial))
                buf = BufferState.zeros(rows, 2)
                for x, u_run, beta, n, lam in zip(trace.x, trace.u, trace.beta, trace.n, trace.lam):
                    x = x if beta == 1 else None
                    u, buf = reference_anytime_step(x, beta, min(n, rows), buf, plant)
                    assert np.array_equal(u_run, u)
                    assert lam == (buf.lam if controller == "anytime" else 0)
                    betas.add(beta)
                    ns.add(n)
                    steps += controller == "anytime"
        assert betas == {0, 1, 2} and ns == set(range(capacity + 1)), (capacity, betas, ns)
    assert steps >= 100_000

    # (b) capacity 1: buffered policy equals the memoryless one on shared draws
    env1 = StochasticEnv(q=0.6, p=(0.3, 0.7), capacity=1)
    noise = NoiseSpec("gaussian-iid", 1.0)
    for trial in range(50):
        a = run_trajectory(plant, env1, noise, "baseline", 100, RngStream(607, trial))
        b = run_trajectory(plant, env1, noise, "anytime", 100, RngStream(607, trial))
        assert np.array_equal(a.x, b.x) and np.array_equal(a.u, b.u)
        assert a.beta == b.beta and a.n == b.n

    # (c) structural invariants on randomized buffered runs
    env = StochasticEnv(q=0.6, p=(0.2,) * 5, capacity=4)
    for trial in range(50):
        trace = run_trajectory(plant, env, noise, "anytime", 80, RngStream(608, trial))
        lam = 0
        for x, u, beta, n, recorded in zip(trace.x, trace.u, trace.beta, trace.n, trace.lam):
            lam = update_lambda(lam, beta, n)
            assert recorded == lam
            assert (beta == 2) == (math.sqrt(_sq_norm(x.tolist())) < plant.d)
            if recorded != 0:
                assert beta != 2
            if recorded == 0:
                assert np.array_equal(u, np.zeros(2))

    # buffer play: after a refill of N at step k, step k + m plays the m-th
    # planned input for m < N and zero afterwards
    for trial in range(50):
        trace = run_trajectory(plant, env, noise, "anytime", 80, RngStream(608, trial))
        plan, refill_k = [], 0
        for k, (x, u, beta, n) in enumerate(zip(trace.x, trace.u, trace.beta, trace.n)):
            if beta == 2:
                plan = []
            if n >= 1:
                plan, refill_k = plan_inputs(x, n, plant), k
            m = k - refill_k
            expected = plan[m] if m < len(plan) else np.zeros(2)
            assert np.array_equal(u, expected)

    # (d) same-stream runs are bit-identical
    a = run_trajectory(plant, env, noise, "anytime", 80, RngStream(609, 5))
    b = run_trajectory(plant, env, noise, "anytime", 80, RngStream(609, 5))
    assert np.array_equal(a.x, b.x) and np.array_equal(a.u, b.u)
    assert (a.beta, a.n, a.lam) == (b.beta, b.n, b.lam)

    elapsed = time.time() - start
    ok = elapsed < 30.0
    report(6, "differential and structural suite", ok, f"{steps} differential steps exact, {elapsed:.1f} s")
    assert elapsed < 30.0
