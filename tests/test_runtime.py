import csv
import dataclasses
import gc
import hashlib
import math
import tracemalloc
import weakref
from array import array

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from etac.domain import NoiseSpec, StochasticEnv, _sq_norm, make_sat_plant, make_scalar_plant
from etac.oracle import reference_trajectory, update_lambda
from etac.runtime import (
    _CSV_BLOCK,
    DIVERGENCE_NORM,
    RngStream,
    Trace,
    channel_utilization,
    empirical_cost,
    run_trajectory,
    write_trace_csv,
)

UNIFORM_ENV = StochasticEnv(q=0.75, p=(0.2, 0.2, 0.2, 0.2, 0.2), capacity=4)
NOISELESS = NoiseSpec()
# Open-loop stable, so long always-transmitting runs (d = 0) never diverge.
STABLE_SCALAR = make_scalar_plant(0.5, 0.2, 0.0)


def columns(run):
    """A run's divergence flag and columns, the arrays as bytes; the last entry is lam."""
    return (
        run.diverged, run.x.tobytes(), run.u.tobytes(), run.beta, run.n, run.lam,
    )


def first_difference(a, b):
    """Where two runs first differ bit for bit: a step and its column, else their ends; None if nowhere.

    The ends are the horizon, the divergence flag and every column's length.
    """
    names = ("x", "u", "beta", "n", "lam", "sq_norms")
    rows = [zip(map(bytes, r.x), map(bytes, r.u), r.beta, r.n, r.lam, array("Q", bytes(r.sq_norms)))
            for r in (a, b)]
    for k, (row_a, row_b) in enumerate(zip(*rows)):
        if row_a != row_b:
            return f"step {k}, column {next(c for c, va, vb in zip(names, row_a, row_b) if va != vb)}"
    ends = [(r.horizon, r.diverged, *map(len, (r.x, r.u, r.beta, r.n, r.lam, r.sq_norms))) for r in (a, b)]
    return None if ends[0] == ends[1] else f"(horizon, diverged, column lengths) {ends[0]} != {ends[1]}"


def assert_runs_bitwise_equal(a, b):
    """Every column, the squared norms, the horizon and the divergence flag, bit for bit."""
    mismatch = first_difference(a, b)
    assert mismatch is None, mismatch


def one_step(plant, env, x0, stream=0):
    """A one-step anytime run from ``x0``."""
    return run_trajectory(plant, env, NOISELESS, "anytime", 1, RngStream(30, stream), x0=np.array(x0))


def diverged_trace():
    trace = run_trajectory(
        make_scalar_plant(3.0, 2.5, 0.0),
        StochasticEnv(q=0.5, p=(0.3, 0.2, 0.2, 0.3), capacity=3),
        NOISELESS, "baseline", 200, RngStream(23, 0), x0=np.array([5.0]),
    )
    assert trace.diverged
    return trace


def reference_trace_csv(trace, path) -> None:
    """The ``csv.writer`` per-row writer: the bytes ``write_trace_csv`` must match."""
    n, p = len(trace.x[0]), len(trace.u[0])
    header = (
        ["k"]
        + [f"x{i + 1}" for i in range(n)]
        + [f"u{i + 1}" for i in range(p)]
        + ["beta", "N", "lambda"]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        steps = zip(trace.x, trace.u, trace.beta, trace.n, trace.lam)
        for k, (x, u, beta, n, lam) in enumerate(steps):
            writer.writerow([k, *(float(v) for v in x), *(float(v) for v in u), beta, n, lam])


def run_with_disturbances(plant, env, noise, controller, horizon, stream, x0=None):
    """A run and its pre-drawn disturbances from the stream (None without noise)."""
    trace = run_trajectory(plant, env, noise, controller, horizon, stream, x0=x0)
    return trace, stream.trial_draws(env, noise, horizon, plant.state_dim, x0)[3]


def traces_digest(runs) -> str:
    """SHA-256 over every step of every ``(trace, w)`` pair, in order.

    Per step it hashes k, beta, n and lam, then the state, the input and the
    disturbance row ("-" without noise).
    """
    h = hashlib.sha256()
    for trace, w in runs:
        h.update(repr((trace.horizon, trace.diverged, len(trace.x))).encode())
        steps = zip(trace.x, trace.u, trace.beta, trace.n, trace.lam)
        for k, (x, u, beta, n, lam) in enumerate(steps):
            h.update(repr((k, beta, n, lam)).encode())
            h.update(x.tobytes())
            h.update(u.tobytes())
            h.update(b"-" if w is None else w[k].tobytes())
    return h.hexdigest()


class TestTrigger:
    ALWAYS = StochasticEnv(q=1.0, p=(0.0, 1.0), capacity=1)

    def test_origin_inside_open_ball(self):
        assert one_step(make_sat_plant(1.0), self.ALWAYS, [0.0, 0.0]).beta == [2]

    def test_boundary_transmits(self):
        assert one_step(make_sat_plant(1.0), self.ALWAYS, [1.0, 0.0]).beta == [1]

    def test_d_zero_always_transmits(self):
        assert one_step(make_sat_plant(0.0), self.ALWAYS, [0.0, 0.0]).beta == [1]
        assert one_step(make_scalar_plant(2.0, 1.5, 0.0), self.ALWAYS, [5.0]).beta == [1]


class TestSampleBeta:
    def test_silent_inside_ball(self):
        env = StochasticEnv(q=0.5, p=(0.5, 0.5), capacity=1)
        plant = make_scalar_plant(2.0, 1.5, 1.0)
        for stream in range(100):
            assert one_step(plant, env, [0.5], stream=stream).beta == [2]

    def test_lossless_channel(self):
        env = StochasticEnv(q=1.0, p=(0.5, 0.5), capacity=1)
        trace = run_trajectory(STABLE_SCALAR, env, NOISELESS, "baseline", 100, RngStream(2, 0))
        assert trace.beta == [1] * 100

    def test_success_frequency(self):
        env = StochasticEnv(q=0.75, p=(1.0, 0.0), capacity=1)
        n = 1_000_000
        hits = 0
        for trial in range(n // 1000):
            trace = run_trajectory(STABLE_SCALAR, env, NOISELESS, "baseline", 1000, RngStream(3, trial))
            hits += trace.beta.count(1)
        half_width = 3.0 * math.sqrt(0.75 * 0.25 / n)
        assert abs(hits / n - 0.75) < half_width


class TestSampleN:
    def test_zero_without_reception(self):
        plant = make_sat_plant(d=1.0)
        noise = NoiseSpec("gaussian-iid", 1.0)
        seen = set()
        for trial in range(20):
            trace = run_trajectory(plant, UNIFORM_ENV, noise, "anytime", 60, RngStream(4, trial))
            for beta, n in zip(trace.beta, trace.n):
                if beta != 1:
                    seen.add(beta)
                    assert n == 0
        assert seen == {0, 2}

    def test_conditional_frequencies(self):
        env = StochasticEnv(q=1.0, p=UNIFORM_ENV.p, capacity=UNIFORM_ENV.capacity)
        n = 1_000_000
        counts = np.zeros(5, dtype=int)
        for trial in range(n // 1000):
            trace = run_trajectory(STABLE_SCALAR, env, NOISELESS, "baseline", 1000, RngStream(5, trial))
            counts += np.bincount(trace.n, minlength=5)
        half_width = 3.0 * math.sqrt(0.2 * 0.8 / n)
        assert np.all(np.abs(counts / n - 0.2) < half_width)


class TestUpdateLambda:
    def test_countdown(self):
        assert update_lambda(3, 0, 0) == 2

    def test_floor_at_zero(self):
        assert update_lambda(0, 1, 0) == 0

    def test_refill_overrides(self):
        assert update_lambda(1, 1, 4) == 4

    def test_silent_resets(self):
        assert update_lambda(3, 2, 0) == 0

    @given(
        prev=st.integers(min_value=0, max_value=8),
        beta=st.sampled_from([0, 1, 2]),
        n=st.integers(min_value=0, max_value=8),
    )
    def test_range_property(self, prev, beta, n):
        if beta != 1:
            n = 0
        out = update_lambda(prev, beta, n)
        assert 0 <= out <= max(prev, n)
        if beta == 2:
            assert out == 0


class TestRunTrajectory:
    def test_deterministic_decay(self):
        plant = make_scalar_plant(2.0, 1.5, 0.0)
        env = StochasticEnv(q=1.0, p=(0.0, 1.0), capacity=1)
        trace = run_trajectory(
            plant, env, NOISELESS, "baseline", 10, RngStream(11, 0), x0=np.array([4.0])
        )
        assert [float(x[0]) for x in trace.x] == [4.0 * 0.5**k for k in range(10)]
        assert float(trace.u[0][0]) == -6.0
        assert not trace.diverged

    def test_origin_stays_silent(self):
        plant = make_sat_plant(d=1.0)
        trace = run_trajectory(
            plant, UNIFORM_ENV, NOISELESS, "anytime", 30, RngStream(12, 0), x0=np.zeros(2)
        )
        assert trace.beta == [2] * 30 and trace.n == [0] * 30 and trace.lam == [0] * 30
        assert np.array_equal(trace.x, np.zeros((30, 2)))
        assert np.array_equal(trace.u, np.zeros((30, 2)))

    def test_same_stream_bitwise_identical(self):
        plant = make_sat_plant(d=1.0)
        noise = NoiseSpec("gaussian-iid", 1.0)
        a = run_trajectory(plant, UNIFORM_ENV, noise, "anytime", 40, RngStream(13, 7))
        b = run_trajectory(plant, UNIFORM_ENV, noise, "anytime", 40, RngStream(13, 7))
        assert_runs_bitwise_equal(a, b)

    def test_distinct_streams_differ(self):
        plant = make_sat_plant(d=1.0)
        noise = NoiseSpec("gaussian-iid", 1.0)
        a = run_trajectory(plant, UNIFORM_ENV, noise, "baseline", 40, RngStream(13, 0))
        b = run_trajectory(plant, UNIFORM_ENV, noise, "baseline", 40, RngStream(13, 1))
        assert any(not np.array_equal(xa, xb) for xa, xb in zip(a.x, b.x))

    def test_divergence_flagged_not_raised(self):
        # never transmits, so the unstable open loop doubles each step
        plant = make_scalar_plant(2.0, 1.5, 0.0)
        env = StochasticEnv(q=0.0, p=(0.0, 1.0), capacity=1)
        trace = run_trajectory(
            plant, env, NOISELESS, "baseline", 200, RngStream(14, 0), x0=np.array([1.0])
        )
        assert trace.diverged
        assert len(trace.x) < 200

    def test_rejects_bad_inputs(self):
        plant = make_scalar_plant(2.0, 1.5, 0.0)
        env = StochasticEnv(q=0.5, p=(0.5, 0.5), capacity=1)
        with pytest.raises(ValueError):
            run_trajectory(plant, env, NOISELESS, "fancy", 10, RngStream(1, 0))
        with pytest.raises(ValueError):
            run_trajectory(plant, env, NOISELESS, "baseline", 0, RngStream(1, 0))

    def test_rejects_x0_of_wrong_shape(self):
        env = StochasticEnv(q=0.5, p=(0.5, 0.5), capacity=1)
        cases = (
            (make_scalar_plant(2.0, 1.5, 0.0), [1.0, 2.0]),
            (make_scalar_plant(2.0, 1.5, 0.0), 4.0),
            (make_sat_plant(1.0), [1.0, 2.0, 3.0]),
            (make_sat_plant(1.0), [[1.0, 2.0]]),
        )
        for plant, x0 in cases:
            with pytest.raises(ValueError, match="x0 has shape"):
                run_trajectory(plant, env, NOISELESS, "anytime", 10, RngStream(1, 0), x0=x0)
        # a list of the right length is accepted
        trace = run_trajectory(make_sat_plant(1.0), env, NOISELESS, "anytime", 3, RngStream(1, 0), x0=[1, 2])
        assert trace.x[0].dtype == np.float64


    def test_records_match_recorded_digest(self):
        # Recorded before the controllers became one plan-and-age rule; every
        # step of these runs must stay byte for byte the same.
        runs = []
        for plant in (make_scalar_plant(2.0, 1.5, 0.5), make_sat_plant(1.0)):
            for env in (StochasticEnv(q=0.6, p=(0.3, 0.7), capacity=1), UNIFORM_ENV):
                for noise in (NOISELESS, NoiseSpec("gaussian-iid", 1.0)):
                    for controller in ("baseline", "anytime"):
                        for trial in range(3):
                            runs.append(run_with_disturbances(
                                plant, env, noise, controller, 50, RngStream(23, trial)
                            ))
        runs.append((diverged_trace(), None))  # noiseless
        assert traces_digest(runs) == (
            "160b1a6cae3925cbc554c25a0290cb816fd3c66574d374fcc29ab00b0edfb5fb"
        )
        # ``records`` has one tuple per recorded step: the rows of x and u, bit
        # for bit, and the step's ints
        for trace, _ in runs:
            assert len(trace.records) == len(trace.x)
            for k, (x, u, *ints) in enumerate(trace.records):
                assert x.tobytes() == trace.x[k].tobytes() and u.tobytes() == trace.u[k].tobytes()
                assert ints == [trace.beta[k], trace.n[k], trace.lam[k]]

    @pytest.mark.parametrize(
        "make",
        [
            diverged_trace,
            lambda: run_trajectory(make_sat_plant(1.0), UNIFORM_ENV, NOISELESS, "anytime", 80, RngStream(27, 0)),
            lambda: run_trajectory(
                make_sat_plant(1.0), UNIFORM_ENV, NoiseSpec("gaussian-iid", 1.0), "anytime", 80, RngStream(27, 1)
            ),
        ],
        ids=["diverged", "noiseless", "noisy"],
    )
    def test_records_view_matches_columns(self, make):
        trace = make()
        records = trace.records
        assert len(records) == len(trace.x)
        for k, (x, u, beta, n, lam) in enumerate(records):
            assert (beta, n, lam) == (trace.beta[k], trace.n[k], trace.lam[k])
            assert x.tobytes() == trace.x[k].tobytes() and u.tobytes() == trace.u[k].tobytes()
        last = records[-1]
        assert last[0].tobytes() == trace.x[-1].tobytes() and last[1].tobytes() == trace.u[-1].tobytes()
        with pytest.raises(IndexError):
            records[len(records)]
        with pytest.raises(IndexError):
            records[-len(records) - 1]

    @pytest.mark.parametrize("controller", ["baseline", "anytime"])
    @pytest.mark.parametrize("plant", [make_scalar_plant(2.0, 1.5, 0.5), make_sat_plant(1.0)], ids=["scalar", "saturated"])
    def test_trace_memory_per_step(self, plant, controller):
        # A step costs its floats in the x, u and squared-norm columns and
        # three list slots of small ints (2 + 2 + 1 floats and 3 pointers, 64
        # bytes, for the saturated plant), plus the columns' growth slack; no
        # object per step.  The pre-draw is made before counting starts, as
        # the trace only refers to it.
        horizon = 20_000
        noise = NoiseSpec("gaussian-iid", 1.0)
        stream = RngStream(29, 0)
        stream.trial_draws(UNIFORM_ENV, noise, horizon, plant.state_dim)
        tracemalloc.start()
        try:
            trace = run_trajectory(plant, UNIFORM_ENV, noise, controller, horizon, stream)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(trace.x) == horizon
        assert peak / horizon <= 100


#: A few values of each input a run's draws depend on; the noted entries
#: differ from another entry in one input only.
SHARED_DRAW_ENVS = (
    StochasticEnv(q=0.6, p=(0.3, 0.7), capacity=1),
    UNIFORM_ENV,
    StochasticEnv(q=0.4, p=UNIFORM_ENV.p, capacity=4),  # q differs from UNIFORM_ENV only
    StochasticEnv(q=0.75, p=(0.1, 0.3, 0.2, 0.2, 0.2), capacity=4),  # p differs only
)
SHARED_DRAW_NOISES = (
    NOISELESS,
    NoiseSpec("gaussian-iid", 0.0),  # kind differs from NOISELESS only
    NoiseSpec("gaussian-iid", -0.0),  # equal to 0.0, but zeros of the other sign
    NoiseSpec("gaussian-iid", 0.5),
    NoiseSpec("gaussian-iid", 2.0),
)
SHARED_DRAW_RADII = (0.0, 1.0, 2.5, 40.0)
#: Built as ``_mc_worker`` builds them: one plant per kind, copied to each
#: radius, so every plant of a kind shares its maps across radii.  The two
#: scalar plants draw alike, so a run that took the states of a run under the
#: other's maps would differ.
SHARED_DRAW_KINDS = (make_scalar_plant(2.0, 1.5, 0.0), make_sat_plant(), make_scalar_plant(1.5, 1.0, 0.0))
SHARED_DRAW_PLANTS = tuple(
    tuple(dataclasses.replace(kind, d=d) for kind in SHARED_DRAW_KINDS) for d in SHARED_DRAW_RADII
)


def shared_draw_run(
    stream, env=1, noise=3, horizon=30, plant=1, fixed_x0=False, controller="anytime", d=1,
    x0=None,
):
    """One run on ``stream``; the arguments but ``controller`` and ``x0`` index the tables above.

    The run starts from ``x0`` if given, else from a fixed state if ``fixed_x0``, else
    from a drawn one.
    """
    plant_spec = SHARED_DRAW_PLANTS[d][plant]
    if fixed_x0 and x0 is None:
        x0 = np.linspace(1.5, -0.5, plant_spec.state_dim)
    return run_trajectory(
        plant_spec, SHARED_DRAW_ENVS[env], SHARED_DRAW_NOISES[noise], controller,
        horizon, stream, x0=x0,
    )


class TestSharedDraws:
    """Runs on one stream object reuse its pre-draw only when the draws would match."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        # one or two sets of draw inputs per example, so that runs on the same
        # draws, which follow each other, are common
        draw_inputs=st.lists(
            st.fixed_dictionaries({
                "env": st.integers(0, len(SHARED_DRAW_ENVS) - 1),
                "noise": st.integers(0, len(SHARED_DRAW_NOISES) - 1),
                "horizon": st.sampled_from([20, 35]),
                "fixed_x0": st.booleans(),
            }),
            min_size=1,
            max_size=2,
        ),
        runs=st.lists(
            st.tuples(
                st.integers(0, 1),  # which draw inputs
                st.fixed_dictionaries({
                    "plant": st.integers(0, len(SHARED_DRAW_PLANTS[0]) - 1),
                    "controller": st.sampled_from(["baseline", "anytime"]),
                    "d": st.integers(0, len(SHARED_DRAW_RADII) - 1),
                }),
            ),
            min_size=2,
            max_size=8,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_reused_stream_matches_fresh_streams(self, seed, draw_inputs, runs):
        shared = RngStream(seed, 3)
        for which, cell in runs:
            run = {**draw_inputs[which % len(draw_inputs)], **cell}
            fresh = shared_draw_run(RngStream(seed, 3), **run)
            assert_runs_bitwise_equal(shared_draw_run(shared, **run), fresh)

    @pytest.mark.parametrize(
        "first, second",
        [
            ({"env": 1}, {"env": 2}),
            ({"env": 1}, {"env": 3}),
            ({"noise": 0}, {"noise": 1}),
            ({"noise": 1}, {"noise": 2}),
            ({"noise": 3}, {"noise": 4}),
            ({"horizon": 20}, {"horizon": 35}),
            ({"plant": 0}, {"plant": 1}),
            ({"fixed_x0": False}, {"fixed_x0": True}),
            ({"x0": (1.5, -0.5)}, {"x0": (1.5, 0.25)}),
            ({"x0": (0.0, 1.0)}, {"x0": (-0.0, 1.0)}),
        ],
        ids=["q", "p", "noise-kind", "noise-std-sign", "noise-std", "horizon", "state-dim",
             "x0-drawn", "x0-value", "x0-zero-sign"],
    )
    def test_each_draw_input_is_in_the_key(self, first, second):
        # the two runs differ in one draw input only; either may come first
        for a, b in ((first, second), (second, first)):
            shared = RngStream(41, 0)
            shared_draw_run(shared, **a)
            fresh = shared_draw_run(RngStream(41, 0), **b)
            assert_runs_bitwise_equal(shared_draw_run(shared, **b), fresh)

    def test_cells_of_a_trial_share_one_read_only_draw(self):
        stream = RngStream(42, 5)
        a = shared_draw_run(stream, controller="baseline")
        b = shared_draw_run(stream, controller="anytime")
        # one pre-draw: both runs start from its read-only x0
        draws = stream.trial_draws(UNIFORM_ENV, SHARED_DRAW_NOISES[3], 30, 2)
        assert draws is stream.trial_draws(UNIFORM_ENV, SHARED_DRAW_NOISES[3], 30, 2)
        x0, received, n_draws, w = draws
        assert a.x[0].tobytes() == x0.tobytes() and b.x[0].tobytes() == x0.tobytes()
        assert isinstance(received, tuple) and isinstance(n_draws, tuple)
        for drawn in (x0, w):
            with pytest.raises(ValueError, match="read-only"):
                drawn[0] = 1.0

    def test_kept_draws_are_not_part_of_the_stream_value(self):
        used, fresh = RngStream(43, 2), RngStream(43, 2)
        shared_draw_run(used)
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh) == "RngStream(seed=43, stream_id=2)"


def counting_maps(plant):
    """Wrappers of the plant's maps that count their calls, and the counts."""
    calls = {"dynamics": 0, "control_law": 0}

    def dynamics(x, u):
        calls["dynamics"] += 1
        return plant.dynamics(x, u)

    def control_law(x):
        calls["control_law"] += 1
        return plant.control_law(x)

    return dynamics, control_law, calls


def kept_runs(stream):
    """The runs a stream keeps beside its current draws."""
    return [trace for _, _, trace in stream._draws[2]]


class TestKeptRuns:
    """A run on a stream takes an earlier run's next state while it plays the same input."""

    @pytest.mark.parametrize(
        "reverse, fixed_x0, dynamics_calls, kappa_calls",
        [(False, False, 1337, 351), (True, False, 1339, 351), (False, True, 1337, 328),
         (True, True, 1337, 328)],
        ids=["sweep-order", "reversed", "sweep-order-given-x0", "reversed-given-x0"],
    )
    def test_sweep_cells_match_fresh_streams_with_fewer_plant_calls(
        self, reverse, fixed_x0, dynamics_calls, kappa_calls
    ):
        # the montecarlo cell order (every radius, both controllers, one stream
        # per trial), and the reverse, where the anytime cell comes first; the
        # cells share one pair of counting maps, as a sweep's cells share the
        # maps of its one built plant, and each cell passes a new array of a
        # given x0
        dynamics, control_law, calls = counting_maps(make_sat_plant())
        env = StochasticEnv(q=0.4, p=UNIFORM_ENV.p, capacity=4)
        noise = NoiseSpec("gaussian-iid", 1.0)
        cells = [
            (d, dataclasses.replace(make_sat_plant(d), dynamics=dynamics, control_law=control_law),
             controller)
            for d in (0.0, 0.5, 1.0, 2.0, 4.0, 6.0)
            for controller in ("baseline", "anytime")
        ]
        if reverse:
            cells.reverse()
        steps = planned = 0
        for trial in range(4):
            stream = RngStream(45, trial)
            for d, plant, controller in cells:
                x0 = np.array([1.5, -0.5]) if fixed_x0 else None
                shared = run_trajectory(plant, env, noise, controller, 50, stream, x0=x0)
                fresh = run_trajectory(
                    make_sat_plant(d), env, noise, controller, 50, RngStream(45, trial), x0=x0
                )
                assert_runs_bitwise_equal(shared, fresh)
                steps += len(shared.x)
                depth = env.capacity if controller == "anytime" else 1
                planned += sum(min(n, depth) for n in shared.n)
        # without sharing every plant step is one dynamics call, plus the plans'
        # forward simulations, and every planned input one control-law call;
        # the exact counts catch a peer rule that shares less
        assert (calls["dynamics"], calls["control_law"]) == (dynamics_calls, kappa_calls)
        assert dynamics_calls < steps and kappa_calls < planned

    def test_follows_a_peer_that_diverged(self):
        # diverged_trace()'s config from a drawn x0, which it still diverges from
        plant = make_scalar_plant(3.0, 2.5, 0.0)
        dynamics, control_law, calls = counting_maps(plant)
        counted = dataclasses.replace(plant, dynamics=dynamics, control_law=control_law)
        env = StochasticEnv(q=0.5, p=(0.3, 0.2, 0.2, 0.3), capacity=3)
        stream = RngStream(23, 0)
        runs, made = [], []
        for controller in ("baseline", "anytime", "baseline"):
            before = dict(calls)
            runs.append(run_trajectory(counted, env, NOISELESS, controller, 200, stream))
            made.append((calls["dynamics"] - before["dynamics"], calls["control_law"] - before["control_law"]))
        assert runs[0].diverged and runs[2].diverged
        for controller, run in zip(("baseline", "anytime", "baseline"), runs):
            fresh = run_trajectory(plant, env, NOISELESS, controller, 200, RngStream(23, 0))
            assert_runs_bitwise_equal(run, fresh)
        # the repeat took every state and input from the first run, up to its
        # divergence: it computed only the step that diverges
        assert runs[2].x.tobytes() == runs[0].x.tobytes()
        assert made[2] == (1, 0) and made[0][0] == len(runs[0].x)
        assert kept_runs(stream) == runs[:2]

    def test_runs_under_other_maps_share_nothing(self):
        stream = RngStream(49, 0)
        first = shared_draw_run(stream, plant=0)
        other = shared_draw_run(stream, plant=2)
        assert_runs_bitwise_equal(other, shared_draw_run(RngStream(49, 0), plant=2))
        assert not any(np.array_equal(a, b) for a, b in zip(first.x[1:], other.x[1:]))
        assert kept_runs(stream) == [first, other]
        # the saturated dynamics under another control law
        sat = SHARED_DRAW_PLANTS[0][1]
        halved = dataclasses.replace(sat, control_law=lambda x: 0.5 * sat.control_law(x))
        stream = RngStream(49, 1)
        args = (UNIFORM_ENV, SHARED_DRAW_NOISES[3], "anytime", 30)
        run_trajectory(sat, *args, stream)
        assert_runs_bitwise_equal(
            run_trajectory(halved, *args, stream), run_trajectory(halved, *args, RngStream(49, 1))
        )

    def test_played_zero_is_a_read_only_zero_row(self):
        # radius 40: the saturated plant never leaves the ball, so every input is zero
        silent = shared_draw_run(RngStream(46, 0), controller="baseline", d=3)
        assert not silent.u.any() and silent.u.shape == (30, 2)
        with pytest.raises(ValueError, match="read-only"):
            silent.u[0, 0] = 1.0
        # a busy run plays zero exactly where it plays no plan input
        busy = shared_draw_run(RngStream(47, 1), d=0, fixed_x0=True)
        planned = [bool(lam or n) for lam, n in zip(busy.lam, busy.n)]
        assert not all(planned)
        assert [bool(u.any()) for u in busy.u] == planned

    def test_repeated_run_is_not_kept_and_new_draws_drop_the_runs(self):
        stream = RngStream(48, 2)
        first = shared_draw_run(stream)
        again = shared_draw_run(stream)
        assert_runs_bitwise_equal(again, first)
        assert again.x[7].tobytes() == first.x[7].tobytes()
        assert kept_runs(stream) == [first]
        ref = weakref.ref(first)
        del first, again
        gc.collect()
        assert ref() is not None
        shared_draw_run(stream, horizon=20)  # another draw key
        gc.collect()
        assert ref() is None
        # a given x0 is part of the pre-draw, as a drawn one is: the repeat
        # starts from the first run's copy and follows it throughout, and the
        # caller's array is left as it was
        given = RngStream(48, 3)
        x0 = np.array([1.5, -0.5])
        first = shared_draw_run(given, x0=x0)
        again = shared_draw_run(given, x0=x0)
        assert_runs_bitwise_equal(again, first)
        assert again.x.tobytes() == first.x.tobytes()
        assert kept_runs(given) == [first]
        assert not np.shares_memory(first.x, x0) and x0.flags.writeable and x0.tolist() == [1.5, -0.5]
        with pytest.raises(ValueError, match="read-only"):
            first.x[0][0] = 1.0


class TestColumns:
    """A trace's states and inputs are read-only float64 columns of its own."""

    @staticmethod
    def _runs():
        """Noisy and noiseless runs of both plants, the diverged one included."""
        noisy = NoiseSpec("gaussian-iid", 1.0)
        return [
            run_trajectory(make_sat_plant(1.0), UNIFORM_ENV, noisy, "anytime", 40, RngStream(50, 0)),
            run_trajectory(STABLE_SCALAR, UNIFORM_ENV, NOISELESS, "baseline", 40, RngStream(50, 1)),
            diverged_trace(),
        ]

    def test_columns_are_read_only_float64_rows(self):
        for trace in self._runs():
            steps = len(trace.beta)
            assert len(trace.n) == len(trace.lam) == len(trace.sq_norms) == steps
            width = trace.x.shape[1]  # both plants have as many inputs as states
            for col in (trace.x, trace.u):
                assert col.dtype == np.float64 and col.shape == (steps, width)
                assert col.flags.c_contiguous and not col.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    col[0, 0] = 1.0
                with pytest.raises(ValueError, match="read-only"):
                    col[-1] += 1.0

    def test_diverged_columns_end_at_the_divergence_step(self):
        trace = diverged_trace()
        plant = make_scalar_plant(3.0, 2.5, 0.0)
        steps = len(trace.x)
        assert steps < trace.horizon and len(trace.u) == len(trace.beta) == steps
        limit2 = DIVERGENCE_NORM * DIVERGENCE_NORM
        assert all(v <= limit2 for v in trace.sq_norms)
        # noiseless: the state after the last recorded step is the one that diverged
        assert not _sq_norm(plant.dynamics(trace.x[-1], trace.u[-1]).tolist()) <= limit2

    def test_runs_share_no_buffer(self):
        # the cells of a sweep on one stream, a repeat that follows a kept run
        # throughout and the run it follows, against each other and the pre-draw
        stream = RngStream(51, 0)
        runs = [
            shared_draw_run(stream, d=d, controller=controller)
            for d in (0, 1, 2) for controller in ("baseline", "anytime")
        ]
        runs.append(shared_draw_run(stream, d=1))
        assert_runs_bitwise_equal(runs[-1], runs[3])
        x0, _, _, w = stream.trial_draws(UNIFORM_ENV, SHARED_DRAW_NOISES[3], 30, 2)
        for i, a in enumerate(runs):
            assert not np.shares_memory(a.x, x0) and not np.shares_memory(a.x, w)
            for b in runs[i + 1:]:
                for col_a in (a.x, a.u):
                    assert not any(np.shares_memory(col_a, col_b) for col_b in (b.x, b.u))
                assert a.sq_norms is not b.sq_norms


class TestLazyPlan:
    """A plan input is computed at the step that plays it, never ahead."""

    @given(
        plant_kind=st.sampled_from(["scalar", "saturated"]),
        controller=st.sampled_from(["baseline", "anytime"]),
        d=st.sampled_from([0.0, 0.5, 2.0]),
        noise_std=st.none() | st.floats(0.01, 1.0),
        horizon=st.integers(1, 60),
        env=st.sampled_from(SHARED_DRAW_ENVS),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_only_played_inputs_are_computed(
        self, plant_kind, controller, d, noise_std, horizon, env, seed
    ):
        plant = make_scalar_plant(2.0, 1.5, d) if plant_kind == "scalar" else make_sat_plant(d)
        dynamics, control_law, calls = counting_maps(plant)
        counted = dataclasses.replace(plant, dynamics=dynamics, control_law=control_law)
        noise = NOISELESS if noise_std is None else NoiseSpec("gaussian-iid", noise_std)
        trace = run_trajectory(counted, env, noise, controller, horizon, RngStream(seed, 0))
        # a step plays a plan input when it refills or has a buffered input left
        played = [bool(lam or n) for lam, n in zip(trace.lam, trace.n)]
        continued = [p and not n for p, n in zip(played, trace.n)]
        # one kappa per played plan input; one plant step per recorded step,
        # plus one forward-simulation step per played plan input but the first
        assert calls["control_law"] == sum(played)
        assert calls["dynamics"] == len(trace.x) + sum(continued)

    def test_catches_up_after_taking_inputs_from_a_peer(self):
        # Descending radii on one stream, as found by a search over seeds: both
        # runs refill at step 6, and the d = 0.5 run takes inputs 0-2 of that
        # plan from the d = 2 run, which falls silent at step 9.  There the
        # d = 0.5 run must compute input 3 itself, from x-hat caught up through
        # the three inputs it took.
        plant = make_scalar_plant(2.0, 1.5, 0.0)
        dynamics, control_law, calls = counting_maps(plant)
        env = StochasticEnv(q=0.4, p=(0.1, 0.1, 0.1, 0.1, 0.6), capacity=4)
        args = (env, NOISELESS, "anytime", 40)
        stream = RngStream(43, 0)

        def cell(d):
            return dataclasses.replace(plant, d=d, dynamics=dynamics, control_law=control_law)

        peer = run_trajectory(cell(2.0), *args, stream)
        before = dict(calls)
        run = run_trajectory(cell(0.5), *args, stream)
        k = next(k for k, (a, b) in enumerate(zip(run.u, peer.u)) if a.tobytes() != b.tobytes())
        refill = max(j for j in range(k) if run.n[j])
        assert (refill, k) == (6, 9) and peer.beta[k] == 2 and not run.n[k]
        assert all(not run.n[j] and run.u[j].tobytes() == peer.u[j].tobytes() for j in range(refill + 1, k))
        # Every step before k was the peer's.  From k on the run computes each
        # plant step and each plan input, one forward-simulation step per
        # later continuation, and at k the k - refill steps of the catch-up.
        own = range(k, len(run.x))
        continued = sum(run.lam[j] > 0 and not run.n[j] for j in own[1:])
        assert calls["control_law"] - before["control_law"] == sum(run.lam[j] > 0 for j in own)
        assert calls["dynamics"] - before["dynamics"] == len(own) + (k - refill) + continued

        fresh = run_trajectory(cell(0.5), *args, RngStream(43, 0))
        reference = reference_trajectory(cell(0.5), *args, 43, 0)
        assert_runs_bitwise_equal(run, fresh)
        assert_runs_bitwise_equal(run, reference)


class TestTraceMetrics:
    @staticmethod
    def _trace_from_xs(xs, horizon, beta=None):
        x = np.array(xs).reshape(-1, 1)
        betas = list(beta) if beta else [2] * len(xs)
        return Trace(
            x=x, u=np.zeros((len(xs), 1)), beta=betas, n=[0] * len(xs), lam=[0] * len(xs),
            sq_norms=array("d", (float((v * v).sum()) for v in x)), horizon=horizon,
        )

    def test_cost_all_zero(self):
        trace = self._trace_from_xs([0.0] * 50, 50)
        assert empirical_cost(trace) == 0.0

    def test_cost_three_pulse(self):
        xs = [1.0, 2.0, 3.0] + [0.0] * 47
        trace = self._trace_from_xs(xs, 50)
        assert empirical_cost(trace) == pytest.approx(14.0 / 50.0)

    def test_cost_constant_norm(self):
        trace = self._trace_from_xs([1.0] * 50, 50)
        assert empirical_cost(trace) == pytest.approx(1.0)

    @staticmethod
    def _simulated_traces():
        traces = [
            run_trajectory(plant, UNIFORM_ENV, noise, controller, 300, RngStream(24, trial))
            for plant in (make_scalar_plant(2.0, 1.5, 0.5), make_sat_plant(1.0))
            for noise in (NOISELESS, NoiseSpec("gaussian-iid", 1.0))
            for controller in ("baseline", "anytime")
            for trial in range(2)
        ]
        traces.append(diverged_trace())
        return traces

    def test_cost_matches_per_record_reference(self):
        for trace in self._simulated_traces():
            xs = np.array(trace.x)
            terms = (xs * xs).sum(axis=1).tolist()
            assert trace.sq_norms.tolist() == terms
            assert empirical_cost(trace) == math.fsum(terms) / trace.horizon

    def test_utilization_matches_per_record_reference(self):
        # Utilization by its definition, one step at a time.
        for trace in self._simulated_traces():
            reference = 100.0 * sum(1 for beta in trace.beta if beta != 2) / trace.horizon
            assert channel_utilization(trace).hex() == reference.hex()

    def test_utilization_extremes_and_fraction(self):
        trace = self._trace_from_xs([0.0] * 50, 50, beta=[2] * 50)
        assert channel_utilization(trace) == 0.0
        trace = self._trace_from_xs([2.0] * 50, 50, beta=[1] * 50)
        assert channel_utilization(trace) == 100.0
        pattern = [1] * 20 + [2] * 30
        trace = self._trace_from_xs([1.0] * 50, 50, beta=pattern)
        assert channel_utilization(trace) == pytest.approx(40.0)


class TestClosedLoopInvariants:
    @given(
        capacity=st.integers(min_value=1, max_value=6),
        q=st.floats(min_value=0.0, max_value=1.0),
        weights=st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=7, max_size=7),
        plant_kind=st.sampled_from(["scalar", "unstable", "saturated"]),
        d=st.floats(min_value=0.0, max_value=3.0),
        noisy=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_baseline_is_depth_one_buffer(self, capacity, q, weights, plant_kind, d, noisy, seed):
        # the baseline on E is the anytime controller on E folded to capacity 1
        w = np.array(weights[: capacity + 1])
        p = tuple(float(v) for v in w / w.sum())
        env = StochasticEnv(q=q, p=p, capacity=capacity)
        folded = StochasticEnv(q=q, p=(p[0], 1.0 - p[0]), capacity=1)
        plant = {
            "scalar": lambda: make_scalar_plant(2.0, 1.5, d),
            "unstable": lambda: make_scalar_plant(3.0, 2.5, d),
            "saturated": lambda: make_sat_plant(d),
        }[plant_kind]()
        noise = NoiseSpec("gaussian-iid", 1.0) if noisy else NOISELESS
        a = run_trajectory(plant, env, noise, "baseline", 60, RngStream(seed, 0))
        b = run_trajectory(plant, folded, noise, "anytime", 60, RngStream(seed, 0))
        assert a.diverged == b.diverged and a.beta == b.beta
        assert np.array_equal(a.x, b.x) and np.array_equal(a.u, b.u)

    def test_baseline_trace_follows_step_rule(self):
        noise = NoiseSpec("gaussian-iid", 1.0)
        for plant in (make_sat_plant(1.0), make_scalar_plant(2.0, 1.5, 1.0)):
            for trial in range(10):
                trace = run_trajectory(plant, UNIFORM_ENV, noise, "baseline", 60, RngStream(20, trial))
                for x, u, beta, n in zip(trace.x, trace.u, trace.beta, trace.n):
                    expected = plant.control_law(x) if (beta == 1 and n >= 1) else np.zeros(plant.input_dim)
                    assert np.array_equal(u, expected)


@st.composite
def drawn_envs(draw):
    """An environment of capacity 1 to 6 with every q and a pmf of positive entries."""
    capacity = draw(st.integers(1, 6))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=capacity + 1, max_size=capacity + 1))
    return StochasticEnv(q=draw(st.floats(0.0, 1.0)), p=tuple(w / sum(weights) for w in weights),
                         capacity=capacity)


#: Plant factories by radius: saturated, open-loop stable scalar and unstable scalar.
PATHWISE_PLANTS = (make_sat_plant, lambda d: make_scalar_plant(1.2, 0.9, d),
                   lambda d: make_scalar_plant(3.0, 2.5, d))


def first(flags):
    """The index of the first true flag, or the number of flags when none is."""
    return flags.index(True) if True in flags else len(flags)


class TestPathwiseInvariants:
    """What the common random numbers force between the cells of one trial, bit for bit.

    Each pair of runs is made on two fresh streams for one (seed, stream_id), so
    neither run follows the other: the equalities hold because the runs share
    their draws, not because one copies the other.
    """

    @given(env=drawn_envs(), plant=st.sampled_from(PATHWISE_PLANTS),
           d=st.sampled_from([0.0, 0.3, 1.0, 3.0]) | st.floats(0.0, 3.0), noisy=st.booleans(),
           horizon=st.integers(1, 80), seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=150, deadline=None)
    def test_controllers_agree_until_anytime_plays_a_stored_input(
        self, env, plant, d, noisy, horizon, seed
    ):
        # (a) until then both play kappa at the same refills from the same state
        noise = NoiseSpec("gaussian-iid", 1.0) if noisy else NOISELESS
        base = run_trajectory(plant(d), env, noise, "baseline", horizon, RngStream(seed, 0))
        anyt = run_trajectory(plant(d), env, noise, "anytime", horizon, RngStream(seed, 0))
        k = first([lam > 0 and n == 0 for lam, n in zip(anyt.lam, anyt.n)])
        assert base.x[:k + 1].tobytes() == anyt.x[:k + 1].tobytes()
        assert base.beta[:k + 1] == anyt.beta[:k + 1] and base.n[:k + 1] == anyt.n[:k + 1]
        assert base.u[:k].tobytes() == anyt.u[:k].tobytes()
        if k == len(anyt.lam):  # no stored input played: one run
            assert columns(base)[:-1] == columns(anyt)[:-1]

    @given(env=drawn_envs(), plant=st.sampled_from(PATHWISE_PLANTS),
           radii=st.lists(st.floats(0.0, 3.0), min_size=2, max_size=2, unique=True).map(sorted),
           controller=st.sampled_from(["baseline", "anytime"]), noisy=st.booleans(),
           horizon=st.integers(1, 80), seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=150, deadline=None)
    def test_radii_agree_until_the_trigger_differs(
        self, env, plant, radii, controller, noisy, horizon, seed
    ):
        # (b) d1 < d2 decide alike until d1 <= |x| < d2
        noise = NoiseSpec("gaussian-iid", 1.0) if noisy else NOISELESS
        near, far = (
            run_trajectory(plant(d), env, noise, controller, horizon, RngStream(seed, 0))
            for d in radii
        )
        k = first([b1 != b2 for b1, b2 in zip(near.beta, far.beta)])
        assert near.x[:k + 1].tobytes() == far.x[:k + 1].tobytes()
        assert near.u[:k].tobytes() == far.u[:k].tobytes()
        assert (near.beta[:k], near.n[:k], near.lam[:k]) == (far.beta[:k], far.n[:k], far.lam[:k])
        if k == min(len(near.beta), len(far.beta)):  # the trigger never differed: one run
            assert columns(near) == columns(far)

    @given(env=drawn_envs(), a_abs=st.floats(0.05, 3.0),
           ratio=st.just(0.0) | st.floats(2.0**-38, 0.999),
           signs=st.tuples(st.sampled_from([1.0, -1.0]), st.sampled_from([1.0, -1.0])),
           horizon=st.integers(1, 80), seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=150, deadline=None)
    def test_anytime_is_pathwise_no_worse_on_a_noise_free_scalar_plant(
        self, env, a_abs, ratio, signs, horizon, seed
    ):
        # (c) at d = 0 both refill at the same steps with the same N, so anytime
        # plays an input wherever the baseline does, and each input scales |x| by
        # rho < alpha.  rho <= 0.999 alpha: at rho = alpha the magnitudes are
        # equal in exact arithmetic but rounded from different states.  And
        # rho = 0 or rho >= 2**-40 alpha (ratio >= 2**-38, as
        # min(a_abs, 0.999) >= a_abs / 4): for 0 < rho below about
        # 2**-50 alpha, fl(a x - gain x) is mostly the rounding of a x and
        # gain x, which is not monotone in |x|, so a smaller state can map to
        # a larger one (at ratio = 2**-52 the baseline cancelled to 0.0 where
        # anytime kept -5.6e-104).  TestCertifiedInequalities covers that
        # regime.
        a = signs[0] * a_abs
        gain = a - signs[1] * ratio * min(a_abs, 0.999)
        plant = make_scalar_plant(a, gain, 0.0)
        assert plant.alpha > plant.rho
        base = run_trajectory(plant, env, NOISELESS, "baseline", horizon, RngStream(seed, 0))
        anyt = run_trajectory(plant, env, NOISELESS, "anytime", horizon, RngStream(seed, 0))
        assert len(anyt.beta) >= len(base.beta) and (base.diverged or not anyt.diverged)
        for (x_any,), (x_base,) in zip(anyt.x.tolist(), base.x.tolist()):
            assert abs(x_any) <= abs(x_base)


class TestOracleFreeRelations:
    """Symmetries of the model between two runs, which need no second implementation.

    Negation and scaling by a power of two commute with IEEE rounding, away
    from overflow and underflow, so the relations hold bit for bit.  They can
    fail on a misreading of the model that the oracle shares with the runtime.
    """

    @given(env=drawn_envs(), plant=st.sampled_from(PATHWISE_PLANTS), d=st.floats(0.0, 3.0),
           controller=st.sampled_from(["baseline", "anytime"]), data=st.data(),
           horizon=st.integers(1, 80), seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=150, deadline=None)
    def test_negated_x0_negates_the_run(self, env, plant, d, controller, data, horizon, seed):
        # (i) both plants' maps and sat are odd, so with no noise -x0 gives -x
        # and -u; the trigger and the divergence mark read x·x, which is even,
        # so the decisions agree and a diverged pair is kept
        plant = plant(d)
        x0 = np.array(data.draw(st.lists(st.floats(-20.0, 20.0), min_size=plant.state_dim,
                                         max_size=plant.state_dim)))
        a, b = (run_trajectory(plant, env, NOISELESS, controller, horizon, RngStream(seed, 0), x0=x)
                for x in (x0, -x0))
        assert np.array_equal(b.x, -a.x) and np.array_equal(b.u, -a.u)
        assert (b.beta, b.n, b.lam, b.diverged) == (a.beta, a.n, a.lam, a.diverged)

    @given(env=drawn_envs(), plant=st.sampled_from(PATHWISE_PLANTS[1:]),
           d=st.just(0.0) | st.floats(2.0**-20, 3.0),
           x0=st.just(0.0) | st.floats(2.0**-20, 5.0) | st.floats(-5.0, -(2.0**-20)),
           std=st.just(0.0) | st.floats(0.01, 2.0), m=st.integers(-6, 6),
           controller=st.sampled_from(["baseline", "anytime"]), horizon=st.integers(1, 80),
           seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=150, deadline=None)
    def test_scaled_units_scale_the_run(self, env, plant, d, x0, std, m, controller, horizon, seed):
        # (ii) the scalar loop is linear in x0, d and the noise, so scaling all
        # three by 2**m scales x and u by 2**m and the cost by 4**m exactly;
        # x0 and d stay 0 or above 2**-20, so that no x·x or d·d underflows
        scale = 2.0**m
        a, b = (
            run_trajectory(plant(c * d), env, NoiseSpec("gaussian-iid", c * std) if std else NOISELESS,
                           controller, horizon, RngStream(seed, 0), x0=np.array([c * x0]))
            for c in (1.0, scale)
        )
        # DIVERGENCE_NORM is a fixed bound on |x|, so whether a run reaches it
        # depends on the units of x: a pair in which either run did is left out
        assume(not (a.diverged or b.diverged))
        assert (a.x * scale).tobytes() == b.x.tobytes() and (a.u * scale).tobytes() == b.u.tobytes()
        assert (b.beta, b.n, b.lam) == (a.beta, a.n, a.lam)
        assert empirical_cost(b) == empirical_cost(a) * 4.0**m


class TestTraceCsv:
    def test_columns_and_rows(self, tmp_path):
        plant = make_sat_plant(d=1.0)
        noise = NoiseSpec("gaussian-iid", 1.0)
        trace = run_trajectory(plant, UNIFORM_ENV, noise, "anytime", 25, RngStream(22, 0))
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "k,x1,x2,u1,u2,beta,N,lambda"
        assert len(lines) == 26
        assert lines[1].startswith("0,")

    def test_bytes_match_per_row_writer(self, tmp_path):
        lengths = (1, _CSV_BLOCK - 1, _CSV_BLOCK, _CSV_BLOCK + 1, 2500)
        traces = [
            run_trajectory(plant, UNIFORM_ENV, NoiseSpec("gaussian-iid", 1.0), "anytime", horizon, RngStream(25, horizon))
            for plant in (make_scalar_plant(2.0, 1.5, 0.5), make_sat_plant(1.0))
            for horizon in lengths
        ]
        traces.append(diverged_trace())
        for trace in traces:
            write_trace_csv(trace, tmp_path / "block.csv")
            reference_trace_csv(trace, tmp_path / "row.csv")
            assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "row.csv").read_bytes()

    #: Values whose repr is easy to get wrong: signed zero, the smallest
    #: subnormal, the switches to exponent notation, nan and the infinities.
    ADVERSARIAL = (-0.0, 0.0, 5e-324, -5e-324, 1e-5, 1e-4, 1e16, 1e15, 1e22, -1e22,
                   math.nan, math.inf, -math.inf, 5.0, 0.1, 1.0 / 3.0, 1.7976931348623157e308)

    @given(
        state_dim=st.integers(min_value=1, max_value=3),
        input_dim=st.integers(min_value=1, max_value=3),
        length=st.sampled_from((1, _CSV_BLOCK - 1, _CSV_BLOCK, _CSV_BLOCK + 1, 2 * _CSV_BLOCK + 3)),
        extra=st.lists(st.floats(), max_size=8),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_bytes_match_per_row_writer_on_adversarial_floats(
        self, tmp_path_factory, state_dim, input_dim, length, extra, seed
    ):
        rng = np.random.default_rng(seed)
        pool = np.array(self.ADVERSARIAL + tuple(extra))
        xs = rng.choice(pool, size=(length, state_dim))
        us = rng.choice(pool, size=(length, input_dim))
        ints = rng.integers(0, 17, size=(length, 2)).tolist()
        betas = rng.integers(0, 3, size=length).tolist()
        trace = Trace(
            x=xs, u=us, beta=betas, n=[n for n, _ in ints], lam=[lam for _, lam in ints],
            sq_norms=array("d"), horizon=length,
        )
        out = tmp_path_factory.mktemp("csv")
        write_trace_csv(trace, out / "block.csv")
        reference_trace_csv(trace, out / "row.csv")
        assert (out / "block.csv").read_bytes() == (out / "row.csv").read_bytes()
