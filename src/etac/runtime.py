"""Closed-loop execution: trigger, erasure channel, processor draws, controllers.

One call to :func:`run_trajectory` produces one trial.  All randomness for a
trial is pre-drawn from its own stream in a fixed order (initial state,
channel, processor, disturbances), so two runs on the same (seed, stream_id)
share draws exactly; this is what makes paired baseline/anytime comparisons
common-random-number comparisons.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .domain import BufferState, NoiseSpec, PlantSpec, StepRecord, StochasticEnv, require_valid_env

__all__ = [
    "DIVERGENCE_NORM",
    "RngStream",
    "Trace",
    "anytime_step",
    "baseline_step",
    "channel_utilization",
    "empirical_cost",
    "run_trajectory",
    "sample_beta",
    "sample_n",
    "shift_buffer",
    "trigger",
    "update_lambda",
    "write_trace_csv",
]

#: State norms beyond this mark a trajectory as diverged.
DIVERGENCE_NORM = 1e12


@dataclass(frozen=True)
class RngStream:
    """Deterministic random stream for one trial.

    The same (seed, stream_id) always yields the same draw sequence; distinct
    stream_ids yield statistically independent streams.  Seeds are unsigned
    64-bit integers.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        """A fresh generator positioned at the start of the stream."""
        return np.random.default_rng([self.seed, self.stream_id])


@dataclass
class Trace:
    """Step records of one closed-loop run.

    ``records`` has exactly ``horizon`` entries unless the run diverged, in
    which case it is truncated at the step where the state norm blew past
    :data:`DIVERGENCE_NORM` (or went non-finite).
    """

    records: list[StepRecord]
    horizon: int
    diverged: bool = False


def trigger(x: np.ndarray, d: float) -> bool:
    """True when the sensor transmits, i.e. |x| >= d (the target ball is open)."""
    return float(x @ x) >= d * d


def sample_beta(x: np.ndarray, d: float, rng: np.random.Generator, q: float) -> int:
    """Transmission outcome: 2 silent, 1 received (prob q), 0 erased."""
    if not trigger(x, d):
        return 2
    return 1 if rng.random() < q else 0


def sample_n(beta: int, env: StochasticEnv, rng: np.random.Generator) -> int:
    """Control-law evaluations granted this step: 0 unless fresh data arrived."""
    if beta != 1:
        return 0
    u = rng.random()
    acc = 0.0
    for j, pj in enumerate(env.p):
        acc += pj
        if u < acc:
            return j
    return env.capacity


def baseline_step(x: np.ndarray, beta: int, n: int, plant: PlantSpec) -> np.ndarray:
    """Memoryless policy: apply kappa only when data arrived and the processor ran."""
    if beta == 1 and n >= 1:
        return np.asarray(plant.control_law(x), dtype=float)
    return np.zeros(plant.input_dim)


def shift_buffer(blocks: np.ndarray) -> np.ndarray:
    """Advance the schedule one step: row j takes row j + 1, last row zeroes."""
    out = np.zeros_like(blocks)
    out[:-1] = blocks[1:]
    return out


def update_lambda(prev_lam: int, beta: int, n: int) -> int:
    """Effective-buffer-length recursion (inputs consistent: n = 0 when beta != 1)."""
    if beta == 2:
        return 0
    if n >= 1:
        return n
    return max(0, prev_lam - 1)


def anytime_step(
    x: np.ndarray | None,
    beta: int,
    n: int,
    buf: BufferState,
    plant: PlantSpec,
) -> tuple[np.ndarray, BufferState]:
    """One step of the buffered controller.

    A silent step (beta = 2) empties the buffer and applies zero; a step with
    no fresh computation plays the next scheduled block after shifting; a step
    with n >= 1 evaluations rebuilds the schedule by forward-simulating the
    plant from the received state, applying the first computed input.  The
    received state must be present exactly when beta = 1.
    """
    if n >= 1 and beta != 1:
        raise ValueError("n >= 1 requires beta == 1: inputs are computed only on reception")
    if (beta == 1) != (x is not None):
        raise ValueError("the state argument must be present exactly when beta == 1")
    capacity = buf.blocks.shape[0]
    if n > capacity:
        raise ValueError(f"n={n} exceeds buffer capacity {capacity}")
    if beta == 2:
        return np.zeros(buf.blocks.shape[1]), BufferState(np.zeros_like(buf.blocks), 0)
    if n == 0:
        shifted = shift_buffer(buf.blocks)
        return shifted[0].copy(), BufferState(shifted, max(0, buf.lam - 1))
    blocks = np.zeros_like(buf.blocks)
    chi = np.asarray(x, dtype=float)
    for j in range(n):
        u_j = np.asarray(plant.control_law(chi), dtype=float)
        blocks[j] = u_j
        if j + 1 < n:
            chi = plant.dynamics(chi, u_j)
    return blocks[0].copy(), BufferState(blocks, n)


def run_trajectory(
    plant: PlantSpec,
    env: StochasticEnv,
    noise: NoiseSpec,
    controller: str,
    horizon: int,
    rng: RngStream,
    x0: np.ndarray | None = None,
) -> Trace:
    """Simulate one closed-loop run of ``horizon`` steps.

    ``controller`` is "baseline" or "anytime".  ``x0`` fixes the initial state;
    when None it is drawn standard normal.  The state update is
    x(k+1) = f(x(k), u(k)) + w(k).  A state whose norm exceeds
    :data:`DIVERGENCE_NORM` (or goes non-finite) ends the run early with the
    trace flagged diverged rather than raising.  The recorded ``lam`` is the
    effective buffer length for the anytime controller and 0 for the baseline,
    which buffers nothing.
    """
    require_valid_env(env)
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if controller not in ("baseline", "anytime"):
        raise ValueError(f"unknown controller {controller!r}")

    gen = rng.generator()
    x = gen.standard_normal(plant.state_dim) if x0 is None else np.array(x0, dtype=float)
    received = (gen.random(horizon) < env.q).tolist()
    cum = np.cumsum(env.p)
    n_draws = np.minimum(
        np.searchsorted(cum, gen.random(horizon), side="right"), env.capacity
    ).tolist()
    w = (
        noise.std * gen.standard_normal((horizon, plant.state_dim))
        if noise.kind == "gaussian-iid"
        else None
    )

    buffered = controller == "anytime"
    buf = BufferState.zeros(env.capacity, plant.input_dim) if buffered else None
    dd = plant.d * plant.d
    dynamics = plant.dynamics
    control = plant.control_law
    zero_u = np.zeros(plant.input_dim)
    records: list[StepRecord] = []
    append = records.append
    diverged = False
    # The squared norm of x(k + 1), computed for the divergence test, is the
    # trigger test of step k + 1; ndarray.dot is bitwise equal to ``x @ x``
    # and skips the matmul ufunc dispatch.
    nrm2 = float(x.dot(x))

    for k in range(horizon):
        if nrm2 >= dd:
            beta = 1 if received[k] else 0
        else:
            beta = 2
        n_k = n_draws[k] if beta == 1 else 0
        if buffered:
            u, buf = anytime_step(x if beta == 1 else None, beta, n_k, buf, plant)
            lam = buf.lam
        else:
            u = control(x) if (beta == 1 and n_k >= 1) else zero_u
            lam = 0
        x_next = dynamics(x, u)
        if w is None:
            w_k = None
        else:
            w_k = w[k]
            x_next = x_next + w_k
        append(StepRecord(k, x, u, beta, n_k, lam, w_k))
        nrm2 = float(x_next.dot(x_next))
        if not math.isfinite(nrm2) or nrm2 > DIVERGENCE_NORM * DIVERGENCE_NORM:
            diverged = True
            break
        x = x_next

    return Trace(records=records, horizon=horizon, diverged=diverged)


def empirical_cost(trace: Trace) -> float:
    """Average squared state norm over the horizon."""
    return math.fsum(float(r.x @ r.x) for r in trace.records) / trace.horizon


def channel_utilization(trace: Trace) -> float:
    """Percentage of steps with a transmission attempt (beta != 2)."""
    return 100.0 * sum(1 for r in trace.records if r.beta != 2) / trace.horizon


def write_trace_csv(trace: Trace, path) -> None:
    """Write a trace as CSV with columns k, x1..xn, u1..up, beta, N, lambda."""
    first = trace.records[0]
    n, p = len(first.x), len(first.u)
    header = (
        ["k"]
        + [f"x{i + 1}" for i in range(n)]
        + [f"u{i + 1}" for i in range(p)]
        + ["beta", "N", "lambda"]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for r in trace.records:
            writer.writerow(
                [r.k, *(float(v) for v in r.x), *(float(v) for v in r.u), r.beta, r.n, r.lam]
            )
