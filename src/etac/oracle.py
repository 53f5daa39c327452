"""Brute-force validators, independent of the closed-form analysis path.

Everything here re-derives, by a second and plainer route, a quantity that
the analysis module computes in closed form or the simulator computes step by
step: the first-return-time pmf of the effective buffer length by direct
simulation of the length recursion, the dense transition matrix of that chain
built row by row from its transition rule, the anytime plan computed whole from
the received state (:func:`plan_inputs`), the buffered controller step as a
literal case table on an explicit buffer matrix (:class:`BufferState`) filled
from that plan, and the scalar length recursion (:func:`update_lambda`).  The
last three are the references for differential tests of the simulator, which
keeps the length, the last refill and x-hat instead.  Return-time validation
runs in the always-transmit regime (d = 0), where only the i.i.d. channel and
processor draws drive the length recursion.  :func:`reference_trajectory`
rebuilds a whole closed-loop run from its draws with the table-driven step, as
a ``runtime.Trace`` for bitwise comparison with ``runtime.run_trajectory``'s.

The return-time simulation is an integer kernel that walks refill events, not
steps, in a few chunk-sized buffers whatever the sample count;
:func:`simulate_lambda_chain` gives its draw layout and its walk.
"""

from __future__ import annotations

import copy
from array import array
from dataclasses import dataclass

import numpy as np

from .domain import NoiseSpec, PlantSpec, StochasticEnv, _sq_norm
from .runtime import CONTROLLERS, DIVERGENCE_NORM, Trace

__all__ = [
    "BufferState",
    "EmpiricalPmf",
    "lambda_transition_matrix",
    "plan_inputs",
    "reference_anytime_step",
    "reference_trajectory",
    "simulate_lambda_chain",
    "tv_distance",
    "update_lambda",
]

_MAX_BLOCK = 2_000_000
_CHUNK = 1 << 16


@dataclass(frozen=True, eq=False)
class EmpiricalPmf:
    """Outcome counts over first-return times; index i holds the count of i + 1."""

    counts: np.ndarray
    total: int

    @property
    def support(self) -> np.ndarray:
        return np.arange(1, len(self.counts) + 1)

    @property
    def frequencies(self) -> np.ndarray:
        return self.counts / self.total

    @property
    def half_width(self) -> np.ndarray:
        """Per-outcome 3-sigma binomial half-widths."""
        f = self.frequencies
        return 3.0 * np.sqrt(f * (1.0 - f) / self.total)

    def mean(self) -> float:
        return float((self.support * self.counts).sum() / self.total)


@dataclass(eq=False)
class BufferState:
    """Actuator-side schedule of tentative inputs, as a matrix.

    ``blocks[j]`` is the input planned for j steps ahead; ``lam`` counts how
    many leading rows came from actual control-law evaluations (the rest are
    padding zeros).  The state type of :func:`reference_anytime_step`.
    """

    blocks: np.ndarray  # shape (capacity, input_dim)
    lam: int

    @classmethod
    def zeros(cls, capacity: int, input_dim: int) -> "BufferState":
        return cls(np.zeros((capacity, input_dim)), 0)


def update_lambda(prev_lam: int, beta: int, n: int) -> int:
    """Effective-buffer-length recursion (inputs consistent: n = 0 when beta != 1)."""
    if beta == 2:
        return 0
    if n >= 1:
        return n
    return max(0, prev_lam - 1)


def _evaluation_counts(cum: np.ndarray, u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill the integer array ``out`` with the count granted by each processor uniform.

    A received step grants j evaluations w.p. p[j].  ``cum`` is the
    cumulative pmf, so the capacity is L = len(cum) - 1.  The count is the
    number of j < L with cum[j] <= u, made by L in-place comparisons: exactly
    ``min(searchsorted(cum, u, side="right"), L)``, also when cum[L] < 1 by
    rounding.
    """
    np.greater_equal(u, cum[0], out=out, casting="unsafe")
    for c in cum[1:-1]:
        out += u >= c
    return out


def lambda_transition_matrix(env: StochasticEnv) -> np.ndarray:
    """Dense transition matrix of the buffer-length chain between resets.

    ``g[l-1, j-1]`` is the one-step probability of length l to length j, set
    row by row: a step granting j >= 1 fresh evaluations jumps to j; a step
    granting none counts down to l - 1, so that column also absorbs the
    no-data and no-processor mass.  The escape from length 1 to 0 has no
    column.  The tests check the analysis' closed forms against this matrix.
    """
    q = env.q
    p = np.asarray(env.p, dtype=float)
    cap = env.capacity
    g = np.empty((cap, cap))
    for row, length in enumerate(range(1, cap + 1)):
        g[row] = q * p[1:]
        if length >= 2:
            g[row, length - 2] = 1.0 - q + (p[0] + p[length - 1]) * q
    return g


def simulate_lambda_chain(env: StochasticEnv, n_returns: int, rng) -> EmpiricalPmf:
    """Empirical pmf of first-return times of the buffer length to zero.

    Simulates the length recursion directly from i.i.d. channel/processor
    draws (no plant involved, always-transmit regime) and collects the gaps
    between successive zeros of the path until ``n_returns`` returns are seen.

    The stream is consumed in blocks whose sizes follow from the returns seen
    so far.  Block b lays out its draws as all of its reception uniforms, then
    all of its processor uniforms.  The block is walked in chunks of
    ``_CHUNK`` steps: the reception uniforms come from the stream's generator
    and the processor uniforms from a copy of it advanced by the block length
    (one 64-bit output per double), which also starts the next block.

    Per step, a chunk only draws and marks its refills: the steps that are
    received and granted at least one evaluation.  The rest is walked over
    the refills.  A refill at step r with count n holds the length above zero
    on [r, min(r + n, next refill)); touching intervals merge into stretches,
    and the length carried into a chunk is a refill at step -1.  A stretch
    that closes inside the chunk ends at a zero whose gap to the zero before
    the stretch is ``close - (start - 1)``; every other zero follows a zero, a
    gap of 1.  The walk stops at the n-th return, and apart from the counts
    its memory is a few chunk-sized buffers, whatever the block length.
    """
    if n_returns < 1:
        raise ValueError("n_returns must be >= 1")
    if 1.0 - env.q + env.p[0] * env.q == 0.0:
        raise ValueError("the buffer length never returns to zero (q = 1 with p0 = 0)")
    cum = np.cumsum(env.p)
    chunk = _CHUNK
    received_u = np.empty(chunk)
    u = np.empty(chunk)
    u_refill = np.empty(chunk)
    flags = np.empty(chunk + 1, dtype=bool)
    mask = np.empty(chunk, dtype=bool)
    # Per chunk, interval i starts at refill start[i] (the carry first, at step
    # -1, and a sentinel refill last) and lasts until end[i], the step at which
    # its countdown reaches zero, or until the next refill if that comes first.
    start_buf = np.empty(chunk + 2, dtype=np.int64)
    end_buf = np.empty(chunk + 1, dtype=np.int64)
    never = np.iinfo(np.int64).max
    rec = rng.generator()
    counts = np.zeros(16, dtype=np.int64)
    total = 0
    steps_done = 0
    last_zero = -1  # step of the latest zero of the path, counted from the chunk's first step
    carry = -1  # the step of the open stretch's closing zero, counted likewise; -1 if none
    while total < n_returns:
        if total == 0:
            block = min(max(4 * n_returns, 4096), _MAX_BLOCK)
        else:
            mean_gap = steps_done / total
            block = min(int(1.25 * mean_gap * (n_returns - total)) + 4096, _MAX_BLOCK)
        proc = copy.deepcopy(rec)
        proc.bit_generator.advance(block)
        for first in range(0, block, chunk):
            m = min(chunk, block - first)
            rec.random(out=received_u[:m])
            proc.random(out=u[:m])
            refill = np.less(received_u[:m], env.q, out=mask[:m])
            refill &= np.greater_equal(u[:m], cum[0], out=flags[:m])
            at = np.flatnonzero(refill)
            carried = carry >= 0
            k = carried + at.size
            start, end = start_buf[: k + 1], end_buf[:k]
            if carried:
                start[0], end[0] = -1, carry
            start[carried:k] = at
            start[k] = never
            _evaluation_counts(cum, u.take(at, out=u_refill[: at.size]), end[carried:])
            end[carried:] += at
            if k:
                # A stretch ends with the interval that closes before the next refill.
                last = np.flatnonzero(np.less(end, start[1:], out=flags[:k]))
                closes = end.take(last)
                before = np.empty_like(closes)  # the zero before each stretch
                before[0] = last_zero if carried else start[0] - 1
                np.subtract(start.take(last[:-1] + 1), 1, out=before[1:])
                gaps = closes - before
                if closes[-1] >= m:  # the last stretch is still open
                    carry, end_zero = int(closes[-1]) - m, int(before[-1])
                    gaps = gaps[:-1]
                else:
                    carry, end_zero = -1, m - 1
            else:
                carry, end_zero = -1, m - 1
                gaps = closes = end  # both empty
            zeros = gaps.size + end_zero - last_zero - int(gaps.sum())
            wanted = n_returns - total
            if zeros >= wanted:
                # keep the zeros up to the wanted one: rank each closing zero
                rank = np.arange(1, gaps.size + 1) + closes[: gaps.size] - np.cumsum(gaps)
                rank -= last_zero
                gaps = gaps[: np.searchsorted(rank, wanted, side="right")]
                zeros = wanted
            counts[0] += zeros - gaps.size
            if gaps.size:
                closed = np.bincount(gaps)[1:]  # gap values start at 1
                if closed.size > counts.size:
                    counts = np.concatenate(
                        (counts, np.zeros(closed.size - counts.size, dtype=np.int64))
                    )
                counts[: closed.size] += closed
            total += zeros
            last_zero = end_zero - m
            if total == n_returns:
                break
        steps_done += block
        rec = proc  # at the block's start + 2 * block
    last = int(np.nonzero(counts)[0][-1]) + 1
    return EmpiricalPmf(counts=counts[:last].copy(), total=total)


def plan_inputs(x: np.ndarray, n: int, plant: PlantSpec) -> list[np.ndarray]:
    """The ``n`` tentative inputs computed from the received state ``x``.

    Input j is kappa at the j-th state of the plant's noise-free forward
    simulation from ``x`` under the inputs before it; the first is kappa(x).
    ``runtime.run_trajectory`` computes the same inputs one at a time, as played.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    control = plant.control_law
    u = control(x)
    inputs = [u]
    while len(inputs) < n:
        x = plant.dynamics(x, u)
        u = control(x)
        inputs.append(u)
    return inputs


def reference_anytime_step(
    x: np.ndarray | None,
    beta: int,
    n: int,
    buf: BufferState,
    plant: PlantSpec,
) -> tuple[np.ndarray, BufferState]:
    """Table-driven buffered controller step on an explicit buffer matrix.

    The literal operating-mode table: a silent step (beta = 2) zeroes the
    buffer, any other step shifts it one row ahead, and a step with n >= 1
    evaluations instead fills it with :func:`plan_inputs` of the received
    state.  The new effective length follows :func:`update_lambda`, and the
    rows from ``lam`` on stay zero.  ``runtime.run_trajectory`` must match it
    on a capacity-row buffer (anytime) and on a one-row buffer (baseline).
    """
    if n >= 1 and beta != 1:
        raise ValueError("n >= 1 requires beta == 1: inputs are computed only on reception")
    if (beta == 1) != (x is not None):
        raise ValueError("the state argument must be present exactly when beta == 1")
    capacity = buf.blocks.shape[0]
    if n > capacity:
        raise ValueError(f"n={n} exceeds buffer capacity {capacity}")
    blocks = np.zeros_like(buf.blocks)
    if n >= 1:
        blocks[:n] = plan_inputs(x, n, plant)
    elif beta != 2:
        blocks[:-1] = buf.blocks[1:]  # shift one step ahead
    return blocks[0].copy(), BufferState(blocks, update_lambda(buf.lam, beta, n))


def reference_trajectory(
    plant: PlantSpec,
    env: StochasticEnv,
    noise: NoiseSpec,
    controller: str,
    horizon: int,
    seed: int,
    t: int,
    x0: np.ndarray | None = None,
) -> Trace:
    """Trial ``t`` of a closed-loop run, regenerated from its draws one step at a time.

    The draws come from a fresh ``np.random.default_rng([seed, t])`` in the
    documented order: the standard normal x0 (none when ``x0`` is given), the
    ``horizon`` reception uniforms, the ``horizon`` processor uniforms turned
    into counts by :func:`_evaluation_counts`, then the disturbances.  Each
    step makes the trigger test x·x >= d², the squared form the simulator
    uses (criterion 6(c) writes silence as √(x·x) < d), with x·x from
    ``domain._sq_norm``; passes β and N, cut to the buffer's rows, to
    :func:`reference_anytime_step` on a capacity-row buffer (anytime) or a
    one-row buffer (baseline); sets x to f(x, u) + w; and ends the run,
    flagged diverged, when the new state's squared norm is not at most
    ``DIVERGENCE_NORM`` squared.  The recorded λ is the buffer's
    effective length for anytime and 0 for the baseline, which buffers
    nothing, and ``sq_norms`` holds each recorded state's ``_sq_norm``.
    There is no lazy plan, kept run or shared draw.
    """
    if controller not in CONTROLLERS:
        raise ValueError(f"unknown controller {controller!r}")
    buffered = controller == "anytime"
    gen = np.random.default_rng([seed, t])
    x = gen.standard_normal(plant.state_dim) if x0 is None else np.array(x0, dtype=float)
    received = gen.random(horizon) < env.q
    granted = _evaluation_counts(np.cumsum(env.p), gen.random(horizon), np.empty(horizon, int))
    w = None
    if noise.kind == "gaussian-iid":
        w = noise.std * gen.standard_normal((horizon, plant.state_dim))
    buf = BufferState.zeros(env.capacity if buffered else 1, plant.input_dim)
    steps = []
    diverged = False
    for k in range(horizon):
        sq_norm = _sq_norm(x.tolist())
        beta = (1 if received[k] else 0) if sq_norm >= plant.d * plant.d else 2
        n = int(granted[k]) if beta == 1 else 0
        received_x = x if beta == 1 else None
        u, buf = reference_anytime_step(received_x, beta, min(n, len(buf.blocks)), buf, plant)
        steps.append((x, u, beta, n, buf.lam if buffered else 0, sq_norm))
        x = plant.dynamics(x, u)
        if w is not None:
            x = x + w[k]
        if not _sq_norm(x.tolist()) <= DIVERGENCE_NORM * DIVERGENCE_NORM:
            diverged = True
            break
    xs, us, betas, ns, lams, sq_norms = map(list, zip(*steps))
    return Trace(x=np.array(xs), u=np.array(us), beta=betas, n=ns, lam=lams,
                 sq_norms=array("d", sq_norms), horizon=horizon, diverged=diverged)


def tv_distance(analytic: np.ndarray, empirical: EmpiricalPmf) -> float:
    """Total variation between a truncated analytic pmf and an empirical one.

    The analytic mass beyond the truncation is charged in full, so the result
    upper-bounds the true distance; when ``len(analytic) >= len(empirical.counts)``
    it is exact up to rounding, as the empirical pmf is zero past the longest
    observed gap, so that charge is exactly the analytic mass the sum leaves out.
    """
    width = max(len(analytic), len(empirical.counts))
    a = np.zeros(width)
    a[: len(analytic)] = analytic
    e = np.zeros(width)
    freq = empirical.frequencies
    e[: len(freq)] = freq
    analytic_tail = max(0.0, 1.0 - float(np.sum(analytic)))
    return 0.5 * (float(np.abs(a - e).sum()) + analytic_tail)
