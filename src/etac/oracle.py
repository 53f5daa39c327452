"""Brute-force validators, independent of the closed-form analysis path.

Everything here re-derives a quantity the analysis module computes in closed
form: the first-return-time pmf of the effective buffer length by direct
simulation of the length recursion, the dense transition matrix of that chain
built row by row from its transition rule, the same law by conditional
frequency counts, the buffered controller step as a literal case table on an
explicit buffer matrix (:class:`BufferState`), and the scalar length recursion
(:func:`update_lambda`) for differential testing against the simulator, which
keeps its buffer as a plan plus an age instead.  Validation runs in the
always-transmit regime (d = 0), where the length recursion is driven purely by
the i.i.d. channel and processor draws.

The return-time simulation is an integer kernel.  It draws the stream in
blocks, each laid out as all of its reception uniforms, then all of its
processor uniforms, and walks a block in chunks of ``_CHUNK`` steps: the
reception draws come from the stream's generator, the processor draws from a
copy of it advanced by the block length.  Per chunk, the evaluation counts are
made by in-place comparisons against the cumulative pmf into an int32 buffer,
and the length path is unrolled in int32; only the returned counts are int64.
The walk stops at the requested return, so its working memory is a few
chunk-sized buffers whatever the block or sample count.
"""

from __future__ import annotations

import copy
import warnings
from dataclasses import dataclass

import numpy as np

from .domain import PlantSpec, StochasticEnv

__all__ = [
    "BufferState",
    "EmpiricalPmf",
    "TransitionEstimate",
    "empirical_transition_matrix",
    "lambda_path_from_counts",
    "lambda_transition_matrix",
    "reference_anytime_step",
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


@dataclass(frozen=True, eq=False)
class TransitionEstimate:
    """Frequency estimate of the buffer-length transition matrix.

    ``matrix[l-1, j-1]`` estimates the one-step probability of length l to
    length j; escapes to zero are counted in the denominator but carried by no
    column, so row 1 sums below one while rows l >= 2 sum to one.
    """

    matrix: np.ndarray
    visits: np.ndarray

    @property
    def half_width(self) -> np.ndarray:
        g = self.matrix
        return 3.0 * np.sqrt(g * (1.0 - g) / self.visits[:, None])


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


def _evaluation_counts(
    cum: np.ndarray, q: float, received_u: np.ndarray, u: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Fill the int32 array ``out`` with one evaluation count per step, and return it.

    Always-transmit regime: data goes out every step and arrives when its
    reception uniform is below q; a received step grants j evaluations w.p.
    p[j], and any other step none.  ``cum`` is the cumulative pmf, so the
    capacity is L = len(cum) - 1.  The count is the number of j < L with
    cum[j] <= u, made by L in-place comparisons: exactly
    ``min(searchsorted(cum, u, side="right"), L)``, also when cum[L] < 1 by
    rounding.
    """
    np.greater_equal(u, cum[0], out=out, casting="unsafe")
    for c in cum[1:-1]:
        out += u >= c
    out *= received_u < q
    return out


def _draw_counts(env: StochasticEnv, gen: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """:func:`_evaluation_counts` on ``out.size`` reception draws, then as many processor draws."""
    received_u = gen.random(out.size)
    return _evaluation_counts(np.cumsum(env.p), env.q, received_u, gen.random(out.size), out)


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


def lambda_path_from_counts(n_seq: np.ndarray) -> np.ndarray:
    """Buffer-length path from per-step evaluation counts, starting at zero.

    Vectorized unroll of the length recursion for steps without a silent
    trigger: a step with n >= 1 sets the length to n, afterwards it counts
    down by one per step, floored at zero.  Works in int32 and returns an
    int32 array, so ``n_seq`` may hold at most 2**31 - 1 steps.
    """
    n_seq = np.asarray(n_seq, dtype=np.int32)
    if n_seq.size >= 2**31:
        raise ValueError("n_seq is too long for int32 step positions")
    pos = np.arange(n_seq.size, dtype=np.int32)
    # Position of the latest refill.  Before the first one it reads 0, which is
    # harmless: without a refill at step 0 the formula below is <= 0 there.
    last = pos * (n_seq >= 1)
    np.maximum.accumulate(last, out=last)
    path = n_seq.take(last)
    pos -= last  # steps since that refill
    path -= pos
    np.maximum(path, 0, out=path)
    return path


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
    (one 64-bit output per double), which also starts the next block.  The
    walk stops at the n-th return, and apart from the counts its memory is a
    few chunk-sized buffers, whatever the block length.
    """
    if n_returns < 1:
        raise ValueError("n_returns must be >= 1")
    if 1.0 - env.q + env.p[0] * env.q == 0.0:
        raise ValueError("the buffer length never returns to zero (q = 1 with p0 = 0)")
    cum = np.cumsum(env.p)
    chunk = _CHUNK
    received_u = np.empty(chunk)
    u = np.empty(chunk)
    seq = np.empty(chunk + 1, dtype=np.int32)
    rec = rng.generator()
    counts = np.zeros(16, dtype=np.int64)
    total = 0
    steps_done = 0
    last_zero = -1  # step of the latest zero of the path, counted from the chunk's first step
    prev_lam = 0
    while total < n_returns:
        if total == 0:
            block = min(max(4 * n_returns, 4096), _MAX_BLOCK)
        else:
            mean_gap = steps_done / total
            block = min(int(1.25 * mean_gap * (n_returns - total)) + 4096, _MAX_BLOCK)
        proc = copy.deepcopy(rec)
        proc.bit_generator.advance(block)
        for start in range(0, block, chunk):
            m = min(chunk, block - start)
            seq[0] = prev_lam  # a synthetic step carrying the length across chunks
            rec.random(out=received_u[:m])
            proc.random(out=u[:m])
            _evaluation_counts(cum, env.q, received_u[:m], u[:m], seq[1 : m + 1])
            path = lambda_path_from_counts(seq[: m + 1])[1:]
            prev_lam = int(path[-1])
            zero_pos = np.flatnonzero(path == 0)
            gaps = np.diff(zero_pos, prepend=last_zero)[: n_returns - total]
            last_zero = (int(zero_pos[-1]) if zero_pos.size else last_zero) - m
            chunk_counts = np.bincount(gaps)[1:]  # gap values start at 1
            if chunk_counts.size > counts.size:
                counts = np.concatenate(
                    (counts, np.zeros(chunk_counts.size - counts.size, dtype=np.int64))
                )
            counts[: chunk_counts.size] += chunk_counts
            total += int(gaps.size)
            if total == n_returns:
                break
        steps_done += block
        rec = proc  # at the block's start + 2 * block
    last = int(np.nonzero(counts)[0][-1]) + 1
    return EmpiricalPmf(counts=counts[:last].copy(), total=total)


def empirical_transition_matrix(env: StochasticEnv, n_steps: int, rng) -> TransitionEstimate:
    """Frequency estimate of the buffer-length transition law between resets.

    Splits the sample budget evenly over the source lengths 1..capacity and
    draws one-step transitions from each directly.
    """
    gen = rng.generator()
    cap = env.capacity
    per_row = n_steps // cap
    if per_row < 1:
        raise ValueError("n_steps too small: needs at least one draw per row")
    if per_row < 1000:
        warnings.warn(
            f"only {per_row} transition samples per row (< 1000); estimates will be coarse",
            stacklevel=2,
        )
    counts = np.zeros((cap, cap + 1), dtype=np.int64)
    for length in range(1, cap + 1):
        n_seq = _draw_counts(env, gen, np.empty(per_row, dtype=np.int32))
        nxt = np.where(n_seq >= 1, n_seq, length - 1)
        counts[length - 1] = np.bincount(nxt, minlength=cap + 1)
    visits = counts.sum(axis=1)
    matrix = counts[:, 1:] / visits[:, None]
    return TransitionEstimate(matrix=matrix, visits=visits)


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
    evaluations then overwrites it with the schedule forward-simulated from
    the received state.  The effective length is re-derived by tagging which
    rows the control law wrote.  ``runtime.run_trajectory`` must match it on a
    capacity-row buffer (anytime) and on a one-row buffer (baseline).
    """
    if n >= 1 and beta != 1:
        raise ValueError("n >= 1 requires beta == 1: inputs are computed only on reception")
    if (beta == 1) != (x is not None):
        raise ValueError("the state argument must be present exactly when beta == 1")
    capacity = buf.blocks.shape[0]
    if n > capacity:
        raise ValueError(f"n={n} exceeds buffer capacity {capacity}")
    blocks = buf.blocks.copy()
    written = [i < buf.lam for i in range(capacity)]

    if beta == 2:
        blocks[:] = 0.0
        written = [False] * capacity
        out = blocks[0].copy()
        return out, BufferState(blocks, sum(written))

    for j in range(capacity - 1):  # shift one step ahead
        blocks[j] = buf.blocks[j + 1]
        written[j] = j + 1 < buf.lam
    blocks[capacity - 1] = 0.0
    written[capacity - 1] = False

    if beta == 1 and n >= 1:
        chi = np.array(x, dtype=float)
        for j in range(n):
            u_j = np.asarray(plant.control_law(chi), dtype=float)
            if j == 0:
                blocks[:] = 0.0
                written = [False] * capacity
            blocks[j] = u_j
            written[j] = True
            if j + 1 < n:
                chi = plant.dynamics(chi, u_j)

    out = blocks[0].copy()
    return out, BufferState(blocks, sum(written))


def tv_distance(analytic: np.ndarray, empirical: EmpiricalPmf) -> float:
    """Total variation between a truncated analytic pmf and an empirical one.

    The analytic mass beyond the truncation (at most the truncation slack) is
    charged in full, so the result upper-bounds the true distance.
    """
    width = max(len(analytic), len(empirical.counts))
    a = np.zeros(width)
    a[: len(analytic)] = analytic
    e = np.zeros(width)
    freq = empirical.frequencies
    e[: len(freq)] = freq
    analytic_tail = max(0.0, 1.0 - float(np.sum(analytic)))
    return 0.5 * (float(np.abs(a - e).sum()) + analytic_tail)
