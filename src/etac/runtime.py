"""Closed-loop execution: trigger, erasure channel, processor draws, controllers.

One call to :func:`run_trajectory` produces one trial.  All randomness for a
trial is pre-drawn from its own stream in a fixed order (initial state,
channel, processor, disturbances), so two runs on the same (seed, stream_id)
share draws exactly; this is what makes paired baseline/anytime comparisons
common-random-number comparisons.  A given initial state takes the place of
the drawn one in the pre-draw.  The pre-draw is made once per
:class:`RngStream` object and reused by every run on it that needs the same
draws, so the (d, controller) cells of a Monte Carlo trial, which share one
stream object, draw once between them.

Both controllers are one rule.  A step that receives the state x and is
granted N >= 1 control-law evaluations refills the plan: its length becomes
m = min(N, depth) and its age 0.  The step at age j < m plays input j of the
plan from x, computed when it is played: the refill plays kappa(x) and sets
the forward-simulated state x-hat = x, and each later step sets
x-hat = f(x-hat, u_prev) and plays kappa(x-hat), the same IEEE operations in
the same order as :func:`etac.oracle.plan_inputs`, the plan's reference, which
computes it whole.  Once age reaches m the step plays zero, and a silent step
ends the plan.  The anytime controller has depth = capacity; the memoryless
baseline is depth 1.

The stream also keeps the runs made on its current draws, and a run follows
them while it can.  Its peers are the kept runs under the same ``dynamics`` and
``control_law`` objects; every run on the draws starts from their ``x0``.  At
each step the run keeps the peers that play a plan input exactly when it does,
plays the first one's input and takes x(k+1) and its squared norm from it; with
none left it computes the step, and peers never come back.  Peers that played
the same inputs through step k - 1 share x(k), and two that both play a plan
input at k refilled at the same step from that state, since a step where one
refills is a refill for every run not silent there and a silent step ends a
plan.  So they play the same input of the same plan, and
x(k+1) = f(x(k), u(k)) + w(k) depends on nothing else: a followed step is the
step the run would compute, bit for bit.  The run's own trigger radius and
buffer depth still make its decisions.  A run that must compute a plan input
after taking earlier ones from a peer first catches x-hat up from the refill
state through the inputs it played, at most once per plan.  A run that has a
peer to its last step is that peer again, so it is not kept.

A trace stores a run as columns, one entry per recorded step: the state
``x`` (the state object the loop computed or took from a peer), the played
input ``u``, and the ints ``beta``, ``n`` and ``lam``.  It also keeps the
squared state norm of every recorded step, which the loop computes anyway for
its trigger and divergence tests; :func:`empirical_cost` sums that column, and
:func:`channel_utilization` counts the silent steps in ``beta``.  The
disturbances stay in the stream's pre-draw.

:func:`write_trace_csv` formats the rows itself and writes the bytes that
``csv.writer``'s default dialect would: ``repr`` of each float, ``str`` of each
int, fields joined by "," and every row ended by "\\r\\n", with no quoting,
since no numeric field holds a delimiter, a quote or a line break.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .domain import NoiseSpec, PlantSpec, StochasticEnv, _sq_norm

__all__ = [
    "CONTROLLERS",
    "DIVERGENCE_NORM",
    "RngStream",
    "Trace",
    "channel_utilization",
    "empirical_cost",
    "run_trajectory",
    "write_trace_csv",
]

#: The two controllers: the memoryless baseline and the buffered anytime one.
CONTROLLERS = ("baseline", "anytime")

#: State norms beyond this mark a trajectory as diverged.
DIVERGENCE_NORM = 1e12


@dataclass(frozen=True)
class RngStream:
    """Deterministic random stream for one trial.

    The same (seed, stream_id) always yields the same draw sequence; distinct
    stream_ids yield statistically independent streams.  Seeds are unsigned
    64-bit integers.

    The object keeps the last pre-draw of :meth:`trial_draws`, so the trial's
    draws are made once per stream object and every run on it with the same
    draw inputs reuses them.  Beside the draws it keeps the runs made on them,
    which later runs follow (see the module docstring); a new pre-draw drops
    both.  The kept draws and runs are private state of this object: they are
    not part of its ``repr``, equality or hash, and two objects for one (seed,
    stream_id) share nothing.
    """

    seed: int
    stream_id: int = 0
    _draws: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def generator(self) -> np.random.Generator:
        """A fresh generator positioned at the start of the stream."""
        return np.random.default_rng([self.seed, self.stream_id])

    def trial_draws(
        self, env: StochasticEnv, noise: NoiseSpec, horizon: int, state_dim: int,
        x0: np.ndarray | None = None,
    ) -> tuple[np.ndarray, tuple[bool, ...], tuple[int, ...], np.ndarray | None]:
        """The trial's pre-drawn ``(x0, received, n_draws, w)``, in draw order.

        ``x0`` is a copy of the given initial state, or a standard normal state
        when none is given (a given state draws nothing, so the rest of the
        stream starts one draw earlier).  ``received[k]`` is the channel outcome
        and ``n_draws[k]`` the processor's evaluation count at step k; ``w[k]``
        is the disturbance, or ``w`` is None without noise.  A repeated request
        returns the kept draws, which every run on this stream shares: the
        outcomes are tuples and the arrays read-only.  The key holds every input
        the draws depend on; the noise std and a given x0 enter by their bits,
        since -0.0 == 0.0 but the two scale the disturbances, and start the
        states, with zeros of opposite sign.
        """
        x0_bits = None if x0 is None else np.asarray(x0, dtype=float).tobytes()
        key = (env, noise.kind, float(noise.std).hex(), horizon, state_dim, x0_bits)
        kept = self._draws
        if kept is not None and kept[0] == key:
            return kept[1]
        gen = self.generator()
        x0 = gen.standard_normal(state_dim) if x0 is None else np.array(x0, dtype=float)
        received = tuple((gen.random(horizon) < env.q).tolist())
        cum = np.cumsum(env.p)
        n_draws = tuple(
            np.minimum(
                np.searchsorted(cum, gen.random(horizon), side="right"), env.capacity
            ).tolist()
        )
        w = (
            noise.std * gen.standard_normal((horizon, state_dim))
            if noise.kind == "gaussian-iid"
            else None
        )
        x0.setflags(write=False)
        if w is not None:
            w.setflags(write=False)
        draws = (x0, received, n_draws, w)
        object.__setattr__(self, "_draws", (key, draws, []))
        return draws


@dataclass(eq=False, kw_only=True)
class Trace:
    """One closed-loop run, stored as columns.

    ``x``, ``u``, ``beta``, ``n`` and ``lam`` hold one entry per recorded
    step: the state, the played input (a plan entry or the shared zero
    input), the transmission outcome, the evaluations granted and the
    effective buffer length.  They have exactly ``horizon`` entries unless the
    run diverged, in which case they end at the step where the state norm blew
    past :data:`DIVERGENCE_NORM` (or went non-finite).  ``sq_norms[k]`` is
    ``domain._sq_norm(x[k])``, the squared norm the loop computes anyway for
    its trigger and divergence tests, kept so that :func:`empirical_cost` need
    not revisit the states.  ``==`` is identity, since comparing lists of
    arrays element-wise has no single truth value.

    The columns and the arrays in them are shared: a later run on the same
    stream follows this one's states and inputs, and takes them as its own.
    Neither the lists nor the arrays may be written.

    ``records`` lists the ``(x, u, beta, n, lam)`` tuple of every recorded
    step.  It stays only because the benchmark's tracer counts its length; the
    benchmark contract's next version (ROADMAP item 1) deletes it.
    """

    x: list[np.ndarray]
    u: list[np.ndarray]
    beta: list[int]
    n: list[int]
    lam: list[int]
    sq_norms: array
    horizon: int
    diverged: bool = False

    @property
    def records(self) -> list[tuple[np.ndarray, np.ndarray, int, int, int]]:
        return list(zip(self.x, self.u, self.beta, self.n, self.lam))


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

    ``controller`` is one of :data:`CONTROLLERS`.  ``x0`` fixes the initial
    state and must have shape ``(plant.state_dim,)``; when None it is drawn
    standard normal.  The draws come from ``rng.trial_draws``, so runs on one
    stream object share them, and the trace's first state is the pre-draw's
    read-only copy of ``x0``.  The update is x(k+1) = f(x(k), u(k)) + w(k).
    The plan is its length m, its age and x-hat (see the module docstring):
    the step at age < m computes kappa(x-hat) after advancing x-hat through
    the inputs played since it was last advanced, and later steps play zero.
    While a run kept on ``rng`` plays a plan input exactly when this one does,
    this run takes that run's inputs and next states instead of computing
    them, so the returned trace may share state and input arrays with earlier
    and later runs on the stream, and the played zero input is one read-only
    array.
    A state whose norm exceeds :data:`DIVERGENCE_NORM` (or goes non-finite)
    ends the run early with the trace flagged diverged rather than raising.
    The recorded ``lam`` is the effective buffer length ``m - age`` floored at
    0 for the anytime controller, and 0 for the baseline, which buffers
    nothing.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if controller not in CONTROLLERS:
        raise ValueError(f"unknown controller {controller!r}")

    if x0 is not None and np.shape(x0) != (plant.state_dim,):
        raise ValueError(
            f"x0 has shape {np.shape(x0)}, expected ({plant.state_dim},) for plant {plant.name!r}"
        )

    x, received, n_draws, w = rng.trial_draws(env, noise, horizon, plant.state_dim, x0)

    buffered = controller == "anytime"
    depth = env.capacity if buffered else 1
    dd = plant.d * plant.d
    dynamics, control = plant.dynamics, plant.control_law
    zero_u = _zero_input(plant.input_dim)
    kept = rng._draws[2]  # the runs made on these draws
    # Kept runs under these maps; see the module docstring.
    peers = [t for f, kappa, t in kept if f is dynamics and kappa is control]
    xs: list[np.ndarray] = []
    us: list[np.ndarray] = []
    betas: list[int] = []
    ns: list[int] = []
    lams: list[int] = []
    append_x, append_u = xs.append, us.append
    append_beta, append_n, append_lam = betas.append, ns.append, lams.append
    sq_norms = array("d")
    append_sq_norm = sq_norms.append
    diverged = False
    m = 0  # inputs granted at the last refill, 0 after a silent step
    age = 0  # steps since that refill
    # The squared norm of x(k + 1), computed for the divergence test, is the
    # trigger test of step k + 1.  Both use domain._sq_norm.
    nrm2 = _sq_norm(x)
    limit2 = DIVERGENCE_NORM * DIVERGENCE_NORM

    for k in range(horizon):
        n_k = 0
        if nrm2 >= dd:
            if received[k]:
                beta = 1
                n_k = n_draws[k]
            else:
                beta = 0
        else:
            beta = 2
            m = 0
        if n_k:
            m = n_k if n_k < depth else depth
            age = 0
            xhat, hat_k = x, k  # x-hat, and the step whose input is kappa(x-hat)
        else:
            age += 1
        left = m - age
        if peers:
            # The peers that play a plan input exactly when this run does.
            plays_zero = left <= 0
            peers = [p for p in peers if (p.u[k] is zero_u) == plays_zero]
        if left > 0:
            # Input ``age`` of the plan: the first peer's, else kappa at x-hat,
            # caught up through the inputs played since x-hat was last advanced.
            if peers:
                u = peers[0].u[k]
            else:
                for j in range(hat_k, k):
                    xhat = dynamics(xhat, us[j])
                hat_k = k
                u = control(xhat)
            lam = left if buffered else 0
        else:
            u = zero_u
            lam = 0
        append_x(x)
        append_u(u)
        append_beta(beta)
        append_n(n_k)
        append_lam(lam)
        append_sq_norm(nrm2)
        # The first peer has x(k + 1) already; if it has no step k + 1, no
        # peer has: this is the last step, or they all diverged here, as this
        # run is about to.
        if peers and len(peers[0].x) > k + 1:
            x = peers[0].x[k + 1]
            nrm2 = peers[0].sq_norms[k + 1]
            continue
        x_next = dynamics(x, u)
        if w is not None:
            x_next = x_next + w[k]
        nrm2 = _sq_norm(x_next)
        if not nrm2 <= limit2:  # also true for nan and inf
            diverged = True
            break
        x = x_next

    trace = Trace(
        x=xs, u=us, beta=betas, n=ns, lam=lams,
        sq_norms=sq_norms, horizon=horizon, diverged=diverged,
    )
    # A run that still has a peer after its last step is that peer again.
    if not peers:
        kept.append((dynamics, control, trace))
    return trace


@functools.cache
def _zero_input(input_dim: int) -> np.ndarray:
    """The one read-only zero input of this dimension that every run plays.

    Runs tell a shared input by identity, so the zero must be one object.
    """
    zero = np.zeros(input_dim)
    zero.setflags(write=False)
    return zero


def empirical_cost(trace: Trace) -> float:
    """Average squared state norm over the horizon.

    The terms are ``trace.sq_norms``, each recorded state's
    ``domain._sq_norm``.
    """
    return math.fsum(trace.sq_norms) / trace.horizon


def channel_utilization(trace: Trace) -> float:
    """Percentage of steps with a transmission attempt (beta != 2)."""
    return 100.0 * (len(trace.beta) - trace.beta.count(2)) / trace.horizon


#: Rows per block in :func:`write_trace_csv`: large enough to amortise the
#: per-block numpy calls, small enough that the stacked block and its joined
#: text stay a small fraction of the trace's own memory.
_CSV_BLOCK = 1024


def write_trace_csv(trace: Trace, path) -> None:
    """Write a trace as CSV with columns k, x1..xn, u1..up, beta, N, lambda.

    The bytes are those of ``csv.writer`` in its default dialect, one row per
    step: ``repr`` of each float (``nan``, ``inf`` and ``-0.0`` included),
    ``str`` of each int, fields joined by "," and rows ended by "\\r\\n".  No
    field is quoted, as none can hold a delimiter, a quote or a line break.
    Rows are formatted a block of :data:`_CSV_BLOCK` steps at a time: the
    block's slices of the ``x`` and ``u`` columns are stacked into columns of
    Python floats, the three int fields of a row are one string that carries
    the row's end, and the block is written as one joined string.
    """
    xs, us = trace.x, trace.u
    n, p = len(xs[0]), len(us[0])
    header = ",".join(
        ["k"]
        + [f"x{i + 1}" for i in range(n)]
        + [f"u{i + 1}" for i in range(p)]
        + ["beta", "N", "lambda"]
    )
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n")
        for start in range(0, len(xs), _CSV_BLOCK):
            stop = start + _CSV_BLOCK
            x_cols = np.array(xs[start:stop], dtype=float).T.tolist()
            u_cols = np.array(us[start:stop], dtype=float).T.tolist()
            ints = zip(trace.beta[start:stop], trace.n[start:stop], trace.lam[start:stop])
            rows = zip(
                map(str, range(start, stop)),
                *[map(repr, col) for col in x_cols],
                *[map(repr, col) for col in u_cols],
                [f"{beta},{n_k},{lam}\r\n" for beta, n_k, lam in ints],
            )
            fh.write("".join(map(",".join, rows)))
