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
each step the run keeps the peers that play a plan input exactly when it does
(a peer played one at k when its ``lam[k]`` or ``n[k]`` is nonzero) and takes
the squared norm of x(k+1) from the first one; with none left it computes the
step, and peers never come back.  Peers that played the same inputs through
step k - 1 share x(k), and two that both play a plan input at k refilled at
the same step from that state, since a step where one refills is a refill for
every run not silent there and a silent step ends a plan.  So they play the
same input of the same plan, and x(k+1) = f(x(k), u(k)) + w(k) depends on
nothing else: a followed step is the step the run would compute, bit for bit.
The run's own trigger radius and buffer depth still make its decisions.  A
followed step stores only its ints: when the run leaves its peers at step k,
it copies the states, inputs and squared norms of steps 0 to k - 1 from the
last peer it followed, takes x(k) from it, and, if it must compute a plan
input at k, first catches x-hat up from the refill state through that peer's
inputs.  A run that has a peer to its last step is that peer again, so it is
not kept.

A trace stores a run as columns, one entry per recorded step: the states
``x`` and the played inputs ``u`` as read-only float64 arrays with one row per
step, and the ints ``beta``, ``n`` and ``lam``.  The arrays are views of flat
``array('d')`` columns, which the loop extends by each state's float list (the
one it takes the squared norm from) and each input's.  It also keeps the squared state norm of
every recorded step, which the loop computes anyway for its trigger and
divergence tests; :func:`empirical_cost` sums that column, and
:func:`channel_utilization` counts the silent steps in ``beta``.  The
disturbances stay in the stream's pre-draw.

:func:`write_trace_csv` formats the rows itself and writes the bytes that
``csv.writer``'s default dialect would: ``repr`` of each float, ``str`` of each
int, fields joined by "," and every row ended by "\\r\\n", with no quoting,
since no numeric field holds a delimiter, a quote or a line break.
"""

from __future__ import annotations

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

    ``x`` and ``u`` are float64 arrays of shape ``(steps, n)`` and
    ``(steps, p)``: row k is the state and the played input (a plan entry or
    zero) of step k.  ``beta``, ``n`` and ``lam`` are lists of ints, one per
    step: the transmission outcome, the evaluations granted and the effective
    buffer length.  The columns have exactly ``horizon`` entries unless the run
    diverged, in which case they end at the step where the state norm blew
    past :data:`DIVERGENCE_NORM` (or went non-finite).  ``sq_norms[k]`` is
    ``domain._sq_norm`` of row k of ``x``, the squared norm the loop computes
    anyway for its trigger and divergence tests, kept so that
    :func:`empirical_cost` need not revisit the states.  ``==`` is identity,
    since comparing arrays element-wise has no single truth value.

    ``x`` and ``u`` are made read-only: a later run on the same stream reads
    this one's rows while it follows it (it copies them, so no two runs share
    a buffer).

    ``records`` lists the ``(x, u, beta, n, lam)`` tuple of every recorded
    step, with rows of ``x`` and ``u``.  It stays only because the benchmark's
    tracer counts its length; the benchmark contract's next version (ROADMAP
    item 1) deletes it.
    """

    x: np.ndarray
    u: np.ndarray
    beta: list[int]
    n: list[int]
    lam: list[int]
    sq_norms: array
    horizon: int
    diverged: bool = False

    def __post_init__(self):
        self.x.setflags(write=False)
        self.u.setflags(write=False)

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
    stream object share them, and the trace's first row of ``x`` is the
    pre-draw's ``x0``.  The update is x(k+1) = f(x(k), u(k)) + w(k).
    The plan is its length m, its age and x-hat (see the module docstring):
    the step at age < m computes kappa(x-hat) after advancing x-hat through
    the inputs played since it was last advanced, and later steps play zero.
    While a run kept on ``rng`` plays a plan input exactly when this one does,
    this run takes that run's inputs and next states instead of computing
    them; it copies them into its own columns, so no two traces share memory.
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
    zero_l = [0.0] * plant.input_dim
    zero_u = np.array(zero_l)
    kept = rng._draws[2]  # the runs made on these draws
    # Kept runs under these maps; see the module docstring.
    peers = [t for f, kappa, t in kept if f is dynamics and kappa is control]
    xs, us, sq_norms = array("d"), array("d"), array("d")
    betas: list[int] = []
    ns: list[int] = []
    lams: list[int] = []
    append_x, append_u, append_sq_norm = xs.fromlist, us.fromlist, sq_norms.append
    append_beta, append_n, append_lam = betas.append, ns.append, lams.append
    diverged = False
    m = 0  # inputs granted at the last refill, 0 after a silent step
    age = 0  # steps since that refill
    hat_k = 0  # the step whose input is kappa(x-hat)
    # The squared norm of x(k + 1), computed for the divergence test, is the
    # trigger test of step k + 1.  Both use domain._sq_norm on the float list
    # that the x column is extended by.
    xl = x.tolist()
    nrm2 = _sq_norm(xl)
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
            xhat, hat_k = x, k  # while following, x is stale: see the leaving below
        else:
            age += 1
        left = m - age
        append_beta(beta)
        append_n(n_k)
        append_lam(left if left > 0 and buffered else 0)
        if peers:
            # The peers that play a plan input exactly when this run does.
            lead = peers[0]
            if left > 0:
                peers = [p for p in peers if p.lam[k] or p.n[k]]
            else:
                peers = [p for p in peers if not (p.lam[k] or p.n[k])]
            # The first peer has x(k + 1) already; if it has no step k + 1, no
            # peer has: this is the last step, or they all diverged here, as
            # this run is about to.
            if peers and len(peers[0].sq_norms) > k + 1:
                nrm2 = peers[0].sq_norms[k + 1]
                continue
            # The run leaves its peers: its steps before k, and x(k), are the
            # lead's.  x-hat is caught up through the lead's inputs, as a run
            # computes a plan input only once it has left.
            xs.frombytes(lead.x[:k].tobytes())
            us.frombytes(lead.u[:k].tobytes())
            sq_norms.extend(lead.sq_norms[:k])
            x = lead.x[k]
            xl = x.tolist()
            if left > 0 and not peers:
                xhat = lead.x[hat_k]
                for j in range(hat_k, k):
                    xhat = dynamics(xhat, lead.u[j])
                hat_k = k
        append_x(xl)
        append_sq_norm(nrm2)
        if left > 0:
            # Input ``age`` of the plan: the first peer's, else kappa at x-hat,
            # advanced through the input played at the step before.
            if peers:
                u = peers[0].u[k]
            else:
                if hat_k < k:
                    xhat = dynamics(xhat, u)
                    hat_k = k
                u = control(xhat)
            append_u(u.tolist())
        else:
            u = zero_u
            append_u(zero_l)
        x_next = dynamics(x, u)
        if w is not None:
            x_next = x_next + w[k]
        xl = x_next.tolist()
        nrm2 = _sq_norm(xl)
        if not nrm2 <= limit2:  # also true for nan and inf
            diverged = True
            break
        x = x_next

    trace = Trace(
        x=np.frombuffer(xs).reshape(-1, plant.state_dim),
        u=np.frombuffer(us).reshape(-1, plant.input_dim),
        beta=betas, n=ns, lam=lams, sq_norms=sq_norms, horizon=horizon, diverged=diverged,
    )
    # A run that still has a peer after its last step is that peer again.
    if not peers:
        kept.append((dynamics, control, trace))
    return trace


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
#: per-block numpy calls, small enough that the block's floats and its joined
#: text stay a small fraction of the trace's own memory.
_CSV_BLOCK = 1024


def write_trace_csv(trace: Trace, path) -> None:
    """Write a trace as CSV with columns k, x1..xn, u1..up, beta, N, lambda.

    The bytes are those of ``csv.writer`` in its default dialect, one row per
    step: ``repr`` of each float (``nan``, ``inf`` and ``-0.0`` included),
    ``str`` of each int, fields joined by "," and rows ended by "\\r\\n".  No
    field is quoted, as none can hold a delimiter, a quote or a line break.
    Rows are formatted a block of :data:`_CSV_BLOCK` steps at a time: the
    block's rows of ``x`` and ``u`` are turned into columns of Python floats,
    the three int fields of a row are one string that carries the row's end,
    and the block is written as one joined string.
    """
    xs, us = trace.x, trace.u
    n, p = xs.shape[1], us.shape[1]
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
            x_cols = xs[start:stop].T.tolist()
            u_cols = us[start:stop].T.tolist()
            ints = zip(trace.beta[start:stop], trace.n[start:stop], trace.lam[start:stop])
            rows = zip(
                map(str, range(start, stop)),
                *[map(repr, col) for col in x_cols],
                *[map(repr, col) for col in u_cols],
                [f"{beta},{n_k},{lam}\r\n" for beta, n_k, lam in ints],
            )
            fh.write("".join(map(",".join, rows)))
