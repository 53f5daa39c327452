"""Plant models, stochastic channel/processor environments, and validation.

The controlled object is a discrete-time plant x(k+1) = f(x(k), u(k)).  Its
sensor transmits only while the state sits outside the open ball |x| < d; the
link erases each transmitted packet independently with probability 1 - q, and
the controller's processor grants a random number of control-law evaluations
per step, distributed according to the pmf p = (p_0, ..., p_Lambda).  The
actuator buffer has no type here: the simulator keeps it as the plan of
inputs computed at the last refill plus the steps since (``runtime``), and
only the oracle models it as a matrix.  :class:`PlantSpec`,
:class:`StochasticEnv` and :class:`NoiseSpec` check their invariants when
built, also by ``dataclasses.replace``, so one that exists is valid and the
functions that take one do not check it again.

Dynamics, control laws and Lyapunov functions are plain callables; the
certified contraction/growth factors are floats whose inequalities are checked
on dense grids by the test suite.  The plant maps take and return float64
vectors but unpack them with ``tolist()`` and do their arithmetic (and
:func:`sat`) on Python floats: these are the same IEEE double operations as
on numpy scalars, so the results are bitwise equal, and they skip numpy's
per-scalar indexing and dispatch, which cost more than the arithmetic in the
simulator's per-step calls.  The physical sampling interval and the
intra-period processing deadline are background only: nothing computed here
depends on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

__all__ = [
    "NoiseSpec",
    "PlantSpec",
    "SAT_LIMIT",
    "StochasticEnv",
    "make_sat_plant",
    "make_scalar_plant",
    "sat",
    "validate_env",
]

#: Relative pad on certified factors so the inequalities survive the rounding
#: of f, kappa and V when evaluated in floating point.
_CERT_PAD = 1.0 + 2.0**-48

SAT_LIMIT = 10.0


@dataclass(frozen=True)
class PlantSpec:
    """A plant together with its certified stabilizability data.

    ``control_law`` (kappa) contracts the Lyapunov function by ``rho`` per step
    outside the trigger ball, while the zero input grows it by at most
    ``alpha``; ``phi1``/``phi2`` sandwich the Lyapunov function between
    class-K-infinity envelopes of the state norm.
    """

    state_dim: int
    input_dim: int
    dynamics: Callable[[np.ndarray, np.ndarray], np.ndarray]
    control_law: Callable[[np.ndarray], np.ndarray]
    lyapunov: Callable[[np.ndarray], float]
    phi1: Callable[[float], float]
    phi2: Callable[[float], float]
    rho: float  # closed-loop factor: V(f(x, kappa(x))) <= rho V(x) for |x| >= d
    alpha: float  # open-loop factor: V(f(x, 0)) <= alpha V(x) everywhere
    d: float  # trigger radius; the sensor is silent while |x| < d
    name: str = "plant"

    def __post_init__(self) -> None:
        if not self.d >= 0.0:
            raise ValueError("trigger radius d must be nonnegative")


@dataclass(frozen=True)
class StochasticEnv:
    """Channel and processor model: success probability q, iteration pmf p.

    ``p[j]`` is the probability that the processor completes exactly j
    control-law evaluations in a step that received fresh data; ``capacity``
    is the actuator-buffer size, so ``p`` must have ``capacity + 1`` entries.
    Construction refuses an environment that :func:`validate_env` faults.
    """

    q: float
    p: tuple[float, ...]
    capacity: int

    def __post_init__(self) -> None:
        errors = validate_env(self)
        if errors:
            raise ValueError("; ".join(errors))


@dataclass(frozen=True)
class NoiseSpec:
    """Additive state disturbance: none, or i.i.d. Gaussian per coordinate."""

    kind: str = "none"
    std: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("none", "gaussian-iid"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if not self.std >= 0.0:
            raise ValueError("noise std must be nonnegative")
        if self.kind == "none" and self.std != 0.0:
            raise ValueError("noise std must be 0 under kind 'none'")


def validate_env(env: StochasticEnv) -> list[str]:
    """Return every parameter-range violation; the env is valid iff empty."""
    errors: list[str] = []
    if not 0.0 <= env.q <= 1.0:
        errors.append(f"q={env.q} outside [0, 1]")
    if env.capacity < 1:
        errors.append(f"capacity={env.capacity} must be a positive integer")
    if len(env.p) != env.capacity + 1:
        errors.append(
            f"p has {len(env.p)} entries, expected capacity + 1 = {env.capacity + 1}"
        )
    for j, pj in enumerate(env.p):
        # Closed interval: degenerate pmfs (a deterministic processor) are legal.
        if not 0.0 <= pj <= 1.0:
            errors.append(f"p[{j}]={pj} outside [0, 1]")
    if all(0.0 <= pj <= 1.0 for pj in env.p):  # fsum can overflow on entries refused above
        total = math.fsum(env.p)
        if abs(total - 1.0) > 1e-12:
            errors.append(f"pmf sums to {total}, expected 1")
    return errors


def sat(mu: float) -> float:
    """Saturate a scalar to [-10, 10]."""
    if mu < -SAT_LIMIT:
        return -SAT_LIMIT
    if mu > SAT_LIMIT:
        return SAT_LIMIT
    return mu


def _sat_dynamics(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    x1, x2 = x.tolist()
    u1, u2 = u.tolist()
    return np.array([x2 + u1, -sat(x1 + x2) + u2])


def _sat_control(x: np.ndarray) -> np.ndarray:
    x1, x2 = x.tolist()
    return np.array([-x2, 0.505 * sat(x1 + x2)])


def _sq_norm(x: list[float]) -> float:
    """x·x of a state given as its float list ``x.tolist()``, summed left to right.

    This is the one squared norm of the package: the trigger, divergence and
    cost of the simulator and the oracle, and |x| in the Lyapunov functions.
    It takes the list because the simulator extends its state column by that
    same list.  A BLAS dot is not used: it picks its kernel by CPU at run time,
    and some kernels fuse the multiply and add, which changes the last ulp.
    """
    total = 0.0
    for v in x:
        total += v * v
    return total


def _norm(x: np.ndarray) -> float:
    return math.sqrt(_sq_norm(x.tolist()))


def _sat_lyapunov(x: np.ndarray) -> float:
    return 2.0 * _norm(x)


def _double(s: float) -> float:
    return 2.0 * s


#: Open-loop growth factor of the saturated plant, sup |f(x, 0)| / |x|, padded
#: by 1e-4.  Unsaturated, f(x, 0) = A x with A = [[0, 1], [-1, -1]], whose
#: spectral norm is the golden ratio (A^T A has eigenvalues (3 +- sqrt 5) / 2);
#: saturation only shrinks the second coordinate, so it cannot raise the ratio.
_SAT_ALPHA = (1.0 + math.sqrt(5.0)) / 2.0 * (1.0 + 1e-4)


def make_sat_plant(d: float = 0.0) -> PlantSpec:
    """Two-state saturated plant with V(x) = 2|x|.

    Dynamics x1+ = x2 + u1, x2+ = -sat(x1 + x2) + u2 with sat clipping to
    [-10, 10]; kappa(x) = (-x2, 0.505 sat(x1 + x2)) contracts V by rho = 0.99,
    and the zero input grows |x| by at most the golden ratio, padded by 1e-4.
    """
    return PlantSpec(
        state_dim=2,
        input_dim=2,
        dynamics=_sat_dynamics,
        control_law=_sat_control,
        lyapunov=_sat_lyapunov,
        phi1=_double,
        phi2=_double,
        rho=0.99,
        alpha=_SAT_ALPHA,
        d=d,
        name="saturated",
    )


def _linear_dynamics(a: float, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    (x1,) = x.tolist()
    (u1,) = u.tolist()
    return np.array([a * x1 + u1])


def _linear_control(gain: float, x: np.ndarray) -> np.ndarray:
    (x1,) = x.tolist()
    return np.array([-gain * x1])


def _identity(s: float) -> float:
    return s


def make_scalar_plant(a: float, gain: float, d: float) -> PlantSpec:
    """Scalar plant f(x, u) = a x + u with kappa(x) = -gain x and V(x) = |x|.

    The certified factors are |a - gain| and |a|, each padded by a few ulps to
    absorb product roundoff so the grid checks hold without tolerance.
    The analysis assumes alpha >= rho and refuses a plant without it; this
    does not, so the simulator runs e.g. a = 0.2, gain = -0.7 (alpha = 0.2 <
    rho = 0.9) outside the model, where buffered inputs can cost more.
    """
    rho = abs(a - gain)
    if not rho < 1.0:
        raise ValueError(f"|a - gain| = {rho} must be < 1 for a contracting loop")
    return PlantSpec(
        state_dim=1,
        input_dim=1,
        dynamics=partial(_linear_dynamics, float(a)),
        control_law=partial(_linear_control, float(gain)),
        lyapunov=_norm,
        phi1=_identity,
        phi2=_identity,
        rho=rho * _CERT_PAD,
        alpha=abs(a) * _CERT_PAD,
        d=d,
        name="scalar",
    )
