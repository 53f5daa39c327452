"""Workloads: the inputs each one generates from the seed, and its fixed job size.

Why these three:

- ``mc-sweep`` is the paper's headline experiment (paired cost vs channel
  utilization over the trigger radius), many short trials through the
  montecarlo process pool.  ``runtime``, ``domain`` and ``cli`` do the work.
- ``long-trace`` is one long trajectory written to CSV, a "batch of one": a
  change that speeds up many short trials must not slow it.
- ``theory`` is the closed-form side (chain, omega, series cross-check,
  boundary curves) plus the oracle's return-time simulation.  ``analysis``
  and ``oracle`` do the work and ``runtime`` none.

This module imports neither numpy nor etac: the benchmark's parent process
only generates inputs, and the program receives nothing else.
"""

from __future__ import annotations

import random

WORKLOADS = ("mc-sweep", "long-trace", "theory")
DEFAULT_SEED = 0

#: The cost-vs-utilization experiment of scripts/cost_vs_utilization.py.
SAT_ENV = {"q": 0.4, "p": [0.2, 0.2, 0.2, 0.2, 0.2], "capacity": 4}
D_SWEEP = [0.0, 0.5, 1.0, 2.0, 4.0, 6.0]
MC_TRIALS = 160
MC_HORIZON = 50
MC_THREADS = 2

#: Long enough that the trajectory and its CSV dominate the run (about 1.7 s
#: and 68 MB peak), short enough for a dozen repetitions in a 40 s run: the median
#: over them is what keeps the run-to-run spread small on a shared host.
LONG_HORIZON = 50_000
LONG_D = 1.0

#: One certified environment per buffer capacity.  q and p0 are kept in ranges
#: where the length chain returns to zero within a few steps at every capacity
#: up to 16.  For the validated capacities this keeps the mean return time
#: below 3, so every 10^6-return simulation finishes within the oracle's first
#: 2M-step block plus one short one; longer gaps take a second large block,
#: which moves the run's peak memory by about 20% from seed to seed.
THEORY_CAPACITIES = tuple(range(1, 17))
THEORY_Q = (0.3, 0.45)
THEORY_P0 = (0.35, 0.65)
SERIES_TUPLES = 20
SERIES_TERMS = 500
RHO_POINTS = 181
#: Capacities of the certified environments that are also validated by simulation.
VALIDATED_CAPACITIES = (1, 2, 3, 4)
VALIDATION_RETURNS = 1_000_000

#: Output checks on the analysis side; floats are checked against these, not bitwise.
SERIES_TOL = 1e-9
TV_LIMIT = 0.01
#: alpha*_anytime >= alpha*_baseline, up to rounding (the two coincide at capacity 1).
DOMINANCE_TOL = 1e-12


def program_seed(workload: str, seed: int) -> int:
    """The seed handed to etac: a fixed function of the benchmark seed."""
    return random.Random(f"etac-bench:{workload}:{seed}").getrandbits(63)


def _pmf(rng: random.Random, capacity: int) -> list[float]:
    """p0 uniform in THEORY_P0, the rest of the mass split uniformly at random (Dirichlet(1))."""
    p0 = rng.uniform(*THEORY_P0)
    weights = [rng.expovariate(1.0) for _ in range(capacity)]
    total = sum(weights)
    return [p0] + [(1.0 - p0) * w / total for w in weights]


def make_inputs(workload: str, seed: int) -> dict:
    """Everything the program receives for one run of ``workload`` (bar the output path)."""
    pseed = program_seed(workload, seed)
    noise = {"kind": "gaussian-iid", "std": 1.0}
    if workload == "mc-sweep":
        return {"config": {
            "plant": {"kind": "saturated"}, "env": SAT_ENV,
            "controllers": ["baseline", "anytime"], "d_sweep": D_SWEEP,
            "horizon": MC_HORIZON, "trials": MC_TRIALS, "seed": pseed,
            "noise": noise,
        }}
    if workload == "long-trace":
        return {"config": {
            "plant": {"kind": "saturated"}, "env": SAT_ENV,
            "controllers": ["anytime"], "d": LONG_D,
            "horizon": LONG_HORIZON, "trials": 1, "seed": pseed,
            "noise": noise,
        }}
    if workload == "theory":
        rng = random.Random(pseed)
        envs, tuples = [], []
        for capacity in THEORY_CAPACITIES:
            envs.append({"q": rng.uniform(*THEORY_Q), "p": _pmf(rng, capacity),
                         "capacity": capacity})
            pairs = []
            for _ in range(SERIES_TUPLES):
                rho = rng.uniform(0.0, 0.95)
                pairs.append([rho, rng.uniform(max(rho, 0.05), 3.0)])
            tuples.append(pairs)
        validated = [i for i, e in enumerate(envs) if e["capacity"] in VALIDATED_CAPACITIES]
        return {"seed": pseed, "envs": envs, "tuples": tuples, "validated": validated}
    raise ValueError(f"unknown workload {workload!r}")


def steps_per_job(workload: str) -> int | None:
    """Closed-loop plant steps in one job (trials x cells x horizon)."""
    if workload == "mc-sweep":
        return MC_TRIALS * len(D_SWEEP) * 2 * MC_HORIZON
    if workload == "long-trace":
        return LONG_HORIZON
    return None
