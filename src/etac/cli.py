"""Config-driven experiment runner.

Subcommands: ``analyze`` (closed forms only: contraction factors, mean return
time, boundary curves on :data:`RHO_GRID`), ``delta-dist`` (analytic vs
simulated return-time pmf), ``simulate`` (one trajectory to CSV),
``montecarlo`` (cost/utilization sweep over trigger radii with paired draws
for the two controllers).  Experiments are described by a single strict JSON
document so a recorded config reproduces a run exactly.

Each config type checks its own invariants when it is built, so a config
built in Python or by ``dataclasses.replace`` gets the same checks as one read
from JSON; :func:`parse_config` only decodes, taking each field's rule from its
type.  Every config number, each entry of ``env.p``, ``d_sweep`` and ``x0``
included, is a finite int or float and never a boolean: finiteness is the
decoder's rule, ranges the types' rules, each written so NaN fails it.

Exit codes: 0 success, 1 a ``montecarlo`` cell in which every trial diverged
(no CSV is written), 2 config error, 3 accuracy-threshold failure in
``delta-dist``.  Exit 2 covers what the decoder and the types refuse, a
``--threads`` below 1, an output path whose directory does not exist (refused
before any work), and the library's input checks (a ``ValueError``), in this
process or in a ``montecarlo`` worker.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass, replace
from types import NoneType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import analysis, oracle
from .domain import NoiseSpec, PlantSpec, StochasticEnv, make_sat_plant, make_scalar_plant
from .runtime import (
    CONTROLLERS, RngStream, channel_utilization, empirical_cost, run_trajectory, write_trace_csv,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "PlantSelector",
    "RHO_GRID",
    "TV_THRESHOLD",
    "build_plant",
    "cmd_analyze",
    "cmd_delta",
    "cmd_montecarlo",
    "cmd_simulate",
    "emit_config",
    "load_config",
    "main",
    "parse_config",
    "run_paired_cells",
]

#: delta-dist fails (exit 3) when the TV distance reaches this value.
TV_THRESHOLD = 0.01

#: The rho values at which ``analyze`` writes the boundary curves; read-only.
RHO_GRID = np.linspace(0.01, 0.99, 181)
RHO_GRID.flags.writeable = False


class ConfigError(ValueError):
    """Invalid experiment configuration (exit code 2)."""


@dataclass(frozen=True)
class PlantSelector:
    kind: str  # "saturated" or "scalar"
    a: float | None = None
    gain: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("saturated", "scalar"):
            raise ValueError(f"kind must be 'saturated' or 'scalar', got {self.kind!r}")
        if self.kind == "scalar":
            if self.a is None or self.gain is None:
                raise ValueError("the scalar plant requires plant.a and plant.gain")
        elif self.a is not None or self.gain is not None:
            raise ValueError("plant.a and plant.gain only apply to the scalar plant")


@dataclass(frozen=True)
class ExperimentConfig:
    plant: PlantSelector
    env: StochasticEnv
    controllers: tuple[str, ...] = CONTROLLERS
    d: float | None = None
    d_sweep: tuple[float, ...] | None = None
    horizon: int = 50
    trials: int | None = None  # per-command default: simulate 1, delta-dist 1e6, montecarlo 1e4
    seed: int = 0
    noise: NoiseSpec = NoiseSpec()
    x0: tuple[float, ...] | None = None  # the initial state; None draws a standard normal one
    out: str | None = None

    def __post_init__(self) -> None:
        for name in self.controllers:
            if name not in CONTROLLERS:
                raise ValueError(f"unknown controller {name!r}")
        if not self.controllers or len(set(self.controllers)) != len(self.controllers):
            raise ValueError("controllers must be nonempty and must not repeat")
        if self.d is not None and not self.d >= 0.0:
            raise ValueError("d must be nonnegative")
        if self.d_sweep is not None:
            if not self.d_sweep or not all(v >= 0.0 for v in self.d_sweep):
                raise ValueError("d_sweep must be nonempty and its values nonnegative")
            if any(b <= a for a, b in zip(self.d_sweep, self.d_sweep[1:])):
                raise ValueError("d_sweep values must be strictly increasing")
        if not self.horizon >= 1:
            raise ValueError("horizon must be >= 1")
        if self.trials is not None and not self.trials >= 1:
            raise ValueError("trials must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")


def _as_number(value, where: str, integer: bool = False) -> float | int:
    """The config number rule: a finite int or float that is not a bool.

    Integer fields refuse floats too.  Number fields return a float, so an int
    too large for one is refused like NaN and inf.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, int if integer else (int, float))
        or not (integer or abs(value) <= sys.float_info.max)
    ):
        raise ConfigError(f"{where} must be {'an integer' if integer else 'a number'}, got {value!r}")
    return value if integer else float(value)


#: Fields of these types refuse null instead of defaulting: a string must be one.
_TEXT = (str, tuple[str, ...])


def _decode_value(kind, value, where: str):
    """One JSON value under the rule of its field type ``kind``."""
    if NoneType in get_args(kind):  # ``X | None``: null never reaches here
        kind = get_args(kind)[0]
    if is_dataclass(kind):
        return _decode(kind, value, where)
    if get_origin(kind) is tuple:
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{where} must be a nonempty list")
        item = get_args(kind)[0]
        return tuple(_decode_value(item, v, f"{where}[{i}]") for i, v in enumerate(value))
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(f"{where} must be a string, got {value!r}")
        return value
    return _as_number(value, where, integer=kind is int)


def _decode(spec: type, data, where: str):
    """Build the dataclass ``spec`` from a JSON object whose keys are its fields.

    Each field takes the rule of its type: numbers :func:`_as_number`, strings
    a string, ``tuple[X, ...]`` a nonempty list under X's rule, a dataclass a
    nested object.  An absent or null field takes its default (except a null
    string, see :data:`_TEXT`), and a field without one is required.  The
    constructor checks the invariants; its ValueError becomes a ConfigError
    naming the section.
    """
    section = where or "config"
    if not isinstance(data, dict):
        raise ConfigError(f"{section} must be an object")
    unknown = sorted(set(data) - {f.name for f in fields(spec)})
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {section}")
    types = get_type_hints(spec)
    kwargs = {}
    for f in fields(spec):
        path = f"{where}.{f.name}" if where else f.name
        value = data.get(f.name)
        if value is None and not (f.name in data and types[f.name] in _TEXT):
            if f.default is MISSING:
                raise ConfigError(f"{path} is required")
            continue
        kwargs[f.name] = _decode_value(types[f.name], value, path)
    try:
        return spec(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def parse_config(data: dict) -> ExperimentConfig:
    """Build a validated config from a JSON-shaped dict; unknown keys are errors."""
    return _decode(ExperimentConfig, data, "")


def _json_object(items: list[tuple[str, object]]) -> dict:
    return {key: list(value) if isinstance(value, tuple) else value for key, value in items}


def emit_config(config: ExperimentConfig) -> dict:
    """JSON-shaped dict such that ``parse_config(emit_config(c)) == c``.

    Every field is emitted, unset ones (``d``, ``plant.a``, ``x0``, ...)
    as null, and tuples as lists.
    """
    return asdict(config, dict_factory=_json_object)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's dict, refusing a key that appears twice in it."""
    data = dict(pairs)
    if len(data) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ConfigError(f"repeated key(s) {sorted({k for k in keys if keys.count(k) > 1})}")
    return data


def load_config(path: str) -> ExperimentConfig:
    """Read and validate a JSON config file; unknown or repeated keys are errors."""
    try:
        with open(path) as fh:
            data = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return parse_config(data)


def build_plant(selector: PlantSelector, d: float) -> PlantSpec:
    """Instantiate the selected plant with trigger radius d."""
    if selector.kind == "saturated":
        return make_sat_plant(d)
    return make_scalar_plant(selector.a, selector.gain, d)


def _require_out(config: ExperimentConfig) -> str:
    """The output path, refused before any work when its directory does not exist."""
    if config.out is None:
        raise ConfigError("an output path is required (config 'out' or --out)")
    directory = os.path.dirname(config.out) or "."
    if not os.path.isdir(directory):
        raise ConfigError(f"output directory {directory!r} does not exist")
    return config.out


def _fmt(value: float) -> str:
    return f"{value:.6g}"


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(config: ExperimentConfig) -> int:
    """Print the closed forms at the plant's (alpha, rho); write the boundary curves CSV."""
    out = _require_out(config)
    plant = build_plant(config.plant, config.d if config.d is not None else 0.0)
    for name, value in analysis.analyze(plant, config.env)._asdict().items():
        print(f"{name}={_fmt(value)}")
    curves = analysis.boundary_curves(config.env, RHO_GRID)
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rho", "alpha_star_baseline", "alpha_star_anytime"])
        writer.writerows(curves.tolist())
    return 0


# ---------------------------------------------------------------------------
# delta-dist


def cmd_delta(config: ExperimentConfig) -> int:
    """Analytic vs simulated return-time pmf; exit 3 when TV >= threshold."""
    out = _require_out(config)
    chain = analysis.build_lambda_chain(config.env)
    analytic = analysis.return_time_pmf_truncated(chain)
    samples = config.trials if config.trials is not None else 1_000_000
    empirical = oracle.simulate_lambda_chain(config.env, samples, RngStream(config.seed, 0))
    tv = oracle.tv_distance(analytic, empirical)
    table = np.zeros((3, max(len(analytic), len(empirical.counts))))  # shorter columns end in 0s
    for row, column in zip(table, (analytic, empirical.frequencies, empirical.half_width)):
        row[: len(column)] = column
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["j", "analytic", "empirical", "half_width"])
        writer.writerows([j, *row] for j, row in enumerate(table.T.tolist(), start=1))
    print(f"tv={_fmt(tv)}")
    print(f"samples={empirical.total}")
    return 0 if tv < TV_THRESHOLD else 3


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(config: ExperimentConfig) -> int:
    """Run a single trajectory; write the step CSV and print the summary."""
    out = _require_out(config)
    if config.trials not in (None, 1):
        raise ConfigError("simulate requires trials = 1")
    if config.d is None:
        raise ConfigError("simulate requires a trigger radius d")
    if len(config.controllers) != 1:
        raise ConfigError("simulate requires exactly one controller")
    plant = build_plant(config.plant, config.d)
    trace = run_trajectory(
        plant, config.env, config.noise, config.controllers[0],
        config.horizon, RngStream(config.seed, 0), x0=config.x0,
    )
    write_trace_csv(trace, out)
    print(f"J={_fmt(empirical_cost(trace))}")
    print(f"utilization={channel_utilization(trace):.2f}")
    print(f"diverged={trace.diverged}")
    return 0


# ---------------------------------------------------------------------------
# montecarlo


def _mc_worker(
    args: tuple[ExperimentConfig, int, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run trials [t0, t1) for every (d, controller) cell; arrays indexed by cell.

    Every cell of trial t runs on one ``RngStream(seed, t)`` object, so the
    trial's draws, its initial state included, are made once, by its first
    cell, and reused by the rest.
    Each radius copies one built plant, so all cells share prefixes (same maps).
    """
    config, t0, t1 = args
    plant = build_plant(config.plant, config.d_sweep[0])
    plants = [replace(plant, d=d) for d in config.d_sweep]
    n_d, n_c, n_t = len(plants), len(config.controllers), t1 - t0
    costs = np.empty((n_d, n_c, n_t))
    utils = np.empty((n_d, n_c, n_t))
    diverged = np.zeros((n_d, n_c, n_t), dtype=bool)
    for ti in range(n_t):
        stream = RngStream(config.seed, t0 + ti)
        for di, plant in enumerate(plants):
            for ci, controller in enumerate(config.controllers):
                trace = run_trajectory(
                    plant, config.env, config.noise, controller,
                    config.horizon, stream, x0=config.x0,
                )
                costs[di, ci, ti] = empirical_cost(trace)
                utils[di, ci, ti] = channel_utilization(trace)
                diverged[di, ci, ti] = trace.diverged
    return costs, utils, diverged


def run_paired_cells(
    config: ExperimentConfig, threads: int = 1
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-trial cost/utilization/divergence arrays, shape (n_d, n_ctrl, trials).

    Trial t uses stream (seed, t) for every cell, so the controllers (and the
    sweep points) share identical channel/processor/disturbance draws, made
    once per trial on one stream object and reused by every cell; the trial
    axis is assembled in a fixed order, making the result independent of the
    worker count.
    """
    if config.d_sweep is None:
        raise ConfigError("montecarlo requires d_sweep")
    if config.trials is None:
        config = replace(config, trials=10_000)
    trials = config.trials
    workers = max(1, min(threads, trials))
    if workers == 1:
        return _mc_worker((config, 0, trials))
    bounds = np.linspace(0, trials, workers + 1, dtype=int)
    chunks = [(config, int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(_mc_worker, chunks))
    costs = np.concatenate([p[0] for p in parts], axis=2)
    utils = np.concatenate([p[1] for p in parts], axis=2)
    diverged = np.concatenate([p[2] for p in parts], axis=2)
    return costs, utils, diverged


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0
    return mean, se


def cmd_montecarlo(config: ExperimentConfig, threads: int = 1) -> int:
    """Paired cost-vs-utilization sweep over trigger radii; one CSV row per cell."""
    out = _require_out(config)
    if set(config.controllers) != set(CONTROLLERS):
        raise ConfigError("montecarlo requires both controllers (baseline and anytime)")
    costs, utils, diverged = run_paired_cells(config, threads)
    rows = []
    for di, d in enumerate(config.d_sweep):
        for ci, controller in enumerate(config.controllers):
            ok = ~diverged[di, ci]
            n_div = int(diverged[di, ci].sum())
            if not ok.any():
                print(
                    f"error: every trial diverged for d={d:g}, controller={controller}",
                    file=sys.stderr,
                )
                return 1
            mean_cost, se_cost = _mean_se(costs[di, ci][ok])
            mean_util, se_util = _mean_se(utils[di, ci][ok])
            rows.append(
                [
                    f"{d:g}", controller, int(ok.sum()), n_div,
                    f"{mean_cost:.6g}", f"{se_cost:.6g}",
                    f"{mean_util:.2f}", f"{se_util:.2f}",
                ]
            )
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["d", "controller", "trials", "diverged",
             "mean_cost", "se_cost", "mean_utilization_pct", "se_utilization_pct"]
        )
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etac",
        description="Event-triggered anytime control: simulation and stability analysis.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="JSON experiment config")
    common.add_argument("--out", help="output CSV path (overrides config)")
    common.add_argument("--seed", type=int, help="seed override (unsigned 64-bit)")
    common.add_argument("--trials", type=int, help="trial/sample count override")
    common.add_argument("--threads", type=int, default=1, help="worker processes")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("analyze", parents=[common], help="contraction factors and boundary curves")
    sub.add_parser("delta-dist", parents=[common], help="analytic vs simulated return-time pmf")
    sub.add_parser("simulate", parents=[common], help="single trajectory to CSV")
    sub.add_parser("montecarlo", parents=[common], help="paired cost/utilization sweep")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        config = load_config(args.config)
        overrides = {"seed": args.seed, "trials": args.trials, "out": args.out}
        config = replace(config, **{k: v for k, v in overrides.items() if v is not None})
        if args.command == "analyze":
            return cmd_analyze(config)
        if args.command == "delta-dist":
            return cmd_delta(config)
        if args.command == "simulate":
            return cmd_simulate(config)
        return cmd_montecarlo(config, threads=args.threads)
    except ValueError as exc:  # ConfigError and every library input check
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())
