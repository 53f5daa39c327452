"""Config-driven experiment runner.

Subcommands: ``analyze`` (contraction factors and stability-boundary curves),
``delta-dist`` (analytic vs simulated return-time pmf), ``simulate`` (one
trajectory to CSV), ``montecarlo`` (cost/utilization sweep over trigger radii
with paired draws for the two controllers).  Experiments are described by a
single strict JSON document so a recorded config reproduces a run exactly.

Every config number, each entry of ``env.p``, ``d_sweep`` and ``x0.value``
included, is a finite int or float and never a boolean.

Exit codes: 0 success, 2 config error, 3 accuracy-threshold failure in
``delta-dist``.  Exit 2 covers the parser's rejections and the library's input
checks (a ``ValueError``), in this process or in a ``montecarlo`` worker.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import analysis, oracle
from .domain import NoiseSpec, PlantSpec, StochasticEnv, make_sat_plant, make_scalar_plant, validate_env
from .runtime import RngStream, channel_utilization, empirical_cost, run_trajectory, write_trace_csv

__all__ = [
    "CONTROLLERS",
    "ConfigError",
    "ExperimentConfig",
    "InitSpec",
    "PlantSelector",
    "RhoGrid",
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

CONTROLLERS = ("baseline", "anytime")

#: delta-dist fails (exit 3) when the TV distance reaches this value.
TV_THRESHOLD = 0.01


class ConfigError(ValueError):
    """Invalid experiment configuration (exit code 2)."""


@dataclass(frozen=True)
class PlantSelector:
    kind: str  # "saturated" or "scalar"
    a: float | None = None
    gain: float | None = None


@dataclass(frozen=True)
class InitSpec:
    kind: str = "gaussian"  # standard normal draw, or "fixed" with a value
    value: tuple[float, ...] | None = None


@dataclass(frozen=True)
class RhoGrid:
    lo: float = 0.01
    hi: float = 0.99
    points: int = 181

    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.points)


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
    x0: InitSpec = InitSpec()
    out: str | None = None
    rho_grid: RhoGrid = RhoGrid()


def _check_object(data, spec: type, where: str) -> None:
    """Refuse anything but a JSON object whose keys are fields of ``spec``."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = sorted(set(data) - {f.name for f in fields(spec)})
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}")


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


def _number(mapping: dict, key: str, where: str, default=None) -> float | None:
    if mapping.get(key) is None:
        return default
    return _as_number(mapping[key], f"{where}.{key}")


def _integer(mapping: dict, key: str, where: str, default=None) -> int | None:
    if mapping.get(key) is None:
        return default
    return _as_number(mapping[key], f"{where}.{key}", integer=True)


def _numbers(mapping: dict, key: str, where: str) -> tuple[float, ...] | None:
    """A nonempty list of numbers, each entry under :func:`_as_number`'s rule."""
    values = mapping.get(key)
    if values is None:
        return None
    if not isinstance(values, list) or not values:
        raise ConfigError(f"{where}.{key} must be a nonempty list of numbers")
    return tuple(_as_number(v, f"{where}.{key}[{i}]") for i, v in enumerate(values))


def _parse_plant(data: dict) -> PlantSelector:
    _check_object(data, PlantSelector, "plant")
    kind = data.get("kind")
    if kind not in ("saturated", "scalar"):
        raise ConfigError(f"plant.kind must be 'saturated' or 'scalar', got {kind!r}")
    a = _number(data, "a", "plant")
    gain = _number(data, "gain", "plant")
    if kind == "scalar":
        if a is None or gain is None:
            raise ConfigError("plant.a and plant.gain are required for the scalar plant")
    elif a is not None or gain is not None:
        raise ConfigError("plant.a/plant.gain only apply to the scalar plant")
    return PlantSelector(kind=kind, a=a, gain=gain)


def _parse_env(data: dict) -> StochasticEnv:
    _check_object(data, StochasticEnv, "env")
    q = _number(data, "q", "env")
    capacity = _integer(data, "capacity", "env")
    p = _numbers(data, "p", "env")
    if q is None or capacity is None or p is None:
        raise ConfigError("env requires q (number), p (list) and capacity (integer)")
    env = StochasticEnv(q=q, p=p, capacity=capacity)
    errors = validate_env(env)
    if errors:
        raise ConfigError("env: " + "; ".join(errors))
    return env


def _parse_noise(data: dict | None) -> NoiseSpec:
    if data is None:
        return NoiseSpec()
    _check_object(data, NoiseSpec, "noise")
    kind = data.get("kind", "none")
    std = _number(data, "std", "noise", default=0.0)
    try:
        return NoiseSpec(kind=kind, std=std)
    except ValueError as exc:
        raise ConfigError(f"noise: {exc}") from exc


def _parse_x0(data: dict | None) -> InitSpec:
    if data is None:
        return InitSpec()
    _check_object(data, InitSpec, "x0")
    kind = data.get("kind", "gaussian")
    if kind not in ("gaussian", "fixed"):
        raise ConfigError(f"x0.kind must be 'gaussian' or 'fixed', got {kind!r}")
    value = _numbers(data, "value", "x0")
    if kind == "fixed" and value is None:
        raise ConfigError("x0.value (nonempty list) is required for kind 'fixed'")
    if kind == "gaussian" and value is not None:
        raise ConfigError("x0.value only applies to kind 'fixed'")
    return InitSpec(kind=kind, value=value)


def _parse_rho_grid(data: dict | None) -> RhoGrid:
    if data is None:
        return RhoGrid()
    _check_object(data, RhoGrid, "rho_grid")
    grid = RhoGrid(
        lo=_number(data, "lo", "rho_grid", default=RhoGrid.lo),
        hi=_number(data, "hi", "rho_grid", default=RhoGrid.hi),
        points=_integer(data, "points", "rho_grid", default=RhoGrid.points),
    )
    if not (0.0 <= grid.lo <= grid.hi < 1.0):
        raise ConfigError(f"rho_grid must satisfy 0 <= lo <= hi < 1, got {grid}")
    if grid.points < 2:
        raise ConfigError("rho_grid.points must be >= 2")
    return grid


def parse_config(data: dict) -> ExperimentConfig:
    """Build a validated config from a JSON-shaped dict; unknown keys are errors."""
    _check_object(data, ExperimentConfig, "config")
    if "plant" not in data or "env" not in data:
        raise ConfigError("config requires 'plant' and 'env'")

    controllers_raw = data.get("controllers", list(CONTROLLERS))
    if not isinstance(controllers_raw, list) or not controllers_raw:
        raise ConfigError("controllers must be a nonempty list")
    for name in controllers_raw:
        if name not in CONTROLLERS:
            raise ConfigError(f"unknown controller {name!r}")
    if len(set(controllers_raw)) != len(controllers_raw):
        raise ConfigError("controllers must not repeat")

    d = _number(data, "d", "config")
    if d is not None and d < 0.0:
        raise ConfigError("d must be nonnegative")
    d_sweep = _numbers(data, "d_sweep", "config")
    if d_sweep is not None:
        if any(v < 0.0 for v in d_sweep):
            raise ConfigError("d_sweep values must be nonnegative")
        if any(b <= a for a, b in zip(d_sweep, d_sweep[1:])):
            raise ConfigError("d_sweep values must be strictly increasing")

    horizon = _integer(data, "horizon", "config", default=50)
    trials = _integer(data, "trials", "config")
    seed = _integer(data, "seed", "config", default=0)
    if horizon < 1:
        raise ConfigError("horizon must be >= 1")
    if trials is not None and trials < 1:
        raise ConfigError("trials must be >= 1")
    if seed < 0:
        raise ConfigError("seed must be a nonnegative integer")

    out = data.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError("out must be a string path")

    return ExperimentConfig(
        plant=_parse_plant(data["plant"]),
        env=_parse_env(data["env"]),
        controllers=tuple(controllers_raw),
        d=d,
        d_sweep=d_sweep,
        horizon=horizon,
        trials=trials,
        seed=seed,
        noise=_parse_noise(data.get("noise")),
        x0=_parse_x0(data.get("x0")),
        out=out,
        rho_grid=_parse_rho_grid(data.get("rho_grid")),
    )


def _json_object(items: list[tuple[str, object]]) -> dict:
    return {key: list(value) if isinstance(value, tuple) else value for key, value in items}


def emit_config(config: ExperimentConfig) -> dict:
    """JSON-shaped dict such that ``parse_config(emit_config(c)) == c``.

    Every field is emitted, unset ones (``d``, ``plant.a``, ``x0.value``, ...)
    as null, and tuples as lists.
    """
    return asdict(config, dict_factory=_json_object)


def load_config(path: str) -> ExperimentConfig:
    """Read and validate a JSON config file."""
    try:
        with open(path) as fh:
            data = json.load(fh)
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
    if config.out is None:
        raise ConfigError("an output path is required (config 'out' or --out)")
    return config.out


def _fmt(value: float) -> str:
    return f"{value:.6g}"


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(config: ExperimentConfig) -> int:
    """Print gamma/omega at the plant's (alpha, rho); write boundary curves CSV."""
    out = _require_out(config)
    plant = build_plant(config.plant, config.d if config.d is not None else 0.0)
    result = analysis.analyze(plant, config.env)
    print(f"gamma={_fmt(result.gamma)}")
    print(f"omega={_fmt(result.omega)}")
    print(f"alpha_star_baseline={_fmt(analysis.boundary_alpha_baseline(plant.rho, config.env.q, config.env.p[0]))}")
    print(f"alpha_star_anytime={_fmt(analysis.boundary_alpha_anytime(plant.rho, config.env))}")
    print(f"baseline_tail={_fmt(result.bounds['baseline_tail'])}")
    print(f"anytime_tail={_fmt(result.bounds['anytime_tail'])}")
    print(f"delta_mass={result.delta_mass:.9f}")
    curves = analysis.boundary_curves(config.env, config.rho_grid.values())
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rho", "alpha_star_baseline", "alpha_star_anytime"])
        for rho, base, anyt in curves:
            writer.writerow([float(rho), float(base), float(anyt)])
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
    width = max(len(analytic), len(empirical.counts))
    freq = empirical.frequencies
    half = empirical.half_width
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["j", "analytic", "empirical", "half_width"])
        for i in range(width):
            writer.writerow(
                [
                    i + 1,
                    float(analytic[i]) if i < len(analytic) else 0.0,
                    float(freq[i]) if i < len(freq) else 0.0,
                    float(half[i]) if i < len(half) else 0.0,
                ]
            )
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
        config.horizon, RngStream(config.seed, 0), x0=config.x0.value,
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
    """Run trials [t0, t1) for every (d, controller) cell; arrays indexed by cell."""
    config, t0, t1 = args
    plants = [build_plant(config.plant, d) for d in config.d_sweep]
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
                    config.horizon, stream, x0=config.x0.value,
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
    sweep points) share identical channel/processor/disturbance draws; the
    trial axis is assembled in a fixed order, making the result independent of
    the worker count.
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
    chunks = [(config, int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
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
        config = load_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("--seed must be nonnegative")
            config = replace(config, seed=args.seed)
        if args.trials is not None:
            if args.trials < 1:
                raise ConfigError("--trials must be >= 1")
            config = replace(config, trials=args.trials)
        if args.out is not None:
            config = replace(config, out=args.out)
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
