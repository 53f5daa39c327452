"""One repetition of a workload in a fresh process.

    python3 perfbench/child.py <spec.json>

The spec (written by run.py) names the workload, the repository root, a work
directory holding the generated inputs, the worker count, whether to trace,
and where to write the result.  The child times its set-up (import of etac,
config parse, plant/env construction), runs the workload's job once, checks
the job's output and writes a JSON result.  A calibration kernel timed before
set-up, between set-up and job, and after the job gives both times again at
the reference host speed (``setup_ref_s``, ``wall_ref_s``).

Exit codes: 0 the job ran (the result says whether its checks passed),
1 the job raised, 3 set-up failed (the program could not even be loaded).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import pickle
import resource
import struct
import sys
import time
import traceback

import tracing
import workloads as W

perf = time.perf_counter


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# set-up: import is done by the caller; these parse inputs and build plants


def setup_config(spec: dict):
    from etac import cli

    config = cli.load_config(spec["config_path"])
    radii = config.d_sweep if config.d_sweep is not None else (config.d,)
    for d in radii:
        cli.build_plant(config.plant, d)
    return config


def setup_theory(spec: dict):
    from etac import domain

    with open(spec["inputs_path"]) as fh:
        inputs = json.load(fh)
    envs = []
    for e in inputs["envs"]:
        env = domain.StochasticEnv(q=e["q"], p=tuple(e["p"]), capacity=e["capacity"])
        errors = domain.validate_env(env)
        if errors:
            raise ValueError(f"generated environment is invalid: {errors}")
        envs.append(env)
    return inputs, envs, domain.make_sat_plant(0.0)


# ---------------------------------------------------------------------------
# jobs return what their check needs; checks return (checks, result fields)


def job_mc_sweep(config, spec: dict):
    from etac import cli

    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.cmd_montecarlo(config, threads=spec["threads"])
    return {"rc": rc}


def check_mc_sweep(config, out: dict) -> tuple[dict, dict]:
    with open(config.out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    checks = {
        "exit_code_0": out["rc"] == 0,
        "one_row_per_cell": len(rows) == len(W.D_SWEEP) * 2,
        # Diverged trials are results, not failures; they are counted apart.
        "every_trial_accounted": all(
            int(r["trials"]) + int(r["diverged"]) == W.MC_TRIALS for r in rows),
        "d0_always_transmits": all(r["mean_utilization_pct"] == "100.00" for r in rows if r["d"] == "0"),
    }
    return checks, {"digest": file_sha256(config.out), "steps": W.steps_per_job("mc-sweep")}


def job_long_trace(config, spec: dict):
    from etac import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.cmd_simulate(config)
    return {"rc": rc, "stdout": buf.getvalue()}


def check_long_trace(config, out: dict) -> tuple[dict, dict]:
    with open(config.out, "rb") as fh:
        lines = fh.read().count(b"\n")
    # A diverged run ends early; otherwise there is one row per step under the header.
    full = "diverged=False" in out["stdout"]
    checks = {
        "exit_code_0": out["rc"] == 0,
        "one_row_per_step": lines == W.LONG_HORIZON + 1 if full else 1 < lines <= W.LONG_HORIZON + 1,
    }
    return checks, {"digest": file_sha256(config.out), "steps": W.steps_per_job("long-trace")}


def job_theory(state, spec: dict):
    import numpy as np

    from etac import analysis, oracle, runtime

    inputs, envs, plant = state
    grid = np.linspace(0.01, 0.99, W.RHO_POINTS)
    worst_series = 0.0
    min_margin = float("inf")
    for env, pairs in zip(envs, inputs["tuples"]):
        chain = analysis.build_lambda_chain(env)
        analysis.analyze(plant, env)
        for rho, alpha in pairs:
            closed = analysis.anytime_contraction(chain, alpha, rho)
            series = analysis.anytime_contraction_series(chain, alpha, rho, W.SERIES_TERMS)
            worst_series = max(worst_series, abs(closed - series.value))
        curves = analysis.boundary_curves(env, grid)
        margin = (curves[:, 2] - curves[:, 1]) / curves[:, 1]
        min_margin = min(min_margin, float(margin.min()))

    t_valid = perf()
    digest = hashlib.sha256()
    worst_tv = 0.0
    for i in inputs["validated"]:
        chain = analysis.build_lambda_chain(envs[i])
        analytic = analysis.return_time_pmf_truncated(chain)
        empirical = oracle.simulate_lambda_chain(
            envs[i], W.VALIDATION_RETURNS, runtime.RngStream(inputs["seed"], i)
        )
        worst_tv = max(worst_tv, oracle.tv_distance(analytic, empirical))
        digest.update(empirical.counts.astype("<i8").tobytes())
    return {
        "worst_series": worst_series, "min_margin": min_margin, "worst_tv": worst_tv,
        "digest": digest.hexdigest(),
        "validation_s": perf() - t_valid,
    }


def check_theory(state, out: dict) -> tuple[dict, dict]:
    checks = {
        "series_matches_closed_form": out["worst_series"] < W.SERIES_TOL,
        "anytime_region_contains_baseline": out["min_margin"] >= -W.DOMINANCE_TOL,
        "tv_below_limit": out["worst_tv"] < W.TV_LIMIT,
    }
    return checks, {k: out[k] for k in ("digest", "validation_s")} | {
        k: float(out[k]) for k in ("worst_series", "min_margin", "worst_tv")}


SETUP = {"mc-sweep": setup_config, "long-trace": setup_config, "theory": setup_theory}
JOB = {"mc-sweep": job_mc_sweep, "long-trace": job_long_trace, "theory": job_theory}
CHECK = {"mc-sweep": check_mc_sweep, "long-trace": check_long_trace, "theory": check_theory}
TRACED_WORK = {
    "mc-sweep": ("runtime.steps", W.steps_per_job("mc-sweep")),
    "long-trace": ("runtime.steps", W.steps_per_job("long-trace")),
    "theory": ("oracle.returns", W.VALIDATION_RETURNS * len(W.VALIDATED_CAPACITIES)),
}


#: Seconds :func:`calibrate` takes at the reference host speed, about its
#: median on a shared 2-vCPU Intel Xeon VM.  Timings are reported as seconds at
#: this speed: such a host changes speed by up to 1.5x in phases of seconds to
#: minutes, the same for wall and CPU time.  There the interquartile range of
#: the median job time of ten 40 s runs of the same code was 25-39% of its
#: median; scaled by the calibrations around each job, it was 2-5%.
CALIB_REF_S = 0.2


def _kernel(rounds: int = 500_000) -> float:
    t = perf()
    acc = 0.0
    rows = []
    for i in range(rounds):
        a = (i % 97) * 0.5
        acc += a * a - acc * 1e-3
        if i % 8 == 0:
            rows.append(f"{i},{a:.6g},{acc:.6g}")
    return perf() - t


def calibrate(workers: int) -> float:
    """Mean seconds ``workers`` processes side by side take, right now, for a fixed kernel.

    The kernel is shaped like the program's hot path (an interpreted loop of
    float arithmetic, with a formatted row now and then) and needs no import,
    so it runs before set-up, between set-up and job, and after the job.  It
    runs on as many processes as the job uses, since each CPU of the host
    changes speed on its own.
    """
    read_fd, write_fd = os.pipe()
    pids = []
    for _ in range(workers - 1):
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            os.write(write_fd, struct.pack("d", _kernel()))
            os._exit(0)
        pids.append(pid)
    os.close(write_fd)
    times = [_kernel()]
    for pid in pids:
        os.waitpid(pid, 0)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    times += struct.unpack(f"{len(data) // 8}d", data)
    if len(times) != workers:
        raise RuntimeError(f"calibration: {len(times)} of {workers} processes reported")
    return sum(times) / workers


def at_ref_speed(seconds: float, calibs: list[float]) -> float:
    """``seconds`` measured between the calibrations ``calibs``, at reference speed."""
    return seconds * CALIB_REF_S * len(calibs) / sum(calibs)


def peak_rss_mb() -> float:
    """Peak resident set of this process and of its reaped children (pool workers)."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def trace_summary(rec: tracing.Recorder) -> dict:
    return {
        "self_s": tracing.self_times(rec.names, rec.name, rec.start, rec.end, rec.parent),
        "calls": tracing.call_counts(rec.names, rec.name),
        "counts": dict(rec.counts),
    }


def main(argv: list[str]) -> int:
    with open(argv[1]) as fh:
        spec = json.load(fh)
    workload = spec["workload"]
    calib = [calibrate(spec["threads"])]
    t0 = perf()
    try:
        sys.path.insert(0, os.path.join(spec["root"], "src"))
        import etac.cli  # noqa: F401  (set-up includes importing the program)

        rec = tracing.install(spec["workdir"]) if spec["trace"] else None
        state = SETUP[workload](spec)
    except Exception:
        traceback.print_exc()
        return 3
    setup_s = perf() - t0

    try:
        calib.append(calibrate(spec["threads"]))
        t1 = perf()
        if rec is None:
            out = JOB[workload](state, spec)
        else:
            with rec.span(tracing.JOB):
                out = JOB[workload](state, spec)
        wall_s = perf() - t1
        # Before the last calibration: its forked processes count as children.
        peak_rss = peak_rss_mb()
        calib.append(calibrate(spec["threads"]))
        checks, detail = CHECK[workload](state, out)
    except Exception:
        traceback.print_exc()
        return 1

    result = {
        "setup_s": setup_s, "wall_s": wall_s, "calib_s": calib,
        "setup_ref_s": at_ref_speed(setup_s, calib[:2]),
        "wall_ref_s": at_ref_speed(wall_s, calib[1:]),
        "peak_rss_mb": peak_rss, **detail,
    }
    if "validation_s" in detail:
        result["validation_ref_s"] = at_ref_speed(detail["validation_s"], calib[1:])
    if rec is not None:
        result["workers_merged"] = tracing.collect_workers(rec, spec["workdir"])
        result["trace"] = trace_summary(rec)
        with open(spec["spans_path"], "wb") as fh:
            pickle.dump(rec.export(), fh, protocol=pickle.HIGHEST_PROTOCOL)
        # The spans saw all of the job's work, pool workers included.
        key, expected = TRACED_WORK[workload]
        checks["trace_saw_all_work"] = rec.counts.get(key) == expected
    result["checks"] = {k: bool(v) for k, v in checks.items()}
    with open(spec["result_path"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
