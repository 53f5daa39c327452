"""etac benchmark: end-to-end metrics per workload, or a traced per-layer pass.

    python3 perfbench/run.py --workload mc-sweep --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one fresh process each

Each repetition runs in a fresh child process (perfbench/child.py) that times
its own set-up, runs the workload's fixed job once and checks the output.
Repetitions continue until ``--seconds`` have passed.  With ``--trace 0`` the
run reports the end-to-end metrics as medians over repetitions; with
``--trace 1`` it alternates untraced and traced repetitions and reports the
per-layer metrics plus the tracing overhead.

Times are reported at the reference host speed: each child times a fixed
calibration kernel before set-up, between set-up and job, and after the job,
and scales set-up and job time by the reference kernel time over the mean of
the calibrations around them (child.at_ref_speed).  The raw medians are
printed beside them and kept in the result file.

Output gates (any failure counts the repetition as failed and makes the run
exit 1):

- each child's own checks (exit codes, row counts, analysis tolerances);
- every repetition's output digest (SHA-256 of the CSV, or of the oracle's
  integer pmf counts) is identical, traced or not, at 1 or 2 workers, and at
  the default seed equals the reference in perfbench/reference.json;
- in a traced pass the exact counters repeat exactly between repetitions.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The full result with its run manifest is written under
perfbench/out/results/.  Exit codes: 0 all checks passed, 1 a check failed,
2 the program could not be set up (no result is printed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

import tracing
import workloads as W

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
REFERENCE = os.path.join(BENCH, "reference.json")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_steps_per_s": "1/s",
}

#: Per-layer metric -> (unit, how it is read from the traced repetitions).
#: ("self", spans) sums self seconds, ("calls", span) counts calls,
#: ("count", key) reads a work counter; the rest are computed in per_layer().
PER_LAYER = {
    "runtime.run_trajectory.self_s": ("s", ("self", ["runtime.run_trajectory"])),
    "runtime.steps": ("count", ("count", "runtime.steps")),
    "runtime.trials": ("count", ("calls", "runtime.run_trajectory")),
    "runtime.anytime_step.calls": ("count", ("calls", "runtime.anytime_step")),
    "runtime.anytime_step.self_s": ("s", ("self", ["runtime.anytime_step"])),
    "runtime.rng_generator.s": ("s", ("self", ["runtime.rng_generator"])),
    "runtime.reduce.s": ("s", ("self", ["runtime.empirical_cost", "runtime.channel_utilization"])),
    "runtime.write_trace_csv.s": ("s", ("self", ["runtime.write_trace_csv"])),
    "runtime.csv_bytes": ("bytes", ("count", "runtime.csv_bytes")),
    "runtime.kappa_useful_ratio": ("ratio", ("kappa",)),
    "runtime.diverged": ("count", ("count", "runtime.diverged")),
    "domain.dynamics.calls": ("count", ("calls", "domain.dynamics")),
    "domain.dynamics.s": ("s", ("self", ["domain.dynamics"])),
    "domain.control_law.calls": ("count", ("calls", "domain.control_law")),
    "domain.control_law.s": ("s", ("self", ["domain.control_law"])),
    "domain.make_plant.s": ("s", ("self", ["domain.make_plant"])),
    "cli.parse_config.s": ("s", ("self", ["cli.parse_config"])),
    "cli.run_paired_cells.s": ("s", ("self", ["cli.run_paired_cells"])),
    "cli.mc_worker.s": ("s", ("self", ["cli.mc_worker"])),
    "cli.aggregate.s": ("s", ("self", ["cli.cmd_montecarlo"])),
    "cli.parallel_efficiency": ("ratio", ("efficiency",)),
    "analysis.build_lambda_chain.s": ("s", ("self", ["analysis.build_lambda_chain"])),
    "analysis.anytime_contraction.s": ("s", ("self", ["analysis.anytime_contraction"])),
    "analysis.anytime_contraction_series.s": ("s", ("self", ["analysis.anytime_contraction_series"])),
    "analysis.return_time_pmf_upto.s": ("s", ("self", ["analysis.return_time_pmf_upto"])),
    "analysis.return_time_pmf_truncated.s": ("s", ("self", ["analysis.return_time_pmf_truncated"])),
    "analysis.pmf_terms": ("count", ("count", "analysis.pmf_terms")),
    "analysis.boundary_curves.s": ("s", ("self", ["analysis.boundary_curves"])),
    "oracle.simulate_lambda_chain.s": ("s", ("self", ["oracle.simulate_lambda_chain"])),
    "oracle.returns": ("count", ("count", "oracle.returns")),
    "oracle.tv_distance.s": ("s", ("self", ["oracle.tv_distance"])),
    "trace.overhead_ratio": ("ratio", ("overhead",)),
    "trace.unattributed_share": ("ratio", ("unattributed",)),
}

#: Counters that must repeat exactly between repetitions at one seed.
EXACT = ("runtime.steps", "domain.control_law.calls", "oracle.returns",
         "analysis.pmf_terms", "runtime.diverged", "runtime.kappa_applied")

MIN_TIMED = 3  # untraced pass: repetitions whatever --seconds says
MIN_TRACED = 2  # traced pass: traced and untraced repetitions each
RUN_LIMIT_S = 170.0  # every run, repetitions included, ends within 180 s
CHILD_LIMIT_S = 120.0


class SetupFailed(RuntimeError):
    """The program could not be loaded or set up; no result is printed."""


# ---------------------------------------------------------------------------
# one repetition


def run_child(workload: str, inputs: dict, rep: int, threads: int, traced: bool,
              deadline: float) -> dict:
    workdir = os.path.join(OUT, "work", f"{workload}-{rep}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    spec = {
        "workload": workload, "root": ROOT, "workdir": workdir,
        "threads": threads, "trace": traced,
        "result_path": os.path.join(workdir, "result.json"),
        "spans_path": os.path.join(OUT, "spans", f"{workload}-{rep}.pkl"),
    }
    if "config" in inputs:
        config = dict(inputs["config"], out=os.path.join(workdir, "out.csv"))
        spec["config_path"] = os.path.join(workdir, "config.json")
        with open(spec["config_path"], "w") as fh:
            json.dump(config, fh)
    else:
        spec["inputs_path"] = os.path.join(workdir, "inputs.json")
        with open(spec["inputs_path"], "w") as fh:
            json.dump(inputs, fh)
    spec_path = os.path.join(workdir, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)

    rec = {"rep": rep, "threads": threads, "traced": traced}
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH, "child.py"), spec_path],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,  # so a timeout can stop the pool workers too
    )
    try:
        _, err = proc.communicate(timeout=max(1.0, min(CHILD_LIMIT_S, deadline - time.monotonic())))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        rec.update(ok=False, error="timed out")
        return rec
    if proc.returncode == 3:
        raise SetupFailed(err.strip()[-2000:])
    if proc.returncode != 0:
        rec.update(ok=False, error=f"exit {proc.returncode}: {err.strip()[-2000:]}")
        return rec
    with open(spec["result_path"]) as fh:
        rec.update(json.load(fh))
    shutil.rmtree(workdir, ignore_errors=True)
    failed = sorted(k for k, v in rec["checks"].items() if not v)
    rec["ok"] = not failed
    if failed:
        rec["error"] = "output checks failed: " + ", ".join(failed)
    return rec


def plan(workload: str, trace: bool):
    """Yield (threads, traced, timed) for successive repetitions, forever.

    mc-sweep starts with one untimed 1-worker repetition: its output must match
    the 2-worker ones (the --threads invariance contract), and its wall gives
    the parallel efficiency.
    """
    threads = W.MC_THREADS if workload == "mc-sweep" else 1
    if workload == "mc-sweep":
        yield 1, False, False
    while True:
        yield threads, False, True
        if trace:
            yield threads, True, True


def run_reps(workload: str, inputs: dict, seconds: float, trace: bool, start: float) -> list[dict]:
    reps: list[dict] = []
    deadline = start + RUN_LIMIT_S
    measure_from = time.monotonic()
    for rep, (threads, traced, timed) in enumerate(plan(workload, trace)):
        t_rep = time.monotonic()
        rec = run_child(workload, inputs, rep, threads, traced, deadline)
        rep_s = time.monotonic() - t_rep
        rec["timed"] = timed
        reps.append(rec)
        timed_reps = [r for r in reps if r["timed"]]
        enough = (
            sum(1 for r in timed_reps if r["traced"]) >= MIN_TRACED
            and sum(1 for r in timed_reps if not r["traced"]) >= MIN_TRACED
            if trace else len(timed_reps) >= MIN_TIMED
        )
        now = time.monotonic()
        # Stop when one more repetition as long as the last would overrun.
        if enough and (now + rep_s > measure_from + seconds or now + 2 * rep_s > deadline):
            break
    return reps


# ---------------------------------------------------------------------------
# gates


def load_reference(workload: str, seed: int) -> str | None:
    if seed != W.DEFAULT_SEED or not os.path.exists(REFERENCE):
        return None
    with open(REFERENCE) as fh:
        return json.load(fh).get(workload)


def digest_gate(reps: list[dict], reference: str | None) -> str | None:
    """Fail every repetition whose output digest differs from the expected one.

    The expected digest is the reference when there is one, else the digest
    most repetitions produced.  Returns the expected digest.
    """
    digests = [r["digest"] for r in reps if "digest" in r]
    if not digests:
        return reference
    expected = reference or max(set(digests), key=digests.count)
    for r in reps:
        if "digest" in r and r["digest"] != expected:
            r["ok"] = False
            r["error"] = f"output digest {r['digest'][:12]} != expected {expected[:12]}"
    return expected


def exact_values(rep: dict) -> dict:
    tr = rep["trace"]
    return {
        key: tr["calls"].get(key[:-len(".calls")], 0) if key.endswith(".calls")
        else tr["counts"].get(key, 0)
        for key in EXACT
    }


def exact_gate(reps: list[dict]) -> None:
    """Fail traced repetitions whose exact counters differ from the first one's."""
    traced = [r for r in reps if r.get("trace")]
    if not traced:
        return
    first = exact_values(traced[0])
    for r in traced[1:]:
        values = exact_values(r)
        if values != first:
            diff = sorted(k for k in EXACT if values[k] != first[k])
            r["ok"] = False
            r["error"] = "exact counters differ between repetitions: " + ", ".join(diff)


# ---------------------------------------------------------------------------
# metrics


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def end_to_end(workload: str, reps: list[dict]) -> dict:
    """Medians over the untraced repetitions; times are at the reference host speed."""
    timed = [r for r in reps if r["timed"] and not r["traced"] and "wall_s" in r]
    ran = [r for r in reps if not r["traced"] and "setup_s" in r]
    if workload == "theory":
        # The oracle's fixed job is its returns; the chain steps behind them
        # are drawn in blocks whose count the seed moves, not the work.
        returns = W.VALIDATION_RETURNS * len(W.VALIDATED_CAPACITIES)
        rates = [returns / r["validation_ref_s"] for r in timed]
    else:
        rates = [r["steps"] / r["wall_ref_s"] for r in timed]
    return {
        "wall_s": _median([r["wall_ref_s"] for r in timed]),
        "setup_s": _median([r["setup_ref_s"] for r in ran]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in timed]),
        "sim_steps_per_s": _median(rates),
    }


def per_layer(reps: list[dict]) -> dict:
    traced = [r for r in reps if r.get("trace")]
    untraced = [r for r in reps if r["timed"] and not r["traced"] and "wall_s" in r]
    check = [r for r in reps if not r["timed"] and "wall_s" in r]
    traced_wall = _median([r["wall_ref_s"] for r in traced])
    untraced_wall = _median([r["wall_ref_s"] for r in untraced])
    out = {}
    for name, (_, how) in PER_LAYER.items():
        kind = how[0]
        if kind == "self":
            value = _median([sum(r["trace"]["self_s"].get(s, 0.0) for s in how[1]) for r in traced])
        elif kind == "calls":
            value = _median([r["trace"]["calls"].get(how[1], 0) for r in traced])
        elif kind == "count":
            value = _median([r["trace"]["counts"].get(how[1], 0) for r in traced])
        elif kind == "kappa":
            value = _median([
                r["trace"]["counts"].get("runtime.kappa_applied", 0)
                / r["trace"]["calls"]["domain.control_law"]
                if r["trace"]["calls"].get("domain.control_law") else 0.0
                for r in traced
            ])
        elif kind == "efficiency":
            value = (check[0]["wall_ref_s"] / (W.MC_THREADS * untraced_wall)
                     if check and untraced_wall else 0.0)
        elif kind == "overhead":
            value = traced_wall / untraced_wall if untraced_wall else 0.0
        else:  # unattributed: job time spent outside every etac call
            value = _median([r["trace"]["self_s"].get(tracing.JOB, 0.0) / r["wall_s"] for r in traced])
        out[name] = value
    return out


# ---------------------------------------------------------------------------
# manifest


def git_commit() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "etac")
    for name in sorted(os.listdir(src)) if os.path.isdir(src) else []:
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def manifest(workload: str, seed: int, seconds: int, trace: bool, inputs: dict) -> dict:
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "workload": workload,
        "seed": seed,
        "program_seed": W.program_seed(workload, seed),
        "workers": W.MC_THREADS if workload == "mc-sweep" else 1,
        "seconds": seconds,
        "trace": trace,
        "inputs": inputs,
        "loadavg_start": list(os.getloadavg()),
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


# ---------------------------------------------------------------------------
# entry point


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> int:
    start = time.monotonic()
    inputs = W.make_inputs(workload, seed)
    man = manifest(workload, seed, seconds, trace, inputs)
    shutil.rmtree(os.path.join(OUT, "spans"), ignore_errors=True)
    os.makedirs(os.path.join(OUT, "spans"))
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    try:
        reps = run_reps(workload, inputs, seconds, trace, start)
    except SetupFailed as exc:
        print(f"error: the program could not be set up:\n{exc}", file=sys.stderr)
        return 2
    expected = digest_gate(reps, load_reference(workload, seed))
    exact_gate(reps)
    man["loadavg_end"] = list(os.getloadavg())

    attempted = len(reps)
    failed = sum(1 for r in reps if not r["ok"])
    if trace:
        values, units = per_layer(reps), {k: u for k, (u, _) in PER_LAYER.items()}
    else:
        values, units = end_to_end(workload, reps), END_TO_END
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    print(f"# {workload} seed={seed} trace={int(trace)}: {attempted} repetitions, "
          f"digest {expected[:16] if expected else None}")
    for r in reps:
        if not r["ok"]:
            print(f"#   repetition {r['rep']} FAILED: {r.get('error')}")
    for k, m in metrics.items():
        print(f"{k:40s} {m['value']:.6g} {m['unit']}")
    raw = [r for r in reps if r["timed"] and not r["traced"] and "calib_s" in r]
    if raw:
        print(f"{'raw wall_s / setup_s / calibration':40s} "
              + " / ".join(f"{_median([r[k] for r in raw]):.6g}" for k in ("wall_s", "setup_s"))
              + f" / {_median([statistics.fmean(r['calib_s']) for r in raw]):.6g} s")
    print(f"{'error_rate':40s} {failed / attempted:.6g} ratio ({failed}/{attempted})")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    path = os.path.join(OUT, "results", f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump({**result, "error_rate": failed / attempted, "digest": expected,
                   "manifest": man, "repetitions": reps}, fh, indent=1)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Run every workload in its own fresh process and report them together."""
    worst = 0
    summary = {}
    for workload in W.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]) if proc.returncode != 2 else proc.stdout, flush=True)
        if proc.returncode != 2 and lines:
            summary[workload] = json.loads(lines[-1])
        worst = max(worst, proc.returncode)
    print(json.dumps(summary))
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*W.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
