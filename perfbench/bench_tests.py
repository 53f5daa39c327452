"""Tests of the benchmark itself.

    python3 -m pytest perfbench/bench_tests.py

The file name keeps these out of the repository's default test collection:
the end-to-end tests run the benchmark and take about two minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import child  # noqa: E402
import headroom  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# span arithmetic


def test_self_time_on_synthetic_tree():
    # 0 root [0, 10] -> 1 [1, 4], 2 [5, 9] -> 3 [6, 7]
    # 0 root also parents two pool workers 4 [1, 6] and 5 [2, 8] running side
    # by side in other processes; their union with 1 and 2 covers [1, 9].
    names = ["root", "a", "b", "c", "worker"]
    name = [0, 1, 2, 3, 4, 4]
    start = [0.0, 1.0, 5.0, 6.0, 1.0, 2.0]
    end = [10.0, 4.0, 9.0, 7.0, 6.0, 8.0]
    parent = [-1, 0, 0, 2, 0, 0]
    got = tracing.self_times(names, name, start, end, parent)
    assert got == pytest.approx({"root": 2.0, "a": 3.0, "b": 3.0, "c": 1.0, "worker": 11.0})


def test_child_intervals_are_clipped_to_the_parent():
    got = tracing.self_times(["p", "c"], [0, 1], [0.0, -1.0], [2.0, 1.0], [-1, 0])
    assert got["p"] == pytest.approx(1.0)


def test_recorder_nesting_partitions_the_root():
    rec = tracing.Recorder()
    with rec.span("root"):
        for _ in range(3):
            with rec.span("leaf"):
                sum(range(1000))
    assert list(rec.parent) == [-1, 0, 0, 0]
    selfs = tracing.self_times(rec.names, rec.name, rec.start, rec.end, rec.parent)
    assert sum(selfs.values()) == pytest.approx(rec.end[0] - rec.start[0])
    assert tracing.call_counts(rec.names, rec.name) == {"root": 1, "leaf": 3}


def test_merge_hangs_worker_spans_under_the_given_parent():
    main, worker = tracing.Recorder(), tracing.Recorder()
    with main.span("pool"):
        pass
    with worker.span("w"):
        with worker.span("x"):
            pass
    worker.count("runtime.steps", 5)
    main.merge(worker.export(), root_parent=0)
    assert list(main.parent) == [-1, 0, 1]
    assert [main.names[i] for i in main.name] == ["pool", "w", "x"]
    assert main.counts == {"runtime.steps": 5}


# ---------------------------------------------------------------------------
# gates


def test_hash_gate_fires_on_perturbed_csv(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("d,controller,mean_cost\n0,baseline,1.25\n")
    reference = child.file_sha256(str(path))
    good = {"rep": 0, "ok": True, "digest": child.file_sha256(str(path))}
    path.write_text("d,controller,mean_cost\n0,baseline,1.26\n")
    bad = {"rep": 1, "ok": True, "digest": child.file_sha256(str(path))}
    assert run.digest_gate([good, bad], reference) == reference
    assert good["ok"] and not bad["ok"]
    assert "digest" in bad["error"]


def test_hash_gate_without_reference_takes_the_majority():
    reps = [{"rep": i, "ok": True, "digest": d} for i, d in enumerate("aab")]
    assert run.digest_gate(reps, None) == "a"
    assert [r["ok"] for r in reps] == [True, True, False]


def test_exact_gate_fires_when_a_counter_moves():
    def rep(steps):
        return {"ok": True, "trace": {"counts": {"runtime.steps": steps}, "calls": {}}}

    reps = [rep(100), rep(100), rep(99)]
    run.exact_gate(reps)
    assert [r["ok"] for r in reps] == [True, True, False]
    assert "runtime.steps" in reps[2]["error"]


def test_headroom_parses_the_acceptance_lines():
    out = (
        "[PASS] criterion 3 (stability boundary curves): min margin 0.0567, 0.01 s\n"
        "[FAIL] criterion 4 (baseline mean bound (statistical)): min margin 0.1 over 60 steps, 61.5 s\n"
        "[PASS] criterion 5 (cost vs utilization trade-off): d=0.5: t=9.1, 68 s\n"
    )
    got = headroom.parse(out)
    assert got[3]["seconds"] == 0.01 and got[3]["passed"]
    assert got[5]["ratio"] == pytest.approx(68 / 300)
    # criterion 4's name has nested parentheses; the line still yields its seconds
    assert 4 in got and not got[4]["passed"] and got[4]["seconds"] == 61.5


def test_reference_speed_scales_by_the_calibrations():
    # Calibrations twice as slow as the reference halve the reported time.
    ref = child.CALIB_REF_S
    assert child.at_ref_speed(3.0, [2 * ref, 2 * ref]) == pytest.approx(1.5)
    assert child.at_ref_speed(3.0, [ref, 3 * ref]) == pytest.approx(1.5)
    assert child.calibrate(2) > 0


# ---------------------------------------------------------------------------
# inputs and metric names


def test_inputs_are_a_function_of_the_seed():
    for workload in W.WORKLOADS:
        assert W.make_inputs(workload, 3) == W.make_inputs(workload, 3)
        assert W.make_inputs(workload, 3) != W.make_inputs(workload, 4)


def test_metric_tables_match_benchmark_json():
    bench = _benchmark_json()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        k: unit for k, (unit, _) in run.PER_LAYER.items()
    }
    assert [w["name"] for w in bench["workloads"]] == list(W.WORKLOADS)


def _run_bench(cwd: str, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_non_default_seed_passes_every_check(workload, trace):
    bench = _benchmark_json()
    proc = _run_bench(ROOT, workload, 7, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = bench["per_layer"] if trace else bench["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run_bench(str(tmp_path), "theory", 0, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
