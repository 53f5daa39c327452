"""The benchmark's tracer still sees every step of a traced montecarlo sweep.

``perfbench/tracing.py`` wraps etac's functions from outside the package.  It
reads ``Trace.records``, takes the stream from argument 5 of
``run_trajectory``, wraps the maps of the plants the factories return, and
wraps ``cli._mc_worker``, the unit of work each forked montecarlo worker runs.
The check runs in a child process, since installing the tracer monkeypatches
etac for good.
"""

import json
import os
import subprocess
import sys

import etac

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")

CHILD = """
import json
import sys

import tracing
from etac import cli

trace_dir = sys.argv[1]
rec = tracing.install(trace_dir)
config = cli.parse_config({
    "plant": {"kind": "saturated"},
    "env": {"q": 0.4, "p": [0.2, 0.2, 0.2, 0.2, 0.2], "capacity": 4},
    "d_sweep": [0.0, 1.0],
    "horizon": 10, "trials": 4, "seed": 3,
    "noise": {"kind": "gaussian-iid", "std": 1.0},
})
with rec.span(tracing.JOB):
    cli.run_paired_cells(config, threads=2)
merged = tracing.collect_workers(rec, trace_dir)
print(json.dumps({"merged": merged, "steps": rec.counts["runtime.steps"]}))
"""


def test_traced_sweep_counts_every_step_of_both_workers(tmp_path):
    # The child imports etac from where this process did, which may be only on
    # sys.path (pytest's ``pythonpath`` setting), not on PYTHONPATH.
    src = os.path.dirname(os.path.dirname(etac.__file__))
    pythonpath = os.pathsep.join(filter(None, [PERFBENCH, src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # 4 trials x 2 radii x 2 controllers x 10 steps, run by two forked workers
    assert json.loads(proc.stdout) == {"merged": 2, "steps": 160}
