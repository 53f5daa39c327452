"""Gate-headroom report: how close each acceptance criterion runs to its time budget.

    python3 perfbench/headroom.py        # writes perfbench/out/headroom.json

Runs ``tests/test_acceptance.py -s`` once, unchanged, parses the PASS/FAIL
line each criterion prints, and records seconds / budget per criterion, so a
gate drifting toward its limit shows before it fails.  This is not a benchmark
workload: the suite takes minutes, so it is run once, apart from the benchmark runs.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

#: The time budgets tests/test_acceptance.py asserts, by criterion.
BUDGETS = {1: 30.0, 2: 10.0, 3: 1.0, 4: 60.0, 5: 300.0, 6: 30.0}

#: "[PASS] criterion 4 (name, may hold parentheses): detail, 51.4 s"
LINE = re.compile(r"\[(PASS|FAIL)\] criterion (\d+) \((.*)\): (.*?)(\d+(?:\.\d+)?) s\s*$")


def parse(output: str) -> dict:
    """Criterion number -> name, pass flag, seconds, budget and seconds / budget."""
    criteria = {}
    for line in output.splitlines():
        m = LINE.search(line)
        if not m:
            continue
        num, seconds = int(m.group(2)), float(m.group(5))
        criteria[num] = {
            "name": m.group(3),
            "passed": m.group(1) == "PASS",
            "seconds": seconds,
            "budget": BUDGETS.get(num),
            "ratio": seconds / BUDGETS[num] if num in BUDGETS else None,
        }
    return criteria


def main() -> int:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "tests/test_acceptance.py", "-s", "-q",
         "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    criteria = parse(proc.stdout)
    report = {
        "pytest_exit": proc.returncode,
        "missing": sorted(set(BUDGETS) - set(criteria)),
        "criteria": criteria,
        "loadavg_end": list(os.getloadavg()),
        "nproc": os.cpu_count(),
    }
    os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
    with open(os.path.join(BENCH, "out", "headroom.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    for num, c in sorted(criteria.items()):
        print(f"criterion {num} ({c['name']}): {c['seconds']:g} s of {c['budget']:g} s "
              f"= {c['ratio']:.3f} {'PASS' if c['passed'] else 'FAIL'}")
    print(json.dumps({str(k): round(v["ratio"], 4) for k, v in sorted(criteria.items())}))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
