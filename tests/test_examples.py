"""The README's configs parse, and the experiment scripts run.

Every fenced ``json`` block of README.md is a config that ``parse_config``
accepts.  Both scripts under ``scripts/`` run in a child process on a small
input and write the expected number of CSV lines.
"""

import json
import os
import re
import subprocess
import sys

import pytest

import etac
from etac.cli import parse_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JSON_BLOCK = re.compile(r"^```json\n(.*?)^```", re.DOTALL | re.MULTILINE)


def test_readme_configs_parse():
    with open(os.path.join(ROOT, "README.md")) as fh:
        blocks = JSON_BLOCK.findall(fh.read())
    assert blocks
    for block in blocks:
        parse_config(json.loads(block))


@pytest.mark.parametrize(
    "script, args, lines",
    [
        # a header and one row per (d, controller) cell
        ("cost_vs_utilization.py", ["--trials", "4", "--threads", "1", "--d", "0", "1"], 5),
        # a header and one row per point of the 181-point rho grid
        ("stability_boundaries.py", [], 182),
    ],
)
def test_script_runs(tmp_path, script, args, lines):
    out = tmp_path / "out.csv"
    # The child imports etac from where this process did, which may be only
    # on sys.path (pytest's ``pythonpath`` setting), not on PYTHONPATH.
    src = os.path.dirname(os.path.dirname(etac.__file__))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *args, "--out", str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0, proc.stderr
    assert len(out.read_text().splitlines()) == lines
