"""The committed experiment configs reproduce the paper's two headline outputs.

``examples/boundaries.json`` (``etac analyze``) writes the alpha*(rho)
boundary curves and ``examples/tradeoff.json`` (``etac montecarlo``) the
paired cost-vs-utilization sweep; each CSV is pinned by its SHA-256 in
``examples/SHA256SUMS``, which CI also checks with ``sha256sum -c``.  The
README's example config is the trade-off config itself, and each subcommand
refuses the overrides it does not read.
"""

import hashlib
import json
import os
import re

import pytest

from etac.cli import load_config, main, parse_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = os.path.join(ROOT, "examples")
JSON_BLOCK = re.compile(r"^```json\n(.*?)^```", re.DOTALL | re.MULTILINE)

#: SHA-256 of each output by file name, in ``sha256sum`` format: ``boundaries.csv``
#: from ``etac analyze --config examples/boundaries.json`` (181 rows on the fixed
#: rho grid) and ``tradeoff.csv`` from ``etac montecarlo --config
#: examples/tradeoff.json --trials 40``, at any --threads.
with open(os.path.join(EXAMPLES, "SHA256SUMS")) as fh:
    PINS = {name: digest for digest, name in map(str.split, fh)}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_readme_configs_parse():
    with open(os.path.join(ROOT, "README.md")) as fh:
        blocks = JSON_BLOCK.findall(fh.read())
    configs = [parse_config(json.loads(block)) for block in blocks]
    assert configs == [load_config(os.path.join(EXAMPLES, "tradeoff.json"))]


def test_boundaries_example_output(tmp_path):
    out = tmp_path / "boundaries.csv"
    config = os.path.join(EXAMPLES, "boundaries.json")
    assert main(["analyze", "--config", config, "--out", str(out)]) == 0
    assert sha256(out) == PINS["boundaries.csv"]


@pytest.mark.parametrize("threads", [1, 2])
def test_tradeoff_example_output(tmp_path, threads):
    out = tmp_path / "tradeoff.csv"
    config = os.path.join(EXAMPLES, "tradeoff.json")
    argv = ["montecarlo", "--config", config, "--out", str(out), "--trials", "40"]
    assert main([*argv, "--threads", str(threads)]) == 0
    assert sha256(out) == PINS["tradeoff.csv"]


#: The overrides that a subcommand does not read, each with a valid value.
UNREAD_OVERRIDES = [
    ("analyze", ["--seed", "1"]),
    ("analyze", ["--trials", "1"]),
    ("analyze", ["--threads", "2"]),
    ("delta-dist", ["--threads", "2"]),
    ("simulate", ["--trials", "1"]),
    ("simulate", ["--threads", "2"]),
]


@pytest.mark.parametrize(
    "command, override", UNREAD_OVERRIDES, ids=[f"{c}{o[0]}" for c, o in UNREAD_OVERRIDES]
)
def test_override_a_command_does_not_read_is_a_usage_error(capsys, command, override):
    config = os.path.join(EXAMPLES, "boundaries.json")
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", config, *override])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"etac {command}: error: unrecognized arguments: {' '.join(override)}" in err
