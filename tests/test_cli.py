import contextlib
import csv
import hashlib
import io
import json
import os
import pathlib
import re
import signal
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import etac
from etac.cli import (
    ConfigError,
    ExperimentConfig,
    PlantSelector,
    emit_config,
    main,
    parse_config,
    run_paired_cells,
)
from etac.domain import NoiseSpec, StochasticEnv


def write_config(tmp_path, data, name="config.json"):
    """Write a config as JSON, or as given when ``data`` is already its text."""
    path = tmp_path / name
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def boundary_config(out=None, q=0.75):
    return {
        "plant": {"kind": "saturated"},
        "env": {"q": q, "p": [0.2, 0.2, 0.2, 0.2, 0.2], "capacity": 4},
        "out": out,
    }


#: Returns to zero so rarely (r = 1 - q + p0 q ~ 2e-3) that the pmf prefix
#: misses its mass target within PMF_MAX_TERMS terms; its mean return time is
#: 24962.5 steps.
SLOW_RETURN_ENV = {"q": 0.999, "p": [0.001] + [0.999 / 50] * 50, "capacity": 50}
NO_RETURN_ENV = {"q": 1.0, "p": [0.0, 1.0], "capacity": 1}


def decay_config(out=None):
    return {
        "plant": {"kind": "scalar", "a": 2.0, "gain": 1.5},
        "env": {"q": 1.0, "p": [0.0, 1.0], "capacity": 1},
        "controllers": ["baseline"],
        "d": 0.0,
        "horizon": 10,
        "trials": 1,
        "seed": 5,
        "x0": [4.0],
        "out": out,
    }


def montecarlo_config(out=None, trials=200, d_sweep=(0.0, 1.0, 1000.0)):
    return {
        "plant": {"kind": "saturated"},
        "env": {"q": 0.4, "p": [0.2, 0.2, 0.2, 0.2, 0.2], "capacity": 4},
        "controllers": ["baseline", "anytime"],
        "d_sweep": list(d_sweep),
        "horizon": 30,
        "trials": trials,
        "seed": 99,
        "noise": {"kind": "gaussian-iid", "std": 1.0},
        "out": out,
    }


#: Small montecarlo sweeps pinned by digest, recorded before the cells of a
#: trial shared one pre-draw: a noisy saturated sweep from a drawn x0, the
#: noise-free scalar plant from a fixed x0, and an unstable scalar plant
#: (a = 3, gain = 2.5) on which the baseline diverges in some trials.  The
#: saturated sweep was re-pinned when the squared norm stopped going through a
#: BLAS dot, whose fused kernel had moved its two-dimensional costs by an ulp.
PINNED_SWEEPS = {
    "noisy-saturated-drawn-x0": (
        {
            "plant": {"kind": "saturated"},
            "env": {"q": 0.4, "p": [0.2, 0.2, 0.2, 0.2, 0.2], "capacity": 4},
            "d_sweep": [0.0, 1.0, 3.0],
            "horizon": 30, "trials": 16, "seed": 7,
            "noise": {"kind": "gaussian-iid", "std": 0.5},
        },
        "02c49105438eb12dca19df98d98ab9e0a8a4b801b94c1b55161e00eb592c9803",
    ),
    "noise-free-scalar-fixed-x0": (
        {
            "plant": {"kind": "scalar", "a": 1.2, "gain": 0.8},
            "env": {"q": 0.6, "p": [0.3, 0.3, 0.4], "capacity": 2},
            "d_sweep": [0.0, 0.5, 2.0],
            "horizon": 40, "trials": 16, "seed": 8,
            "x0": [4.0],
        },
        "f5ebcba0cf10840d8cfdaee0615ede722e2752fa48e92fa12dfcbd7d226fa9fc",
    ),
    "diverging-scalar": (
        {
            "plant": {"kind": "scalar", "a": 3.0, "gain": 2.5},
            "env": {"q": 0.5, "p": [0.3, 0.2, 0.2, 0.3], "capacity": 3},
            "d_sweep": [0.0, 1.0],
            "horizon": 60, "trials": 16, "seed": 9,
        },
        "cd2002c83464de4bc79e06415b66df86efdd82fd2b8f2b7b2edb51e8ac634949",
    ),
}


def child_env(**extra):
    """The environment for a child Python that imports etac from where this process did.

    etac may be only on sys.path (pytest's ``pythonpath`` setting), not on PYTHONPATH.
    """
    src = os.path.dirname(os.path.dirname(etac.__file__))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": pythonpath, **extra}


#: A child process under these variables computes as on an x86-64 CPU with
#: only numpy's X86_V2 baseline: numpy skips its AVX2/FMA and AVX-512 loops,
#: and OpenBLAS runs its Prescott kernels, which run on every x86-64 CPU.
#: numpy refuses to disable a feature of its build baseline, such as X86_V2,
#: so only dispatch targets are named.
ANOTHER_CPU = {
    "NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR",
    "OPENBLAS_CORETYPE": "Prescott",
}


def on_another_cpu(tmp_path, name, *args):
    """What this module's function ``name`` returns for (tmp_path, *args) under ANOTHER_CPU.

    It runs in a child process; the arguments and the result pass as JSON,
    the result on the child's last stdout line.
    """
    code = (
        "import json, pathlib, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import test_cli\n"
        "result = getattr(test_cli, sys.argv[2])(pathlib.Path(sys.argv[3]), *json.loads(sys.argv[4]))\n"
        "print(json.dumps(result))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, os.path.dirname(__file__), name, str(tmp_path), json.dumps(args)],
        capture_output=True,
        text=True,
        env=child_env(**ANOTHER_CPU),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])  # after main's own lines


def sweep_digest(tmp_path, data, threads):
    """SHA-256 of the montecarlo CSV and of the per-trial cost, utilization and divergence arrays."""
    out = str(tmp_path / f"mc-{threads}.csv")
    path = write_config(tmp_path, data)
    assert main(["montecarlo", "--config", path, "--out", out, "--threads", str(threads)]) == 0
    with open(out, "rb") as fh:
        h = hashlib.sha256(fh.read())
    for array in run_paired_cells(parse_config(data), threads):
        h.update(array.tobytes())
    return h.hexdigest()


def delta_digests(tmp_path, env, samples, seed):
    """Exit code and SHA-256 of the CSV and of stdout of one delta-dist run."""
    out = tmp_path / "delta.csv"
    data = {"plant": {"kind": "saturated"}, "env": env, "trials": samples, "seed": seed, "out": str(out)}
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["delta-dist", "--config", write_config(tmp_path, data)])
    digests = [hashlib.sha256(b).hexdigest() for b in (out.read_bytes(), stdout.getvalue().encode())]
    return [code, *digests]


NAN = float("nan")
ANALYZE = ["analyze"]
DELTA_DIST = ["delta-dist"]
SIMULATE = ["simulate"]
MONTECARLO = ["montecarlo"]
FORKED = [*MONTECARLO, "--threads", "2"]

#: Inputs that must leave through main's single exit: code 2, a config error
#: whose message holds the given fragment, no traceback.  A config given as a
#: string is written as it is: the way to repeat a key, which a dict cannot hold.
REJECTED_INPUTS = {
    # the loader and the decoder's own rules: JSON syntax, repeated and unknown
    # keys, a section that is not an object, the number rule (json reads
    # ``NaN``, and an int literal too large for a float) and the list form of
    # ``x0``, which refuses the old ``{"kind": ...}`` object
    "json-syntax-error": (ANALYZE, '{"plant": \n !}', ":2:"),
    "keys-repeated": (
        SIMULATE, json.dumps(decay_config())[:-1] + ', "d": 2.0, "seed": 1, "seed": 7}',
        "repeated key(s) ['d', 'seed']",
    ),
    "env-key-repeated": (
        SIMULATE, json.dumps(decay_config()).replace('"q": 1.0', '"q": 1.0, "q": 0.5'),
        "repeated key(s) ['q']",
    ),
    "root-key-unknown": (
        ANALYZE, {**boundary_config(), "horizons": 50}, "unknown key(s) ['horizons'] in config"
    ),
    # the boundary grid is fixed (cli.RHO_GRID), not a config section
    "rho-grid-unknown": (
        ANALYZE, {**boundary_config(), "rho_grid": {"points": 181}}, "unknown key(s) ['rho_grid'] in config"
    ),
    "env-key-unknown": (
        ANALYZE, {**boundary_config(), "env": {**boundary_config()["env"], "erasures": 0.5}},
        "unknown key(s) ['erasures'] in env",
    ),
    "env-not-an-object": (SIMULATE, {**decay_config(), "env": [1.0, 0.0]}, "env must be an object"),
    "x0-string-entry": (SIMULATE, {**decay_config(), "x0": ["a"]}, "x0[0]"),
    "x0-nested-list": (SIMULATE, {**decay_config(), "x0": [[1.0, 2.0]]}, "x0[0]"),
    "x0-object-gaussian": (SIMULATE, {**decay_config(), "x0": {"kind": "gaussian"}}, "x0"),
    "x0-object-fixed": (SIMULATE, {**decay_config(), "x0": {"kind": "fixed", "value": [4.0]}}, "x0"),
    "p-booleans": (
        SIMULATE, {**decay_config(), "env": {"q": 1.0, "p": [True, False], "capacity": 1}}, "env.p[0]"
    ),
    "p-strings": (
        SIMULATE, {**decay_config(), "env": {"q": 1.0, "p": ["0.5", "0.5"], "capacity": 1}}, "env.p[0]"
    ),
    "d-nan": (SIMULATE, {**decay_config(), "d": NAN}, "d must"),
    "d-sweep-nan": (SIMULATE, {**decay_config(), "d_sweep": [0.0, NAN]}, "d_sweep[1]"),
    "noise-std-nan": (
        SIMULATE, {**decay_config(), "noise": {"kind": "gaussian-iid", "std": NAN}}, "noise.std"
    ),
    "gain-nan": (
        SIMULATE, {**decay_config(), "plant": {"kind": "scalar", "a": 2.0, "gain": NAN}}, "plant.gain"
    ),
    "d-int-beyond-float": (SIMULATE, {**decay_config(), "d": 10**400}, "d must"),
    # a constructor's check, which the decoder prefixes with its section
    "env-q-above-one": (
        ANALYZE, {**boundary_config(), "env": {**boundary_config()["env"], "q": 1.4}}, "env: q=1.4"
    ),
    "p-sum-overflows": (
        SIMULATE, {**decay_config(), "env": {"q": 1.0, "p": [1e308, 1e308], "capacity": 1}}, "env: p[0]"
    ),
    "plant-kind-unknown": (SIMULATE, {**decay_config(), "plant": {"kind": "linear"}}, "kind must be"),
    "scalar-without-a": (
        SIMULATE, {**decay_config(), "plant": {"kind": "scalar", "gain": 1.5}},
        "plant: the scalar plant requires plant.a",
    ),
    "controller-unknown": (
        ANALYZE, {**boundary_config(), "controllers": ["baseline", "mpc"]},
        "config: unknown controller 'mpc'",
    ),
    "d-sweep-decreasing": (
        MONTECARLO, montecarlo_config(trials=4, d_sweep=(0.0, 2.0, 1.0)),
        "config: d_sweep values must be strictly increasing",
    ),
    "d-sweep-negative": (
        MONTECARLO, montecarlo_config(trials=4, d_sweep=(-1.0, 2.0)),
        "config: d_sweep must be nonempty and its values nonnegative",
    ),
    "trials-zero": (ANALYZE, {**boundary_config(), "trials": 0}, "config: trials must be >= 1"),
    "horizon-zero": (ANALYZE, {**boundary_config(), "horizon": 0}, "config: horizon must be >= 1"),
    "seed-beyond-u64": (SIMULATE, {**decay_config(), "seed": 2**70}, "seed"),
    # command-line overrides out of range
    "seed-override-negative": ([*SIMULATE, "--seed", "-1"], decay_config(), "seed"),
    "seed-override-beyond-u64": ([*SIMULATE, "--seed", str(2**64)], decay_config(), "seed"),
    "trials-override-zero": ([*DELTA_DIST, "--trials", "0"], decay_config(), "trials"),
    "threads-zero": ([*MONTECARLO, "--threads", "0"], montecarlo_config(trials=4), "--threads"),
    # what a subcommand requires of its config
    "simulate-without-d": (SIMULATE, {**decay_config(), "d": None}, "requires a trigger radius d"),
    "sim-two-controllers": (
        SIMULATE, {**decay_config(), "controllers": ["baseline", "anytime"]}, "exactly one controller"
    ),
    "sim-three-trials": (SIMULATE, {**decay_config(), "trials": 3}, "simulate requires trials = 1"),
    "mc-without-d-sweep": (
        MONTECARLO, {**montecarlo_config(trials=4), "d_sweep": None}, "montecarlo requires d_sweep"
    ),
    "mc-one-controller": (
        MONTECARLO, {**montecarlo_config(trials=4), "controllers": ["anytime"]}, "requires both controllers"
    ),
    # library checks, in process and raised in a forked worker
    "x0-wrong-length": (SIMULATE, {**decay_config(), "x0": [1.0, 2.0]}, "x0 has shape"),
    "unstable-plant-in-worker": (
        FORKED, {**montecarlo_config(trials=4), "plant": {"kind": "scalar", "a": 2.0, "gain": 0.5}},
        "contracting",
    ),
    "x0-wrong-length-in-worker": (FORKED, {**montecarlo_config(trials=4), "x0": [1.0]}, "x0 has shape"),
    "delta-never-returns": (
        DELTA_DIST, {**boundary_config(), "env": NO_RETURN_ENV, "trials": 100}, "never returns to zero"
    ),
    "delta-slow-return": (
        DELTA_DIST, {**boundary_config(), "env": SLOW_RETURN_ENV, "trials": 100}, "pmf mass still below"
    ),
}

#: One small valid config per subcommand, for the checks made before any work.
ONE_PER_COMMAND = {
    "analyze": (ANALYZE, boundary_config()),
    "delta-dist": (DELTA_DIST, {**boundary_config(), "trials": 1000}),
    "simulate": (SIMULATE, decay_config()),
    # one worker, so that the sweep would run the patched _mc_worker in this process
    "montecarlo": (MONTECARLO, montecarlo_config(trials=4)),
}


def forbid_work(monkeypatch):
    """Make each way into a command's work raise, so that a test sees none ran."""

    def work_started(*args, **kwargs):
        raise RuntimeError("work started before the output path was checked")

    import etac.analysis
    import etac.cli

    for module, name in [(etac.cli, "build_plant"), (etac.cli, "run_trajectory"),
                         (etac.cli, "_mc_worker"), (etac.analysis, "build_lambda_chain")]:
        monkeypatch.setattr(module, name, work_started)


VALID_CONFIG = ExperimentConfig(
    plant=PlantSelector("saturated"), env=StochasticEnv(q=0.5, p=(0.5, 0.5), capacity=1)
)

#: (a valid value, a change that makes it invalid, a fragment of the message).
INVALID_CHANGES = {
    "horizon-zero": (VALID_CONFIG, {"horizon": 0}, "horizon"),
    "seed-negative": (VALID_CONFIG, {"seed": -1}, "seed"),
    "trials-zero": (VALID_CONFIG, {"trials": 0}, "trials"),
    "controller-repeated": (VALID_CONFIG, {"controllers": ("anytime", "anytime")}, "repeat"),
    "controller-unknown": (VALID_CONFIG, {"controllers": ("mpc",)}, "mpc"),
    "d-negative": (VALID_CONFIG, {"d": -1.0}, "nonnegative"),
    "d-sweep-decreasing": (VALID_CONFIG, {"d_sweep": (2.0, 1.0)}, "increasing"),
    "d-sweep-empty": (VALID_CONFIG, {"d_sweep": ()}, "nonempty"),
    "controllers-empty": (VALID_CONFIG, {"controllers": ()}, "nonempty"),
    "horizon-nan": (VALID_CONFIG, {"horizon": NAN}, "horizon"),
    "trials-nan": (VALID_CONFIG, {"trials": NAN}, "trials"),
    "seed-nan": (VALID_CONFIG, {"seed": NAN}, "seed"),
    "d-nan": (VALID_CONFIG, {"d": NAN}, "nonnegative"),
    "d-sweep-nan": (VALID_CONFIG, {"d_sweep": (0.0, NAN)}, "nonnegative"),
    "noise-std-nan": (NoiseSpec("gaussian-iid", 1.0), {"std": NAN}, "nonnegative"),
    "scalar-plant-without-parameters": (PlantSelector("saturated"), {"kind": "scalar"}, "plant.a"),
    "saturated-plant-with-gain": (PlantSelector("scalar", 2.0, 1.5), {"kind": "saturated"}, "only apply"),
    "env-q-above-one": (VALID_CONFIG.env, {"q": 1.2}, r"q=1\.2"),
}

FINITE = st.floats(allow_nan=False, allow_infinity=False)
NONNEGATIVE = st.floats(min_value=0.0, allow_infinity=False)


@st.composite
def pmfs(draw):
    weights = draw(st.lists(st.integers(0, 1000), min_size=2, max_size=8).filter(any))
    return tuple(w / sum(weights) for w in weights)


def envs_from(p):
    return st.builds(StochasticEnv, q=st.floats(0.0, 1.0), p=st.just(p), capacity=st.just(len(p) - 1))


VALID_CONFIGS = st.builds(
    ExperimentConfig,
    plant=st.one_of(
        st.builds(PlantSelector, kind=st.just("saturated")),
        st.builds(PlantSelector, kind=st.just("scalar"), a=FINITE, gain=FINITE),
    ),
    env=pmfs().flatmap(envs_from),
    controllers=st.sampled_from(
        [("baseline",), ("anytime",), ("baseline", "anytime"), ("anytime", "baseline")]
    ),
    d=st.none() | NONNEGATIVE,
    d_sweep=st.none() | st.lists(NONNEGATIVE, min_size=1, unique=True).map(lambda v: tuple(sorted(v))),
    horizon=st.integers(1, 10**6),
    trials=st.none() | st.integers(1, 10**7),
    seed=st.integers(0, 2**64 - 1),
    noise=st.just(NoiseSpec()) | st.builds(NoiseSpec, kind=st.just("gaussian-iid"), std=NONNEGATIVE),
    x0=st.none() | st.lists(FINITE, min_size=1, max_size=3).map(tuple),
    out=st.none() | st.text(),
)


class TestConfigParsing:
    def test_round_trip(self):
        config = ExperimentConfig(
            plant=PlantSelector(kind="scalar", a=2.0, gain=1.5),
            env=StochasticEnv(q=0.9, p=(0.1, 0.9), capacity=1),
            controllers=("baseline",),
            d=1.0,
            d_sweep=(0.0, 0.5, 2.0),
            horizon=60,
            trials=7,
            seed=123,
            noise=NoiseSpec("gaussian-iid", 0.5),
            x0=(3.0,),
            out="results.csv",
        )
        emitted = emit_config(config)
        assert parse_config(emitted) == config
        assert parse_config(json.loads(json.dumps(emitted, allow_nan=False))) == config

    def test_round_trip_defaults(self):
        for data in (boundary_config(), decay_config()):
            config = parse_config(data)
            emitted = emit_config(config)
            assert parse_config(emitted) == config
            assert parse_config(json.loads(json.dumps(emitted, allow_nan=False))) == config
        assert emit_config(parse_config(boundary_config()))["plant"] == {
            "kind": "saturated", "a": None, "gain": None,
        }

    def test_trials_and_horizon_bounds(self):
        data = boundary_config()
        data["trials"] = 0
        with pytest.raises(ConfigError, match="trials"):
            parse_config(data)
        data = boundary_config()
        data["horizon"] = 0
        with pytest.raises(ConfigError, match="horizon"):
            parse_config(data)

    @given(VALID_CONFIGS)
    @settings(max_examples=300, deadline=None)
    def test_round_trip_property(self, config):
        # every field type through the decoder: sections, strings, integers,
        # numbers, lists of both, and nulls
        assert parse_config(json.loads(json.dumps(emit_config(config)))) == config

    @pytest.mark.parametrize("valid, change, match", INVALID_CHANGES.values(), ids=INVALID_CHANGES.keys())
    def test_types_refuse_invalid_values(self, valid, change, match):
        current = {f.name: getattr(valid, f.name) for f in fields(valid)}
        with pytest.raises(ValueError, match=match):
            type(valid)(**{**current, **change})
        with pytest.raises(ValueError, match=match):
            replace(valid, **change)

    def test_null_takes_the_default_except_for_strings(self):
        # a null number or section takes its default; a null string is refused
        nulls = {**boundary_config(), "horizon": None, "noise": None, "x0": None}
        assert parse_config(nulls) == parse_config(boundary_config())
        for data in (
            {**boundary_config(), "controllers": None},
            {**boundary_config(), "noise": {"kind": None}},
            {**boundary_config(), "plant": {"kind": None}},
            {**boundary_config(), "env": None},
        ):
            with pytest.raises(ConfigError):
                parse_config(data)


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["analyze", "--config", str(tmp_path / "nope.json")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"plant": \n !}')
        assert main(["analyze", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert ":2:" in err  # line number of the syntax error

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        data = boundary_config()
        data["typo"] = 1
        assert main(["analyze", "--config", write_config(tmp_path, data)]) == 2

    def test_missing_out_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, boundary_config())
        assert main(["analyze", "--config", path]) == 2
        assert "output path" in capsys.readouterr().err

    def test_unread_override_is_reported_by_its_subcommand(self, tmp_path, capsys):
        path = write_config(tmp_path, boundary_config())
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--config", path, "--seed", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        # the usage line lists the overrides analyze does take
        assert err.startswith("usage: etac analyze [-h] --config CONFIG [--out OUT]\n")
        assert err.endswith("etac analyze: error: unrecognized arguments: --seed 1\n")

    @pytest.mark.parametrize("command, data", ONE_PER_COMMAND.values(), ids=ONE_PER_COMMAND.keys())
    def test_missing_out_directory_is_config_error_before_work(
        self, tmp_path, capfd, monkeypatch, command, data
    ):
        forbid_work(monkeypatch)
        out = tmp_path / "missing" / "out.csv"
        assert main([*command, "--config", write_config(tmp_path, data), "--out", str(out)]) == 2
        captured = capfd.readouterr()
        assert captured.err.startswith("config error: output directory")
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.parent.exists()

    @pytest.mark.parametrize("command, data", ONE_PER_COMMAND.values(), ids=ONE_PER_COMMAND.keys())
    def test_out_that_is_a_directory_is_config_error_before_work(
        self, tmp_path, capfd, monkeypatch, command, data
    ):
        forbid_work(monkeypatch)
        out = tmp_path / "out.csv"
        out.mkdir()
        assert main([*command, "--config", write_config(tmp_path, data), "--out", str(out)]) == 2
        captured = capfd.readouterr()
        assert captured.err.startswith(f"config error: output path {str(out)!r} is a directory")
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert out.is_dir() and not any(out.iterdir())

    @pytest.mark.parametrize(
        "out, message",
        [
            ("", "an output path is required"),
            # os.access reports /proc writable to root; creating a file there fails
            pytest.param(
                "/proc/etac-out.csv", "cannot write to output directory '/proc'",
                marks=pytest.mark.skipif(not os.path.isdir("/proc"), reason="no /proc"),
            ),
        ],
        ids=["empty", "in-proc"],
    )
    @pytest.mark.parametrize("command, data", ONE_PER_COMMAND.values(), ids=ONE_PER_COMMAND.keys())
    def test_unwritable_out_is_config_error_before_work(
        self, tmp_path, capfd, monkeypatch, command, data, out, message
    ):
        forbid_work(monkeypatch)
        assert main([*command, "--config", write_config(tmp_path, data), "--out", out]) == 2
        captured = capfd.readouterr()
        assert captured.err.startswith(f"config error: {message}")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "command, data, fragment", REJECTED_INPUTS.values(), ids=REJECTED_INPUTS.keys()
    )
    def test_rejected_input_leaves_through_config_error(self, tmp_path, capfd, command, data, fragment):
        path = write_config(tmp_path, data)
        assert main([*command, "--config", path, "--out", str(tmp_path / "out.csv")]) == 2
        err = capfd.readouterr().err  # fd-level, so worker processes' stderr is seen too
        assert err.startswith("config error:")
        assert fragment in err
        assert "Traceback" not in err


class TestAnalyze:
    def test_boundary_csv_and_report(self, tmp_path, capsys):
        out = str(tmp_path / "curves.csv")
        path = write_config(tmp_path, boundary_config(out=out))
        assert main(["analyze", "--config", path]) == 0
        report = capsys.readouterr().out
        assert "gamma=" in report and "omega=" in report
        rows = read_csv(out)
        assert len(rows) == 181
        base = np.array([float(r["alpha_star_baseline"]) for r in rows])
        anyt = np.array([float(r["alpha_star_anytime"]) for r in rows])
        assert np.all(anyt >= base)
        rhos = np.array([float(r["rho"]) for r in rows])
        idx = int(np.argmin(np.abs(rhos - 0.5)))
        assert abs(rhos[idx] - 0.5) < 1e-9
        assert base[idx] == pytest.approx(1.75, rel=1e-9)

    def test_no_channel_pins_boundaries_to_one(self, tmp_path):
        out = str(tmp_path / "curves.csv")
        path = write_config(tmp_path, boundary_config(out=out, q=0.0))
        assert main(["analyze", "--config", path]) == 0
        rows = read_csv(out)
        for r in rows:
            assert float(r["alpha_star_baseline"]) == pytest.approx(1.0)
            assert float(r["alpha_star_anytime"]) == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "env, mean",
        [(SLOW_RETURN_ENV, "24962.5"), (NO_RETURN_ENV, "inf"),
         ({"q": 1.0, "p": [1e-320, 1.0], "capacity": 1}, "inf")],
        ids=["slow", "never", "subnormal-return"],
    )
    def test_hard_env_reports_mean_return_time(self, tmp_path, capsys, env, mean):
        # every line is closed form, so neither a slow-mixing nor a
        # never-returning length is refused; where r = 1 - q + p0 q is
        # subnormal, 1 / r overflows to inf with no warning
        data = {"plant": {"kind": "saturated"}, "env": env, "out": str(tmp_path / "curves.csv")}
        assert main(["analyze", "--config", write_config(tmp_path, data)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == f"mean_return_time={mean}"
        assert len(read_csv(data["out"])) == 181

    #: (plant, env, d, report, curves CSV SHA-256).  The first six report lines
    #: and the CSV bytes were recorded when the report ended in the truncated
    #: pmf's ``delta_mass``; ``mean_return_time`` replaced that line.
    PINNED_REPORTS = {
        "scalar-one-slot": (
            {"kind": "scalar", "a": 2.0, "gain": 1.5}, {"q": 0.9, "p": [0.1, 0.9], "capacity": 1}, 1.0,
            "gamma=0.785\nomega=0.638655\nalpha_star_baseline=3.13158\nalpha_star_anytime=3.13158\n"
            "baseline_tail=5.65116\nanytime_tail=2.76744\nmean_return_time=5.26316\n",
            "7eb6bca19d58648bbaa9aee5be80372f0d0b6735df335755f1cfc571bf24ee46",
        ),
        "saturated-tradeoff-env": (
            {"kind": "saturated"}, {"q": 0.4, "p": [0.2] * 5, "capacity": 4}, None,
            "gamma=1.41717\nomega=1.59629\nalpha_star_baseline=1.00471\nalpha_star_anytime=1.01372\n"
            "baseline_tail=inf\nanytime_tail=inf\nmean_return_time=2.39428\n",
            "f92b16b47d67bf10c7b08f0092261fff43cea4f7f29cf223de750cd1c592e0a9",
        ),
    }

    @pytest.mark.parametrize("name", list(PINNED_REPORTS))
    def test_report_and_curves_match_recorded(self, tmp_path, capsys, name):
        plant, env, d, report, digest = self.PINNED_REPORTS[name]
        out = tmp_path / "curves.csv"
        data = {"plant": plant, "env": env, "d": d, "out": str(out)}
        assert main(["analyze", "--config", write_config(tmp_path, data)]) == 0
        assert capsys.readouterr().out == report
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestDeltaDist:
    def test_worked_example_rows(self, tmp_path, capsys):
        out = str(tmp_path / "delta.csv")
        data = {
            "plant": {"kind": "saturated"},
            "env": {"q": 0.75, "p": [0.2, 0.3, 0.5], "capacity": 2},
            "trials": 200_000,
            "seed": 7,
            "out": out,
        }
        assert main(["delta-dist", "--config", write_config(tmp_path, data)]) == 0
        report = capsys.readouterr().out
        assert "tv=" in report
        rows = read_csv(out)
        assert [r["j"] for r in rows[:3]] == ["1", "2", "3"]
        assert float(rows[0]["analytic"]) == pytest.approx(0.4, rel=1e-9)
        assert float(rows[1]["analytic"]) == pytest.approx(0.09, rel=1e-9)
        assert float(rows[2]["analytic"]) == pytest.approx(0.114, rel=1e-9)
        for r in rows[:3]:
            assert abs(float(r["empirical"]) - float(r["analytic"])) <= float(r["half_width"]) + 1e-12

    def test_no_reception_single_row(self, tmp_path):
        out = str(tmp_path / "delta.csv")
        data = {
            "plant": {"kind": "saturated"},
            "env": {"q": 0.0, "p": [0.2, 0.3, 0.5], "capacity": 2},
            "trials": 5000,
            "seed": 1,
            "out": out,
        }
        assert main(["delta-dist", "--config", write_config(tmp_path, data)]) == 0
        rows = read_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["analytic"]) == 1.0
        assert float(rows[0]["empirical"]) == 1.0

    def test_threshold_failure_exit_code(self, tmp_path, capsys):
        out = str(tmp_path / "delta.csv")
        data = {
            "plant": {"kind": "saturated"},
            "env": {"q": 0.75, "p": [0.2, 0.3, 0.5], "capacity": 2},
            "trials": 150,  # far too few samples to reach TV < 0.01
            "seed": 3,
            "out": out,
        }
        assert main(["delta-dist", "--config", write_config(tmp_path, data)]) == 3

    def test_default_sample_count_is_one_million(self, tmp_path, capsys):
        out = str(tmp_path / "delta.csv")
        data = {
            "plant": {"kind": "saturated"},
            "env": {"q": 0.75, "p": [0.2, 0.3, 0.5], "capacity": 2},
            "seed": 7,
            "out": out,
        }
        assert main(["delta-dist", "--config", write_config(tmp_path, data)]) == 0
        assert "samples=1000000" in capsys.readouterr().out

    #: (env, samples, seed) runs and the exit code and SHA-256 of their CSV and
    #: stdout, recorded before the chunked return-time kernel.  The long env
    #: is the six-block run of ``test_oracle.SIMULATION_DIGESTS``.  Neither
    #: reaches TV < 0.01 at these sample counts, so both exit 3.  The long
    #: CSV was re-pinned when the pmf's powers became repeated products: its
    #: analytic column moved in the last ulps.
    PINNED_RUNS = {
        "worked": ({"q": 0.75, "p": [0.2, 0.3, 0.5], "capacity": 2}, 20_000, 70, 3,
                   "8d38d0252c987e8befbfae1d4d687dadfcaf1b8203c40949d810b731f02e1693",
                   "0b499f5066c228beb509eba6e6ec7ab61334c23d03cc889c2ad435e8037da6e7"),
        "long": ({"q": 0.9, "p": [0.05, 0.05, 0.1, 0.1, 0.2, 0.2, 0.3], "capacity": 6}, 100_000, 71, 3,
                 "5bce43c2a5a8a232ca0638fe052d746a24ec330b727e615c4f45e1e74a5aaf38",
                 "6d8af9d3ed072bdb2e61befeacce8a62930b423e0f0d8ec5c69150af84bb27d7"),
    }

    @pytest.mark.parametrize("run", PINNED_RUNS)
    def test_output_matches_recorded_digest(self, tmp_path, run):
        env, samples, seed, *expected = self.PINNED_RUNS[run]
        assert delta_digests(tmp_path, env, samples, seed) == expected

    @pytest.mark.parametrize("run", PINNED_RUNS)
    def test_pinned_digest_holds_on_another_cpu(self, tmp_path, run):
        env, samples, seed, *expected = self.PINNED_RUNS[run]
        assert on_another_cpu(tmp_path, "delta_digests", env, samples, seed) == expected


class TestSimulate:
    def test_deterministic_decay_trace(self, tmp_path, capsys):
        out = str(tmp_path / "trace.csv")
        path = write_config(tmp_path, decay_config(out=out))
        assert main(["simulate", "--config", path]) == 0
        report = capsys.readouterr().out
        rows = read_csv(out)
        xs = [float(r["x1"]) for r in rows]
        assert xs == [4.0 * 0.5**k for k in range(10)]
        assert float(rows[0]["u1"]) == -6.0
        expected_cost = sum(x * x for x in xs) / 10.0
        assert f"J={expected_cost:.6g}" in report
        assert "utilization=100.00" in report

    def test_silent_origin(self, tmp_path, capsys):
        out = str(tmp_path / "trace.csv")
        data = decay_config(out=out)
        data["d"] = 1.0
        data["x0"] = [0.0]
        assert main(["simulate", "--config", write_config(tmp_path, data)]) == 0
        report = capsys.readouterr().out
        assert "J=0" in report
        assert "utilization=0.00" in report

    def test_same_seed_byte_identical(self, tmp_path):
        out_a = str(tmp_path / "a.csv")
        out_b = str(tmp_path / "b.csv")
        data = {
            "plant": {"kind": "saturated"},
            "env": {"q": 0.4, "p": [0.2, 0.2, 0.2, 0.2, 0.2], "capacity": 4},
            "controllers": ["anytime"],
            "d": 1.0,
            "horizon": 40,
            "trials": 1,
            "seed": 11,
            "noise": {"kind": "gaussian-iid", "std": 1.0},
        }
        path = write_config(tmp_path, data)
        assert main(["simulate", "--config", path, "--out", out_a]) == 0
        assert main(["simulate", "--config", path, "--out", out_b]) == 0
        assert pathlib.Path(out_a).read_bytes() == pathlib.Path(out_b).read_bytes()


def assert_sweep_shares_prefixes(monkeypatch, data, maker):
    """The sweep builds its plant once, so every radius runs one pair of map
    objects; one radius at a time, only the two controllers share.

    ``maker`` names the ``etac.cli`` plant constructor that ``data`` selects;
    the dynamics it builds are counted, and the sweep must call them less
    often than the radii run alone, with the same output.
    """
    radii = (0.0, 0.5, 1.0, 2.0, 4.0, 6.0)
    data = {**data, "trials": 20, "d_sweep": list(radii)}
    expected = run_paired_cells(parse_config(data))
    build = getattr(etac.cli, maker)
    calls = []

    def counted_plant(*args):
        plant = build(*args)

        def dynamics(x, u):
            calls.append(plant.d)
            return plant.dynamics(x, u)

        return replace(plant, dynamics=dynamics)

    monkeypatch.setattr(etac.cli, maker, counted_plant)
    swept = run_paired_cells(parse_config(data))
    swept_calls = len(calls)
    calls.clear()
    for i, d in enumerate(radii):
        alone = run_paired_cells(parse_config({**data, "d_sweep": [d]}))
        for whole, part in zip(expected, alone):
            assert whole[i : i + 1].tobytes() == part.tobytes()
    for got, want in zip(swept, expected):
        assert got.tobytes() == want.tobytes()
    assert swept_calls < len(calls)


class TestMonteCarlo:
    def test_sweep_csv(self, tmp_path):
        out = str(tmp_path / "mc.csv")
        path = write_config(tmp_path, montecarlo_config(out=out))
        assert main(["montecarlo", "--config", path]) == 0
        rows = read_csv(out)
        assert len(rows) == 6  # 3 radii x 2 controllers
        by_cell = {(r["d"], r["controller"]): r for r in rows}
        # d = 0 always transmits
        assert by_cell[("0", "baseline")]["mean_utilization_pct"] == "100.00"
        assert by_cell[("0", "anytime")]["mean_utilization_pct"] == "100.00"
        # enormous radius: silent throughout, controllers coincide exactly
        assert by_cell[("1000", "baseline")]["mean_utilization_pct"] == "0.00"
        assert (
            by_cell[("1000", "baseline")]["mean_cost"]
            == by_cell[("1000", "anytime")]["mean_cost"]
        )

    # 16 trials on 3 workers are uneven chunks of 5, 5 and 6
    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("name", list(PINNED_SWEEPS))
    def test_output_matches_recorded_digest(self, tmp_path, name, threads):
        data, digest = PINNED_SWEEPS[name]
        assert sweep_digest(tmp_path, data, threads) == digest

    @pytest.mark.parametrize("name", list(PINNED_SWEEPS))
    def test_pinned_digest_holds_under_another_blas_kernel(self, tmp_path, name):
        # OpenBLAS picks its kernels by CPU at run time, and some fuse the
        # multiply and add of a dot; numpy picks its SIMD loops the same way.
        # A child that computes as on another CPU must give the pinned bytes too.
        data, digest = PINNED_SWEEPS[name]
        assert on_another_cpu(tmp_path, "sweep_digest", data, 1) == digest

    def test_scalar_sweep_shares_prefixes_across_radii(self, monkeypatch):
        data = {**montecarlo_config(), "plant": {"kind": "scalar", "a": 1.2, "gain": 0.9}}
        assert_sweep_shares_prefixes(monkeypatch, data, "make_scalar_plant")

    def test_saturated_sweep_shares_prefixes_across_radii(self, monkeypatch):
        # each call of make_sat_plant builds maps of its own: the sweep alone
        # makes its radii share them
        assert_sweep_shares_prefixes(monkeypatch, montecarlo_config(), "make_sat_plant")

    def test_standard_error_shrinks_with_trials(self):
        small = parse_config(montecarlo_config(trials=400, d_sweep=(1.0,)))
        large = parse_config(montecarlo_config(trials=1600, d_sweep=(1.0,)))
        costs_s, _, _ = run_paired_cells(small)
        costs_l, _, _ = run_paired_cells(large)
        se_s = costs_s[0, 0].std(ddof=1) / np.sqrt(400)
        se_l = costs_l[0, 0].std(ddof=1) / np.sqrt(1600)
        assert 1.4 < se_s / se_l < 2.8

    def test_default_trial_count_is_ten_thousand(self, monkeypatch):
        calls = []

        def worker(args):
            config, t0, t1 = args
            calls.append((t0, t1))
            shape = (len(config.d_sweep), len(config.controllers), t1 - t0)
            return np.zeros(shape), np.zeros(shape), np.zeros(shape, dtype=bool)

        monkeypatch.setattr(etac.cli, "_mc_worker", worker)
        config = parse_config({**montecarlo_config(), "trials": None})
        arrays = run_paired_cells(config)
        assert calls == [(0, 10_000)]
        assert [a.shape for a in arrays] == [(3, 2, 10_000)] * 3

    def test_trials_override(self, tmp_path, capsys):
        out = str(tmp_path / "mc.csv")
        path = write_config(tmp_path, montecarlo_config(out=out, trials=500, d_sweep=(0.0,)))
        assert main(["montecarlo", "--config", path, "--trials", "40"]) == 0
        rows = read_csv(out)
        assert rows[0]["trials"] == "40"

    def test_aborts_when_every_trial_diverges(self, tmp_path, capsys):
        # never transmits, unstable open loop from a fixed far-out start
        data = {
            "plant": {"kind": "scalar", "a": 2.0, "gain": 1.5},
            "env": {"q": 0.0, "p": [0.0, 1.0], "capacity": 1},
            "controllers": ["baseline", "anytime"],
            "d_sweep": [0.0],
            "horizon": 80,
            "trials": 10,
            "seed": 1,
            "x0": [1000.0],
            "out": str(tmp_path / "mc.csv"),
        }
        assert main(["montecarlo", "--config", write_config(tmp_path, data)]) == 1
        assert "diverged" in capsys.readouterr().err


class UnpicklableError(Exception):
    """Pickles only without its attribute: a lambda cannot be pickled."""

    def __init__(self, message):
        super().__init__(message)
        self.hook = lambda: None


def trial_index_worker(args):
    """A stand-in for ``_mc_worker``: every cell of trial t holds t."""
    config, t0, t1 = args
    shape = (len(config.d_sweep), len(config.controllers), t1 - t0)
    trials = np.broadcast_to(np.arange(t0, t1, dtype=float), shape)
    return trials.copy(), trials + 0.5, np.zeros(shape, dtype=bool)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkedWorkers:
    """``--threads 2`` forks a child per chunk; on every path each is reaped
    and the first failure in chunk order is raised.  The 4 trials split into
    chunks [0, 2) and [2, 4)."""

    CONFIG = parse_config({**montecarlo_config(trials=4, d_sweep=(0.0, 1.0)), "horizon": 10})

    @staticmethod
    def patch_worker(monkeypatch, chunk0, chunk1):
        def worker(args):
            return (chunk0 if args[1] == 0 else chunk1)(args)

        monkeypatch.setattr(etac.cli, "_mc_worker", worker)

    def test_chunks_return_in_trial_order(self, monkeypatch):
        self.patch_worker(monkeypatch, trial_index_worker, trial_index_worker)
        costs, utils, diverged = run_paired_cells(self.CONFIG, threads=2)
        assert_no_child_left()
        assert costs.tobytes() == np.broadcast_to(np.arange(4.0), (2, 2, 4)).tobytes()
        assert (utils == costs + 0.5).all() and not diverged.any()

    def test_worker_value_error_is_raised_as_it_was(self, monkeypatch):
        def refuse(args):
            raise ValueError("chunk 0 refused")

        self.patch_worker(monkeypatch, refuse, etac.cli._mc_worker)
        with pytest.raises(ValueError, match="chunk 0 refused"):
            run_paired_cells(self.CONFIG, threads=2)
        assert_no_child_left()

    def test_killed_worker_is_a_runtime_error_naming_its_status(self, monkeypatch):
        def die(args):
            os.kill(os.getpid(), signal.SIGKILL)

        self.patch_worker(monkeypatch, trial_index_worker, die)
        with pytest.raises(RuntimeError, match=rf"trials \[2, 4\).*wait status {signal.SIGKILL}\)"):
            run_paired_cells(self.CONFIG, threads=2)
        assert_no_child_left()

    def test_unpicklable_exception_is_sent_as_its_repr(self, monkeypatch):
        def raise_unpicklable(args):
            raise UnpicklableError("no round trip")

        self.patch_worker(monkeypatch, raise_unpicklable, trial_index_worker)
        with pytest.raises(RuntimeError, match=re.escape("UnpicklableError('no round trip')")):
            run_paired_cells(self.CONFIG, threads=2)
        assert_no_child_left()

    def test_failed_fork_reaps_the_children_already_forked(self, monkeypatch):
        fork = os.fork
        forked = []

        def fork_once():
            if forked:
                raise BlockingIOError("fork refused")
            forked.append(True)
            return fork()

        monkeypatch.setattr(os, "fork", fork_once)
        self.patch_worker(monkeypatch, trial_index_worker, trial_index_worker)
        with pytest.raises(BlockingIOError, match="fork refused"):
            run_paired_cells(self.CONFIG, threads=2)
        assert_no_child_left()


class TestModuleEntry:
    def test_import_loads_no_process_pool_modules(self):
        code = (
            "import sys\n"
            "import etac.cli\n"
            "pool = ('concurrent.futures', 'multiprocessing', 'logging', 'subprocess')\n"
            "print([name for name in pool if name in sys.modules])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_python_dash_m(self, tmp_path):
        out = str(tmp_path / "curves.csv")
        path = write_config(tmp_path, boundary_config(out=out))
        proc = subprocess.run(
            [sys.executable, "-m", "etac", "analyze", "--config", path],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert "gamma=" in proc.stdout
