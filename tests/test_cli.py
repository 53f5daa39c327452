import contextlib
import csv
import hashlib
import io
import json
import os
import pathlib
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
from etac.domain import NoiseSpec, StochasticEnv, make_scalar_plant


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
SIMULATE = ["simulate"]
POOL = ["montecarlo", "--threads", "2"]

#: Inputs that must leave through main's single exit: code 2, a config error
#: whose message holds the given fragment, no traceback.  The first eleven break
#: the decoder's rules: the number rule (json reads ``NaN``, and an int literal
#: too large for a float) and the list form of ``x0``, which refuses the old
#: ``{"kind": ...}`` object.  The next four are library checks, two of them
#: raised in a pool worker and one a seed past 64 bits; then four command-line
#: overrides out of range, pmf entries whose sum overflows a float, an unknown
#: plant kind, a section that is not an object, ``simulate`` without ``d``, and
#: keys repeated at the top level and in a section, given as the config's text,
#: since a dict cannot hold a key twice.
REJECTED_INPUTS = {
    "x0-string-entry": (SIMULATE, {**decay_config(), "x0": ["a"]}, "x0[0]"),
    "x0-nested-list": (SIMULATE, {**decay_config(), "x0": [[1.0, 2.0]]}, "x0[0]"),
    "x0-object-gaussian": (SIMULATE, {**decay_config(), "x0": {"kind": "gaussian"}}, "x0"),
    "x0-object-fixed": (
        SIMULATE, {**decay_config(), "x0": {"kind": "fixed", "value": [4.0]}}, "x0"
    ),
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
    "x0-wrong-length": (SIMULATE, {**decay_config(), "x0": [1.0, 2.0]}, "x0 has shape"),
    "unstable-plant-in-worker": (
        POOL, {**montecarlo_config(trials=4), "plant": {"kind": "scalar", "a": 2.0, "gain": 0.5}},
        "contracting",
    ),
    "x0-wrong-length-in-worker": (POOL, {**montecarlo_config(trials=4), "x0": [1.0]}, "x0 has shape"),
    "seed-beyond-u64": (SIMULATE, {**decay_config(), "seed": 2**70}, "seed"),
    "seed-override-negative": ([*SIMULATE, "--seed", "-1"], decay_config(), "seed"),
    "seed-override-beyond-u64": ([*SIMULATE, "--seed", str(2**64)], decay_config(), "seed"),
    "trials-override-zero": ([*SIMULATE, "--trials", "0"], decay_config(), "trials"),
    "threads-zero": (["montecarlo", "--threads", "0"], montecarlo_config(trials=4), "--threads"),
    "p-sum-overflows": (
        SIMULATE, {**decay_config(), "env": {"q": 1.0, "p": [1e308, 1e308], "capacity": 1}}, "env: p[0]"
    ),
    "plant-kind-unknown": (SIMULATE, {**decay_config(), "plant": {"kind": "linear"}}, "kind must be"),
    "env-not-an-object": (SIMULATE, {**decay_config(), "env": [1.0, 0.0]}, "env must be an object"),
    "simulate-without-d": (SIMULATE, {**decay_config(), "d": None}, "requires a trigger radius d"),
    "keys-repeated": (
        SIMULATE, json.dumps(decay_config())[:-1] + ', "d": 2.0, "seed": 1, "seed": 7}',
        "repeated key(s) ['d', 'seed']",
    ),
    "env-key-repeated": (
        SIMULATE, json.dumps(decay_config()).replace('"q": 1.0', '"q": 1.0, "q": 0.5'),
        "repeated key(s) ['q']",
    ),
}

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

    def test_unknown_root_key(self):
        data = boundary_config()
        data["horizons"] = 50
        with pytest.raises(ConfigError, match="horizons"):
            parse_config(data)

    def test_rho_grid_is_an_unknown_key(self):
        # the boundary grid is fixed (cli.RHO_GRID), not a config section
        data = {**boundary_config(), "rho_grid": {"points": 181}}
        with pytest.raises(ConfigError, match="rho_grid"):
            parse_config(data)

    def test_unknown_nested_key(self):
        data = boundary_config()
        data["env"]["erasures"] = 0.5
        with pytest.raises(ConfigError, match="erasures"):
            parse_config(data)

    def test_env_validation_surfaces(self):
        data = boundary_config()
        data["env"]["q"] = 1.4
        with pytest.raises(ConfigError, match="q=1.4"):
            parse_config(data)

    def test_d_sweep_must_increase(self):
        data = montecarlo_config()
        data["d_sweep"] = [0.0, 2.0, 1.0]
        with pytest.raises(ConfigError, match="increasing"):
            parse_config(data)

    def test_d_sweep_nonnegative(self):
        data = montecarlo_config()
        data["d_sweep"] = [-1.0, 2.0]
        with pytest.raises(ConfigError, match="nonnegative"):
            parse_config(data)

    def test_scalar_plant_needs_parameters(self):
        data = decay_config()
        del data["plant"]["a"]
        with pytest.raises(ConfigError, match="plant.a"):
            parse_config(data)

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

    def test_unknown_controller(self):
        data = boundary_config()
        data["controllers"] = ["baseline", "mpc"]
        with pytest.raises(ConfigError, match="mpc"):
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

    @pytest.mark.parametrize(
        "command, data",
        [
            (["analyze"], boundary_config()),
            (["delta-dist"], {**boundary_config(), "trials": 1000}),
            (SIMULATE, decay_config()),
            (POOL, montecarlo_config(trials=4)),
        ],
        ids=["analyze", "delta-dist", "simulate", "montecarlo"],
    )
    def test_missing_out_directory_is_config_error_before_work(
        self, tmp_path, capfd, monkeypatch, command, data
    ):
        def work_started(*args, **kwargs):
            raise RuntimeError("work started before the output path was checked")

        import etac.analysis
        import etac.cli

        for module, name in [(etac.cli, "build_plant"), (etac.cli, "run_trajectory"),
                             (etac.cli, "run_paired_cells"), (etac.analysis, "build_lambda_chain")]:
            monkeypatch.setattr(module, name, work_started)
        out = tmp_path / "missing" / "out.csv"
        assert main([*command, "--config", write_config(tmp_path, data), "--out", str(out)]) == 2
        captured = capfd.readouterr()
        assert captured.err.startswith("config error: output directory")
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.parent.exists()

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
        "env, mean", [(SLOW_RETURN_ENV, "24962.5"), (NO_RETURN_ENV, "inf")], ids=["slow", "never"]
    )
    def test_hard_env_reports_mean_return_time(self, tmp_path, capsys, env, mean):
        # every line is closed form, so neither a slow-mixing nor a
        # never-returning length is refused
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

    def test_degenerate_env_is_config_error(self, tmp_path):
        out = str(tmp_path / "delta.csv")
        data = {
            "plant": {"kind": "saturated"},
            "env": {"q": 1.0, "p": [0.0, 1.0], "capacity": 1},
            "trials": 100,
            "out": out,
        }
        assert main(["delta-dist", "--config", write_config(tmp_path, data)]) == 2

    def test_slow_return_env_is_config_error(self, tmp_path, capsys):
        data = {
            "plant": {"kind": "saturated"},
            "env": SLOW_RETURN_ENV,
            "trials": 100,
            "out": str(tmp_path / "delta.csv"),
        }
        assert main(["delta-dist", "--config", write_config(tmp_path, data)]) == 2
        assert "config error:" in capsys.readouterr().err


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

    def test_requires_single_controller_and_one_trial(self, tmp_path):
        data = decay_config(out=str(tmp_path / "t.csv"))
        data["controllers"] = ["baseline", "anytime"]
        assert main(["simulate", "--config", write_config(tmp_path, data)]) == 2
        data = decay_config(out=str(tmp_path / "t.csv"))
        data["trials"] = 3
        assert main(["simulate", "--config", write_config(tmp_path, data, "c2.json")]) == 2


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

    def test_deterministic_and_thread_invariant(self, tmp_path):
        out_a = str(tmp_path / "a.csv")
        out_b = str(tmp_path / "b.csv")
        out_c = str(tmp_path / "c.csv")
        base = montecarlo_config(trials=60, d_sweep=(0.0, 2.0))
        path = write_config(tmp_path, base)
        assert main(["montecarlo", "--config", path, "--out", out_a]) == 0
        assert main(["montecarlo", "--config", path, "--out", out_b]) == 0
        assert main(["montecarlo", "--config", path, "--out", out_c, "--threads", "2"]) == 0
        bytes_a = pathlib.Path(out_a).read_bytes()
        assert bytes_a == pathlib.Path(out_b).read_bytes()
        assert bytes_a == pathlib.Path(out_c).read_bytes()

    @pytest.mark.parametrize("threads", [1, 2])
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
        # The sweep builds its plant once, so every radius runs one pair of map
        # objects; one radius at a time, only the two controllers share.
        radii = (0.0, 0.5, 1.0, 2.0, 4.0, 6.0)
        data = {**montecarlo_config(trials=20, d_sweep=radii), "plant": {"kind": "scalar", "a": 1.2, "gain": 0.9}}
        expected = run_paired_cells(parse_config(data))
        calls = []

        def counted_scalar_plant(a, gain, d):
            plant = make_scalar_plant(a, gain, d)

            def dynamics(x, u):
                calls.append(d)
                return plant.dynamics(x, u)

            return replace(plant, dynamics=dynamics)

        monkeypatch.setattr(etac.cli, "make_scalar_plant", counted_scalar_plant)
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

    def test_requires_sweep_and_both_controllers(self, tmp_path):
        data = montecarlo_config(out=str(tmp_path / "m.csv"))
        del data["d_sweep"]
        assert main(["montecarlo", "--config", write_config(tmp_path, data)]) == 2
        data = montecarlo_config(out=str(tmp_path / "m.csv"))
        data["controllers"] = ["anytime"]
        assert main(["montecarlo", "--config", write_config(tmp_path, data, "c2.json")]) == 2

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


class TestModuleEntry:
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
