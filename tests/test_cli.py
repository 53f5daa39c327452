import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import etac
from etac.cli import (
    ConfigError,
    ExperimentConfig,
    InitSpec,
    PlantSelector,
    RhoGrid,
    emit_config,
    main,
    parse_config,
    run_paired_cells,
)
from etac.domain import NoiseSpec, StochasticEnv


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
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
#: misses its mass target within PMF_MAX_TERMS terms.
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
        "x0": {"kind": "fixed", "value": [4.0]},
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


NAN = float("nan")
SIMULATE = ["simulate"]
POOL = ["montecarlo", "--threads", "2"]

#: Inputs that must leave through main's single exit: code 2, a config error, no
#: traceback.  The first nine break the number rule (json reads ``NaN``, and an
#: int literal too large for a float); the last three are library checks, two
#: of them raised in a pool worker.
REJECTED_INPUTS = {
    "x0-string-entry": (SIMULATE, {**decay_config(), "x0": {"kind": "fixed", "value": ["a"]}}),
    "x0-nested-list": (SIMULATE, {**decay_config(), "x0": {"kind": "fixed", "value": [[1.0, 2.0]]}}),
    "p-booleans": (SIMULATE, {**decay_config(), "env": {"q": 1.0, "p": [True, False], "capacity": 1}}),
    "p-strings": (SIMULATE, {**decay_config(), "env": {"q": 1.0, "p": ["0.5", "0.5"], "capacity": 1}}),
    "d-nan": (SIMULATE, {**decay_config(), "d": NAN}),
    "d-sweep-nan": (SIMULATE, {**decay_config(), "d_sweep": [0.0, NAN]}),
    "noise-std-nan": (SIMULATE, {**decay_config(), "noise": {"kind": "gaussian-iid", "std": NAN}}),
    "gain-nan": (SIMULATE, {**decay_config(), "plant": {"kind": "scalar", "a": 2.0, "gain": NAN}}),
    "d-int-beyond-float": (SIMULATE, {**decay_config(), "d": 10**400}),
    "x0-wrong-length": (SIMULATE, {**decay_config(), "x0": {"kind": "fixed", "value": [1.0, 2.0]}}),
    "unstable-plant-in-worker": (
        POOL, {**montecarlo_config(trials=4), "plant": {"kind": "scalar", "a": 2.0, "gain": 0.5}}
    ),
    "x0-wrong-length-in-worker": (
        POOL, {**montecarlo_config(trials=4), "x0": {"kind": "fixed", "value": [1.0]}}
    ),
}


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
            x0=InitSpec(kind="fixed", value=(3.0,)),
            out="results.csv",
            rho_grid=RhoGrid(0.05, 0.9, 18),
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

    @pytest.mark.parametrize("command, data", REJECTED_INPUTS.values(), ids=REJECTED_INPUTS.keys())
    def test_rejected_input_leaves_through_config_error(self, tmp_path, capfd, command, data):
        path = write_config(tmp_path, data)
        assert main([*command, "--config", path, "--out", str(tmp_path / "out.csv")]) == 2
        err = capfd.readouterr().err  # fd-level, so worker processes' stderr is seen too
        assert err.startswith("config error:")
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


    @pytest.mark.parametrize("env", [SLOW_RETURN_ENV, NO_RETURN_ENV], ids=["slow", "never"])
    def test_degenerate_env_is_config_error(self, tmp_path, capsys, env):
        data = {"plant": {"kind": "saturated"}, "env": env, "out": str(tmp_path / "curves.csv")}
        assert main(["analyze", "--config", write_config(tmp_path, data)]) == 2
        assert "config error:" in capsys.readouterr().err


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
        data["x0"] = {"kind": "fixed", "value": [0.0]}
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
        assert open(out_a, "rb").read() == open(out_b, "rb").read()

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
        bytes_a = open(out_a, "rb").read()
        assert bytes_a == open(out_b, "rb").read()
        assert bytes_a == open(out_c, "rb").read()

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
            "x0": {"kind": "fixed", "value": [1000.0]},
            "out": str(tmp_path / "mc.csv"),
        }
        assert main(["montecarlo", "--config", write_config(tmp_path, data)]) == 1
        assert "diverged" in capsys.readouterr().err


class TestModuleEntry:
    def test_python_dash_m(self, tmp_path):
        out = str(tmp_path / "curves.csv")
        path = write_config(tmp_path, boundary_config(out=out))
        # The child imports etac from where this process did, which may be only
        # on sys.path (pytest's ``pythonpath`` setting), not on PYTHONPATH.
        src = os.path.dirname(os.path.dirname(etac.__file__))
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "etac", "analyze", "--config", path],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": pythonpath},
        )
        assert proc.returncode == 0
        assert "gamma=" in proc.stdout
