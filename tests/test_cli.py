import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coilsense import cli, ident, plant
from coilsense import signal as sig


@pytest.fixture(scope="module")
def cal_csv(tmp_path_factory):
    """Small noisy calibration dataset on disk."""
    tmp = tmp_path_factory.mktemp("data")
    scn = plant.Scenario(kind="calibration_grid",
                         p_levels=(0.0, 0.15, 0.3, 0.45, 0.6),
                         cycles_per_level=1, cycle_period_s=4.0,
                         x_low=0.1, x_high=0.17)
    ds = plant.run_scenario(scn, plant.default_plant_config(seed=2))
    path = str(tmp / "cal.csv")
    ident.write_csv(ds, path)
    return path


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestFit:
    def test_fit_dynamic(self, cal_csv, tmp_path):
        out = str(tmp_path / "out")
        rc = cli.main(["--out", out, "fit", "--model", "dynamic", "--data", cal_csv])
        assert rc == 0
        doc = json.load(open(os.path.join(out, "dynamic_params.json")))
        assert set(doc) == {"k", "x0", "c"}
        assert doc["k"] == pytest.approx(38.6, rel=0.25)
        rep = json.load(open(os.path.join(out, "fit_dynamic_report.json")))
        assert rep["converged"] is True

    def test_fit_inductance(self, cal_csv, tmp_path):
        out = str(tmp_path / "out")
        rc = cli.main(["--out", out, "fit", "--model", "inductance", "--data", cal_csv])
        assert rc == 0
        doc = json.load(open(os.path.join(out, "inductance_params.json")))
        assert len(doc["p"]) == 10
        rep = json.load(open(os.path.join(out, "fit_inductance_report.json")))
        assert rep["r2"] > 0.95

    def test_missing_force_column(self, tmp_path):
        path = tmp_path / "noF.csv"
        path.write_text("t,P,L\n0,0,5\n0.01,0,5\n")
        rc = cli.main(["--out", str(tmp_path / "o"), "fit", "--model", "inductance",
                       "--data", str(path)])
        assert rc == cli.EXIT_DATA

    def test_empty_csv(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        rc = cli.main(["--out", str(tmp_path / "o"), "fit", "--model", "dynamic",
                       "--data", str(path)])
        assert rc == cli.EXIT_DATA

    def test_missing_file(self, tmp_path):
        rc = cli.main(["--out", str(tmp_path / "o"), "fit", "--model", "dynamic",
                       "--data", str(tmp_path / "nope.csv")])
        assert rc == cli.EXIT_DATA


class TestEstimate:
    def test_with_truth(self, cal_csv, tmp_path):
        out = str(tmp_path / "out")
        rc = cli.main(["--out", out, "estimate", "--data", cal_csv])
        assert rc == 0
        est = ident.read_csv(os.path.join(out, "estimates.csv"))
        assert est is not None
        truth = ident.read_csv(cal_csv)
        assert len(est) == len(truth)
        assert np.array_equal(est.F, truth.F)
        for name in ("F_hat", "x_hat"):
            assert est.extra[name].shape == (len(est),)
            assert np.all(np.isfinite(est.extra[name]))

    def test_estimates_csv_has_new_columns(self, cal_csv, tmp_path):
        out = str(tmp_path / "out")
        assert cli.main(["--out", out, "estimate", "--data", cal_csv]) == 0
        header = open(os.path.join(out, "estimates.csv")).readline().strip().split(",")
        assert header == ["t", "P", "L", "F", "x", "F_hat", "x_hat"]
        doc = json.load(open(os.path.join(out, "estimate_metrics.json")))
        assert doc["force"]["nrmse"] < 100.0
        assert "force_reversal_windows" in doc

    def test_without_truth_marked_unavailable(self, tmp_path):
        scn = plant.Scenario(kind="cyclic_estimation", p_levels=(0.0, 0.3),
                             cycles_per_level=1, cycle_period_s=2.0,
                             x_low=0.072, x_high=0.17)
        ds = plant.run_scenario(scn, plant.default_plant_config(seed=1))
        bare = ident.Dataset(t=ds.t, P=ds.P, L=ds.L)
        path = str(tmp_path / "bare.csv")
        ident.write_csv(bare, path)
        out = str(tmp_path / "out")
        rc = cli.main(["--out", out, "estimate", "--data", path])
        assert rc == 0
        doc = json.load(open(os.path.join(out, "estimate_metrics.json")))
        assert "unavailable" in doc["force"]
        assert "unavailable" in doc["displacement"]

    def test_rerun_byte_identical(self, cal_csv, tmp_path):
        out = str(tmp_path / "out")
        assert cli.main(["--out", out, "estimate", "--data", cal_csv]) == 0
        first = {f: read_bytes(os.path.join(out, f)) for f in os.listdir(out)}
        assert cli.main(["--out", out, "estimate", "--data", cal_csv]) == 0
        second = {f: read_bytes(os.path.join(out, f)) for f in os.listdir(out)}
        assert first == second

    def test_nan_inductance_is_a_data_error(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("t,P,L\n0,0,5\n0.01,0,nan\n0.02,0,5\n")
        rc = cli.main(["--out", str(tmp_path / "o"), "estimate", "--data", str(path)])
        assert rc == cli.EXIT_DATA

    def test_out_of_envelope_inductance_is_a_data_error(self, tmp_path, capsys):
        path = tmp_path / "spike.csv"
        path.write_text("t,P,L\n0,0,5\n0.01,0,5\n0.02,0,1e9\n0.03,0,5\n")
        out = tmp_path / "o"
        rc = cli.main(["--out", str(out), "estimate", "--data", str(path)])
        assert rc == cli.EXIT_DATA
        assert "row 3 " in capsys.readouterr().err
        assert not out.exists()

    def test_filter_rate_must_match_data(self, cal_csv, tmp_path, capsys):
        cfg_path = str(tmp_path / "cfg.json")
        json.dump({"plant": {"sensor_rate_hz": 200}}, open(cfg_path, "w"))
        out = tmp_path / "o"
        rc = cli.main(["--config", cfg_path, "--out", str(out), "estimate", "--data", cal_csv])
        assert rc == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "200 Hz" in err and "100 Hz" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--fs", "--fc", "--order"])
    def test_filter_flags_are_gone(self, cal_csv, tmp_path, flag):
        out = tmp_path / "o"
        rc = cli.main(["--out", str(out), "estimate", "--data", cal_csv, flag, "100"])
        assert rc == cli.EXIT_USAGE
        assert not out.exists()

    def test_non_monotonic_timestamps(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,P,L\n0,0,5\n0,0,5\n")
        rc = cli.main(["--out", str(tmp_path / "o"), "estimate", "--data", str(path)])
        assert rc == cli.EXIT_DATA


class TestSimulateTrackPerturb:
    def test_simulate(self, tmp_path):
        cfg = {"scenarios": [{"kind": "cyclic_estimation", "cycle_period_s": 2.0}],
               "seed": 3}
        cfg_path = str(tmp_path / "cfg.json")
        json.dump(cfg, open(cfg_path, "w"))
        out = str(tmp_path / "out")
        rc = cli.main(["--config", cfg_path, "--out", out, "simulate"])
        assert rc == 0
        ds = ident.read_csv(os.path.join(out, "cyclic_estimation.csv"))
        assert len(ds) == 14 * 200

    def test_unknown_scenario_kind_fails_before_output(self, tmp_path):
        cfg_path = str(tmp_path / "cfg.json")
        json.dump({"scenarios": [{"kind": "nonsense"}]}, open(cfg_path, "w"))
        out = str(tmp_path / "out")
        rc = cli.main(["--config", cfg_path, "--out", out, "simulate"])
        assert rc == cli.EXIT_USAGE
        assert not os.path.exists(out)

    def test_scenario_shorter_than_one_sample_fails_before_output(self, tmp_path, capsys):
        # it used to write a header-only CSV that read_csv then rejects
        cfg_path = str(tmp_path / "cfg.json")
        json.dump({"scenarios": [{"kind": "isobaric_sweep", "cycles": 1,
                                  "cycle_period_s": 1e-9}]}, open(cfg_path, "w"))
        out = str(tmp_path / "out")
        rc = cli.main(["--config", cfg_path, "--out", out, "simulate"])
        assert rc == cli.EXIT_USAGE
        assert "shorter than one sample" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("kind, duration_s", [
        ("force_tracking", 1e-9), ("force_tracking", 0.03), ("displacement_tracking", 1e-9)])
    def test_tracking_window_under_two_samples_fails_before_output(self, tmp_path, capsys,
                                                                   kind, duration_s):
        # the tracking metrics need 2 samples; a shorter window used to end
        # in a traceback from ident.goodness
        cfg_path = str(tmp_path / "cfg.json")
        json.dump({"scenarios": [{"kind": kind, "duration_s": duration_s}]}, open(cfg_path, "w"))
        out = str(tmp_path / "out")
        rc = cli.main(["--config", cfg_path, "--out", out, "track"])
        assert rc == cli.EXIT_USAGE
        assert "fewer than 2 samples" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_tracking_window_of_two_samples_runs(self, tmp_path):
        # 4 samples at 100 Hz; the window starts at half the run
        cfg_path = str(tmp_path / "cfg.json")
        json.dump({"scenarios": [{"kind": "force_tracking", "duration_s": 0.04}]},
                  open(cfg_path, "w"))
        out = tmp_path / "out"
        assert cli.main(["--config", cfg_path, "--out", str(out), "track"]) == 0
        doc = json.load(open(out / "tracking_metrics.json"))
        assert len(doc["rows"]) == 3

    def test_unknown_config_key(self, tmp_path):
        cfg_path = str(tmp_path / "cfg.json")
        json.dump({"scenariso": []}, open(cfg_path, "w"))
        assert cli.main(["--config", cfg_path, "simulate"]) == cli.EXIT_USAGE

    def test_track_and_report(self, tmp_path):
        cfg = {"seed": 0,
               "scenarios": [{"kind": "force_tracking", "waveform": "sine",
                              "frequency_hz": 0.2, "duration_s": 10.0}]}
        cfg_path = str(tmp_path / "cfg.json")
        json.dump(cfg, open(cfg_path, "w"))
        out = str(tmp_path / "out")
        rc = cli.main(["--config", cfg_path, "--out", out, "track"])
        assert rc == 0
        table = open(os.path.join(out, "tracking_table.txt")).read()
        for mode in ("open_loop", "sensor_fb", "self_sensing"):
            assert mode in table
            assert os.path.exists(os.path.join(out, f"force_sine_0.2Hz_{mode}.csv"))
        doc = json.load(open(os.path.join(out, "tracking_metrics.json")))
        assert len(doc["rows"]) == 3
        assert doc["provenance"]["seed"] == 0
        rc = cli.main(["--config", cfg_path, "--out", out, "report"])
        assert rc == 0
        rep = json.load(open(os.path.join(out, "report.json")))
        assert "tracking_metrics" in rep["sections"]

    def test_perturb(self, tmp_path):
        cfg = {"seed": 1,
               "scenarios": [{"kind": "load_perturbation", "duration_s": 20.0,
                              "magnitudes": [0.2, -0.2]}]}
        cfg_path = str(tmp_path / "cfg.json")
        json.dump(cfg, open(cfg_path, "w"))
        out = str(tmp_path / "out")
        rc = cli.main(["--config", cfg_path, "--out", out, "perturb"])
        assert rc == 0
        doc = json.load(open(os.path.join(out, "perturb_summary.json")))
        assert set(doc["estimation"]) == {"max_abs_error", "rmse", "drift"}

    @pytest.mark.parametrize("command,gains", [("track", "force_gains"),
                                               ("perturb", "disp_gains")])
    def test_pid_rate_must_match_control_rate(self, tmp_path, capsys, command, gains):
        # the PID runs at plant.control_rate_hz; a gain block has no rate to state
        cfg = {"controller": {gains: {"kp": 0.3, "ki": 1.2, "kd": 0.05, "rate_hz": 10}},
               "scenarios": [{"kind": "force_tracking", "duration_s": 2.0},
                             {"kind": "load_perturbation", "duration_s": 5.0,
                              "magnitudes": [0.2]}]}
        cfg_path = str(tmp_path / "cfg.json")
        json.dump(cfg, open(cfg_path, "w"))
        out = tmp_path / "out"
        assert cli.main(["--config", cfg_path, "--out", str(out), command]) == cli.EXIT_USAGE
        assert f"controller.{gains}: unknown keys ['rate_hz']" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("doc,key", [
        ({"controller": {"force_gains": {"kP": 0.3}}}, "'kP'"),
        ({"filter": {"cutoff_hz": 50}}, "Nyquist"),
        ({"plant": {"sensor_rate_hz": 20, "control_rate_hz": 20}}, "Nyquist"),
        ({"seed": -1}, "seed must be >= 0"),
        ({"filter": {"order": 2.5}}, "filter.order"),
        ({"plant": {"noise_L": True}}, "plant.noise_L"),
        ({"envelope": {"F_max": "5"}}, "envelope.F_max"),
        ({"observer": {"grid_points": 3}}, "grid_points"),
        ({"observer": {"sigma_F": -0.05}}, "sigma_F"),
        ({"observer": {"gradient_guard_inflation": -10.0}}, "gradient_guard_inflation")],
        ids=["gain_typo", "cutoff_at_nyquist", "cutoff_at_plant_nyquist", "negative_seed",
             "fractional_order", "boolean_scalar", "string_scalar", "coarse_grid",
             "negative_sigma_F", "negative_guard_inflation"])
    def test_config_rejected_before_output(self, tmp_path, capsys, doc, key):
        cfg_path = str(tmp_path / "cfg.json")
        json.dump(doc, open(cfg_path, "w"))
        out = tmp_path / "out"
        assert cli.main(["--config", cfg_path, "--out", str(out), "simulate"]) == cli.EXIT_USAGE
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("doc", [
        {"controller": {"force_gains": 5}}, {"controller": 5}, {"plant": 5},
        {"filter": 5}, {"observer": 5}, {"paths": 5}, {"scenarios": 5},
        {"envelope": [1]}, {"seed": "abc"}, {"controller": {"p_max": "x"}},
        {"plant": {"noise_L": "x"}}, {"envelope": {"F_max": "x"}}],
        ids=["force_gains", "controller", "plant", "filter", "observer", "paths",
             "scenarios", "envelope", "seed", "p_max", "noise_L", "F_max"])
    def test_malformed_block_is_a_config_error(self, tmp_path, doc):
        cfg_path = str(tmp_path / "cfg.json")
        json.dump(doc, open(cfg_path, "w"))
        out = tmp_path / "out"
        assert cli.main(["--config", cfg_path, "--out", str(out), "track",
                         "--scenario", "force_sine_0.2Hz"]) == cli.EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("command", ["track", "perturb"])
    def test_filter_rate_must_match_sensor_rate(self, tmp_path, capsys, command):
        # the filter runs at plant.sensor_rate_hz; the filter block has no rate to state
        cfg_path = str(tmp_path / "cfg.json")
        json.dump({"plant": {"sensor_rate_hz": 200}, "filter": {"sample_rate_hz": 100}},
                  open(cfg_path, "w"))
        out = tmp_path / "out"
        assert cli.main(["--config", cfg_path, "--out", str(out), command]) == cli.EXIT_USAGE
        assert "filter: unknown keys ['sample_rate_hz']" in capsys.readouterr().err
        assert not out.exists()

    def test_filter_rate_follows_sensor_rate(self, tmp_path, monkeypatch):
        rates = []
        design = sig.design
        monkeypatch.setattr(sig, "design", lambda spec, rate: rates.append(rate) or
                            design(spec, rate))
        cfg = {"plant": {"sensor_rate_hz": 200},
               "scenarios": [{"kind": "force_tracking", "duration_s": 2.0},
                             {"kind": "load_perturbation", "duration_s": 5.0,
                              "magnitudes": [0.2]}]}
        cfg_path = str(tmp_path / "cfg.json")
        json.dump(cfg, open(cfg_path, "w"))
        for command in ("track", "perturb"):
            assert cli.main(["--config", cfg_path, "--out", str(tmp_path / "out"),
                             command]) == 0
        # one design per settled loop: track settles its mode group once
        assert len(rates) == 2 and set(rates) == {200.0}

    def test_pid_rate_defaults_to_control_rate(self, tmp_path):
        # a gain block without rate_hz (track) and the built-in gains (perturb)
        cfg = {"plant": {"control_rate_hz": 50.0},
               "controller": {"force_gains": {"kp": 0.3, "ki": 1.2, "kd": 0.05}},
               "scenarios": [{"kind": "force_tracking", "duration_s": 2.0},
                             {"kind": "load_perturbation", "duration_s": 5.0,
                              "magnitudes": [0.2]}]}
        cfg_path = str(tmp_path / "cfg.json")
        json.dump(cfg, open(cfg_path, "w"))
        for command in ("track", "perturb"):
            assert cli.main(["--config", cfg_path, "--out", str(tmp_path / "out"),
                             command]) == 0

    def test_observer_noise_key_overrides_plant(self, cal_csv, tmp_path):
        cfg = {"seed": 1, "observer": {"noise_L": 0.02},
               "scenarios": [{"kind": "load_perturbation", "duration_s": 20.0,
                              "magnitudes": [0.2, -0.2]}]}
        cfg_path = str(tmp_path / "cfg.json")
        json.dump(cfg, open(cfg_path, "w"))
        for argv in (["estimate", "--data", cal_csv], ["perturb"]):
            out = str(tmp_path / argv[0])
            assert cli.main(["--config", cfg_path, "--out", out, *argv]) == 0

    def test_track_and_perturb_rerun_byte_identical(self, tmp_path):
        cfg = {"seed": 2,
               "scenarios": [{"kind": "force_tracking", "waveform": "sine",
                              "frequency_hz": 0.2, "duration_s": 10.0},
                             {"kind": "load_perturbation", "duration_s": 20.0,
                              "magnitudes": [0.2, -0.2]}]}
        cfg_path = str(tmp_path / "cfg.json")
        json.dump(cfg, open(cfg_path, "w"))
        runs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            for command in ("track", "perturb"):
                assert cli.main(["--config", cfg_path, "--out", out, command]) == 0
            runs.append({f: read_bytes(os.path.join(out, f))
                         for f in sorted(os.listdir(out))
                         if f.endswith((".csv", ".json"))})
        assert sorted(runs[0]) == [
            "force_sine_0.2Hz_open_loop.csv", "force_sine_0.2Hz_self_sensing.csv",
            "force_sine_0.2Hz_sensor_fb.csv", "perturb_summary.json", "perturbation.csv",
            "tracking_metrics.json"]
        assert runs[0] == runs[1]


#: Paths of the numeric config scalars, and JSON values of every kind.
SCALAR_PATHS = [("seed",), ("plant", "noise_L"), ("plant", "valve_tau"),
                ("plant", "sensor_rate_hz"), ("plant", "control_rate_hz"),
                ("envelope", "F_max"), ("envelope", "P_min"), ("envelope", "L_max"),
                ("filter", "order"), ("filter", "cutoff_hz"), ("observer", "grid_points"),
                ("observer", "sigma_F"), ("observer", "refine_tol"),
                ("observer", "gradient_guard_inflation"),
                ("controller", "p_max"), ("controller", "force_gains", "kp"),
                ("controller", "disp_gains", "kd")]
JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                        st.text(max_size=4), st.lists(st.integers(), max_size=2))


@pytest.mark.parametrize("path", SCALAR_PATHS, ids=".".join)
@settings(max_examples=150, deadline=None, database=None)
@given(value=JSON_VALUES)
def test_validate_config_raises_only_config_error(path, value):
    cfg = cli.default_config()
    node = cfg
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    try:
        cli.validate_config(cfg)
    except cli.ConfigError:
        pass


def run_python(*args):
    """The interpreter, with the package these tests import on its path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def run_module(*args):
    """``python -m coilsense.cli`` on the package these tests import."""
    return run_python("-m", "coilsense.cli", *args)


class TestEntryPoint:
    def test_import_loads_no_scipy(self):
        # scipy is a test dependency only; importing scipy.signal alone
        # would add more than a second to every command
        proc = run_python("-c", "import sys, coilsense.cli; "
                                "print(sorted(m for m in sys.modules "
                                "if m == 'scipy' or m.startswith('scipy.')))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_module_help(self):
        proc = run_module("--help")
        assert proc.returncode == 0
        for sub in ("fit", "estimate", "simulate", "track", "perturb", "report"):
            assert sub in proc.stdout

    def test_usage_error_exit_code(self):
        proc = run_module("frobnicate")
        assert proc.returncode == cli.EXIT_USAGE
        assert "usage: coilsense" in proc.stderr

    def test_jobs_flag_is_gone(self):
        assert cli.main(["--jobs", "2", "track"]) == cli.EXIT_USAGE
