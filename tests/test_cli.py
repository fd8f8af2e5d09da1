import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coilsense import cli, ident, model, plant
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

    def test_fit_inductance_reports_its_screen(self, cal_csv, tmp_path):
        # the 25,200-row grid screens every 6th row and polishes its one
        # basin; a short file and one whose every 2nd row holds one
        # pressure level screen on all rows and polish nothing
        grid = str(tmp_path / "grid.csv")
        ident.write_csv(plant.run_scenario(plant.Scenario.calibration_grid(),
                                           plant.default_plant_config(seed=1)), grid)
        n = 2 * ident.SCREEN_ROWS
        i = np.arange(n)
        P = np.where(i % 2 == 0, 0.3, np.array([0.0, 0.15, 0.45, 0.6])[(i // 2) % 4])
        F = 4.5 * (0.5 - 0.5 * np.cos(2 * np.pi * i / 997.0))
        L = model.eval_inductance(plant.reference_inductance_params(), F, P)
        alternating = str(tmp_path / "alternating.csv")
        ident.write_columns(alternating, {"t": i * 0.01, "P": P, "L": L + 0.002 * np.sin(i), "F": F})
        short = len(ident.read_csv(cal_csv))
        assert short < ident.SCREEN_ROWS
        for data, screen_rows, polished in ((grid, 4200, 1), (cal_csv, short, 0),
                                            (alternating, n, 0)):
            out = tmp_path / ("out_" + os.path.basename(data))
            rc = cli.main(["--out", str(out), "fit", "--model", "inductance", "--data", data])
            assert rc == cli.EXIT_OK
            rep = json.load(open(out / "fit_inductance_report.json"))
            assert (rep["screen_rows"], rep["polished"]) == (screen_rows, polished)
            assert rep["converged"] is True

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


def degenerate_csv(path, **columns):
    """A 40-row fit dataset (four pressure levels, an affine force and a
    smooth inductance) with the given columns replaced."""
    n = 40
    x = np.linspace(0.10, 0.17, n)
    P = np.tile([0.0, 0.2, 0.4, 0.6], n // 4)
    F = 38.6 * (x - 0.1) + 1.63 * P
    cols = {"t": np.arange(n) * 0.01, "P": P, "L": 4.8 + 0.1 * F - 0.01 * F ** 2 + 0.1 * P,
            "F": F, "x": x}
    cols.update({name: make(cols) for name, make in columns.items()})
    ident.write_columns(str(path), cols)
    return str(path)


#: Datasets each fit used to end on in a traceback (or, for the last,
#: with rmse = inf and exit 0), and a word of the message that names why.
DEGENERATE_FITS = {
    "zero_force": ("dynamic", {"F": lambda c: np.zeros(40)}, "F is constant"),
    "constant_inductance": ("inductance", {"L": lambda c: np.full(40, 5.0)}, "L is constant"),
    "inductance_near_1e300": ("inductance", {"L": lambda c: 1e300 * (1.0 + 0.01 * c["F"])},
                              "out of range"),
    "negative_force": ("dynamic", {"F": lambda c: -c["F"] - 1.0}, "not physical"),
    "force_near_1e300": ("dynamic",
                         {"F": lambda c: 1e300 * (c["F"] + 0.01 * np.sin(c["t"] * 100))},
                         "overflow"),
}


class TestFitDegenerateData:
    @pytest.mark.parametrize("case", list(DEGENERATE_FITS))
    def test_is_a_data_error_before_any_write(self, tmp_path, capsys, case):
        kind, columns, cause = DEGENERATE_FITS[case]
        data = degenerate_csv(tmp_path / "d.csv", **columns)
        out = tmp_path / "o"
        rc = cli.main(["--out", str(out), "fit", "--model", kind, "--data", data])
        assert rc == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("data error: ") and cause in err
        assert not out.exists()

    def test_the_clean_dataset_fits(self, tmp_path):
        data = degenerate_csv(tmp_path / "d.csv")
        assert cli.main(["--out", str(tmp_path / "o"), "fit", "--model", "dynamic",
                         "--data", data]) == cli.EXIT_OK


def _map_with(**entries):
    """The reference map's JSON file text with some of its ten entries replaced."""
    p = list(plant.reference_inductance_params().p)
    for i, v in entries.items():
        p[int(i[1:])] = v
    return json.dumps({"p": p})


#: A map whose powers overflow inside the envelope: F**800 passes 1e308
#: above about 2.4 N.
POWER_800_MAP = [0.0, 0.6, 0.0, 800.0, 0.0, -1.0, 0.0, 800.0, 0.0, 4.75]

#: A map whose terms are bounded but whose median |dL/dF| over the
#: envelope is 0 (exp(-1000 F) vanishes), so it gives the observer no R.
FLAT_MAP = [0.0, 0.6, 0.0, 1.3, 0.0, -1000.0, 0.0, 1.0, 0.0, 4.75]

#: A map whose median |dL/dF| over the envelope is about 1e-297, so small
#: that R = (noise_L / gradient)**2 leaves the float range.
NEARLY_FLAT_MAP = [0.0, 0.6, 0.0, 1.3, 0.0, -285.0, 0.0, 1.0, 0.0, 4.75]

#: A filter block whose design is unstable at the default 100 Hz.
UNSTABLE_FILTER = {"order": 3, "cutoff_hz": 1e-9}

#: Parameter files named in ``paths`` that ``estimate`` rejects: the
#: config key, the file's text and a word of the message that names why.
BAD_PARAMETER_FILES = {
    "map_not_json": ("inductance_params", "{p: [", "Expecting"),
    "map_without_p": ("inductance_params", '{"q": []}', "missing field 'p'"),
    "map_of_9": ("inductance_params", json.dumps({"p": [1.0] * 9}), "got 9"),
    "map_with_nan": ("inductance_params", _map_with(p9=math.nan), "finite"),
    "lambda1_zero": ("inductance_params", _map_with(p0=0.0, p1=0.0), "cannot use this map"),
    "lambda2_800": ("inductance_params", _map_with(p2=0.0, p3=800.0), "overflows"),
    "power_800": ("inductance_params", json.dumps({"p": POWER_800_MAP}), "overflows"),
    "flat_map": ("inductance_params", json.dumps({"p": FLAT_MAP}), "flat over the envelope"),
    "nearly_flat_map": ("inductance_params", json.dumps({"p": NEARLY_FLAT_MAP}),
                        "nearly flat over the envelope"),
    "lambda2_negative": ("inductance_params", _map_with(p2=0.0, p3=-1.0),
                         "lambda2=-1.0"),
    "dynamic_without_x0": ("dynamic_params", '{"k": 38.6, "c": 1.6}', "missing field 'x0'"),
}


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

    def test_constant_force_marked_unavailable(self, tmp_path):
        # it used to write estimates.csv, then exit 2 without naming F
        scn = plant.Scenario(kind="cyclic_estimation", p_levels=(0.3,),
                             cycles_per_level=1, cycle_period_s=2.0,
                             x_low=0.1, x_high=0.17)
        ds = plant.run_scenario(scn, plant.default_plant_config(seed=1))
        assert len(ds) == 200
        zero = ident.Dataset(t=ds.t, P=ds.P, L=ds.L, F=np.zeros(len(ds)), x=ds.x)
        path = str(tmp_path / "zero.csv")
        ident.write_csv(zero, path)
        out = tmp_path / "out"
        assert cli.main(["--out", str(out), "estimate", "--data", path]) == cli.EXIT_OK
        assert sorted(os.listdir(out)) == ["estimate_metrics.json", "estimates.csv"]
        doc = json.load(open(out / "estimate_metrics.json"))
        assert doc["force"] == "unavailable (column F is constant)"
        assert isinstance(doc["displacement"], dict)
        assert "force_reversal_windows" not in doc

    def test_metrics_count_the_reseeds(self, tmp_path):
        # the 4 s stretch cycle at seed 0 re-seeds the estimate twice
        scn = plant.Scenario.cyclic_estimation(cycle_period_s=4.0)
        pcfg = plant.default_plant_config(seed=0)
        path = str(tmp_path / "cycle.csv")
        ident.write_csv(plant.run_scenario(scn, pcfg), path)
        out = tmp_path / "out"
        assert cli.main(["--out", str(out), "estimate", "--data", path]) == cli.EXIT_OK
        doc = json.load(open(out / "estimate_metrics.json"))
        assert doc["observer"] == {"reseeds": 2}

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

    def test_one_row_is_a_data_error(self, cal_csv, tmp_path, capsys):
        # it used to write estimates.csv, then end in a traceback from
        # ident.goodness
        with open(cal_csv) as fh:
            header, row = fh.readline(), fh.readline()
        path = tmp_path / "one.csv"
        path.write_text(header + row)
        out = tmp_path / "o"
        rc = cli.main(["--out", str(out), "estimate", "--data", str(path)])
        assert rc == cli.EXIT_DATA
        assert "at least 2 data rows, got 1" in capsys.readouterr().err
        assert not out.exists()

    def test_out_of_envelope_pressure_is_a_data_error(self, tmp_path, capsys):
        # it used to surface from the observer's per-sample check as a
        # config error (exit 1)
        path = tmp_path / "high.csv"
        path.write_text("t,P,L\n0,0,5\n0.01,0.9,5\n0.02,0.3,5\n0.03,0.7,5\n")
        out = tmp_path / "o"
        rc = cli.main(["--out", str(out), "estimate", "--data", str(path)])
        assert rc == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "row 2 " in err and "pressure 0.9 MPa" in err and "2 rows outside" in err
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

    @pytest.mark.parametrize("case", list(BAD_PARAMETER_FILES))
    def test_bad_parameter_file_is_a_data_error(self, cal_csv, tmp_path, capsys, case):
        # each used to end in a traceback, or (lambda2 < 0) to run to exit 0
        key, text, cause = BAD_PARAMETER_FILES[case]
        params = tmp_path / "params.json"
        params.write_text(text)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"paths": {key: str(params)}}))
        out = tmp_path / "o"
        rc = cli.main(["--config", str(cfg_path), "--out", str(out), "estimate",
                       "--data", cal_csv])
        assert rc == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"data error: paths.{key}: ")
        assert str(params) in err and cause in err
        assert not out.exists()


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

    def test_narrowed_envelope_runs_every_command(self, tmp_path):
        # the loops' pressure limit follows the envelope unless it is set,
        # so a config that only narrows the envelope runs every command
        cfg = {"envelope": {"P_max": 0.6},
               "scenarios": [{"kind": "cyclic_estimation", "cycle_period_s": 2.0},
                             {"kind": "force_tracking", "duration_s": 2.0}]}
        cfg_path = str(tmp_path / "cfg.json")
        json.dump(cfg, open(cfg_path, "w"))
        out = str(tmp_path / "out")
        assert cli.main(["--config", cfg_path, "--out", out, "simulate"]) == 0
        # the rows before the cycle's pressure first leaves the envelope
        rows = open(os.path.join(out, "cyclic_estimation.csv")).read().splitlines()
        low = [rows[0]]
        for row in rows[1:]:
            if float(row.split(",")[1]) > 0.6:
                break
            low.append(row)
        assert 1000 < len(low) < len(rows)
        data = tmp_path / "low.csv"
        data.write_text("\n".join(low) + "\n")
        assert cli.main(["--config", cfg_path, "--out", out, "estimate",
                         "--data", str(data)]) == 0
        assert cli.main(["--config", cfg_path, "--out", out, "track"]) == 0
        for mode in ("open_loop", "sensor_fb", "self_sensing"):
            run = np.genfromtxt(os.path.join(out, f"force_sine_0.2Hz_{mode}.csv"),
                                delimiter=",", names=True)
            assert 0.0 < run["command"].max() <= 0.6

    def test_raised_lowest_pressure_runs_track(self, tmp_path):
        # the loops clamp their commands to the envelope's pressures, so a
        # force the actuator reaches only below P_min saturates there and
        # the observer never reads a pressure outside the envelope
        cfg = {"envelope": {"P_min": 0.1},
               "scenarios": [{"kind": "force_tracking", "waveform": "sine", "center": 0.3,
                              "amplitude": 0.25, "duration_s": 10.0}]}
        cfg_path = str(tmp_path / "cfg.json")
        json.dump(cfg, open(cfg_path, "w"))
        out = str(tmp_path / "out")
        assert cli.main(["--config", cfg_path, "--out", out, "track"]) == 0
        for mode in ("open_loop", "sensor_fb", "self_sensing"):
            run = np.genfromtxt(os.path.join(out, f"force_sine_0.2Hz_{mode}.csv"),
                                delimiter=",", names=True)
            assert run["command"].min() >= 0.1

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

    @pytest.mark.parametrize("command, kind, duration_s", [
        ("track", "displacement_tracking", 3.0), ("perturb", "load_perturbation", 2.0),
        ("perturb", "load_perturbation", 3.8)])
    def test_run_shorter_than_its_load_profile_fails_before_output(self, tmp_path, capsys,
                                                                   command, kind, duration_s):
        # load events fall in [3 s, 0.78 x duration]; a shorter run used to
        # end in a traceback from plant.perturbation_load_profile
        cfg_path = str(tmp_path / "cfg.json")
        json.dump({"scenarios": [{"kind": kind, "duration_s": duration_s}]}, open(cfg_path, "w"))
        out = str(tmp_path / "out")
        rc = cli.main(["--config", cfg_path, "--out", out, command])
        assert rc == cli.EXIT_USAGE
        assert "shorter than its load profile needs" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command, scenario", [
        ("track", {"kind": "force_tracking", "duration_s": 600.0}),
        ("perturb", {"kind": "load_perturbation", "duration_s": 600.0})])
    def test_preroll_without_a_sample_fails_before_output(self, tmp_path, capsys,
                                                          command, scenario):
        # at 0.1 Hz the 3 s pre-roll rounds to no sample; it used to end in
        # a traceback and leave an empty output directory
        cfg_path = str(tmp_path / "cfg.json")
        json.dump({"plant": {"sensor_rate_hz": 0.1, "control_rate_hz": 0.1},
                   "filter": {"cutoff_hz": 0.01}, "scenarios": [scenario]},
                  open(cfg_path, "w"))
        out = str(tmp_path / "out")
        rc = cli.main(["--config", cfg_path, "--out", out, command])
        assert rc == cli.EXIT_USAGE
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: the 3 s pre-roll")
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
        ({"filter": UNSTABLE_FILTER}, "filter: designed filter unstable"),
        ({"plant": {"sensor_rate_hz": 1e12, "control_rate_hz": 1e12}},
         "filter: designed filter unstable"),
        ({"plant": {"sensor_rate_hz": 20, "control_rate_hz": 20}}, "Nyquist"),
        ({"seed": -1}, "seed must be >= 0"),
        ({"filter": {"order": 2.5}}, "filter.order"),
        ({"plant": {"noise_L": True}}, "plant.noise_L"),
        ({"envelope": {"F_max": "5"}}, "envelope.F_max"),
        ({"observer": {"grid_points": 3}}, "grid_points"),
        ({"observer": {"sigma_F": -0.05}}, "sigma_F"),
        ({"plant": {"ind": {"p": POWER_800_MAP}}}, "observer: the inductance map overflows"),
        ({"plant": {"ind": {"p": FLAT_MAP}}}, "observer: the inductance map is flat"),
        ({"plant": {"ind": {"p": NEARLY_FLAT_MAP}}},
         "observer: the inductance map is nearly flat over the envelope"),
        ({"observer": {"gradient_guard_inflation": 10.0}},
         "observer: unknown keys ['gradient_guard_inflation']"),
        ({"paths": {"data": 0}}, "paths.data: expected a file name"),
        ({"scenarios": [{"kind": "force_tracking", "frequency_hz": 0.0}]}, "frequency_hz"),
        ({"scenarios": [{"kind": "displacement_tracking", "frequency_hz": 0.0}]},
         "frequency_hz"),
        ({"scenarios": [{"kind": "force_tracking", "frequency_hz": -0.2}]}, "frequency_hz"),
        ({"scenarios": [{"kind": "displacement_tracking", "frequency_hz": -0.2}]},
         "frequency_hz"),
        # runs longer than plant.MAX_RUN_SAMPLES, each refused before any array is made
        ({"scenarios": [{"kind": "force_tracking", "frequency_hz": 1e-9}]}, "a run may step"),
        ({"scenarios": [{"kind": "displacement_tracking", "frequency_hz": 1e-7}]},
         "a run may step"),
        ({"scenarios": [{"kind": "cyclic_estimation", "cycle_period_s": 1e12}]},
         "a run may step"),
        ({"scenarios": [{"kind": "calibration_grid", "cycle_period_s": 1e300}]},
         "a run may step"),
        ({"scenarios": [{"kind": "load_perturbation", "duration_s": math.inf}]},
         "duration must be positive and finite"),
        # a non-finite length is refused before any sample is simulated
        ({"scenarios": [{"kind": "calibration_grid", "x0": math.nan}]},
         "scenario lengths must be finite"),
        ({"scenarios": [{"kind": "calibration_grid", "x0": math.inf}]},
         "scenario lengths must be finite"),
        ({"scenarios": [{"kind": "isometric_sweep", "x0": math.inf}]},
         "scenario lengths must be finite"),
        ({"scenarios": [{"kind": "load_perturbation", "hold_x": math.nan}]},
         "scenario lengths must be finite"),
        # a non-finite value in any other float field is refused too, and named
        ({"scenarios": [{"kind": "load_perturbation", "p_cmd": math.nan}]},
         "scenario values must be finite, got p_cmd=nan"),
        ({"scenarios": [{"kind": "displacement_tracking", "center": math.nan,
                         "duration_s": 5.0}]}, "scenario values must be finite, got center=nan"),
        ({"scenarios": [{"kind": "load_perturbation", "magnitudes": [0.2, math.inf]}]},
         "got event_magnitudes=(0.2, inf)"),
        ({"scenarios": [{"kind": "force_tracking", "amplitude": -math.inf}]},
         "got amplitude=-inf"),
        ({"scenarios": [{"kind": "load_perturbation", "load": math.nan}]}, "got load=nan"),
        ({"scenarios": [{"kind": "load_perturbation", "ramp_s": math.nan}]},
         "got event_ramp_s=nan"),
        # a null in a field a kind reads is refused too, and named
        ({"scenarios": [{"kind": "force_tracking", "hold_x": None}]},
         "scenario field hold_x must be set for kind 'force_tracking', got None"),
        ({"scenarios": [{"kind": "force_tracking", "center": None}]}, "field center must be set"),
        ({"scenarios": [{"kind": "force_tracking", "amplitude": None}]},
         "field amplitude must be set"),
        ({"scenarios": [{"kind": "displacement_tracking", "load": None}]},
         "field load must be set"),
        ({"scenarios": [{"kind": "load_perturbation", "hold_x": None}]},
         "field hold_x must be set"),
        ({"scenarios": [{"kind": "load_perturbation", "load": None}]}, "field load must be set"),
        ({"scenarios": [{"kind": "load_perturbation", "ramp_s": None}]},
         "field event_ramp_s must be set"),
        ({"scenarios": [{"kind": "load_perturbation", "duration_s": None}]},
         "field duration_s must be set"),
        # the loops' pressure limit must lie in the envelope, where the observer reads it
        ({"controller": {"p_max": 0.9}},
         "controller: p_max 0.9 MPa outside the envelope's pressures [0.0, 0.65]"),
        ({"controller": {"p_max": -0.1}}, "controller: p_max -0.1 MPa outside"),
        ({"plant": {"sensor_rate_hz": 1e12, "control_rate_hz": 1e12},
          "filter": {"cutoff_hz": 1e10},
          "scenarios": [{"kind": "load_perturbation"}]}, "a run may step")],
        ids=["gain_typo", "cutoff_at_nyquist", "unstable_filter", "terahertz_default_filter",
             "cutoff_at_plant_nyquist", "negative_seed",
             "fractional_order", "boolean_scalar", "string_scalar", "coarse_grid",
             "negative_sigma_F", "power_800_plant_map", "flat_plant_map",
             "nearly_flat_plant_map", "removed_guard_key",
             "paths_entry_not_a_name", "zero_force_frequency",
             "zero_disp_frequency", "negative_force_frequency", "negative_disp_frequency",
             "nanohertz_force_tracking", "slow_disp_tracking", "long_cycles",
             "huge_calibration_cycles", "infinite_perturbation", "nan_calibration_length",
             "infinite_calibration_length", "infinite_isometric_length", "nan_hold_length",
             "nan_command_pressure", "nan_reference_center", "infinite_load_event",
             "infinite_amplitude", "nan_load", "nan_event_ramp", "null_force_hold_length",
             "null_force_center", "null_force_amplitude", "null_disp_load",
             "null_perturbation_hold_length", "null_perturbation_load",
             "null_perturbation_ramp", "null_perturbation_duration", "p_max_above_envelope",
             "negative_p_max", "terahertz_plant"])
    def test_config_rejected_before_output(self, tmp_path, capsys, doc, key):
        cfg_path = str(tmp_path / "cfg.json")
        json.dump(doc, open(cfg_path, "w"))
        out = tmp_path / "out"
        assert cli.main(["--config", cfg_path, "--out", str(out), "simulate"]) == cli.EXIT_USAGE
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["track", "perturb"])
    @pytest.mark.parametrize("doc,key", [
        ({"scenarios": [{"kind": "load_perturbation", "p_cmd": math.nan}]}, "p_cmd=nan"),
        ({"scenarios": [{"kind": "displacement_tracking", "center": math.nan,
                         "duration_s": 5.0}]}, "center=nan"),
        ({"scenarios": [{"kind": "load_perturbation", "hold_x": None}]}, "hold_x must be set"),
        ({"controller": {"p_max": 0.9},
          "scenarios": [{"kind": "force_tracking", "center": 2.1, "amplitude": 0.25}]},
         "p_max 0.9 MPa outside")],
        ids=["nan_p_cmd", "nan_center", "null_hold_x", "p_max_above_envelope"])
    def test_loop_config_rejected_before_output(self, tmp_path, capsys, command, doc, key):
        # each used to run: a loop ignored the field, or blamed the map or the
        # observer's pressure check mid-run
        cfg_path = str(tmp_path / "cfg.json")
        json.dump(doc, open(cfg_path, "w"))
        out = tmp_path / "out"
        assert cli.main(["--config", cfg_path, "--out", str(out), command]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["track", "perturb"])
    def test_identification_sweep_too_long_fails_before_output(self, tmp_path, capsys,
                                                               command):
        # with no scenario configured the loops still identify the affine
        # model on a 56 s sweep, which at 1e12 Hz is far past the cap (the
        # default 10 Hz filter is unstable at that rate)
        cfg_path = str(tmp_path / "cfg.json")
        json.dump({"plant": {"sensor_rate_hz": 1e12, "control_rate_hz": 1e12},
                   "filter": {"cutoff_hz": 1e10}}, open(cfg_path, "w"))
        out = tmp_path / "out"
        assert cli.main(["--config", cfg_path, "--out", str(out), command]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error: scenario 'identification_sweep'")
        assert "a run may step" in err
        assert not out.exists()

    @pytest.mark.parametrize("refine_tol", [1e-17, 1e-300])
    @pytest.mark.parametrize("command", ["estimate", "track", "perturb"])
    def test_refine_tol_below_float_spacing_fails_before_output(self, cal_csv, tmp_path, capsys,
                                                              command, refine_tol):
        # below four float spacings of the largest force the refinement's
        # bracket could not shrink to the tolerance; the config is
        # rejected before any write
        cfg_path = str(tmp_path / "cfg.json")
        json.dump({"observer": {"refine_tol": refine_tol}}, open(cfg_path, "w"))
        out = tmp_path / "out"
        argv = ["--config", cfg_path, "--out", str(out), command]
        if command == "estimate":
            argv += ["--data", cal_csv]
        assert cli.main(argv) == cli.EXIT_USAGE
        assert "observer: refine_tol must be >=" in capsys.readouterr().err
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
        # one design per command: the one that checks the filter block is
        # the template of the validated observer config and of each settled
        # loop's config
        assert rates == [200.0] * 2

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


def run_python(*args, env=None):
    """The interpreter, with the package these tests import on its path
    and ``env`` added to the environment."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, **(env or {}), "PYTHONPATH": path})


def run_module(*args, env=None):
    """``python -m coilsense.cli`` on the package these tests import."""
    return run_python("-m", "coilsense.cli", *args, env=env)


class TestFitThreads:
    def test_inductance_fit_is_blind_to_blas_threads(self, tmp_path):
        # OpenBLAS splits a ddot over more than 10,000 rows across its
        # threads, which changed this fit's iterations and parameters
        data = str(tmp_path / "grid.csv")
        ds = plant.run_scenario(plant.Scenario.calibration_grid(),
                                plant.default_plant_config(seed=0))
        assert len(ds) > 10_000
        ident.write_csv(ds, data)
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"out{threads}"
            proc = run_module("--out", str(out), "fit", "--model", "inductance", "--data", data,
                              env={"OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
            outputs.append([read_bytes(out / name) for name in
                            ("fit_inductance_report.json", "inductance_params.json")])
        assert outputs[0] == outputs[1]


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

    @pytest.mark.parametrize("command,scenario", [
        ("perturb", {"kind": "load_perturbation", "load": 100}),
        ("simulate", {"kind": "load_perturbation", "load": 100}),
        ("track", {"kind": "displacement_tracking", "load": 50})])
    def test_unreachable_isotonic_load_is_a_config_error(self, tmp_path, command, scenario):
        # a reachable scenario before it writes nothing either: every
        # scenario runs before the output directory is made
        cfg_path = str(tmp_path / "cfg.json")
        before = {"kind": "cyclic_estimation", "cycle_period_s": 0.1}
        if command == "track":
            before = {"kind": "force_tracking", "duration_s": 0.1}
        json.dump({"scenarios": [before, scenario]}, open(cfg_path, "w"))
        proc = run_module("--config", cfg_path, "--out", str(tmp_path / "out"), command)
        assert not (tmp_path / "out").exists()
        assert proc.returncode == cli.EXIT_USAGE
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: load ")
        assert f"load {float(scenario['load'])} N unreachable" in lines[0]
        assert "force range [" in lines[0]

    @pytest.mark.parametrize("command", ["estimate", "track", "perturb"])
    def test_unstable_filter_is_a_config_error(self, cal_csv, tmp_path, command):
        # the filter is designed while the config is checked, not when a
        # run first steps it
        cfg_path = str(tmp_path / "cfg.json")
        json.dump({"filter": UNSTABLE_FILTER}, open(cfg_path, "w"))
        args = ["--config", cfg_path, "--out", str(tmp_path / "out"), command]
        proc = run_module(*(args + ["--data", cal_csv] if command == "estimate" else args))
        assert proc.returncode == cli.EXIT_USAGE
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("config error: filter: designed filter unstable")
        assert not (tmp_path / "out").exists()

    def test_jobs_flag_is_gone(self):
        assert cli.main(["--jobs", "2", "track"]) == cli.EXIT_USAGE
