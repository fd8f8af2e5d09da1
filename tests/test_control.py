import numpy as np
import pytest

from coilsense import control, plant
from coilsense.control import (ControllerState, PidGains, TrackingSetup,
                               feedforward_pressure, pid_step)
from coilsense.model import DegenerateModelError, DynamicParams

DYN = plant.reference_dynamic_params()


def short_force_scenario(**kw):
    args = dict(waveform="sine", frequency_hz=0.2, duration_s=10.0)
    args.update(kw)
    return plant.Scenario.force_tracking(**args)


class TestFeedforward:
    def test_slack_zero(self):
        p, sat = feedforward_pressure(DYN, F_ref=0.0, x=DYN.x0)
        assert p == 0.0 and not sat

    def test_hand_value(self):
        p, sat = feedforward_pressure(DYN, F_ref=0.8155, x=0.100)
        assert p == pytest.approx(0.5, abs=1e-12)
        assert not sat

    def test_displacement_mode(self):
        p, _ = feedforward_pressure(DYN, x_ref=0.125, F_load=1.5)
        assert p == pytest.approx((1.5 - 38.6 * 0.025) / 1.6310, abs=1e-12)

    def test_clamp_and_flag(self):
        p, sat = feedforward_pressure(DYN, F_ref=-5.0, x=DYN.x0)
        assert p == 0.0 and sat
        p, sat = feedforward_pressure(DYN, F_ref=50.0, x=DYN.x0, p_max=0.65)
        assert p == 0.65 and sat

    def test_mode_exclusivity(self):
        with pytest.raises(ValueError):
            feedforward_pressure(DYN)
        with pytest.raises(ValueError):
            feedforward_pressure(DYN, F_ref=1.0, x=0.1, x_ref=0.12, F_load=1.0)

    def test_degenerate_pressure_coefficient(self):
        tiny = DynamicParams(k=38.6, x0=0.1, c=1e-12)
        with pytest.raises(DegenerateModelError):
            feedforward_pressure(tiny, F_ref=1.0, x=0.1)


class TestPid:
    def test_zero_history_zero_output(self):
        st = ControllerState()
        assert pid_step(st, 0.0, PidGains()) == 0.0

    def test_pure_proportional(self):
        gains = PidGains(kp=0.5, ki=0.0, kd=0.0)
        st = ControllerState()
        for _ in range(5):
            assert pid_step(st, 2.0, gains) == 1.0

    def test_bench_gains_first_step(self):
        gains = PidGains()  # kp=0.027, ki=0.001, kd=0.003 at 20 Hz
        st = ControllerState()
        e, dt = 1.3, gains.dt
        out = pid_step(st, e, gains)
        assert out == pytest.approx(0.027 * e + 0.001 * e * dt + 0.003 * e / dt, abs=1e-15)

    def test_anti_windup_clamp(self):
        gains = PidGains(kp=0.0, ki=10.0, kd=0.0)
        st = ControllerState(clamp=(-0.2, 0.2))
        for _ in range(100):
            pid_step(st, 5.0, gains)
            assert -0.2 <= st.integral <= 0.2
        assert st.integral == 0.2

    def test_gain_validation(self):
        with pytest.raises(ValueError):
            PidGains(kp=-0.1)
        with pytest.raises(ValueError):
            PidGains(rate_hz=0.0)


@pytest.fixture(scope="module")
def setup0():
    pcfg = plant.default_plant_config(seed=0)
    return control.resolve_setup(TrackingSetup(plant_cfg=pcfg))


class TestRunTracking:
    def test_zero_gain_degeneration(self, setup0):
        from dataclasses import replace
        scn = short_force_scenario()
        zero = replace(setup0, gains_force=PidGains(0.0, 0.0, 0.0))
        runs = [control.run_tracking(scn, mode, zero) for mode in control.MODES]
        for other in runs[1:]:
            assert np.array_equal(runs[0].command, other.command)
            assert np.array_equal(runs[0].truth, other.truth)
            assert np.array_equal(runs[0].estimate, other.estimate)

    def test_saturation_safety(self, setup0):
        scn = short_force_scenario(center=1.3, amplitude=0.5)
        for mode in control.MODES:
            res = control.run_tracking(scn, mode, setup0)
            assert res.command.min() >= 0.0
            assert res.command.max() <= setup0.p_max

    def test_run_group_determinism(self, setup0):
        scn = short_force_scenario()
        a = control.run_tracking(scn, "self_sensing", setup0)
        b = control.run_tracking(scn, "self_sensing", setup0)
        assert np.array_equal(a.truth, b.truth)
        assert np.array_equal(a.command, b.command)

    def test_improvement_semantics(self, setup0):
        scn = short_force_scenario()
        res = control.compare_tracking(scn, setup0)
        ol = res["open_loop"].metrics.rmse
        for mode in ("sensor_fb", "self_sensing"):
            expect = 100.0 * (1.0 - res[mode].metrics.rmse / ol)
            assert res[mode].improvement_pct == pytest.approx(expect, abs=1e-12)
        assert res["open_loop"].improvement_pct is None

    def test_feedback_beats_open_loop(self, setup0):
        scn = short_force_scenario()
        res = control.compare_tracking(scn, setup0)
        assert res["self_sensing"].metrics.rmse < res["open_loop"].metrics.rmse
        assert res["sensor_fb"].metrics.rmse < res["open_loop"].metrics.rmse

    def test_mode_and_kind_validation(self, setup0):
        with pytest.raises(ValueError):
            control.run_tracking(short_force_scenario(), "psychic", setup0)
        with pytest.raises(ValueError):
            control.run_tracking(plant.Scenario.cyclic_estimation(), "open_loop", setup0)


class TestPerturbation:
    def test_estimation_stats_present(self, setup0):
        scn = plant.Scenario.load_perturbation(duration_s=20.0,
                                               magnitudes=(0.2, -0.2))
        res = control.run_perturbation(setup0, scn)
        for key in ("max_abs_error", "rmse", "drift"):
            assert key in res.estimation
            assert np.isfinite(res.estimation[key])
        assert res.meta["x_rmse"] < 0.01  # length regulated within a centimetre

    def test_wrong_kind_rejected(self, setup0):
        with pytest.raises(ValueError):
            control.run_perturbation(setup0, short_force_scenario())

    def test_pid_rate_mismatch_rejected(self, setup0):
        from dataclasses import replace
        setup = replace(setup0, gains_disp=replace(setup0.gains_disp, rate_hz=10.0))
        scn = plant.Scenario.load_perturbation(duration_s=5.0, magnitudes=(0.2,))
        with pytest.raises(ValueError, match="control rate"):
            control.run_perturbation(setup, scn)

    def test_filter_rate_mismatch_rejected(self, setup0):
        from dataclasses import replace
        setup = replace(setup0, filter_spec=replace(setup0.filter_spec, sample_rate_hz=200.0))
        scn = plant.Scenario.load_perturbation(duration_s=5.0, magnitudes=(0.2,))
        with pytest.raises(ValueError, match="sensor rate"):
            control.run_perturbation(setup, scn)
        with pytest.raises(ValueError, match="sensor rate"):
            control.run_tracking(short_force_scenario(duration_s=2.0), "open_loop", setup)

    def test_zero_noise_zero_hysteresis_error_vanishes(self):
        pcfg = plant.default_plant_config(seed=0, noise_L=0.0, noise_F=0.0,
                                          hysteresis=())
        setup = control.resolve_setup(TrackingSetup(plant_cfg=pcfg))
        scn = plant.Scenario.load_perturbation(duration_s=20.0, magnitudes=(0.2, -0.2))
        res = control.run_perturbation(setup, scn)
        # between steps the inversion is exact; the tail is event-free
        assert abs(res.estimation["drift"]) < 1e-3
        tail = res.estimate[-200:] - res.truth[-200:]
        assert np.max(np.abs(tail)) < 5e-3


class TestIdentifiedModel:
    def test_identified_stiffness_absorbs_plays(self):
        pcfg = plant.default_plant_config(seed=0)
        dyn = control.identify_dynamic(pcfg)
        raw_k = pcfg.dyn.k
        loaded_k = raw_k + sum(h.weight for h in pcfg.hysteresis)
        assert raw_k < dyn.k < loaded_k + 1.0
