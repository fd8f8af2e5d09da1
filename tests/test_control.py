import math
import struct

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
        assert feedforward_pressure(DYN, 0.0, DYN.x0, 0.65) == 0.0

    def test_hand_value(self):
        assert feedforward_pressure(DYN, 0.8155, 0.100, 0.65) == pytest.approx(0.5, abs=1e-12)

    def test_displacement_mode(self):
        # the reference length under the load: the same formula
        p = feedforward_pressure(DYN, 1.5, 0.125, 0.65)
        assert p == pytest.approx((1.5 - 38.6 * 0.025) / 1.6310, abs=1e-12)

    def test_clamp_and_flag(self):
        assert feedforward_pressure(DYN, -5.0, DYN.x0, 0.65) == 0.0
        assert feedforward_pressure(DYN, 50.0, DYN.x0, 0.65) == 0.65
        assert feedforward_pressure(DYN, 50.0, DYN.x0, 0.4) == 0.4

    def test_degenerate_pressure_coefficient(self):
        tiny = DynamicParams(k=38.6, x0=0.1, c=1e-12)
        with pytest.raises(DegenerateModelError):
            feedforward_pressure(tiny, 1.0, 0.1, 0.65)


class TestPid:
    def test_zero_history_zero_output(self):
        st = ControllerState()
        assert pid_step(st, 0.0, PidGains(), 0.05) == 0.0

    def test_pure_proportional(self):
        gains = PidGains(kp=0.5, ki=0.0, kd=0.0)
        st = ControllerState()
        for _ in range(5):
            assert pid_step(st, 2.0, gains, 0.05) == 1.0

    def test_bench_gains_first_step(self):
        gains = PidGains()  # kp=0.027, ki=0.001, kd=0.003
        st = ControllerState()
        e, dt = 1.3, 1.0 / 20.0
        out = pid_step(st, e, gains, dt)
        assert out == pytest.approx(0.027 * e + 0.001 * e * dt + 0.003 * e / dt, abs=1e-15)

    def test_anti_windup_clamp(self):
        gains = PidGains(kp=0.0, ki=10.0, kd=0.0)
        st = ControllerState(clamp=(-0.2, 0.2))
        for _ in range(100):
            pid_step(st, 5.0, gains, 0.05)
            assert -0.2 <= st.integral <= 0.2
        assert st.integral == 0.2

    def test_gain_validation(self):
        with pytest.raises(ValueError):
            PidGains(kp=-0.1)


#: Floats where a clamp can differ from ``np.clip``: signed zeros,
#: infinities, NaN, subnormals, the bounds below and their neighbours.
CLAMP_VALUES = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                2.2250738585072014e-308, -1e-310, 0.3, -0.3, 0.65, -0.65,
                math.nextafter(0.65, 1.0), math.nextafter(0.65, 0.0),
                math.nextafter(-0.3, -1.0), 1.3, -1e300)
CLAMP_BOUNDS = ((0.0, 0.65), (-0.3, 0.3), (-0.0, 0.0), (0.0, 0.0), (-0.0, 0.65),
                (5e-324, 1.0), (0.3, 0.3))


def float_bits(v: float) -> bytes:
    return struct.pack("<d", v)


class TestClamp:
    @pytest.mark.parametrize("lo,hi", CLAMP_BOUNDS)
    def test_equals_np_clip_sign_included(self, lo, hi):
        for v in CLAMP_VALUES:
            got, ref = control._clamp(v, lo, hi), float(np.clip(v, lo, hi))
            if math.isnan(ref):
                assert math.isnan(got)
            else:
                assert float_bits(got) == float_bits(ref), (v, lo, hi)

    def test_keeps_the_sign_of_zero_on_a_tie(self):
        # a form that takes the bound on a tie would give +0.0 here
        assert float_bits(control._clamp(-0.0, 0.0, 0.65)) == float_bits(-0.0)


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

    @pytest.mark.parametrize("scn", [
        short_force_scenario(duration_s=4.0),
        plant.Scenario.displacement_tracking(frequency_hz=0.5, duration_s=4.0)],
        ids=["force", "displacement"])
    def test_group_equals_single_runs_bit_for_bit(self, setup0, scn):
        # the group settles once and hands each mode a copy of that state
        group = control.compare_tracking(scn, setup0)
        for mode in control.MODES:
            single = control.run_tracking(scn, mode, setup0)
            for name in ("t", "reference", "truth", "estimate", "command"):
                assert getattr(group[mode], name).tobytes() == getattr(single, name).tobytes()
            assert group[mode].metrics == single.metrics
            assert group[mode].estimation == single.estimation

    def test_preroll_shorter_than_a_sample_rejected(self, setup0):
        # the 3 s pre-roll holds no sample at 0.1 Hz (round(0.3) == 0)
        from dataclasses import replace
        slow = replace(setup0.plant_cfg, sensor_rate_hz=0.1, control_rate_hz=0.1)
        with pytest.raises(control.PrerollError, match="3 s pre-roll"):
            control.run_tracking(short_force_scenario(duration_s=100.0), "open_loop",
                                 replace(setup0, plant_cfg=slow))

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
