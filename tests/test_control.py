import math
import struct

import numpy as np
import pytest

from coilsense import control, plant
from coilsense.control import (ControllerState, PidGains, TrackingSetup,
                               feedforward_pressure, pid_step)
from coilsense.model import DegenerateModelError, DynamicParams
from test_plant import oracle_step

DYN = plant.reference_dynamic_params()


def short_force_scenario(**kw):
    args = dict(waveform="sine", frequency_hz=0.2, duration_s=10.0)
    args.update(kw)
    return plant.Scenario.force_tracking(**args)


class TestFeedforward:
    def test_slack_zero(self):
        assert feedforward_pressure(DYN, 0.0, DYN.x0, 0.0, 0.65) == 0.0

    def test_hand_value(self):
        assert feedforward_pressure(DYN, 0.8155, 0.100, 0.0, 0.65) == pytest.approx(0.5, abs=1e-12)

    def test_displacement_mode(self):
        # the reference length under the load: the same formula
        p = feedforward_pressure(DYN, 1.5, 0.125, 0.0, 0.65)
        assert p == pytest.approx((1.5 - 38.6 * 0.025) / 1.6310, abs=1e-12)

    def test_clamp_and_flag(self):
        assert feedforward_pressure(DYN, -5.0, DYN.x0, 0.0, 0.65) == 0.0
        assert feedforward_pressure(DYN, 50.0, DYN.x0, 0.0, 0.65) == 0.65
        assert feedforward_pressure(DYN, 50.0, DYN.x0, 0.0, 0.4) == 0.4
        assert feedforward_pressure(DYN, -5.0, DYN.x0, 0.1, 0.65) == 0.1

    def test_degenerate_pressure_coefficient(self):
        tiny = DynamicParams(k=38.6, x0=0.1, c=1e-12)
        with pytest.raises(DegenerateModelError):
            feedforward_pressure(tiny, 1.0, 0.1, 0.0, 0.65)


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


def sample_step(state, L, P, dyn, ocfg):
    """The observer on one sample, as ``(state, F_hat, x_hat)``."""
    state, F_hat, x_hat = control.obs.estimate_steps(state, [L], [P], dyn, ocfg)
    return state, F_hat[0], x_hat[0]


def reference_loop(scenario, mode, setup):
    """The closed-loop engine with the plant (``oracle_step``) and the
    observer stepped one sample at a time: ``control._settle`` and
    ``control._run_loop`` as they were before a control period went
    through the observer in one call."""
    pcfg = setup.plant_cfg
    force_mode = scenario.kind == "force_tracking"
    dts = 1.0 / pcfg.sensor_rate_hz
    n_pre = int(round(control.PREROLL_S / dts))
    ocfg = control.observer_config(setup, pcfg.ind, dts)
    feedforward, _ = control._drivers(scenario, setup)
    if force_mode:
        def drive(plant_, p, t):
            return oracle_step(plant_, p, dts, x_cmd=scenario.hold_x)
    else:
        _, load_at = plant.perturbation_load_profile(scenario, pcfg.seed)

        def drive(plant_, p, t):
            return oracle_step(plant_, p, dts, F_load=load_at(t))
    F0 = float(scenario.reference(0.0)) if force_mode else scenario.load
    p_ff0 = feedforward(float(scenario.reference(0.0)))
    plant_ = plant.Plant(pcfg, x0=pcfg.dyn.x0, P0=p_ff0)
    ramp_n = max(1, int(round(2.0 / dts)))
    state = last = None
    for i in range(n_pre):
        if force_mode:
            frac = min(1.0, (i + 1) / ramp_n)
            x_cmd = pcfg.dyn.x0 + frac * (scenario.hold_x - pcfg.dyn.x0)
            last = oracle_step(plant_, p_ff0, dts, x_cmd=x_cmd)
        else:
            last = drive(plant_, p_ff0, 0.0)
        if state is None:
            state = control.obs.reset(float(np.clip(F0, ocfg.envelope.F_min, ocfg.envelope.F_max)),
                                      last.L_meas, last.P, ocfg)
        state = sample_step(state, last.L_meas, last.P, setup.dyn, ocfg)[0]
    if scenario.kind == "displacement_tracking":
        period = control.CONDITION_CYCLES / scenario.frequency_hz
        n_cond = int(round(period / dts))
        t_cond = (np.arange(n_cond) + 1) * dts - period
        for t, ref in zip(t_cond.tolist(), scenario.reference(t_cond).tolist()):
            last = drive(plant_, feedforward(ref), t)
            state = sample_step(state, last.L_meas, last.P, setup.dyn, ocfg)[0]

    dtc = 1.0 / pcfg.control_rate_hz
    sub = pcfg.decimation_factor
    gains = setup.gains_force if force_mode else setup.gains_disp
    ctrl = ControllerState(clamp=(-setup.integral_clamp_mpa, setup.integral_clamp_mpa))
    rng_x = np.random.default_rng([pcfg.seed, 77])
    t_log = control._log_times(scenario, pcfg.sensor_rate_hz)
    refs = scenario.reference(t_log)
    rows = []
    F_hat = state.F_hat
    x_hat = control.model.invert_dynamic_length(setup.dyn, F_hat, last.P)
    p_cmd = p_ff0
    for i, (t, ref) in enumerate(zip(t_log.tolist(), refs.tolist())):
        if i % sub == 0:
            dp = 0.0
            if mode == "sensor_fb" and force_mode:
                dp = pid_step(ctrl, ref - last.F_meas, gains, dtc)
            elif mode == "sensor_fb":
                x_meas = last.x + setup.sensor_noise_x * rng_x.standard_normal()
                dp = pid_step(ctrl, x_meas - ref, gains, dtc)
            elif mode == "self_sensing":
                dp = pid_step(ctrl, ref - F_hat if force_mode else x_hat - ref, gains, dtc)
            p_cmd = control._clamp(feedforward(ref) + dp, 0.0, setup.p_max)
        last = drive(plant_, p_cmd, t)
        state, F_hat, x_hat = sample_step(state, last.L_meas, last.P, setup.dyn, ocfg)
        rows.append((last.F, last.x, F_hat, x_hat, p_cmd))
    log = np.array(rows).reshape(-1, 5).T
    return dict(zip(("t", "reference", "F", "x", "F_hat", "x_hat", "command"),
                    (t_log, refs, *log)))


class TestPeriodCalls:
    @pytest.mark.parametrize("scn", [
        short_force_scenario(duration_s=20.03),
        plant.Scenario.displacement_tracking(frequency_hz=0.2, duration_s=20.03),
        plant.Scenario.load_perturbation(duration_s=20.03)],
        ids=["force", "displacement", "perturbation"])
    def test_equals_stepping_the_observer_per_sample(self, setup0, scn):
        # 2003 logged samples at 5 a control period: the last period holds
        # 3; every logged channel in every bit, in each mode
        modes = ("self_sensing",) if scn.kind == "load_perturbation" else control.MODES
        for mode in modes:
            got = control._run_loop(scn, mode, setup0)
            want = reference_loop(scn, mode, setup0)
            assert len(got["t"]) == 2003 and len(got["t"]) % setup0.plant_cfg.decimation_factor == 3
            for name in want:
                assert got[name].tobytes() == want[name].tobytes(), (mode, name)

    @staticmethod
    def observed_sizes(monkeypatch):
        """The number of samples of each ``estimate_steps`` call, as they come."""
        steps, sizes = control.obs.estimate_steps, []

        def counted(state, L_raw, P, dyn, cfg):
            sizes.append(len(P))
            return steps(state, L_raw, P, dyn, cfg)

        monkeypatch.setattr(control.obs, "estimate_steps", counted)
        return sizes

    def test_one_call_per_control_period(self, setup0, monkeypatch):
        # the pre-roll, the conditioning cycle and then each control period
        # go through the observer in one call each
        sizes = self.observed_sizes(monkeypatch)
        scn = plant.Scenario.displacement_tracking(frequency_hz=0.5, duration_s=4.03)
        control._run_loop(scn, "self_sensing", setup0)
        assert sizes == [300, 200] + [5] * 80 + [3]

    @pytest.mark.parametrize("mode", ["open_loop", "sensor_fb"])
    def test_one_call_for_a_run_that_reads_no_estimate(self, setup0, monkeypatch, mode):
        # the loop reads no estimate, so the whole logged run goes through
        # the observer in one call at its end; the plant steps once each for
        # the pre-roll and conditioning, then once per control period, or
        # once for the whole open-loop run, whose commands read no plant
        sizes = self.observed_sizes(monkeypatch)
        steps, plant_sizes = plant.Plant.steps, []

        def counted(self, P_cmd, dt, **drive):
            plant_sizes.append(len(P_cmd))
            return steps(self, P_cmd, dt, **drive)

        monkeypatch.setattr(plant.Plant, "steps", counted)
        scn = plant.Scenario.displacement_tracking(frequency_hz=0.5, duration_s=4.03)
        control._run_loop(scn, mode, setup0)
        assert sizes == [300, 200, 403]
        assert plant_sizes == [300, 200] + ([403] if mode == "open_loop" else [5] * 80 + [3])

    def test_plant_error_comes_after_the_observed_samples(self, setup0, monkeypatch):
        # a plant error at the third sample of the eighth control period
        # (logged sample 37): the samples before it (those of earlier periods
        # that no tick observed too) go through the observer first, so an
        # observer error among them is the one raised, as when each sample
        # was observed as it came
        steps, calls = plant.Plant.steps, []

        def failing(nan_reading):
            def fake(self, P_cmd, dt, **drive):
                calls.append(len(P_cmd))
                before = sum(calls[2:-1])  # logged samples of earlier calls
                if len(calls) < 3 or before + len(P_cmd) <= 37:  # not past the bad sample
                    return steps(self, P_cmd, dt, **drive)
                k = 37 - before
                run = steps(self, P_cmd[:k], dt, **{key: v[:k] for key, v in drive.items()})
                if nan_reading:
                    run["L_meas"][1] = math.nan
                err = plant.IsotonicInfeasibleError("the plant's error")
                err.completed = run
                raise err
            return fake

        scn = plant.Scenario.displacement_tracking(frequency_hz=0.5, duration_s=4.03)
        sizes = self.observed_sizes(monkeypatch)
        for mode, observed in (("open_loop", [300, 200, 37]),
                               ("self_sensing", [300, 200] + [5] * 7 + [2])):
            for nan_reading in (True, False):
                monkeypatch.setattr(plant.Plant, "steps", failing(nan_reading))
                calls.clear()
                sizes.clear()
                if nan_reading:
                    with pytest.raises(ValueError, match="All-NaN"):
                        control._run_loop(scn, mode, setup0)
                else:  # with no observer error, the plant's, after its samples are observed
                    with pytest.raises(plant.IsotonicInfeasibleError, match="the plant's error"):
                        control._run_loop(scn, mode, setup0)
                assert sizes == observed, (mode, nan_reading)


def open_loop_by_period(scenario, setup, start):
    """The open-loop run of ``control._run_loop`` as it was before it
    stepped the plant in one call: a ``Plant.steps`` call per control
    period from ``start``, on the run's commands.  Returns the channels
    ``F``, ``x``, ``L_meas`` and ``P`` of the samples stepped, the commands
    of the periods stepped whole, and the plant's error, or None."""
    feedforward, drive = control._drivers(scenario, setup)
    t = control._log_times(scenario, setup.plant_cfg.sensor_rate_hz)
    times, refs = t.tolist(), scenario.reference(t).tolist()
    sub = setup.plant_cfg.decimation_factor
    run, commands = {"F": [], "x": [], "L_meas": [], "P": []}, []
    for i in range(0, len(times), sub):
        dp = 0.0
        P_cmd = [control._clamp(feedforward(refs[i]) + dp, setup.plant_cfg.envelope.P_min,
                                setup.p_max)] * len(times[i:i + sub])
        try:
            got, error = drive(start.plant, P_cmd, times[i:i + sub]), None
        except ValueError as err:
            got, error = err.completed, err
        for name in run:
            run[name] += got[name]
        if error is not None:
            return run, commands, error
        commands += P_cmd
    return run, commands, None


def seq_bits(values) -> bytes:
    """The bytes of a sequence of floats, so that equal bytes are equal bits."""
    return struct.pack(f"<{len(values)}d", *values)


class TestOpenLoop:
    @pytest.mark.parametrize("late_load", [None, 50.0], ids=["whole_run", "plant_error"])
    def test_one_plant_call_equals_a_call_per_period(self, setup0, monkeypatch, late_load):
        # the open-loop run steps the plant in one call; against a call per
        # control period from a copy of the same settled loop: every bit of
        # the commands (a -0.0 feedforward goes out as 0.0, as adding dp =
        # 0.0 makes it), of the plant's channels, of the samples the
        # observer takes and of the plant's state and noise stream after
        # the run; an unreachable load from 1.37 s on raises the same error
        # at the same sample
        scn = plant.Scenario.displacement_tracking(frequency_hz=0.5, duration_s=4.03)
        refs = scn.reference(control._log_times(scn, 100.0))
        high = float(np.median(refs))
        ff = control.feedforward_pressure

        def signed_zero(dyn, F, x, p_min, p_max):
            return -0.0 if x > high else ff(dyn, F, x, p_min, p_max)

        monkeypatch.setattr(control, "feedforward_pressure", signed_zero)
        if late_load is not None:
            profile = control.perturbation_load_profile

            def late(scenario, seed):
                events, load_at = profile(scenario, seed)
                return events, lambda t: late_load if t >= 1.37 else load_at(t)

            monkeypatch.setattr(control, "perturbation_load_profile", late)
        start = control._settle(scn, setup0)
        one, by_period = start.copy(), start.copy()
        want, commands, error = open_loop_by_period(scn, setup0, by_period)
        steps, observed = control.obs.estimate_steps, []

        def recorded(state, L_raw, P, dyn, cfg):
            observed.append((seq_bits(L_raw), seq_bits(P)))
            return steps(state, L_raw, P, dyn, cfg)

        monkeypatch.setattr(control.obs, "estimate_steps", recorded)
        if error is None:
            log = control._run_loop(scn, "open_loop", setup0, one)
            assert len(commands) == 403 and log["command"].tobytes() == seq_bits(commands)
            assert 0.0 in commands and all(math.copysign(1.0, P) == 1.0 for P in commands)
            for name in ("F", "x"):
                assert log[name].tobytes() == seq_bits(want[name]), name
        else:
            assert len(want["P"]) == 137
            with pytest.raises(type(error)) as raised:
                control._run_loop(scn, "open_loop", setup0, one)
            assert str(raised.value) == str(error)
        assert observed == [(seq_bits(want["L_meas"]), seq_bits(want["P"]))]
        assert one.plant.state == by_period.plant.state
        assert one.plant.rng.standard_normal() == by_period.plant.rng.standard_normal()


class TestSetup:
    @pytest.mark.parametrize("p_max", [0.66, -0.01, math.nan])
    def test_p_max_outside_the_envelope_rejected(self, p_max):
        with pytest.raises(ValueError, match="p_max"):
            TrackingSetup(plant_cfg=plant.default_plant_config(seed=0), p_max=p_max)

    @pytest.mark.parametrize("p_max", [0.0, 0.4, 0.65])
    def test_p_max_inside_the_envelope_accepted(self, p_max):
        setup = TrackingSetup(plant_cfg=plant.default_plant_config(seed=0), p_max=p_max)
        assert setup.p_max == p_max

    @pytest.mark.parametrize("P_max", [0.6, 0.65, 0.8])
    def test_unset_p_max_is_the_envelope_top(self, P_max):
        # a config that only narrows or widens the envelope keeps a valid setup
        from dataclasses import replace
        pcfg = plant.default_plant_config(seed=0)
        pcfg = replace(pcfg, envelope=replace(pcfg.envelope, P_max=P_max))
        assert TrackingSetup(plant_cfg=pcfg).p_max == P_max


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
