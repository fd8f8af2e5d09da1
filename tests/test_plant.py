from dataclasses import replace

import numpy as np
import pytest

from coilsense import model, plant
from coilsense.plant import (IsotonicInfeasibleError, Plant, PlayElement,
                             PlantConfig, Scenario)

IND = plant.reference_inductance_params()
DYN = plant.reference_dynamic_params()


def ideal_config(**overrides):
    """No hysteresis, no noise, no valve lag."""
    base = dict(hysteresis=(), noise_L=0.0, noise_F=0.0, valve_tau=0.0, seed=0)
    base.update(overrides)
    return plant.default_plant_config(**base)


class TestStep:
    def test_slack_state(self):
        p = Plant(ideal_config())
        r = p.step(0.0, 0.01, x_cmd=DYN.x0)
        assert r.F == 0.0
        assert r.L_clean == model.eval_coeffs(IND, 0.0).lambda5

    def test_linear_degeneration(self):
        p = Plant(ideal_config())
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = rng.uniform(0.10, 0.18)
            P = rng.uniform(0.0, 0.65)
            r = p.step(P, 0.01, x_cmd=x)
            assert r.F == model.eval_dynamic_force(DYN, x, P)

    def test_truth_on_inductance_surface(self):
        p = Plant(plant.default_plant_config(seed=1))
        rng = np.random.default_rng(1)
        for _ in range(100):
            r = p.step(rng.uniform(0, 0.6), 0.01, x_cmd=rng.uniform(0.08, 0.17))
            assert r.L_clean == model.eval_inductance(IND, r.F, r.P)

    def test_valve_lag(self):
        cfg = ideal_config(valve_tau=0.1)
        p = Plant(cfg, P0=0.0)
        r = p.step(0.5, 0.1, x_cmd=0.12)
        assert r.P == pytest.approx(0.5 * (1 - np.exp(-1.0)), rel=1e-12)
        p2 = Plant(ideal_config(), P0=0.0)
        assert p2.step(0.5, 0.01, x_cmd=0.12).P == 0.5

    def test_requires_one_command(self):
        p = Plant(ideal_config())
        with pytest.raises(ValueError):
            p.step(0.1, 0.01)
        with pytest.raises(ValueError):
            p.step(0.1, 0.01, x_cmd=0.1, F_load=1.0)


class TestHysteresis:
    def sweep(self, cfg, cycles=2):
        p = Plant(cfg, x0=0.10)
        xs, fs = [], []
        dt = 0.01
        n = int(cycles * 8.0 / dt)
        for i in range(n):
            t = (i + 1) * dt
            ph = (t / 8.0) % 1.0
            x = 0.10 + 0.07 * (2 * ph if ph < 0.5 else 2 - 2 * ph)
            r = p.step(0.2, dt, x_cmd=x)
            xs.append(r.x)
            fs.append(r.F)
        return np.array(xs), np.array(fs)

    @staticmethod
    def loop_area(x, F):
        # shoelace over the final closed cycle
        return 0.5 * abs(np.sum(x * np.roll(F, -1) - np.roll(x, -1) * F))

    def test_loop_area_positive_with_weights(self):
        cfg = plant.default_plant_config(noise_L=0.0, noise_F=0.0, valve_tau=0.0)
        x, F = self.sweep(cfg)
        last = slice(-800, None)  # final full cycle
        assert self.loop_area(x[last], F[last]) > 1e-4

    def test_loop_area_zero_without_weights(self):
        x, F = self.sweep(ideal_config())
        last = slice(-800, None)
        assert self.loop_area(x[last], F[last]) <= 1e-12

    def test_force_inductance_trace_single_valued(self):
        # loading and unloading traces coincide in (F, L) even though
        # they differ in (x, F)
        cfg = plant.default_plant_config(noise_L=0.0, noise_F=0.0, valve_tau=0.0)
        p = Plant(cfg, x0=0.10)
        dt = 0.01
        up, down = [], []
        for i in range(1600):
            t = (i + 1) * dt
            ph = (t / 16.0) % 1.0
            x = 0.10 + 0.07 * (2 * ph if ph < 0.5 else 2 - 2 * ph)
            r = p.step(0.2, dt, x_cmd=x)
            (up if ph < 0.5 else down).append((r.F, r.L_clean))
        up, down = np.array(up), np.array(down)
        pred_down = model.eval_inductance(IND, down[:, 0], 0.2)
        assert np.allclose(down[:, 1], pred_down, atol=1e-12)
        pred_up = model.eval_inductance(IND, up[:, 0], 0.2)
        assert np.allclose(up[:, 1], pred_up, atol=1e-12)

    def test_play_element_validation(self):
        with pytest.raises(ValueError):
            PlayElement(width=-0.001, weight=1.0)


class TestIsotonic:
    def test_balance_residual(self):
        cfg = plant.default_plant_config(noise_L=0.0, noise_F=0.0)
        p = Plant(cfg, x0=0.12)
        rng = np.random.default_rng(3)
        for _ in range(100):
            load = rng.uniform(0.5, 2.5)
            r = p.step(rng.uniform(0.0, 0.4), 0.01, F_load=load)
            assert abs(r.F - load) <= 1e-6

    def test_infeasible_load(self):
        p = Plant(ideal_config())
        with pytest.raises(IsotonicInfeasibleError):
            p.step(0.0, 0.01, F_load=50.0)

    @staticmethod
    def force(p, x, P):
        """The plant's clamped force at length x from its current play states."""
        cfg = p.cfg
        widths = np.array([h.width for h in cfg.hysteresis], dtype=float)
        weights = np.array([h.weight for h in cfg.hysteresis], dtype=float)
        u = x - cfg.dyn.x0
        z = np.clip(p.state.play_states, u - widths, u + widths)
        return max(cfg.dyn.k * u + cfg.dyn.c * P + float(weights @ z), 0.0)

    @classmethod
    def bisect(cls, p, F_load, P):
        """Reference: the 64-step bisection the closed form replaced."""
        lo, hi = p.cfg.envelope.x_min, p.cfg.envelope.x_max
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            if cls.force(p, mid, P) < F_load:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-12:
                break
        return 0.5 * (lo + hi)

    def check(self, p, F_load, P):
        """Closed form against the bisection, then the stepped force
        against the load (no valve lag, so the step runs at P)."""
        x_ref = self.bisect(p, F_load, P)
        r = p.step(P, 0.01, F_load=F_load)
        assert abs(r.x - x_ref) <= 1e-12
        assert abs(r.F - F_load) <= 1e-9

    def test_matches_bisection(self):
        cfg = plant.default_plant_config(noise_L=0.0, noise_F=0.0, valve_tau=0.0)
        p = Plant(cfg, x0=0.12)
        rng = np.random.default_rng(11)
        env = cfg.envelope
        for _ in range(200):
            for _ in range(rng.integers(0, 4)):  # a random play history
                p.step(rng.uniform(0.0, 0.65), 0.01, x_cmd=rng.uniform(env.x_min, env.x_max))
            P = rng.uniform(0.0, 0.65)
            F_load = rng.uniform(self.force(p, env.x_min, P), self.force(p, env.x_max, P))
            self.check(p, F_load, P)

    def test_segment_clamped_at_lower_end(self):
        # after a stretch to 0.16 m the first segment runs from x_min,
        # where the unclamped force is about -1.3 N at P = 0
        p = Plant(ideal_config(hysteresis=plant.default_hysteresis()), x0=0.10)
        p.step(0.0, 0.01, x_cmd=0.16)
        assert self.force(p, p.cfg.envelope.x_min, 0.0) == 0.0
        self.check(p, 0.5, 0.0)

    def test_zero_load(self):
        p = Plant(ideal_config(hysteresis=plant.default_hysteresis()), x0=0.12)
        self.check(p, 0.0, 0.0)
        assert p.state.x == p.cfg.envelope.x_min

    def test_loads_at_envelope_ends(self):
        env = replace(plant.default_envelope(), x_min=0.095)
        cfg = ideal_config(hysteresis=plant.default_hysteresis(), envelope=env)
        p = Plant(cfg, x0=0.12)
        P = 0.6
        f_lo, f_hi = self.force(p, env.x_min, P), self.force(p, env.x_max, P)
        assert f_lo > 0.0
        for F_load, x in ((f_lo, env.x_min), (f_hi, env.x_max), (f_hi + 5e-13, env.x_max)):
            assert p._solve_isotonic(F_load, P) == x
            assert abs(x - self.bisect(p, F_load, P)) <= 1e-12

    def test_without_hysteresis(self):
        p = Plant(ideal_config(), x0=0.12)
        for F_load in (0.3, 1.5, 2.7):
            self.check(p, F_load, 0.2)

    def test_zero_width_play_element(self):
        hyst = (PlayElement(width=0.0, weight=2.0), PlayElement(width=0.008, weight=2.0))
        p = Plant(ideal_config(hysteresis=hyst), x0=0.12)
        for F_load in (0.9, 1.8, 1.2, 0.4):
            self.check(p, F_load, 0.3)


class TestDeterminism:
    def test_same_seed_same_dataset(self):
        scn = Scenario.cyclic_estimation(cycle_period_s=2.0)
        a = plant.run_scenario(scn, plant.default_plant_config(seed=42))
        b = plant.run_scenario(scn, plant.default_plant_config(seed=42))
        for col in ("t", "P", "L", "F", "x"):
            assert np.array_equal(getattr(a, col), getattr(b, col))

    def test_different_seed_differs(self):
        scn = Scenario.cyclic_estimation(cycle_period_s=2.0)
        a = plant.run_scenario(scn, plant.default_plant_config(seed=1))
        b = plant.run_scenario(scn, plant.default_plant_config(seed=2))
        assert not np.array_equal(a.L, b.L)


class TestReferenceParams:
    def test_exponents_positive_over_envelope(self):
        for P in np.linspace(0.0, 0.65, 27):
            co = model.eval_coeffs(IND, float(P))
            assert co.lambda2 > 0 and co.lambda4 > 0

    def test_decay_negative_over_envelope(self):
        for P in np.linspace(0.0, 0.65, 27):
            assert model.eval_coeffs(IND, float(P)).lambda3 < 0

    def test_zero_force_inductance_in_figure_range(self):
        for P in np.linspace(0.0, 0.65, 27):
            L0 = model.eval_inductance(IND, 0.0, float(P))
            assert 4.6 <= L0 <= 5.4

    def test_curves_ordered_by_pressure(self):
        F = np.linspace(0.0, 5.0, 300)
        levels = np.arange(0.0, 0.6501, 0.05)
        curves = np.array([model.eval_inductance(IND, F, P) for P in levels])
        assert np.diff(curves, axis=0).min() > 0.0

    def test_peak_location_shifts_with_pressure(self):
        peaks = [model.peak_force(IND, P) for P in np.arange(0.0, 0.6501, 0.05)]
        assert np.all(np.diff(peaks) < 0)
        assert 1.5 < min(peaks) and max(peaks) < 2.5


class TestScenarios:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Scenario(kind="warp_drive")

    def test_unknown_waveform(self):
        with pytest.raises(ValueError):
            Scenario(kind="force_tracking", waveform="sawtooth", duration_s=1.0)

    def test_calibration_grid_shape(self):
        scn = Scenario.calibration_grid()
        assert len(scn.p_levels) == 14
        assert scn.p_levels[0] == 0.0 and scn.p_levels[-1] == pytest.approx(0.65)
        assert scn.cycles_per_level == 3
        assert scn.x_high == pytest.approx(0.17)
        ds = plant.run_scenario(scn, plant.default_plant_config(seed=0))
        assert len(ds) == int(round(scn.total_duration_s * 100))
        assert set(np.round(np.unique(ds.P), 2)).issuperset({0.0, 0.65})

    def test_isometric_sweep_quantized_pressure(self):
        scn = Scenario.isometric_sweep(cycles=1, cycle_period_s=2.0)
        assert len(scn.x_levels) == 15
        ds = plant.run_scenario(scn, plant.default_plant_config(
            seed=0, valve_tau=0.0, noise_L=0.0, noise_F=0.0))
        steps = np.round(ds.P / scn.p_cycle_step) * scn.p_cycle_step
        assert np.allclose(ds.P, steps, atol=1e-12)
        assert ds.P.max() == pytest.approx(scn.p_cycle_max)

    def test_cyclic_estimation_crosses_peak_each_cycle(self):
        scn = Scenario.cyclic_estimation(cycle_period_s=2.0)
        _, truth = plant.run_scenario(scn, plant.default_plant_config(seed=0),
                                      return_truth=True)
        n_cycle = int(2.0 * 100)
        for j in range(len(scn.p_levels)):
            F_cycle = truth["F"][j * n_cycle:(j + 1) * n_cycle]
            f_star = model.peak_force(IND, float(scn.p_levels[j]))
            assert F_cycle.min() < f_star < F_cycle.max()

    def test_tracking_kinds_rejected(self):
        scn = Scenario.force_tracking()
        with pytest.raises(ValueError):
            plant.run_scenario(scn, plant.default_plant_config())

    def test_load_perturbation_profile_seeded(self):
        scn = Scenario.load_perturbation()
        t1, f1 = plant.perturbation_load_profile(scn, seed=4)
        t2, f2 = plant.perturbation_load_profile(scn, seed=4)
        assert np.array_equal(t1, t2)
        ts = np.linspace(0, scn.duration_s, 500)
        assert all(f1(t) == f2(t) for t in ts)
        # events confined to the head so the drift window stays clean
        assert t1.max() + scn.event_ramp_s < 0.8 * scn.duration_s
        loads = np.array([f1(t) for t in ts])
        assert loads.min() >= 0.9 and loads.max() <= 1.6

    def test_rates_must_divide(self):
        with pytest.raises(ValueError):
            plant.default_plant_config(sensor_rate_hz=100.0, control_rate_hz=30.0)
