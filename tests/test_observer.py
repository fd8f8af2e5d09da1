import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from coilsense import model, observer, plant
from coilsense import signal as sig
from coilsense.model import EnvelopeError
from coilsense.observer import CostWeights, ObserverConfig, ObserverState

IND = plant.reference_inductance_params()
DYN = plant.reference_dynamic_params()
ENV = plant.default_envelope()


def state_of(mean, cov):
    """An observer state from a mean pair and a symmetric 2x2 covariance."""
    (c00, c01), (_, c11) = np.asarray(cov, dtype=float).tolist()
    return ObserverState(*np.asarray(mean, dtype=float).tolist(), c00, c01, c11)


def mean_of(st):
    return np.array([st.F_hat, st.Fdot_hat])


def cov_of(st):
    return np.array([[st.var_F, st.cov_F_Fdot], [st.cov_F_Fdot, st.var_Fdot]])


def make_cfg(**overrides):
    return observer.make_observer_config(IND, ENV, dt=0.01, noise_L=0.01, **overrides)


def numpy_predict(mean, cov, dt, Q):
    """The matrix form of ``predict``, its reference: A m and A C A^T + Q."""
    A = np.array([[1.0, dt], [0.0, 1.0]])
    cov = A @ cov @ A.T + Q
    return A @ mean, 0.5 * (cov + cov.T)


def matmul_fuses() -> bool:
    """Whether numpy's 2x2 matmul rounds c + dt * b once, as a fused
    multiply-add does, rather than twice: probed on the first (b, c)
    where the two roundings differ."""
    dt = 0.01
    for k in range(1, 1000):
        b, c = 1.0 + k / 997.0, 0.3 + k / 1009.0
        if model._fma(dt, b, c) != c + dt * b:
            got = (np.array([[1.0, dt], [0.0, 1.0]]) @ np.array([[c, b], [b, 1.0]]))[0, 0]
            return got == model._fma(dt, b, c)
    raise AssertionError("no probe pair found")


needs_fused_matmul = pytest.mark.skipif(
    not matmul_fuses(),
    reason="numpy's matmul does not fuse multiply-adds on this host, so the "
           "matrix form rounds twice where predict rounds once")


class TestPredict:
    def test_mean_propagation(self):
        cfg = observer.make_observer_config(IND, ENV, dt=0.05)
        st = state_of([1.0, 2.0], np.eye(2))
        out = observer.predict(st, cfg)
        assert mean_of(out)[0] == pytest.approx(1.1, abs=1e-15)
        assert mean_of(out)[1] == 2.0

    def test_zero_rate_fixed_point(self):
        cfg = make_cfg()
        st = state_of([2.5, 0.0], np.eye(2))
        out = observer.predict(st, cfg)
        assert mean_of(out)[0] == 2.5 and mean_of(out)[1] == 0.0

    def test_trace_grows_with_process_noise(self):
        cfg = make_cfg()
        st = state_of([1.0, 0.0], 0.01 * np.eye(2))
        out = observer.predict(st, cfg)
        assert np.trace(cov_of(out)) > np.trace(cov_of(st))


class TestFloatState:
    @needs_fused_matmul
    @pytest.mark.parametrize("dt", [0.01, 0.05, 0.001])
    def test_predict_equals_matrix_form_bit_for_bit(self, dt):
        rng = np.random.default_rng(17)
        cfgs = [observer.make_observer_config(IND, ENV, dt=dt)]
        for _ in range(3):  # full, non-symmetric Q with a PSD symmetric part
            B = rng.normal(size=(2, 2))
            Q = B @ B.T + np.array([[0.0, 1e-3], [-1e-3, 0.0]]) * rng.uniform()
            cfgs.append(replace(cfgs[0], Q=Q))
        for cfg in cfgs:
            for _ in range(2000):
                A = rng.normal(size=(2, 2)) * rng.uniform(0.01, 3.0)
                st = state_of(rng.normal(size=2) * 3.0, A @ A.T + 1e-4 * np.eye(2))
                mean, cov = numpy_predict(mean_of(st), cov_of(st), dt, cfg.Q)
                out = observer.predict(st, cfg)
                assert mean_of(out).tobytes() == mean.tobytes()
                assert cov_of(out).tobytes() == cov.tobytes()

    def test_state_is_python_floats(self):
        cfg = make_cfg()
        st = observer.reset(1.0, cfg)
        for out in (observer.predict(st, cfg), observer.update(st, 1.3, cfg)):
            for name in ("F_hat", "Fdot_hat", "var_F", "cov_F_Fdot", "var_Fdot"):
                assert type(getattr(out, name)) is float, name

    def test_no_matrix_calls(self, monkeypatch):
        # predict, update and Plant.step run on floats: no matmul, clip or dot
        calls = []
        for name in ("matmul", "clip", "dot"):
            original = getattr(np, name)
            monkeypatch.setattr(np, name, lambda *a, _f=original, _n=name, **k:
                                calls.append(_n) or _f(*a, **k))
        cfg = make_cfg()
        st = observer.reset(1.0, cfg)
        for _ in range(20):
            st = observer.update(observer.predict(st, cfg), 1.2, cfg)
        hyst = tuple(plant.PlayElement(width=w, weight=g)
                     for w, g in ((0.003, 1.7), (0.009, 2.3), (0.014, 0.9)))
        p = plant.Plant(plant.default_plant_config(seed=3, hysteresis=hyst), x0=0.12, P0=0.2)
        for i in range(20):
            p.step(0.2, 0.01, x_cmd=0.12 + 0.002 * i)
            p.step(0.25, 0.01, F_load=1.0 + 0.02 * i)
        assert calls == []


class TestUpdate:
    def test_uninformative_measurement(self):
        cfg = make_cfg()
        st = state_of([1.0, 0.5], np.diag([0.2, 0.3]))
        out = observer.update(st, 3.0, cfg, R=1e12)
        assert mean_of(out) == pytest.approx(mean_of(st), abs=1e-9)
        assert cov_of(out) == pytest.approx(cov_of(st), abs=1e-9)

    def test_scalar_kalman_arithmetic(self):
        cfg = make_cfg()
        st = state_of([1.0, 0.0], np.eye(2))
        out = observer.update(st, 2.0, cfg, R=1.0)
        # K = [0.5, 0]; innovation 1
        assert mean_of(out)[0] == pytest.approx(1.5, abs=1e-12)
        assert mean_of(out)[1] == pytest.approx(0.0, abs=1e-12)
        assert cov_of(out)[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_zero_innovation_contracts(self):
        cfg = make_cfg()
        st = state_of([1.0, 0.0], np.eye(2))
        out = observer.update(st, 1.0, cfg)
        assert np.array_equal(mean_of(out), mean_of(st))
        assert cov_of(out)[0, 0] < cov_of(st)[0, 0]

    def test_posterior_variance_never_grows(self):
        cfg = make_cfg()
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.uniform(0.01, 2.0, size=2)
            b = rng.uniform(-0.5, 0.5)
            cov = np.array([[a[0], b * np.sqrt(a[0] * a[1])],
                            [b * np.sqrt(a[0] * a[1]), a[1]]])
            st = state_of([1.0, 0.0], cov)
            out = observer.update(st, rng.uniform(0, 5), cfg)
            assert cov_of(out)[0, 0] <= cov_of(st)[0, 0] + 1e-15

    def test_equals_eye_and_outer_form_bit_for_bit(self):
        cfg = make_cfg()
        rng = np.random.default_rng(6)
        for _ in range(500):
            A = rng.normal(size=(2, 2))
            st = state_of(rng.normal(size=2), A @ A.T + 1e-3 * np.eye(2))
            F_star, R = float(rng.normal()), float(rng.uniform(1e-4, 1.0))
            out = observer.update(st, F_star, cfg, R=R)
            K = cov_of(st)[:, 0] / (cov_of(st)[0, 0] + R)
            ikh = np.eye(2)
            ikh[:, 0] -= K
            cov = ikh @ cov_of(st) @ ikh.T + np.outer(K, K) * R
            assert np.array_equal(mean_of(out), mean_of(st) + K * (F_star - mean_of(st)[0]))
            assert np.array_equal(cov_of(out), 0.5 * (cov + cov.T))


class TestReset:
    def test_zero(self):
        cfg = make_cfg()
        st = observer.reset(0.0, cfg)
        assert st.F_hat == 0.0 and st.Fdot_hat == 0.0

    def test_boundary_inclusive(self):
        cfg = make_cfg()
        st = observer.reset(ENV.F_max, cfg)
        assert st.F_hat == ENV.F_max

    def test_out_of_envelope(self):
        cfg = make_cfg()
        with pytest.raises(EnvelopeError):
            observer.reset(-1.0, cfg)


def two_preimages(L_target, P):
    """Brute-force the two force preimages of a reading on the peaked curve."""
    f_peak = model.peak_force(IND, P)
    fa = brentq(lambda F: model.eval_inductance(IND, F, P) - L_target, 1e-9, f_peak)
    fb = brentq(lambda F: model.eval_inductance(IND, F, P) - L_target, f_peak, ENV.F_max)
    return fa, fb


class TestSolvePseudoMeasurement:
    def test_forward_then_invert_on_monotone_segment(self):
        from dataclasses import replace
        w = CostWeights(w_fit=1.0, w_dyn=0.0, w_reg=0.0, gamma=1.0)
        cfg = replace(make_cfg(), weights=w)
        P, F0 = 0.2, 0.3
        # below this reading the falling branch never comes back inside
        # the feasible interval, so the preimage is unique
        assert model.eval_inductance(IND, F0, P) < model.eval_inductance(IND, ENV.F_max, P)
        L = model.eval_inductance(IND, F0, P)
        f_star = observer.solve_pseudo_measurement(L, P, prior_F=2.5, params=IND, cfg=cfg)
        assert f_star == pytest.approx(F0, abs=cfg.refine_tol * 10)

    def test_zero_fit_weight_returns_prior(self):
        from dataclasses import replace
        cfg = replace(make_cfg(), weights=CostWeights(w_fit=0.0, w_dyn=1.0, w_reg=0.1, gamma=1.0))
        f_star = observer.solve_pseudo_measurement(5.0, 0.3, prior_F=1.7, params=IND, cfg=cfg)
        assert f_star == pytest.approx(1.7, abs=cfg.refine_tol * 10)

    def test_branch_selection_follows_prior(self):
        cfg = make_cfg()
        P = 0.2
        f_peak = model.peak_force(IND, P)
        L_peak = model.eval_inductance(IND, f_peak, P)
        L_off = model.eval_inductance(IND, 0.0, P)
        L_target = 0.5 * (L_peak + L_off)
        fa, fb = two_preimages(L_target, P)
        near_a = observer.solve_pseudo_measurement(L_target, P, prior_F=fa + 0.05,
                                                   params=IND, cfg=cfg)
        near_b = observer.solve_pseudo_measurement(L_target, P, prior_F=fb - 0.05,
                                                   params=IND, cfg=cfg)
        assert abs(near_a - fa) < 0.05
        assert abs(near_b - fb) < 0.05

    def test_envelope_check(self):
        cfg = make_cfg()
        with pytest.raises(EnvelopeError):
            observer.solve_pseudo_measurement(5.0, 0.9, 1.0, IND, cfg)

    def test_oracle_equivalence(self):
        cfg = make_cfg()
        rng = np.random.default_rng(11)
        grid = np.linspace(ENV.F_min, ENV.F_max, 100_000)
        tol = max(cfg.refine_tol, (ENV.F_max - ENV.F_min) / grid.size)
        for _ in range(20):
            P = rng.uniform(0.0, 0.65)
            L = model.eval_inductance(IND, rng.uniform(0, 5), P) + rng.normal(0, 0.01)
            prior = rng.uniform(0, 5)
            f_solver = observer.solve_pseudo_measurement(L, P, prior, IND, cfg)
            coeffs = model.eval_coeffs(IND, P, validate=False).as_tuple()
            costs = observer._composite_cost(grid, L, coeffs, prior, cfg.weights)
            f_oracle = float(grid[np.argmin(costs)])
            assert abs(f_solver - f_oracle) <= tol


def reference_cost(L_meas, P, prior_F, w):
    """The composite inversion cost on the public ``model.eval_inductance``."""
    def cost(F):
        r = model.eval_inductance(IND, F, P, validate=False) - L_meas
        dF = F - prior_F
        return (w.w_fit * r * r + w.w_dyn * dF * dF
                + w.w_reg * (1.0 - 1.0 / (1.0 + w.gamma * dF * dF)))
    return cost


def reference_inversion(L_meas, P, prior_F, cfg):
    """Grid scan plus golden section on ``reference_cost``, written out
    call by call: the solver, with its per-sample work hoisted, must
    reproduce it bit for bit."""
    env = cfg.envelope
    cost = reference_cost(L_meas, P, prior_F, cfg.weights)
    grid = np.linspace(env.F_min, env.F_max, cfg.grid_points)
    i = int(np.nanargmin(cost(grid)))
    a = float(grid[max(i - 1, 0)])
    b = float(grid[min(i + 1, cfg.grid_points - 1)])
    g = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = float(cost(c)), float(cost(d))
    while b - a > cfg.refine_tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = float(cost(c))
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = float(cost(d))
    return float(np.clip(0.5 * (a + b), env.F_min, env.F_max))


class TestInversionPinned:
    @pytest.mark.parametrize("overrides", [{}, {"noise_L": 0.0}, {"grid_points": 33}])
    def test_matches_reference_bit_for_bit(self, overrides):
        cfg = observer.make_observer_config(IND, ENV, dt=0.01,
                                            **{"noise_L": 0.01, **overrides})
        rng = np.random.default_rng(20)
        for _ in range(200):
            P = float(rng.uniform(ENV.P_min, ENV.P_max))
            L = float(model.eval_inductance(IND, rng.uniform(ENV.F_min, ENV.F_max), P)
                      + rng.normal(0, 0.02))
            prior = float(rng.uniform(ENV.F_min, ENV.F_max))
            got = observer.solve_pseudo_measurement(L, P, prior, IND, cfg)
            assert got == reference_inversion(L, P, prior, cfg)
            # the scalar cost itself, whose last bits steer the golden pass
            coeffs = model.eval_coeffs(IND, P, validate=False).as_tuple()
            ref = reference_cost(L, P, prior, cfg.weights)
            for F in (got, float(rng.uniform(ENV.F_min, ENV.F_max))):
                assert observer._composite_cost(F, L, coeffs, prior, cfg.weights) == ref(F)

    def test_matches_reference_with_other_weights(self):
        w = CostWeights(w_fit=2.5, w_dyn=0.03, w_reg=0.004, gamma=0.37)
        cfg = replace(make_cfg(), weights=w)
        rng = np.random.default_rng(21)
        for _ in range(200):
            P = float(rng.uniform(ENV.P_min, ENV.P_max))
            L = float(model.eval_inductance(IND, rng.uniform(ENV.F_min, ENV.F_max), P)
                      + rng.normal(0, 0.02))
            prior = float(rng.uniform(ENV.F_min, ENV.F_max))
            got = observer.solve_pseudo_measurement(L, P, prior, IND, cfg)
            assert got == reference_inversion(L, P, prior, cfg)

    def test_replace_rebuilds_grid(self):
        cfg = make_cfg()
        assert cfg.grid.shape == (129,)
        small = replace(cfg, grid_points=33)
        assert np.array_equal(small.grid, np.linspace(ENV.F_min, ENV.F_max, 33))
        assert cfg.grid.shape == (129,)
        with pytest.raises(ValueError):
            small.grid[0] = 1.0


def scalar_inversion(L_meas, P, prior_F, params, cfg):
    """The solver's grid scan by ``np.nanargmin`` and its golden pass on
    the scalar ``_composite_cost`` (two ``np.power`` calls per cost)."""
    coeffs = model.eval_coeffs(params, P, validate=False).as_tuple()
    w, grid = cfg.weights, cfg.grid
    with np.errstate(all="ignore"):
        i = int(np.nanargmin(observer._composite_cost(grid, L_meas, coeffs, prior_F, w)))
        a = float(grid[max(i - 1, 0)])
        b = float(grid[min(i + 1, cfg.grid_points - 1)])
        f = observer._golden_section(
            lambda F: float(observer._composite_cost(F, L_meas, coeffs, prior_F, w)),
            a, b, cfg.refine_tol)
    return min(max(f, cfg.envelope.F_min), cfg.envelope.F_max)


def flat_params(l1, l2, l3, l4, l5):
    """Inductance parameters with pressure-independent coefficients."""
    return model.InductanceParams((0.0, l1, 0.0, l2, 0.0, l3, 0.0, l4, 0.0, l5))


class TestFusedInversion:
    def test_power_pair_equals_two_scalar_calls(self):
        # the golden pass takes F**l2 and F**l4 (and the gradient guard
        # F**(l2 - 1) and F**l4) from one two-element np.power call
        rng = np.random.default_rng(8)
        forces = np.concatenate(([0.0, ENV.F_min, ENV.F_max], make_cfg().grid,
                                 rng.uniform(ENV.F_min, ENV.F_max, 200))).tolist()
        pressures = np.concatenate(([ENV.P_min, ENV.P_max],
                                    rng.uniform(ENV.P_min, ENV.P_max, 60))).tolist()
        out = np.empty(2)
        for P in pressures:
            _, l2, _, l4, _ = model.eval_coeffs(IND, P).as_tuple()
            for a, b in ((l2, l4), (l2 - 1.0, l4)):
                pair = np.array((a, b))
                for F in forces:
                    got = np.power(F, pair, out=out).tolist()
                    assert got == [float(np.power(F, a)), float(np.power(F, b))], (F, a, b)

    def test_golden_cost_equals_composite_cost(self, monkeypatch):
        # the cost the golden pass minimizes, taken from the solver, gives
        # the bits of the one-power-at-a-time _composite_cost everywhere
        costs, golden = [], observer._golden_section

        def capture(fun, a, b, tol):
            costs.append(fun)
            return golden(fun, a, b, tol)

        monkeypatch.setattr(observer, "_golden_section", capture)
        cfg = make_cfg()
        rng = np.random.default_rng(12)
        for _ in range(50):
            P = float(rng.uniform(ENV.P_min, ENV.P_max))
            L = float(model.eval_inductance(IND, rng.uniform(ENV.F_min, ENV.F_max), P))
            prior = float(rng.uniform(ENV.F_min, ENV.F_max))
            observer.solve_pseudo_measurement(L, P, prior, IND, cfg)
            cost = costs.pop()
            coeffs = model.eval_coeffs(IND, P, validate=False).as_tuple()
            for F in [0.0, *rng.uniform(ENV.F_min, ENV.F_max, 40).tolist()]:
                assert cost(F) == observer._composite_cost(F, L, coeffs, prior, cfg.weights)

    @pytest.mark.parametrize("coeffs", [
        (0.6, -0.5, -0.55, -0.5, 4.75),    # inf * exp(-inf) at F = 0 only
        (0.6, 800.0, -1.0, 800.0, 4.75),   # F**800 overflows above about 2.4 N
    ])
    def test_nan_grid_points_match_nanargmin(self, coeffs):
        params = flat_params(*coeffs)
        cfg = make_cfg()
        with np.errstate(all="ignore"):
            costs = observer._composite_cost(cfg.grid, 5.0, coeffs, 1.0, cfg.weights)
        assert np.isnan(costs).any() and not np.isnan(costs).all()
        assert np.isnan(costs[np.argmin(costs)])  # a plain argmin would pick a NaN
        rng = np.random.default_rng(3)
        for _ in range(20):
            L = float(rng.uniform(4.7, 5.2))
            prior = float(rng.uniform(ENV.F_min, ENV.F_max))
            got = observer.solve_pseudo_measurement(L, 0.3, prior, params, cfg)
            assert got == scalar_inversion(L, 0.3, prior, params, cfg)

    def test_all_nan_grid_raises(self):
        with pytest.raises(ValueError, match="All-NaN slice encountered"):
            observer.solve_pseudo_measurement(float("nan"), 0.3, 1.0, IND, make_cfg())

    def test_one_power_call_per_golden_evaluation(self, monkeypatch):
        counts = {"power": 0, "evals": 0}
        power, golden = np.power, observer._golden_section

        def counting_power(*args, **kwargs):
            counts["power"] += 1
            return power(*args, **kwargs)

        def counting_golden(fun, a, b, tol):
            def counted(F):
                counts["evals"] += 1
                return fun(F)
            return golden(counted, a, b, tol)

        monkeypatch.setattr(np, "power", counting_power)
        monkeypatch.setattr(observer, "_golden_section", counting_golden)
        cfg = make_cfg()
        rng = np.random.default_rng(5)
        for _ in range(20):
            P = float(rng.uniform(ENV.P_min, ENV.P_max))
            L = float(model.eval_inductance(IND, rng.uniform(ENV.F_min, ENV.F_max), P))
            counts.update(power=0, evals=0)
            observer.solve_pseudo_measurement(L, P, float(rng.uniform(0, 5)), IND, cfg)
            assert counts["evals"] >= 20
            # two calls for the grid (F**l2 and F**l4 over all points)
            assert counts["power"] <= counts["evals"] + 2


class TestEstimateStep:
    def test_constant_truth_convergence(self):
        pcfg = plant.default_plant_config(seed=0, noise_L=0.0, noise_F=0.0,
                                          hysteresis=(), valve_tau=0.0)
        p = plant.Plant(pcfg, x0=0.12, P0=0.2)
        cfg = make_cfg()
        filt = sig.design(sig.FilterSpec(3, 10), 100)
        first = p.step(0.2, 0.01, x_cmd=0.12)
        sig.prime(filt, first.L_meas)
        st = observer.reset(0.5, cfg)  # deliberately off
        for i in range(200):  # 2 s at 100 Hz
            r = p.step(0.2, 0.01, x_cmd=0.12)
            st, F_hat, x_hat = observer.estimate_step(st, r.L_meas, r.P, IND, DYN, cfg, filt)
        assert F_hat == pytest.approx(r.F, rel=0.01)
        assert x_hat == pytest.approx(r.x, rel=0.01)

    def test_zero_noise_pressure_step_keeps_branch(self):
        # exact readings of a constant force on the rising branch while
        # the pressure steps: the map must be inverted at a time-matched
        # (L, P) pair, and the continuity prior must survive zero noise
        F, P0, P1 = 1.1, 0.2, 0.4
        assert F < model.peak_force(IND, P1) < model.peak_force(IND, P0)
        cfg = observer.make_observer_config(IND, ENV, dt=0.01, noise_L=0.0)
        P = np.where(np.arange(400) < 100, P0, P1)
        L = model.eval_inductance(IND, F, P)
        filt = sig.design(sig.FilterSpec(3, 10), 100)
        sig.prime(filt, L[0])
        st = observer.reset(F, cfg)
        F_hat = np.empty(P.size)
        for i in range(P.size):
            st, F_hat[i], _ = observer.estimate_step(st, float(L[i]), float(P[i]),
                                                     IND, DYN, cfg, filt)
        assert np.all(F_hat < model.peak_force(IND, P1))
        assert np.max(np.abs(F_hat - F)) < 0.01
        assert np.max(np.abs(F_hat[-100:] - F)) < 1e-3

    def test_covariance_psd_over_many_steps(self):
        cfg = make_cfg()
        rng = np.random.default_rng(1)
        filt = sig.design(sig.FilterSpec(3, 10), 100)
        sig.prime(filt, 5.0)
        st = observer.reset(1.0, cfg)
        worst_asym, worst_eig = 0.0, np.inf
        for i in range(10_000):
            L = 4.9 + 0.2 * np.sin(0.002 * i) + 0.01 * rng.standard_normal()
            st, _, _ = observer.estimate_step(st, L, 0.3, IND, DYN, cfg, filt)
            worst_asym = max(worst_asym, abs(cov_of(st)[0, 1] - cov_of(st)[1, 0]))
            worst_eig = min(worst_eig, np.linalg.eigvalsh(cov_of(st)).min())
        assert worst_asym <= 1e-12
        assert worst_eig >= -1e-12

    def test_determinism(self):
        scn = plant.Scenario(kind="cyclic_estimation", p_levels=(0.0, 0.3),
                             cycles_per_level=1, cycle_period_s=4.0,
                             x_low=0.072, x_high=0.17)
        ds = plant.run_scenario(scn, plant.default_plant_config(seed=9))
        cfg = make_cfg()
        spec = sig.FilterSpec()
        a = observer.run_estimation(ds, IND, DYN, cfg, sig.design(spec, 100))
        b = observer.run_estimation(ds, IND, DYN, cfg, sig.design(spec, 100))
        assert np.array_equal(a["F_hat"], b["F_hat"])
        assert np.array_equal(a["x_hat"], b["x_hat"])


class TestBranchDisambiguation:
    def test_observer_smooth_inverter_jumps(self):
        pcfg = plant.default_plant_config(seed=0)
        p = plant.Plant(pcfg, x0=0.105, P0=0.2)
        cfg = make_cfg()
        dt = 0.01
        filt = sig.design(sig.FilterSpec(3, 10), 100)
        first = p.step(0.2, dt, x_cmd=0.105)
        sig.prime(filt, first.L_meas)
        st = observer.reset(first.F, cfg)
        F_true, F_obs, F_inv = [], [], []
        for i in range(int(20.0 / dt)):
            t = (i + 1) * dt
            x = 0.105 + 0.07 * 0.5 * (1 - np.cos(2 * np.pi * 0.1 * t))
            r = p.step(0.2, dt, x_cmd=x)
            st, F_hat, _ = observer.estimate_step(st, r.L_meas, r.P, IND, DYN, cfg, filt)
            F_inv.append(observer.nearest_preimage(r.L_meas, r.P, IND, ENV))
            F_true.append(r.F)
            F_obs.append(F_hat)
        F_true, F_obs, F_inv = map(np.array, (F_true, F_obs, F_inv))
        span = F_true.max() - F_true.min()
        # trajectory really crosses the peak
        assert F_true.min() < model.peak_force(IND, 0.2) < F_true.max()
        # observer stays on-branch; step-to-step moves bounded by plant rate
        max_step_true = np.abs(np.diff(F_true)).max()
        assert np.abs(np.diff(F_obs)).max() <= 3.0 * max_step_true
        assert np.abs(F_obs - F_true).max() < 0.05 * span
        # memoryless inverter flips between branches
        assert np.abs(np.diff(F_inv)).max() > 0.25 * span


class TestConfig:
    @pytest.mark.parametrize("init_cov", [
        [[np.nan, 0.0], [0.0, 1.0]], [[0.25, 0.0], [0.0, np.inf]],
        [[0.25, 0.1], [0.0, 1.0]], [[0.25, 0.0], [0.0, -1.0]], [[0.25, 1.0], [1.0, 1.0]]],
        ids=["nan", "inf", "asymmetric", "negative_variance", "indefinite"])
    def test_init_cov_rejected(self, init_cov):
        with pytest.raises(ValueError, match="init_cov"):
            replace(make_cfg(), init_cov=np.array(init_cov))

    def test_init_cov_seeds_the_state(self):
        cfg = replace(make_cfg(), init_cov=np.array([[0.5, 0.2], [0.2, 0.3]]))
        st = observer.reset(1.0, cfg)
        assert (st.var_F, st.cov_F_Fdot, st.var_Fdot) == (0.5, 0.2, 0.3)

    def test_validation(self):
        with pytest.raises(ValueError):
            ObserverConfig(dt=0.01, Q=np.eye(2), R=-1.0, envelope=ENV,
                           weights=CostWeights())
        with pytest.raises(ValueError):
            ObserverConfig(dt=0.01, Q=np.eye(2), R=1.0, envelope=ENV,
                           weights=CostWeights(), grid_points=8)
        with pytest.raises(ValueError):
            CostWeights(gamma=0.0)

    def test_noise_scaled_defaults(self):
        cfg = make_cfg()
        span = ENV.F_span
        assert cfg.weights.w_fit == 1.0
        assert cfg.weights.w_dyn == pytest.approx((3 * 0.01) ** 2 / (0.05 * span) ** 2)
        assert cfg.weights.w_reg == pytest.approx(0.1 * cfg.weights.w_dyn)
        assert cfg.weights.gamma == pytest.approx(25.0 / span ** 2)
        assert cfg.R == pytest.approx((0.01 / cfg.median_gradient) ** 2)
