import bisect
import math
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coilsense import model, observer, plant
from coilsense.plant import (IsotonicInfeasibleError, Plant, PlayElement,
                             PlantConfig, Scenario)
from test_observer import float_cost

IND = plant.reference_inductance_params()
DYN = plant.reference_dynamic_params()


def numpy_force(p, x, P, z):
    """The array form of ``Plant._force``, its reference: ``np.clip`` for
    the play operators and a BLAS dot product for their weighted sum."""
    cfg = p.cfg
    widths = np.array([h.width for h in cfg.hysteresis], dtype=float)
    weights = np.array([h.weight for h in cfg.hysteresis], dtype=float)
    u = x - cfg.dyn.x0
    z_new = np.clip(np.asarray(z, dtype=float), u - widths, u + widths)
    return cfg.dyn.k * u + cfg.dyn.c * P + float(weights @ z_new), z_new


def numpy_solve_isotonic(p, F_load, P):
    """The reference for ``Plant._solve_isotonic``: a left-to-right scan of
    the sorted knots on ``numpy_force`` (the range checks are left out:
    callers pass a reachable load)."""
    env, z = p.cfg.envelope, p.state.play_states
    widths = np.array([h.width for h in p.cfg.hysteresis], dtype=float)
    lo, hi = env.x_min, env.x_max
    f_lo, f_hi = numpy_force(p, lo, P, z)[0], numpy_force(p, hi, P, z)[0]
    if F_load <= max(f_lo, 0.0):
        return lo
    if F_load >= f_hi:
        return hi
    knots = np.sort(np.concatenate((np.asarray(z) - widths, np.asarray(z) + widths))
                    + p.cfg.dyn.x0)
    xa, fa = lo, f_lo
    for xb in knots[(knots > lo) & (knots < hi)].tolist():
        fb = numpy_force(p, xb, P, z)[0]
        if fb >= F_load:
            break
        xa, fa = xb, fb
    else:
        xb, fb = hi, f_hi
    return xa + (F_load - fa) * (xb - xa) / (fb - fa)


def bisection_solve_isotonic(p, F_load, P):
    """The sort-plus-bisection ``Plant._solve_isotonic`` that the walk
    from the last length replaced, on ``Plant._force``: the walk's
    reference, bit for bit, end cases and error message included."""
    env = p.cfg.envelope
    z = p.state.play_states
    widths = tuple(float(h.width) for h in p.cfg.hysteresis)
    lo, hi = env.x_min, env.x_max
    f_lo, f_hi = p._force(lo, P, z), p._force(hi, P, z)
    F_lo, F_hi = max(f_lo, 0.0), max(f_hi, 0.0)
    if F_load < F_lo - 1e-12 or F_load > F_hi + 1e-12:
        raise IsotonicInfeasibleError(
            f"load {F_load} N unreachable in x=[{lo}, {hi}] (force range [{F_lo:.4g}, {F_hi:.4g}])"
        )
    if F_load <= F_lo:
        return lo
    if F_load >= f_hi:
        return hi
    x0 = p.cfg.dyn.x0
    knots = ([zi - w + x0 for zi, w in zip(z, widths)]
             + [zi + w + x0 for zi, w in zip(z, widths)])
    knots = sorted(k for k in knots if lo < k < hi)
    xa, fa, xb, fb = lo, f_lo, hi, f_hi
    ia, ib = -1, len(knots)  # knot indices of xa and xb
    while ib - ia > 1:
        m = (ia + ib) // 2
        fm = p._force(knots[m], P, z)
        if fm >= F_load:
            ib, xb, fb = m, knots[m], fm
        else:
            ia, xa, fa = m, knots[m], fm
    return xa + (F_load - fa) * (xb - xa) / (fb - fa)


@dataclass(slots=True)
class StepResult:
    """Truth channels (F, x, L_clean, P) and sensed channels (L_meas,
    F_meas) of one ``oracle_step``."""

    t: float
    P: float
    x: float
    F: float
    L_clean: float
    L_meas: float
    F_meas: float


#: The channels of ``Plant.steps`` and ``Plant.run_kinematic``.
CHANNELS = ("t", "P", "x", "F", "L_clean", "L_meas", "F_meas")


def oracle_force(self, x: float, P: float, z: tuple) -> tuple:
    """Unclamped force and the advanced play states at a candidate
    length (the plant's force is ``max(F, 0)``).

    Each play state is clipped to [u - width, u + width], taking the
    bound on a tie as ``np.clip`` does, and its weighted term added
    left to right (not sum(), whose float rounding changed in Python
    3.12)."""
    dyn = self.cfg.dyn
    u = x - dyn.x0
    z_new = []
    acc = 0.0
    for zi, w, g in zip(z, self._widths, self._weights):
        lo = u - w
        hi = u + w
        zi = lo if zi <= lo else zi
        zi = hi if zi >= hi else zi
        z_new.append(zi)
        acc += g * zi
    return dyn.k * u + dyn.c * P + acc, tuple(z_new)


def oracle_step(self, P_cmd: float, dt: float, x_cmd: float | None = None,
                F_load: float | None = None) -> StepResult:
    """Advance one sample: valve lag, length constraint, hysteretic
    force, inductance, sensor noise.

    Exactly one of ``x_cmd`` (kinematic drive) or ``F_load``
    (isotonic balance) must be given.

    The per-sample oracle of ``Plant.steps`` and ``Plant.run_kinematic``:
    the plant's one-sample step before those replaced it, with its force
    (``oracle_force``) and its recurrence (``oracle_advance``), and the
    balance called with the state it read.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if (x_cmd is None) == (F_load is None):
        raise ValueError("provide exactly one of x_cmd or F_load")
    st = self.state
    cfg = self.cfg
    P, x, F, z_new = oracle_advance(self, P_cmd, dt, x_cmd, F_load)
    l1, l2, l3, l4, l5 = model._coeffs(cfg.ind, P)
    if not (l2 > 0.0 and l4 > 0.0 and math.isfinite(l1 + l2 + l3 + l4 + l5)):
        model.eval_coeffs(cfg.ind, P)  # raises its EnvelopeError
    L_clean = model._inductance_at(F, l1, l2, l3, l4, l5)
    # Both sensor channels draw every step so the noise stream does
    # not depend on which channel a caller consumes.
    L_meas = L_clean + cfg.noise_L * self.rng.standard_normal()
    F_meas = F + cfg.noise_F * self.rng.standard_normal()
    st.x, st.P, st.play_states, st.t = x, P, z_new, st.t + dt
    return StepResult(st.t, P, x, F, L_clean, L_meas, F_meas)


def oracle_advance(self, P_cmd: float, dt: float, x_cmd: float | None,
                   F_load: float | None) -> tuple:
    """The recurrence of one sample from the current state: valve
    lag, length (commanded, or balancing ``F_load``) and hysteretic
    force.  Returns ``(P, x, F, play_states)`` and writes no state."""
    st = self.state
    tau = self.cfg.valve_tau
    P = P_cmd + (st.P - P_cmd) * math.exp(-dt / tau) if tau > 0 else float(P_cmd)
    P = max(P, 0.0)
    x = (float(x_cmd) if x_cmd is not None
         else self._solve_isotonic(float(F_load), P, st.play_states, st.x))
    F, z_new = oracle_force(self, x, P, st.play_states)
    return P, x, max(F, 0.0), z_new


def oracle_run(p, P_cmd, dt, x_cmd=None, F_load=None) -> tuple:
    """``oracle_step`` over a sequence of commands: the channels of the
    samples it stepped, keyed as ``Plant.steps`` keys them, and the error
    of the sample that raised, or None."""
    drive = [{"x_cmd": x} for x in x_cmd] if F_load is None else [{"F_load": f} for f in F_load]
    results, error = [], None
    try:
        for P, d in zip(P_cmd, drive):
            results.append(oracle_step(p, P, dt, **d))
    except (IsotonicInfeasibleError, model.EnvelopeError) as e:
        error = e
    return {name: [getattr(r, name) for r in results] for name in CHANNELS}, error


def step(p, P_cmd, dt, x_cmd=None, F_load=None):
    """One sample of ``Plant.steps``, its channels as attributes."""
    run = p.steps([P_cmd], dt, x_cmd=None if x_cmd is None else [x_cmd],
                  F_load=None if F_load is None else [F_load])
    return SimpleNamespace(**{name: col[0] for name, col in run.items()})


#: The unit roundoff of doubles.
U = 2.0 ** -53


def force_error_bound(p, x, P, z):
    """Bound on |Plant._force - numpy_force| at x.  Each rounds any term
    of k u + c P + sum(w z) at most n + 3 times for n play elements, so
    each is within (n + 3) u of the exact force times the sum of the
    terms' absolute values (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 3.1); the bound is twice that."""
    cfg = p.cfg
    _, z_new = numpy_force(p, x, P, z)
    weights = np.array([h.weight for h in cfg.hysteresis], dtype=float)
    terms = (abs(cfg.dyn.k * (x - cfg.dyn.x0)) + abs(cfg.dyn.c * P)
             + float(np.abs(weights) @ np.abs(z_new)))
    return 2 * (weights.size + 3) * U * terms


def isotonic_error_bound(p, x, P):
    """Bound on |Plant._solve_isotonic - numpy_solve_isotonic| near x.
    The two interpolate on forces at the envelope ends and the knots,
    which differ by at most delta (``force_error_bound``); that moves
    the interpolated length by at most delta / k, as every segment's
    slope is at least k.  Each interpolation rounds six times on
    positive terms, so it is within 6 u x of its exact value, and the
    two within 12 u x of each other."""
    env, z = p.cfg.envelope, p.state.play_states
    widths = np.array([h.width for h in p.cfg.hysteresis], dtype=float)
    knots = np.concatenate((np.asarray(z) - widths, np.asarray(z) + widths)) + p.cfg.dyn.x0
    ends = [env.x_min, env.x_max] + knots[(knots > env.x_min) & (knots < env.x_max)].tolist()
    delta = max(force_error_bound(p, xk, P, z) for xk in ends)
    return delta / p.cfg.dyn.k + 12 * U * abs(x)


def ideal_config(**overrides):
    """No hysteresis, no noise, no valve lag."""
    base = dict(hysteresis=(), noise_L=0.0, noise_F=0.0, valve_tau=0.0, seed=0)
    base.update(overrides)
    return plant.default_plant_config(**base)


class TestStep:
    def test_slack_state(self):
        p = Plant(ideal_config())
        r = step(p, 0.0, 0.01, x_cmd=DYN.x0)
        assert r.F == 0.0
        assert r.L_clean == model.eval_coeffs(IND, 0.0)[4]

    def test_linear_degeneration(self):
        p = Plant(ideal_config())
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = rng.uniform(0.10, 0.18)
            P = rng.uniform(0.0, 0.65)
            r = step(p, P, 0.01, x_cmd=x)
            assert r.F == model.eval_dynamic_force(DYN, x, P)

    def test_truth_on_inductance_surface(self):
        p = Plant(plant.default_plant_config(seed=1))
        rng = np.random.default_rng(1)
        for _ in range(100):
            r = step(p, rng.uniform(0, 0.6), 0.01, x_cmd=rng.uniform(0.08, 0.17))
            assert r.L_clean == model._inductance_at(r.F, *model.eval_coeffs(IND, r.P))
            # numpy's power and exp can differ from math's in the last bit
            ref = model.eval_inductance(IND, r.F, r.P)
            assert abs(r.L_clean - ref) <= 2 * math.ulp(ref)

    def test_valve_lag(self):
        cfg = ideal_config(valve_tau=0.1)
        p = Plant(cfg, P0=0.0)
        r = step(p, 0.5, 0.1, x_cmd=0.12)
        assert r.P == pytest.approx(0.5 * (1 - np.exp(-1.0)), rel=1e-12)
        p2 = Plant(ideal_config(), P0=0.0)
        assert step(p2, 0.5, 0.01, x_cmd=0.12).P == 0.5

    def test_requires_one_command(self):
        p = Plant(ideal_config())
        with pytest.raises(ValueError, match="exactly one"):
            p.steps([0.1], 0.01)
        with pytest.raises(ValueError, match="exactly one"):
            p.steps([0.1], 0.01, x_cmd=[0.1], F_load=[1.0])
        with pytest.raises(ValueError, match="2 pressure commands against 1 loads"):
            p.steps([0.1, 0.2], 0.01, F_load=[1.0])
        with pytest.raises(ValueError, match="dt must be positive") as err:
            p.steps([0.1], 0.0, x_cmd=[0.1])
        # raised before the first sample: none completed, the state as it was
        assert all(col == [] for col in err.value.completed.values())
        fresh = Plant(ideal_config())
        assert p.state == fresh.state and p.rng.bit_generator.state == fresh.rng.bit_generator.state


#: Plant configs that switch off one part of a sample at a time.
STEP_CONFIGS = {"default": {}, "no_valve_lag": {"valve_tau": 0.0},
                "no_hysteresis": {"hysteresis": ()}, "no_noise": {"noise_L": 0.0, "noise_F": 0.0}}


def check_steps(p, P_cmd, dt=0.01, **drive):
    """``p.steps`` against ``oracle_step`` per sample on a copy of ``p``,
    bit for bit: every channel (of the samples before an error, if one
    raises), the error, the final state and the next noise draw.  Returns
    the channels and the error, or None."""
    twin = p.copy()
    want, want_err = oracle_run(twin, P_cmd, dt, **drive)
    try:
        got, got_err = p.steps(P_cmd, dt, **drive), None
    except (IsotonicInfeasibleError, model.EnvelopeError) as e:
        got, got_err = e.completed, e
    assert (type(got_err), str(got_err)) == (type(want_err), str(want_err))
    assert sorted(got) == sorted(CHANNELS)
    for name in CHANNELS:
        assert bits(got[name]) == bits(want[name]), name
        assert all(type(v) is float for v in got[name]), name
    for name in ("x", "P", "t", "play_states"):
        assert bits(getattr(p.state, name)) == bits(getattr(twin.state, name)), name
    assert all(type(v) is float for v in (p.state.x, p.state.P, p.state.t, *p.state.play_states))
    assert p.rng.standard_normal() == twin.rng.standard_normal()
    return got, got_err


class TestSteps:
    """``Plant.steps`` gives the bits of ``oracle_step`` per sample."""

    @pytest.mark.parametrize("overrides", STEP_CONFIGS.values(), ids=STEP_CONFIGS.keys())
    @pytest.mark.parametrize("drive", ["kinematic", "isotonic"])
    def test_equals_the_oracle_bit_for_bit(self, overrides, drive):
        # a new pressure every sample, and a second run that continues
        # from the state and the noise stream the first left
        cfg = plant.default_plant_config(seed=5, **overrides)
        p = Plant(cfg, x0=0.12, P0=0.2)
        rng = np.random.default_rng(17)
        for n in (300, 40):
            P_cmd = rng.uniform(0.0, 0.65, n).tolist()
            if drive == "kinematic":
                got, err = check_steps(p, P_cmd, x_cmd=rng.uniform(0.07, 0.18, n).tolist())
            else:
                got, err = check_steps(p, P_cmd, F_load=rng.uniform(0.3, 2.5, n).tolist())
            assert err is None and len(got["t"]) == n

    def test_a_slow_isotonic_run_equals_the_oracle(self):
        # the closed loop's case: the balance moves a little each sample
        p = Plant(plant.default_plant_config(seed=9), x0=0.12, P0=0.25)
        t = 0.01 * (np.arange(1500) + 1)
        check_steps(p, (0.25 + 0.1 * np.sin(0.5 * t)).tolist(),
                    F_load=(1.1 + 0.4 * np.sin(1.3 * t)).tolist())

    @pytest.mark.parametrize("overrides", STEP_CONFIGS.values(), ids=STEP_CONFIGS.keys())
    def test_a_held_length_equals_the_oracle(self, overrides):
        # at a length equal to the last sample's, the play states and their
        # sum are reused, where the oracle clips them on every sample: a
        # fresh plant's first sample at its own length (its states lie
        # outside the band there), holds, lengths that leave and return, and
        # a second call that starts at the length the first ended on
        cfg = plant.default_plant_config(seed=6, **overrides)
        p = Plant(cfg, x0=0.12, P0=0.2)
        rng = np.random.default_rng(23)
        first = [0.12] * 40 + [0.13] * 3 + [0.12] * 30 + [0.125, 0.12, 0.12] + [0.09] * 20
        for x_cmd in (first, [0.09] * 10 + [0.12] * 5 + [0.09]):
            got, err = check_steps(p, rng.uniform(0.0, 0.65, len(x_cmd)).tolist(), x_cmd=x_cmd)
            assert err is None and got["x"] == x_cmd

    def test_pieces_equal_one_call(self):
        cfg = plant.default_plant_config(seed=4)
        a, b = Plant(cfg, x0=0.12, P0=0.3), Plant(cfg, x0=0.12, P0=0.3)
        rng = np.random.default_rng(5)
        P_cmd = rng.uniform(0.0, 0.65, 200).tolist()
        loads = rng.uniform(0.3, 2.5, 200).tolist()
        whole = a.steps(P_cmd, 0.01, F_load=loads)
        cuts = [0, 0, 1, 5, 6, 77, 150, 200]  # an empty piece too
        pieces = [b.steps(P_cmd[i:j], 0.01, F_load=loads[i:j]) for i, j in zip(cuts, cuts[1:])]
        for name in CHANNELS:
            assert bits(whole[name]) == bits([v for run in pieces for v in run[name]]), name
        assert a.state == b.state
        assert a.rng.bit_generator.state == b.rng.bit_generator.state

    @pytest.mark.parametrize("j", [0, 1, 7])
    def test_an_unreachable_load_raises_after_the_samples_before_it(self, j):
        p = Plant(plant.default_plant_config(seed=2), x0=0.12, P0=0.3)
        loads = [1.1 + 0.01 * i for i in range(10)]
        loads[j] = 50.0
        got, err = check_steps(p, [0.3] * 10, F_load=loads)
        assert isinstance(err, IsotonicInfeasibleError) and len(got["t"]) == j

    def test_a_map_leaving_the_envelope_raises_at_its_sample(self):
        # lambda2 = -3 P + 1.3 falls to 0 at P = 0.433 MPa, between the
        # 14th and the 15th command
        coeffs = list(plant._REFERENCE_P)
        coeffs[2] = -3.0
        cfg = plant.default_plant_config(seed=0, valve_tau=0.0,
                                         ind=model.InductanceParams(tuple(coeffs)))
        p = Plant(cfg, x0=0.12)
        got, err = check_steps(p, [0.3 + 0.01 * i for i in range(21)], x_cmd=[0.12] * 21)
        assert isinstance(err, model.EnvelopeError) and "lambda2=" in str(err)
        assert len(got["t"]) == 14


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
            r = step(p, 0.2, dt, x_cmd=x)
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
            r = step(p, 0.2, dt, x_cmd=x)
            (up if ph < 0.5 else down).append((r.F, r.L_clean))
        up, down = np.array(up), np.array(down)
        pred_down = model.eval_inductance(IND, down[:, 0], 0.2)
        assert np.allclose(down[:, 1], pred_down, atol=1e-12)
        pred_up = model.eval_inductance(IND, up[:, 0], 0.2)
        assert np.allclose(up[:, 1], pred_up, atol=1e-12)

    def test_play_element_validation(self):
        with pytest.raises(ValueError):
            PlayElement(width=-0.001, weight=1.0)

    @pytest.mark.parametrize("width,weight", [(float("nan"), 1.0), (0.01, float("nan")),
                                              (float("inf"), 1.0), (0.01, float("inf"))])
    def test_play_element_must_be_finite(self, width, weight):
        # the isotonic search needs a force that is monotone in the length
        with pytest.raises(ValueError, match="finite"):
            PlayElement(width=width, weight=weight)


class TestIsotonic:
    def test_balance_residual(self):
        cfg = plant.default_plant_config(noise_L=0.0, noise_F=0.0)
        p = Plant(cfg, x0=0.12)
        rng = np.random.default_rng(3)
        for _ in range(100):
            load = rng.uniform(0.5, 2.5)
            r = step(p, rng.uniform(0.0, 0.4), 0.01, F_load=load)
            assert abs(r.F - load) <= 1e-6

    def test_infeasible_load(self):
        p = Plant(ideal_config())
        with pytest.raises(IsotonicInfeasibleError):
            step(p, 0.0, 0.01, F_load=50.0)

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
        r = step(p, P, 0.01, F_load=F_load)
        assert abs(r.x - x_ref) <= 1e-12
        assert abs(r.F - F_load) <= 1e-9

    def test_matches_bisection(self):
        cfg = plant.default_plant_config(noise_L=0.0, noise_F=0.0, valve_tau=0.0)
        p = Plant(cfg, x0=0.12)
        rng = np.random.default_rng(11)
        env = cfg.envelope
        for _ in range(200):
            for _ in range(rng.integers(0, 4)):  # a random play history
                step(p, rng.uniform(0.0, 0.65), 0.01, x_cmd=rng.uniform(env.x_min, env.x_max))
            P = rng.uniform(0.0, 0.65)
            F_load = rng.uniform(self.force(p, env.x_min, P), self.force(p, env.x_max, P))
            self.check(p, F_load, P)

    def test_segment_clamped_at_lower_end(self):
        # after a stretch to 0.16 m the first segment runs from x_min,
        # where the unclamped force is about -1.3 N at P = 0
        p = Plant(ideal_config(hysteresis=plant.default_hysteresis()), x0=0.10)
        step(p, 0.0, 0.01, x_cmd=0.16)
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
            assert solve_at_state(p, F_load, P) == x
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


class TestFloatState:
    @pytest.mark.parametrize("n_play", [1, 4, 15])
    def test_force_and_isotonic_match_array_form(self, n_play):
        rng = np.random.default_rng(30 + n_play)
        hyst = tuple(PlayElement(width=float(w), weight=float(g)) for w, g in
                     zip(rng.uniform(0.001, 0.02, n_play), rng.uniform(0.3, 5.0, n_play)))
        cfg = plant.default_plant_config(hysteresis=hyst, valve_tau=0.0, seed=n_play)
        p = Plant(cfg, x0=0.12)
        env = cfg.envelope
        for _ in range(300):
            P = float(rng.uniform(0.0, 0.65))
            x = float(rng.uniform(env.x_min, env.x_max))
            z = p.state.play_states
            F, (z_new, acc) = p._force(x, P, z), p._play(x, z)
            assert F == cfg.dyn.k * (x - cfg.dyn.x0) + cfg.dyn.c * P + acc  # as steps sums it
            F_ref, z_ref = numpy_force(p, x, P, z)
            assert abs(F - F_ref) <= force_error_bound(p, x, P, z)
            assert np.array(z_new).tobytes() == z_ref.tobytes()
            if rng.uniform() < 0.5:
                step(p, P, 0.01, x_cmd=x)
                continue
            f_lo = max(numpy_force(p, env.x_min, P, p.state.play_states)[0], 0.0)
            f_hi = numpy_force(p, env.x_max, P, p.state.play_states)[0]
            F_load = float(rng.uniform(f_lo, f_hi))
            x_ref = numpy_solve_isotonic(p, F_load, P)
            assert abs(solve_at_state(p, F_load, P) - x_ref) <= isotonic_error_bound(p, x_ref, P)
            step(p, P, 0.01, F_load=F_load)

    def test_play_states_are_python_floats(self):
        p = Plant(plant.default_plant_config(seed=0), x0=0.12)
        step(p, 0.2, 0.01, x_cmd=0.14)
        step(p, 0.2, 0.01, F_load=1.2)
        assert all(type(z) is float for z in p.state.play_states)

    def test_copy_is_independent_and_equal(self):
        p = Plant(plant.default_plant_config(seed=5), x0=0.12, P0=0.2)
        for i in range(50):
            step(p, 0.2, 0.01, x_cmd=0.12 + 0.001 * i)
        twin = p.copy()
        a = [step(p, 0.3, 0.01, F_load=1.1) for _ in range(30)]
        b = [step(twin, 0.3, 0.01, F_load=1.1) for _ in range(30)]
        assert a == b


def solve_at_state(p, F_load, P):
    """``Plant._solve_isotonic`` from the plant's play states and last length."""
    return p._solve_isotonic(F_load, P, p.state.play_states, p.state.x)


def solve_outcome(solve, F_load, P):
    """A solve's length as its float bits, or its error message."""
    try:
        return float.hex(solve(F_load, P))
    except IsotonicInfeasibleError as e:
        return f"IsotonicInfeasibleError: {e}"


def edge_loads(p, P, rng):
    """Loads on every knot's force, at and around f(x_min), f(x_max) and
    0, beyond both ends, and random ones in between."""
    env, z, x0 = p.cfg.envelope, p.state.play_states, p.cfg.dyn.x0
    widths = [h.width for h in p.cfg.hysteresis]
    knots = [zi + s * w + x0 for zi, w in zip(z, widths) for s in (-1.0, 1.0)]
    f_lo, f_hi = p._force(env.x_min, P, z), p._force(env.x_max, P, z)
    loads = [p._force(k, P, z) for k in knots]
    for f in (f_lo, f_hi, 0.0):
        loads += [f, f - 5e-13, f + 5e-13, f - 2e-12, f + 2e-12, f - 1.0, f + 1.0]
    loads += [-0.0, math.inf, -math.inf]
    loads += rng.uniform(min(f_lo, 0.0) - 0.1, f_hi + 0.1, 8).tolist()
    return loads


class TestWarmStartedBalance:
    """``_solve_isotonic`` walks from the segment of the last length; it
    must give the bits, and the errors, of the bisection it replaced."""

    @pytest.mark.parametrize("x_min", [0.07, 0.095])
    @pytest.mark.parametrize("n_play", [1, 4, 15])
    def test_equals_bisection_bit_for_bit(self, n_play, x_min):
        rng = np.random.default_rng(60 + n_play)
        widths = rng.uniform(0.001, 0.02, n_play)
        widths[rng.uniform(size=n_play) < 0.3] = 0.0  # zero-width: duplicate knots
        widths[-1] = widths[0]  # a duplicate element: its knots coincide with the first's
        hyst = tuple(PlayElement(width=float(w), weight=float(g))
                     for w, g in zip(widths, rng.uniform(0.3, 5.0, n_play)))
        env = replace(plant.default_envelope(), x_min=x_min)
        cfg = plant.default_plant_config(hysteresis=hyst, envelope=env, valve_tau=0.0,
                                         noise_L=0.0, noise_F=0.0)
        p = Plant(cfg, x0=0.12)
        checked = set()
        for _ in range(30):
            for _ in range(rng.integers(1, 5)):  # a random play history
                x = float(rng.uniform(env.x_min - 0.01, env.x_max + 0.01))
                step(p, float(rng.uniform(0.0, 0.65)), 0.01, x_cmd=x)
            P = float(rng.uniform(0.0, 0.65))
            x_last = p.state.x
            for F_load in edge_loads(p, P, rng):
                want = solve_outcome(lambda F, P: bisection_solve_isotonic(p, F, P), F_load, P)
                checked.add(want.split(":")[0])
                for x_start in (x_last, env.x_min - 0.02, env.x_max + 0.02,
                                float(rng.uniform(env.x_min, env.x_max))):
                    p.state.x = x_start  # the walk's start, outside the envelope too
                    got = solve_outcome(lambda F, P: solve_at_state(p, F, P), F_load, P)
                    assert got == want, (F_load, x_start)
                p.state.x = x_last
            load = float(rng.uniform(max(p._force(env.x_min, P, p.state.play_states), 0.0),
                                     p._force(env.x_max, P, p.state.play_states)))
            step(p, P, 0.01, F_load=load)
        assert "IsotonicInfeasibleError" in checked and len(checked) > 2

    def test_knots_a_rounding_inside_the_ends(self):
        # with a tiny stiffness and zero weights the force at a knot one
        # float inside x_max (or x_min) rounds to the force at that end,
        # so a load equal to both takes the end, as the bisection does
        hyst = (PlayElement(width=0.004, weight=0.0), PlayElement(width=0.006, weight=0.0))
        cfg = plant.default_plant_config(hysteresis=hyst, valve_tau=0.0,
                                         dyn=replace(DYN, k=1e-6))
        env, x0 = cfg.envelope, DYN.x0
        p = Plant(cfg, x0=0.12)
        p.state.play_states = (math.nextafter(env.x_max, 0.0) - x0 - 0.004,
                               math.nextafter(env.x_min, 1.0) - x0 + 0.006)
        z, P = p.state.play_states, 0.3
        knots = (z[0] + 0.004 + x0, z[1] - 0.006 + x0)
        assert env.x_min < knots[1] < knots[0] < env.x_max
        assert p._force(knots[0], P, z) == p._force(env.x_max, P, z)
        assert p._force(knots[1], P, z) == p._force(env.x_min, P, z)
        rng = np.random.default_rng(7)
        for F_load in edge_loads(p, P, rng):
            want = solve_outcome(lambda F, P: bisection_solve_isotonic(p, F, P), F_load, P)
            for x_start in (env.x_min, knots[1], 0.12, knots[0], env.x_max):
                p.state.x = x_start
                got = solve_outcome(lambda F, P: solve_at_state(p, F, P), F_load, P)
                assert got == want, (F_load, x_start)

    def test_a_slow_run_evaluates_few_forces(self, monkeypatch):
        # the last step leaves every play state within its width of the
        # last length, so a slowly moving balance mostly stays in the
        # start segment: two force values per solve, and more only to
        # step over knots bunched at the last length after a stretch
        # (about 5 for a bisection over the 8 knots from the ends)
        p = Plant(plant.default_plant_config(seed=2), x0=0.12, P0=0.25)

        def run():
            for i in range(2000):
                t = 0.01 * (i + 1)
                step(p, 0.25 + 0.1 * np.sin(0.5 * t), 0.01, F_load=1.1 + 0.4 * np.sin(1.3 * t))

        calls = forces_per_solve(monkeypatch, run)
        assert len(calls) == 2000
        assert np.median(calls) == 2 and np.mean(calls) <= 3

    def test_a_steady_hold_evaluates_each_knot_once(self, monkeypatch):
        # a hold leaves the trailing knots of three dragged states at the
        # held length; the walk passes their copies without evaluating
        # the same force again (6 a solve when it evaluated each)
        p = Plant(plant.default_plant_config(seed=2), x0=0.12, P0=0.3)
        calls = forces_per_solve(
            monkeypatch, lambda: p.steps([0.3] * 2000, 0.01, F_load=[1.1] * 2000))
        assert len(calls) == 2000
        assert max(calls) <= 4


def forces_per_solve(monkeypatch, run) -> list:
    """The number of force evaluations in each ``Plant._solve_isotonic``
    call that ``run()`` makes, counted by a spy on ``Plant._force``."""
    calls = []
    solving = []
    force = Plant._force

    def counted(self, *args):
        if solving:  # forces the balance evaluates, outside it none are counted
            calls[-1] += 1
        return force(self, *args)

    solve = Plant._solve_isotonic

    def spy(self, *args):
        calls.append(0)
        solving.append(True)
        try:
            return solve(self, *args)
        finally:
            solving.pop()

    monkeypatch.setattr(Plant, "_force", counted)
    monkeypatch.setattr(Plant, "_solve_isotonic", spy)
    run()
    return calls


def sorted_walk_solve_isotonic(p, F_load, P):
    """The walk that the one-pass start replaced: the knots sorted with the
    envelope ends, the segment that holds the last length found by
    bisection, then one segment at a time to the balance.  The reference
    for ``Plant._solve_isotonic``, bit for bit, errors included."""
    env = p.cfg.envelope
    z = p.state.play_states
    widths = tuple(float(h.width) for h in p.cfg.hysteresis)
    lo, hi = env.x_min, env.x_max

    def force(x):
        return p._force(x, P, z)

    if F_load <= 0.0:
        if F_load < max(force(lo), 0.0) - 1e-12:
            raise p._unreachable(F_load, P, z)
        return lo
    x0 = p.cfg.dyn.x0
    xs = [lo] + sorted(k for zi, w in zip(z, widths)
                       for k in (zi - w + x0, zi + w + x0) if lo < k < hi) + [hi]
    last = len(xs) - 1
    a = bisect.bisect_right(xs, p.state.x, 1, last) - 1
    fa, fb = force(xs[a]), force(xs[a + 1])
    while fb < F_load:
        if a + 1 == last:
            if F_load > max(fb, 0.0) + 1e-12:
                raise p._unreachable(F_load, P, z)
            return hi
        a += 1
        fa, fb = fb, force(xs[a + 1])
    while fa >= F_load:
        if a == 0:
            if F_load < fa - 1e-12:
                raise p._unreachable(F_load, P, z)
            return lo
        a -= 1
        fa, fb = force(xs[a]), fa
    if F_load == fb and F_load >= force(hi):
        return hi
    return xs[a] + (F_load - fa) * (xs[a + 1] - xs[a]) / (fb - fa)


@st.composite
def isotonic_cases(draw):
    """A plant with 1 to 6 play elements (zero widths and weights too), its
    play states and last length (outside the envelope too), a pressure
    and a load: random, on a knot's force, or on either side of one."""
    n = draw(st.integers(1, 6))
    unit = st.floats(0.0, 1.0)
    hyst = tuple(PlayElement(width=0.02 * draw(unit), weight=5.0 * draw(unit)) for _ in range(n))
    cfg = plant.default_plant_config(hysteresis=hyst, valve_tau=0.0, noise_L=0.0, noise_F=0.0)
    p = Plant(cfg, x0=0.12)
    p.state.play_states = tuple(draw(st.floats(-0.06, 0.1)) for _ in range(n))
    p.state.x = draw(st.floats(0.05, 0.2))
    P = draw(st.floats(0.0, 0.65))
    z, x0 = p.state.play_states, cfg.dyn.x0
    knots = [zi + s * h.width + x0 for zi, h in zip(z, hyst) for s in (-1.0, 1.0)]
    knots += [cfg.envelope.x_min, cfg.envelope.x_max]
    F_knot = p._force(draw(st.sampled_from(knots)), P, z)
    F_load = draw(st.one_of(st.floats(-1.0, 8.0), st.just(F_knot),
                            st.just(math.nextafter(F_knot, math.inf)),
                            st.just(math.nextafter(F_knot, -math.inf))))
    return p, F_load, P


@settings(max_examples=400, deadline=None)
@given(isotonic_cases())
def test_isotonic_balance_equals_a_sorted_knot_walk(case):
    p, F_load, P = case
    want = solve_outcome(lambda F, P: sorted_walk_solve_isotonic(p, F, P), F_load, P)
    assert solve_outcome(lambda F, P: solve_at_state(p, F, P), F_load, P) == want


def kinematic_commands(scenario, cfg):
    """The pressure and length commands of a kinematic scenario, and
    its starting length, as ``run_scenario`` makes them."""
    dt = 1.0 / cfg.sensor_rate_hz
    n = int(round(scenario.total_duration_s / dt))
    times = (np.arange(n) + 1) * dt
    block = scenario.cycles_per_level * scenario.cycle_period_s
    if scenario.kind == "isometric_sweep":
        lvl = np.minimum((times / block).astype(int), len(scenario.x_levels) - 1)
        x_cmd = np.asarray(scenario.x_levels, dtype=float)[lvl]
        raw = scenario.p_cycle_max * plant._tri01(times / scenario.cycle_period_s)
        p_cmd = np.round(raw / scenario.p_cycle_step) * scenario.p_cycle_step
        return p_cmd, x_cmd, float(scenario.x_levels[0])
    lvl = np.minimum((times / block).astype(int), len(scenario.p_levels) - 1)
    p_cmd = np.asarray(scenario.p_levels, dtype=float)[lvl]
    x_cmd = scenario.x_low + (scenario.x_high - scenario.x_low) * plant._tri01(
        times / scenario.cycle_period_s)
    return p_cmd, x_cmd, scenario.x_low


def stepped_scenario(scenario, cfg):
    """The reference for the kinematic kinds of ``run_scenario``: one
    ``oracle_step`` per sample.  Returns the channels keyed by
    ``StepResult`` field and the plant the steps leave."""
    p_cmd, x_cmd, x0 = kinematic_commands(scenario, cfg)
    p = Plant(cfg, x0=x0)
    dt = 1.0 / cfg.sensor_rate_hz
    results = [oracle_step(p, p_cmd[i], dt, x_cmd=float(x_cmd[i])) for i in range(p_cmd.size)]
    return {name: np.array([getattr(r, name) for r in results])
            for name in ("t", "P", "x", "F", "L_clean", "L_meas", "F_meas")}, p


KINEMATIC_SCENARIOS = {
    "isobaric_sweep": Scenario.isobaric_sweep(cycles=1, cycle_period_s=1.0),
    "calibration_grid": Scenario.calibration_grid(cycle_period_s=0.5),
    "cyclic_estimation": Scenario.cyclic_estimation(cycle_period_s=1.0),
    "isometric_sweep": Scenario.isometric_sweep(cycles=1, cycle_period_s=1.0),
}


class TestKinematicRun:
    """``run_scenario`` runs the kinematic kinds on whole arrays; an
    ``oracle_step`` per sample is the reference."""

    @pytest.mark.parametrize("kind", sorted(KINEMATIC_SCENARIOS))
    @pytest.mark.parametrize("overrides", [
        {}, {"valve_tau": 0.0}, {"noise_L": 0.0, "noise_F": 0.0}, {"hysteresis": ()}],
        ids=["default", "no_valve_lag", "no_noise", "no_hysteresis"])
    def test_equals_stepping_bit_for_bit(self, kind, overrides):
        scn = KINEMATIC_SCENARIOS[kind]
        cfg = plant.default_plant_config(seed=11, **overrides)
        ds, truth = plant.run_scenario(scn, cfg, return_truth=True)
        ref, _ = stepped_scenario(scn, cfg)
        for col, name in (("t", "t"), ("P", "P"), ("L", "L_meas"), ("F", "F_meas"),
                          ("x", "x")):
            assert np.array_equal(getattr(ds, col), ref[name]), col
        assert sorted(truth) == ["F", "L_clean", "P", "x"]
        for name, col in truth.items():
            assert np.array_equal(col, ref[name]), name

    @pytest.mark.parametrize("kind", sorted(KINEMATIC_SCENARIOS))
    def test_leaves_the_state_and_noise_stream_of_stepping(self, kind):
        scn = KINEMATIC_SCENARIOS[kind]
        cfg = plant.default_plant_config(seed=3)
        ref, stepped = stepped_scenario(scn, cfg)
        p_cmd, x_cmd, x0 = kinematic_commands(scn, cfg)
        p = Plant(cfg, x0=x0)
        run = p.run_kinematic(p_cmd, x_cmd, 1.0 / cfg.sensor_rate_hz)
        for name, col in ref.items():
            assert np.array_equal(run[name], col), name
        assert p.state == stepped.state
        assert all(type(v) is float for v in (p.state.x, p.state.P, p.state.t))
        assert p.rng.bit_generator.state == stepped.rng.bit_generator.state

    def test_continues_from_a_stepped_plant(self):
        cfg = plant.default_plant_config(seed=8)
        a, b = Plant(cfg, x0=0.11), Plant(cfg, x0=0.11)
        for p in (a, b):
            for i in range(7):
                oracle_step(p, 0.1 * i, 0.01, x_cmd=0.11 + 0.002 * i)
        P_cmd = np.linspace(0.0, 0.6, 50)
        x_cmd = 0.12 + 0.02 * np.sin(np.arange(50) / 5.0)
        run = a.run_kinematic(P_cmd, x_cmd, 0.01)
        steps = [oracle_step(b, P, 0.01, x_cmd=x) for P, x in zip(P_cmd.tolist(), x_cmd.tolist())]
        for name, col in run.items():
            assert col.tolist() == [getattr(r, name) for r in steps], name
        assert a.state == b.state
        assert a.rng.bit_generator.state == b.rng.bit_generator.state

    def test_map_leaving_the_envelope_still_raises(self):
        # lambda2 = -3 P + 1.3 falls to 0 at P = 0.433 MPa, inside the grid's 0.65 MPa
        p = list(plant._REFERENCE_P)
        p[2] = -3.0
        cfg = plant.default_plant_config(seed=0, ind=model.InductanceParams(tuple(p)))
        scn = KINEMATIC_SCENARIOS["calibration_grid"]
        with pytest.raises(model.EnvelopeError) as batched:
            plant.run_scenario(scn, cfg)
        with pytest.raises(model.EnvelopeError) as stepped:
            stepped_scenario(scn, cfg)
        assert "lambda2=" in str(batched.value)
        assert str(batched.value) == str(stepped.value)

    def test_shorter_than_one_sample_is_rejected(self):
        scn = Scenario.isobaric_sweep(cycles=1, cycle_period_s=1e-9)
        assert scn.samples(100.0) == 0
        with pytest.raises(ValueError, match="shorter than one sample"):
            plant.run_scenario(scn, plant.default_plant_config())
        with pytest.raises(ValueError):
            Plant(plant.default_plant_config()).run_kinematic([], [], 0.01)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_length_is_rejected_before_any_state(self, bad):
        # the run solve orders the lengths, which a NaN has no place in
        p = Plant(plant.default_plant_config(seed=1), x0=0.11)
        before, rng_before = replace(p.state), p.rng.bit_generator.state
        with pytest.raises(ValueError, match="length commands must be finite"):
            p.run_kinematic([0.1, 0.2, 0.3], [0.11, bad, 0.12], 0.01)
        assert p.state == before
        assert p.rng.bit_generator.state == rng_before


def bits(values) -> bytes:
    """The IEEE bits of a float or a sequence of floats (-0.0 and 0.0 differ)."""
    return np.asarray(values, dtype=float).tobytes()


@st.composite
def kinematic_cases(draw):
    """A plant with 0 to 5 play elements (zero widths too), maybe stepped
    first at other lengths so its play states lie outside the band of the
    run's first sample, and pressure and length commands.  The lengths
    reverse every sample, walk at random, hop between a few levels (so a
    play state meets a bound it was clipped to before), or are flat at
    the start, at the end or throughout; one sample is a run too."""
    n_play = draw(st.integers(0, 5))
    width = st.one_of(st.just(0.0), st.floats(0.0, 0.02))
    hyst = tuple(PlayElement(width=draw(width), weight=draw(st.floats(0.0, 5.0)))
                 for _ in range(n_play))
    cfg = plant.default_plant_config(hysteresis=hyst, seed=draw(st.integers(0, 3)),
                                     valve_tau=draw(st.sampled_from([0.0, 0.1])))
    p = Plant(cfg, x0=draw(st.floats(0.07, 0.18)), P0=draw(st.floats(0.0, 0.65)))
    for _ in range(draw(st.integers(0, 4))):
        step(p, draw(st.floats(0.0, 0.65)), 0.01, x_cmd=draw(st.floats(0.07, 0.18)))
    n = draw(st.integers(1, 80))
    shape = draw(st.sampled_from(["reversal", "walk", "levels", "flat"]))
    start = draw(st.floats(0.07, 0.18))
    if shape == "reversal":
        x = start + draw(st.floats(1e-9, 0.02)) * (-1.0) ** np.arange(n)
    elif shape == "levels":
        levels = [draw(st.floats(0.07, 0.18)) for _ in range(3)]
        x = np.array([draw(st.sampled_from(levels)) for _ in range(n)])
    else:
        steps = np.zeros(n)
        if shape == "walk":
            lead, tail = draw(st.integers(0, n)), draw(st.integers(0, n))
            steps[lead:max(lead, n - tail)] = [
                draw(st.one_of(st.just(0.0), st.floats(-0.01, 0.01)))
                for _ in range(lead, max(lead, n - tail))]
        x = start + np.cumsum(steps)
    P_cmd = [draw(st.floats(0.0, 0.65)) for _ in range(n)]
    return p, P_cmd, x.tolist()


@settings(max_examples=300, deadline=None)
@given(kinematic_cases())
def test_kinematic_run_equals_stepping_bit_for_bit(case):
    a, P_cmd, x_cmd = case
    b = a.copy()
    run = a.run_kinematic(P_cmd, x_cmd, 0.01)
    steps = [oracle_step(b, P, 0.01, x_cmd=x) for P, x in zip(P_cmd, x_cmd)]
    for name, col in run.items():
        assert bits(col) == bits([getattr(r, name) for r in steps]), name
    for name in ("x", "P", "t", "play_states"):
        assert bits(getattr(a.state, name)) == bits(getattr(b.state, name)), name
    assert all(type(v) is float for v in (a.state.x, a.state.P, a.state.t, *a.state.play_states))
    assert a.rng.bit_generator.state == b.rng.bit_generator.state


@settings(max_examples=150, deadline=None)
@given(kinematic_cases())
def test_kinematic_steps_equal_the_oracle_bit_for_bit(case):
    p, P_cmd, x_cmd = case
    check_steps(p, P_cmd, x_cmd=x_cmd)


class TestSharedFloatPath:
    """The plant evaluates the inductance map as the observer's cost does,
    on ``math`` floats, so the cost's fit term inverts the plant's bits.
    The cost is the observer tests' ``float_cost``, which the grid scan
    equals in its choices (``check_stopping_rule`` there)."""

    @staticmethod
    def fit_cost(r):
        w = observer.CostWeights(w_fit=1.0, w_dyn=0.0, w_reg=0.0)
        return float_cost(r.L_clean, r.P, r.F, w, IND)(r.F)

    def test_observer_inverts_the_kinematic_steps_exactly(self):
        # numpy's power and exp differ from math's on about 1% of points
        p = Plant(plant.default_plant_config(seed=2, noise_L=0.0, noise_F=0.0))
        rng = np.random.default_rng(2)
        for _ in range(3000):
            r = step(p, rng.uniform(0.0, 0.65), 0.01, x_cmd=rng.uniform(0.07, 0.18))
            assert r.L_meas == r.L_clean
            assert self.fit_cost(r) == 0.0, (r.F, r.P)

    def test_observer_inverts_the_isotonic_steps_exactly(self):
        p = Plant(plant.default_plant_config(seed=2, noise_L=0.0, noise_F=0.0), x0=0.12)
        rng = np.random.default_rng(4)
        for _ in range(3000):
            r = step(p, rng.uniform(0.0, 0.65), 0.01, F_load=rng.uniform(0.0, 3.5))
            assert self.fit_cost(r) == 0.0, (r.F, r.P)

    def test_overflowing_map_gives_numpys_nan_without_raising(self):
        # F**800 overflows above about 2.43 N; inf * exp(-inf) is NaN
        ind = model.InductanceParams((0.0, 0.6, 0.0, 800.0, 0.0, -1.0, 0.0, 800.0, 0.0, 4.75))
        cfg = ideal_config(ind=ind)
        x_cmd = np.linspace(0.10, 0.18, 400)
        P_cmd = np.linspace(0.0, 0.6, 400)
        p = Plant(cfg, x0=0.10)
        with np.errstate(all="raise"):  # a step's map runs no numpy arithmetic
            steps = [step(p, P, 0.01, x_cmd=x) for P, x in zip(P_cmd.tolist(), x_cmd.tolist())]
        F = np.array([r.F for r in steps])
        L = np.array([r.L_clean for r in steps])
        assert F.max() > 2.4
        ref = model.eval_inductance(ind, F, np.array([r.P for r in steps]), validate=False)
        assert np.array_equal(np.isnan(L), np.isnan(ref)) and np.isnan(L).any()
        assert np.array_equal(np.isinf(L), np.isinf(ref))
        finite = np.isfinite(ref)
        assert (np.abs(L - ref)[finite] <= 2 * np.spacing(ref[finite])).all()
        run = Plant(cfg, x0=0.10).run_kinematic(P_cmd, x_cmd, 0.01)
        for name, col in run.items():
            assert np.array_equal(col, [getattr(r, name) for r in steps], equal_nan=True), name


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
            assert co[1] > 0 and co[3] > 0

    def test_decay_negative_over_envelope(self):
        for P in np.linspace(0.0, 0.65, 27):
            assert model.eval_coeffs(IND, float(P))[2] < 0

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

    @pytest.mark.parametrize("duration", [math.inf, math.nan])
    def test_non_finite_duration_rejected(self, duration):
        with pytest.raises(ValueError, match="positive and finite"):
            Scenario.load_perturbation(duration_s=duration)

    def test_run_length_cap(self):
        # the cap is checked on the run's seconds, before any array is made
        plant.check_run_length("x", plant.MAX_RUN_SAMPLES / 100.0, 100.0)
        with pytest.raises(plant.RunLengthError, match="a run may step"):
            plant.check_run_length("x", math.nextafter(plant.MAX_RUN_SAMPLES / 100.0, math.inf),
                                   100.0)
        long = Scenario.cyclic_estimation(cycle_period_s=1e12)
        with pytest.raises(plant.RunLengthError):
            plant.run_scenario(long, plant.default_plant_config())

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

    @pytest.mark.parametrize("waveform", ["sine", "triangle", "steps"])
    def test_reference_on_an_array_equals_per_sample_calls(self, waveform):
        # the loop engine takes its logged reference from one array call
        for f in (0.05, 0.2, 0.37, 2.3):
            scn = Scenario.displacement_tracking(waveform=waveform, frequency_hz=f)
            t = np.concatenate((np.arange(2000) * 0.01, (np.arange(500) + 1) * 0.01 - 1.0 / f))
            got = scn.reference(t).tolist()
            assert got == [float(scn.reference(ti)) for ti in t.tolist()]

    def test_rates_must_divide(self):
        with pytest.raises(ValueError):
            plant.default_plant_config(sensor_rate_hz=100.0, control_rate_hz=30.0)

    @pytest.mark.parametrize("rates,match", [
        ({"sensor_rate_hz": 0.0}, "positive"),
        ({"control_rate_hz": -20.0}, "positive"),
        ({"sensor_rate_hz": 100.0, "control_rate_hz": 30.0}, "integer multiple"),
        ({"control_rate_hz": 5e-324}, "integer multiple")],
        ids=["zero_sensor", "negative_control", "not_a_multiple", "ratio_overflows"])
    def test_rates_must_be_positive_multiples(self, rates, match):
        # the plant is the only place either rate is stated or checked
        with pytest.raises(ValueError, match=match):
            plant.default_plant_config(**rates)
