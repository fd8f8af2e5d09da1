import decimal
import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.optimize import brentq

from coilsense import control, ident, model, observer, plant
from coilsense import signal as sig
from coilsense.model import EnvelopeError
from coilsense.observer import CostWeights, ObserverConfig, ObserverState

IND = plant.reference_inductance_params()
DYN = plant.reference_dynamic_params()
ENV = plant.default_envelope()
#: The observer's default filter at 100 Hz, the template of every config here.
FILT = sig.design(sig.FilterSpec(), 100)


def state_of(mean, cov):
    """An observer state from a mean pair and a symmetric 2x2 covariance."""
    (c00, c01), (_, c11) = np.asarray(cov, dtype=float).tolist()
    return ObserverState(*np.asarray(mean, dtype=float).tolist(), c00, c01, c11)


def mean_of(st):
    return np.array([st.F_hat, st.Fdot_hat])


def cov_of(st):
    return np.array([[st.var_F, st.cov_F_Fdot], [st.cov_F_Fdot, st.var_Fdot]])


def make_cfg(**overrides):
    return observer.make_observer_config(IND, ENV, dt=0.01, filt=FILT, noise_L=0.01,
                                         **overrides)


def numpy_predict(mean, cov, dt, Q):
    """The matrix form of ``layered_predict``, its reference: A m and A C A^T + Q."""
    A = np.array([[1.0, dt], [0.0, 1.0]])
    cov = A @ cov @ A.T + Q
    return A @ mean, 0.5 * (cov + cov.T)


#: The unit roundoff of doubles.
U = 2.0 ** -53


# ---------------------------------------------------------------------------
# The oracle of ``estimate_steps``, one sample a call.
#
# ``layered_step`` is the layered observer step: a filter step per channel,
# predict, the inversion (``newton`` calling ``cost_derivatives`` on the
# prior's branch of the map, and on the other branch from the reading's
# preimage there, ``layered_preimage``, where the continuity bound lets it
# win) and update, each its own function building its own state;
# ``layered_run`` steps it over a sequence.  It runs the whole covariance
# recursion on every sample, where ``estimate_steps`` takes the config's
# fixed point (``ObserverConfig.kalman``), and holds the same re-seed rule
# (``layered_reseed``).
# ``estimate_steps`` equals it in every bit, however a run is cut into calls
# (``TestOneFrameStep``), so the tests of ``layered_predict``,
# ``layered_update``, ``newton`` and ``cost_derivatives`` below hold for its
# arithmetic.  Every test that pins a whole run builds on it:
# ``reference_run`` passes it another inversion.

def single_step(state, sample):
    """Advance the filter by one sample and return the filtered value."""
    y = float(sample)
    for (b0, b1, b2, _, a1, a2), z in zip(state._sections, state._z):
        out = b0 * y + z[0]
        z[0] = b1 * y - a1 * out + z[1]
        z[1] = b2 * y - a2 * out
        y = out
    return y


def q_entries(cfg):
    """``cfg.Q`` as four floats, row by row."""
    return tuple(cfg.Q.ravel().tolist())


def layered_predict(state, cfg):
    """Constant-velocity propagation over one sampling interval.

    The mean is A m and the covariance A C A^T + Q, for A = [[1, dt],
    [0, 1]], written out on the state's floats as plain left-to-right
    products and sums, each rounded once; the symmetrized off-diagonal
    is half the sum of the two, as ``0.5 * (C + C.T)`` is.
    """
    dt = cfg.dt
    q00, q01, q10, q11 = q_entries(cfg)
    c01, c11 = state.cov_F_Fdot, state.var_Fdot
    ac00 = state.var_F + dt * c01   # (A C)[0, 0]
    ac01 = c01 + dt * c11           # (A C)[0, 1], and (A C A^T)[1, 0]
    return ObserverState(
        state.F_hat + dt * state.Fdot_hat, state.Fdot_hat,
        ac00 + ac01 * dt + q00,
        0.5 * ((ac01 + q01) + (ac01 + q10)),
        c11 + q11)


def cost_args(L_meas, prior_F, coeffs, w):
    """The floats the inversion cost of one sample depends on besides the
    force: ``(L_meas, prior_F, l1, ..., l5, w_fit, w_dyn, w_reg, gamma)``,
    the tuple ``_invert`` and ``cost_derivatives`` read."""
    return (L_meas, prior_F, *coeffs, w.w_fit, w.w_dyn, w.w_reg, w.gamma)


def layered_cost(F, args):
    """The inversion cost at one float force, on the sample's
    ``cost_args``: the residual of ``model._inductance_at``, then the
    fit, continuity and regularization terms."""
    L_meas, prior_F, l1, l2, l3, l4, l5, w_fit, w_dyn, w_reg, gamma = args
    r = model._inductance_at(F, l1, l2, l3, l4, l5) - L_meas
    dF = F - prior_F
    return (w_fit * r * r + w_dyn * dF * dF
            + w_reg * (1.0 - 1.0 / (1.0 + gamma * dF * dF)))


def layered_peak(l2, l3, l4):
    """The force where the map on its coefficients turns, or inf where l3 >=
    0 (a monotone map) or ``model._peak_at`` leaves the floats."""
    if not l3 < 0.0:
        return math.inf
    try:
        return model._peak_at(l2, l3, l4)
    except (OverflowError, ZeroDivisionError):
        return math.inf


def layered_preimage(L, a, b, above, tol, coeffs):
    """The lower end of the bisection bracket, narrowed below ``tol`` from
    [a, b], of the map's crossing of the reading L, where [a, b] lies
    below the map's peak, or above it for ``above``: the map rises there
    for l1 > 0 below the peak and for l1 < 0 above it."""
    rising = (coeffs[0] > 0.0) != above
    while b - a >= tol:
        m = 0.5 * (a + b)
        if (model._inductance_at(m, *coeffs) < L) == rising:
            a = m
        else:
            b = m
    return a


def layered_solve(L_meas, P, prior_F, cfg):
    """The branch inversion, as ``solve_pseudo_measurement``."""
    cfg.envelope.check_P(P)
    if not math.isfinite(L_meas):
        raise ValueError("inductance reading must be finite")
    if not math.isfinite(prior_F):
        raise ValueError("prior force must be finite")
    args = cost_args(L_meas, prior_F, model._coeffs(cfg.ind, float(P)), cfg.weights)
    return layered_invert(args, max(cfg.envelope.F_min, cfg.F_floor), cfg.envelope.F_max,
                          cfg.refine_tol)


def layered_invert(args, lo, hi, tol):
    """``observer._invert`` in layers on [lo, hi]: ``newton`` on
    ``cost_derivatives`` over the prior's branch from the prior clamped
    to [lo, hi], and, where the other branch's continuity bound is below
    ``layered_cost`` there, over the other branch from its
    ``layered_preimage``; the lower cost wins, the prior's branch on a tie."""
    L_meas, prior_F, l1, l2, l3, l4, l5, _, w_dyn, w_reg, gamma = args
    peak = layered_peak(l2, l3, l4)
    x = min(max(prior_F, lo), hi)
    if not lo < peak < hi:
        return newton(cost_derivatives, args, lo, hi, x, tol)
    above = prior_F > peak
    a, b = (peak, hi) if above else (lo, peak)
    F = newton(cost_derivatives, args, a, b, x, tol)
    d = prior_F - peak
    if not w_dyn * d * d + w_reg * (1.0 - 1.0 / (1.0 + gamma * d * d)) < layered_cost(x, args):
        return F
    a, b = (lo, peak) if above else (peak, hi)
    x = layered_preimage(L_meas, a, b, not above, tol, (l1, l2, l3, l4, l5))
    other = newton(cost_derivatives, args, a, b, x, tol)
    return other if layered_cost(other, args) < layered_cost(F, args) else F


def cost_derivatives(F: float, args: tuple) -> tuple:
    """The first two derivatives of the map and of the inversion cost at
    one float force F > 0, on the sample's cost tuple ``args`` = ``(L_meas,
    prior_F, l1, ..., l5, w_fit, w_dyn, w_reg, gamma)``: ``(L', L'', C',
    C'')``, all finite for F in [``F_floor``, F_max] on a map a config
    accepts (``_map_bound``).

    With m = l1 F**l2 exp(l3 F**l4) and u = l2 + l3 l4 F**l4, L' = m u / F
    and L'' = m (u u - u + l3 l4 l4 F**l4) / (F F).  With r = m + l5 -
    L_meas and d = F - prior_F, the cost's derivatives are C' = 2 w_fit r
    L' + 2 w_dyn d + 2 w_reg gamma d q q and C'' = 2 w_fit (L' L' + r L'')
    + 2 w_dyn + 2 w_reg gamma (1 - 3 gamma d d) q q q, where q = 1 / (1 +
    gamma d d).  ``math`` exceptions propagate, and no value is mapped.
    """
    L_meas, prior_F, l1, l2, l3, l4, l5, w_fit, w_dyn, w_reg, gamma = args
    F_l4 = math.pow(F, l4)
    m = l1 * math.pow(F, l2) * math.exp(l3 * F_l4)
    u = l2 + l3 * l4 * F_l4
    d1 = m * u / F
    d2 = m * (u * u - u + l3 * l4 * l4 * F_l4) / (F * F)
    r = m + l5 - L_meas
    dF = F - prior_F
    q = 1.0 / (1.0 + gamma * dF * dF)
    rq = w_reg * gamma * q * q
    return (d1, d2,
            2.0 * (w_fit * r * d1 + w_dyn * dF + rq * dF),
            2.0 * (w_fit * (d1 * d1 + r * d2) + w_dyn
                   + rq * q * (1.0 - 3.0 * gamma * dF * dF)))


def decimal_slope(F: float, args: tuple) -> float:
    """C' at the float force F on the sample's cost tuple ``args``, in
    40-digit decimal arithmetic from the exact values of the floats: the
    slope of the cost without the float rounding of the residual, whose
    error near a root of C' (about 2 w_fit L' ulp(L_meas)) can flip the
    sign of a float C' within a float spacing or two of that root."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        L_meas, prior_F, l1, l2, l3, l4, l5, w_fit, w_dyn, w_reg, gamma = map(decimal.Decimal,
                                                                             args)
        F = decimal.Decimal(F)
        ln_F = F.ln()
        F_l4 = (l4 * ln_F).exp()
        m = l1 * (l2 * ln_F).exp() * (l3 * F_l4).exp()
        dF = F - prior_F
        q = 1 / (1 + gamma * dF * dF)
        return float(2 * (w_fit * (m + l5 - L_meas) * m * (l2 + l3 * l4 * F_l4) / F
                          + w_dyn * dF + w_reg * gamma * q * q * dF))


def newton(derivatives, args, a: float, b: float, x: float, tol: float) -> float:
    """Minimizer of a cost on [a, b] by safeguarded Newton on its
    derivative, from x in [a, b]; ``derivatives(F, args)`` is
    ``cost_derivatives``.

    The sign of C'(x) moves one end of the bracket to x.  The Newton step
    -C'/C'' is taken when C'' > 0, x lies above a and the step lands
    strictly inside the bracket; otherwise the bracket is bisected.  The pass ends on C' = 0,
    on a Newton step shorter than tol / 2, or once the bracket is
    narrower than tol, and after ``_MAX_NEWTON_STEPS`` steps whatever the
    tolerance.  Raises FloatingPointError on a non-finite derivative.
    """
    half_tol = 0.5 * tol
    for _ in range(observer._MAX_NEWTON_STEPS):
        _, _, g, h = derivatives(x, args)
        if not (math.isfinite(g) and math.isfinite(h)):
            raise FloatingPointError(f"non-finite cost derivative at F={x!r}")
        step = g / h if h > 0.0 and x > a else math.inf
        if g > 0.0:
            b = x
        elif g < 0.0:
            a = x
        else:
            return x
        if a < x - step < b:
            if abs(step) < half_tol or b - a < tol:
                return x - step
            x -= step
        else:
            x = 0.5 * (a + b)
            if b - a < tol:
                return x
    return x


def layered_update(prior, F_star, cfg):
    """Scalar Kalman update of the force component (Joseph form).

    The covariance is (I - K H) C (I - K H)^T + K K^T R, for R =
    ``cfg.R``, written out on floats in the order of numpy's products.
    """
    R = cfg.R
    p00, p01, p11 = prior.var_F, prior.cov_F_Fdot, prior.var_Fdot
    S = p00 + R
    k0 = p00 / S
    k1 = p01 / S
    innovation = F_star - prior.F_hat
    a = 1.0 - k0              # I - K H = [[a, 0], [b, 1]]
    b = 0.0 - k1
    t00 = a * p00             # (I - K H) C
    t01 = a * p01
    t10 = b * p00 + p01
    return ObserverState(
        prior.F_hat + k0 * innovation, prior.Fdot_hat + k1 * innovation,
        t00 * a + k0 * k0 * R,
        0.5 * ((t00 * b + t01 + k0 * k1 * R) + (t10 * a + k1 * k0 * R)),
        t10 * b + (b * p01 + p11) + k1 * k1 * R)


def layered_reseed(F, L_f, P_f, cfg):
    """The force the re-seed rule moves a predicted force F to, or None
    where it does not fire: where the map at P_f has a peak (l1 > 0 and a
    float ``layered_peak``), F lies above it and the reading L_f more than
    3 ``cfg.sigma_L`` below L(F_max, P_f), the rising branch's crossing of
    L_f, ``layered_preimage`` on [F_min, min(peak, F_max)]."""
    env = cfg.envelope
    coeffs = model._coeffs(cfg.ind, P_f)
    peak = layered_peak(*coeffs[1:4])
    if not (coeffs[0] > 0.0 and F > peak
            and L_f < model._inductance_at(env.F_max, *coeffs) - 3.0 * cfg.sigma_L):
        return None
    return layered_preimage(L_f, env.F_min, min(peak, env.F_max), False, cfg.refine_tol, coeffs)


def layered_step(state, L_raw, P, dyn, cfg, solve=layered_solve):
    """One observer cycle on a raw sample through the layers above, the
    inversion by ``solve`` (``layered_solve``'s arguments).  A re-seeded
    sample (``layered_reseed``) predicts from the re-seeded force, a zero
    rate and ``reset``'s covariance instead."""
    env = cfg.envelope
    env.check_P(P)
    L_filt, P_filt = state.L_filter, state.P_filter
    L_f = single_step(L_filt, L_raw)
    P_f = min(max(single_step(P_filt, P), env.P_min), env.P_max)
    pred = layered_predict(state, cfg)
    F_seed = layered_reseed(pred.F_hat, L_f, P_f, cfg)
    if F_seed is not None:
        pred = layered_predict(ObserverState(F_seed, 0.0, *observer._RESET_COV), cfg)
    prior_F = min(max(pred.F_hat, env.F_min), env.F_max)
    post = layered_update(pred, solve(L_f, P_f, prior_F, cfg), cfg)
    post.L_filter, post.P_filter = L_filt, P_filt
    post.reseeds = state.reseeds + (F_seed is not None)
    F_hat = post.F_hat
    x_hat = model.invert_dynamic_length(dyn, F_hat, P)
    return post, F_hat, x_hat


def layered_run(state, L_raw, P, dyn, cfg, solve=layered_solve):
    """``layered_step`` over a sequence, as ``estimate_steps`` returns it:
    ``(state, F_hat, x_hat)``, the state after the last sample and lists
    of the estimates."""
    F_hat, x_hat = [], []
    for L, p in zip(L_raw, P):
        state, F, x = layered_step(state, L, p, dyn, cfg, solve)
        F_hat.append(F)
        x_hat.append(x)
    return state, F_hat, x_hat


def one_step(state, L_raw, P, dyn, cfg):
    """``estimate_steps`` on one sample, as ``(state, F_hat, x_hat)``."""
    state, F_hat, x_hat = observer.estimate_steps(state, [L_raw], [P], dyn, cfg)
    return state, F_hat[0], x_hat[0]


def step_bits(result):
    """The bytes of a step's ``(state, F_hat, x_hat)``: the five floats,
    both delay lines, F_hat and x_hat, so that equal bytes are equal bits."""
    st, F_hat, x_hat = result
    return (struct.pack("<7d", st.F_hat, st.Fdot_hat, st.var_F, st.cov_F_Fdot, st.var_Fdot,
                        F_hat, x_hat),
            st.L_filter.zi.tobytes(), st.P_filter.zi.tobytes())


def cov_bits(state):
    """The bytes of a state's three covariance entries."""
    return struct.pack("<3d", state.var_F, state.cov_F_Fdot, state.var_Fdot)


def forked(state):
    """A copy of a state with its own delay lines."""
    return replace(state, L_filter=state.L_filter.copy(), P_filter=state.P_filter.copy())


class TestPredict:
    def test_mean_propagation(self):
        cfg = observer.make_observer_config(IND, ENV, dt=0.05, filt=FILT)
        st = state_of([1.0, 2.0], np.eye(2))
        out = layered_predict(st, cfg)
        assert mean_of(out)[0] == pytest.approx(1.1, abs=1e-15)
        assert mean_of(out)[1] == 2.0

    def test_zero_rate_fixed_point(self):
        cfg = make_cfg()
        st = state_of([2.5, 0.0], np.eye(2))
        out = layered_predict(st, cfg)
        assert mean_of(out)[0] == 2.5 and mean_of(out)[1] == 0.0

    def test_trace_grows_with_process_noise(self):
        cfg = make_cfg()
        st = state_of([1.0, 0.0], 0.01 * np.eye(2))
        out = layered_predict(st, cfg)
        assert np.trace(cov_of(out)) > np.trace(cov_of(st))


class TestFloatState:
    @pytest.mark.parametrize("dt", [0.01, 0.05, 0.001])
    def test_predict_matches_matrix_form(self, dt):
        # Each entry of the predict and of its matrix form rounds any of its
        # terms at most five times, so each is within 5u/(1 - 5u) of the
        # exact value times the sum of the terms' absolute values (Higham,
        # Accuracy and Stability of Numerical Algorithms, 2nd ed., 3.1),
        # and the two are within 12u of each other by that measure.  The
        # sums of absolute values are the matrix form on |m|, |C| and |Q|.
        rng = np.random.default_rng(17)
        cfgs = [observer.make_observer_config(IND, ENV, dt=dt, filt=FILT)]
        for _ in range(3):  # full, non-symmetric Q with a PSD symmetric part
            B = rng.normal(size=(2, 2))
            Q = B @ B.T + np.array([[0.0, 1e-3], [-1e-3, 0.0]]) * rng.uniform()
            cfgs.append(replace(cfgs[0], Q=Q))
        for cfg in cfgs:
            for _ in range(2000):
                A = rng.normal(size=(2, 2)) * rng.uniform(0.01, 3.0)
                st = state_of(rng.normal(size=2) * 3.0, A @ A.T + 1e-4 * np.eye(2))
                mean, cov = numpy_predict(mean_of(st), cov_of(st), dt, cfg.Q)
                abs_mean, abs_cov = numpy_predict(np.abs(mean_of(st)), np.abs(cov_of(st)),
                                                  dt, np.abs(cfg.Q))
                out = layered_predict(st, cfg)
                assert np.all(np.abs(mean_of(out) - mean) <= 12 * U * abs_mean)
                assert np.all(np.abs(cov_of(out) - cov) <= 12 * U * abs_cov)

    def test_state_is_python_floats(self):
        cfg = make_cfg()
        st = observer.reset(1.0, 4.9, 0.3, cfg)
        out, F_hat, x_hat = one_step(st, 4.9, 0.3, DYN, cfg)
        for name in ("F_hat", "Fdot_hat", "var_F", "cov_F_Fdot", "var_Fdot"):
            assert type(getattr(out, name)) is float, name
        assert type(F_hat) is float and type(x_hat) is float

    def test_no_matrix_calls(self, monkeypatch):
        # the observer and Plant.steps run on floats: no matmul, clip or dot
        calls = []
        for name in ("matmul", "clip", "dot"):
            original = getattr(np, name)
            monkeypatch.setattr(np, name, lambda *a, _f=original, _n=name, **k:
                                calls.append(_n) or _f(*a, **k))
        cfg = make_cfg()
        st = observer.reset(1.0, 4.9, 0.3, cfg)
        observer.estimate_steps(st, [4.9 + 0.005 * i for i in range(20)], [0.3] * 20, DYN, cfg)
        hyst = tuple(plant.PlayElement(width=w, weight=g)
                     for w, g in ((0.003, 1.7), (0.009, 2.3), (0.014, 0.9)))
        p = plant.Plant(plant.default_plant_config(seed=3, hysteresis=hyst), x0=0.12, P0=0.2)
        for i in range(20):
            p.steps([0.2], 0.01, x_cmd=[0.12 + 0.002 * i])
            p.steps([0.25, 0.25], 0.01, F_load=[1.0 + 0.02 * i, 1.01 + 0.02 * i])
        assert calls == []


class TestUpdate:
    def test_uninformative_measurement(self):
        cfg = make_cfg()
        st = state_of([1.0, 0.5], np.diag([0.2, 0.3]))
        out = layered_update(st, 3.0, replace(cfg, R=1e12))
        assert mean_of(out) == pytest.approx(mean_of(st), abs=1e-9)
        assert cov_of(out) == pytest.approx(cov_of(st), abs=1e-9)

    def test_scalar_kalman_arithmetic(self):
        cfg = make_cfg()
        st = state_of([1.0, 0.0], np.eye(2))
        out = layered_update(st, 2.0, replace(cfg, R=1.0))
        # K = [0.5, 0]; innovation 1
        assert mean_of(out)[0] == pytest.approx(1.5, abs=1e-12)
        assert mean_of(out)[1] == pytest.approx(0.0, abs=1e-12)
        assert cov_of(out)[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_zero_innovation_contracts(self):
        cfg = make_cfg()
        st = state_of([1.0, 0.0], np.eye(2))
        out = layered_update(st, 1.0, cfg)
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
            out = layered_update(st, rng.uniform(0, 5), cfg)
            assert cov_of(out)[0, 0] <= cov_of(st)[0, 0] + 1e-15

    def test_equals_eye_and_outer_form_bit_for_bit(self):
        cfg = make_cfg()
        rng = np.random.default_rng(6)
        for _ in range(500):
            A = rng.normal(size=(2, 2))
            st = state_of(rng.normal(size=2), A @ A.T + 1e-3 * np.eye(2))
            F_star, R = float(rng.normal()), float(rng.uniform(1e-4, 1.0))
            out = layered_update(st, F_star, replace(cfg, R=R))
            K = cov_of(st)[:, 0] / (cov_of(st)[0, 0] + R)
            ikh = np.eye(2)
            ikh[:, 0] -= K
            cov = ikh @ cov_of(st) @ ikh.T + np.outer(K, K) * R
            assert np.array_equal(mean_of(out), mean_of(st) + K * (F_star - mean_of(st)[0]))
            assert np.array_equal(cov_of(out), 0.5 * (cov + cov.T))


class TestReset:
    def test_zero(self):
        cfg = make_cfg()
        st = observer.reset(0.0, 4.9, 0.3, cfg)
        assert st.F_hat == 0.0 and st.Fdot_hat == 0.0
        assert (st.var_F, st.cov_F_Fdot, st.var_Fdot) == (0.25, 0.0, 1.0)

    def test_boundary_inclusive(self):
        cfg = make_cfg()
        st = observer.reset(ENV.F_max, 4.9, 0.3, cfg)
        assert st.F_hat == ENV.F_max

    def test_out_of_envelope(self):
        cfg = make_cfg()
        with pytest.raises(EnvelopeError):
            observer.reset(-1.0, 4.9, 0.3, cfg)


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
        f_star = observer.solve_pseudo_measurement(L, P, prior_F=2.5, cfg=cfg)
        assert f_star == pytest.approx(F0, abs=cfg.refine_tol * 10)

    def test_zero_fit_weight_returns_prior(self):
        from dataclasses import replace
        cfg = replace(make_cfg(), weights=CostWeights(w_fit=0.0, w_dyn=1.0, w_reg=0.1, gamma=1.0))
        f_star = observer.solve_pseudo_measurement(5.0, 0.3, prior_F=1.7, cfg=cfg)
        assert f_star == pytest.approx(1.7, abs=cfg.refine_tol * 10)

    def test_branch_selection_follows_prior(self):
        cfg = make_cfg()
        P = 0.2
        f_peak = model.peak_force(IND, P)
        L_peak = model.eval_inductance(IND, f_peak, P)
        L_off = model.eval_inductance(IND, 0.0, P)
        L_target = 0.5 * (L_peak + L_off)
        fa, fb = two_preimages(L_target, P)
        near_a = observer.solve_pseudo_measurement(L_target, P, prior_F=fa + 0.05, cfg=cfg)
        near_b = observer.solve_pseudo_measurement(L_target, P, prior_F=fb - 0.05, cfg=cfg)
        assert abs(near_a - fa) < 0.05
        assert abs(near_b - fb) < 0.05

    def test_envelope_check(self):
        cfg = make_cfg()
        with pytest.raises(EnvelopeError):
            observer.solve_pseudo_measurement(5.0, 0.9, 1.0, cfg)

    @pytest.mark.parametrize("L", [math.nan, math.inf, -math.inf])
    def test_non_finite_reading_rejected(self, L):
        with pytest.raises(ValueError, match="inductance reading must be finite"):
            observer.solve_pseudo_measurement(L, 0.3, 1.0, make_cfg())

    def test_oracle_equivalence(self):
        cfg = make_cfg()
        rng = np.random.default_rng(11)
        grid = np.linspace(ENV.F_min, ENV.F_max, 100_000)
        tol = max(cfg.refine_tol, (ENV.F_max - ENV.F_min) / grid.size)
        for _ in range(20):
            P = rng.uniform(0.0, 0.65)
            L = model.eval_inductance(IND, rng.uniform(0, 5), P) + rng.normal(0, 0.01)
            prior = rng.uniform(0, 5)
            f_solver = observer.solve_pseudo_measurement(L, P, prior, cfg)
            costs = reference_cost(L, P, prior, cfg.weights)(grid)
            f_oracle = float(grid[np.argmin(costs)])
            assert abs(f_solver - f_oracle) <= tol


def golden_section(fun, a, b, tol):
    """Golden-section minimizer on [a, b] down to interval width tol: the
    refinement of ``reference_inversion``, an algorithm independent of
    the observer's Newton pass."""
    g = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)


def reference_cost(L_meas, P, prior_F, w, params=IND):
    """The composite inversion cost on the public ``model.eval_inductance``."""
    def cost(F):
        r = model.eval_inductance(params, F, P, validate=False) - L_meas
        dF = F - prior_F
        return (w.w_fit * r * r + w.w_dyn * dF * dF
                + w.w_reg * (1.0 - 1.0 / (1.0 + w.gamma * dF * dF)))
    return cost


#: Points of ``reference_inversion``'s grid over the force interval.
REFERENCE_GRID_POINTS = 129


def reference_inversion(L_meas, P, prior_F, cfg):
    """Grid scan plus golden section on ``reference_cost`` of ``cfg.ind``,
    every cost taken through numpy: an algorithm independent of the
    observer's branch inversion, which the solver is held to within
    ``refine_tol``.  The scan's winner is the first least cost of a grid
    of ``REFERENCE_GRID_POINTS`` forces, NaNs skipped, and the golden
    section runs over its neighbours' bracket."""
    env = cfg.envelope
    cost = reference_cost(L_meas, P, prior_F, cfg.weights, cfg.ind)
    grid = np.linspace(env.F_min, env.F_max, REFERENCE_GRID_POINTS)
    with np.errstate(all="ignore"):
        i = int(np.nanargmin(cost(grid)))
    a = float(grid[max(i - 1, 0)])
    b = float(grid[min(i + 1, REFERENCE_GRID_POINTS - 1)])
    f = golden_section(lambda F: float(cost(F)), a, b, cfg.refine_tol)
    return float(np.clip(f, env.F_min, env.F_max))


def ieee(fn, *args):
    """``fn(*args)`` from ``math``, or inf where it raises: numpy's
    result for a power of 0 with a negative exponent and on overflow."""
    try:
        return fn(*args)
    except (ValueError, OverflowError):
        return math.inf


def float_cost(L_meas, P, prior_F, w, params=IND):
    """The composite inversion cost on ``math.pow`` and ``math.exp``."""
    l1, l2, l3, l4, l5 = model.eval_coeffs(params, P, validate=False)

    def cost(F):
        L = l1 * ieee(math.pow, F, l2) * ieee(math.exp, l3 * ieee(math.pow, F, l4)) + l5
        r = L - L_meas
        dF = F - prior_F
        return (w.w_fit * r * r + w.w_dyn * dF * dF
                + w.w_reg * (1.0 - 1.0 / (1.0 + w.gamma * dF * dF)))
    return cost


class TestInversionPinned:
    @pytest.mark.parametrize("overrides", [
        {}, {"noise_L": 0.0}, {"noise_L": 0.03},
        {"weights": CostWeights(w_fit=1.0, w_dyn=0.0, w_reg=0.00144)}])
    def test_matches_reference_bit_for_bit(self, overrides):
        # the inversion is within refine_tol of the numpy oracle and equals
        # the layered one bit for bit, and the float cost equals the
        # layered cost, on the plant's copy of the map, bit for bit; also
        # from priors near the reading's force and at both edges
        cfg = observer.make_observer_config(IND, ENV, dt=0.01, filt=FILT,
                                            **{"noise_L": 0.01, **overrides})
        rng = np.random.default_rng(40)
        for near in (True, False):
            for L, P, prior in inversion_samples(rng, 150, near):
                got = observer.solve_pseudo_measurement(L, P, prior, cfg)
                assert abs(got - reference_inversion(L, P, prior, cfg)) <= cfg.refine_tol
                assert got == layered_solve(L, P, prior, cfg)
        rng = np.random.default_rng(20)
        for _ in range(200):
            P = float(rng.uniform(ENV.P_min, ENV.P_max))
            L = float(model.eval_inductance(IND, rng.uniform(ENV.F_min, ENV.F_max), P)
                      + rng.normal(0, 0.02))
            prior = float(rng.uniform(ENV.F_min, ENV.F_max))
            got = observer.solve_pseudo_measurement(L, P, prior, cfg)
            assert abs(got - reference_inversion(L, P, prior, cfg)) <= cfg.refine_tol
            assert got == layered_solve(L, P, prior, cfg)
            args = cost_args(L, prior, model._coeffs(IND, P), cfg.weights)
            ref = float_cost(L, P, prior, cfg.weights)
            for F in (got, float(rng.uniform(ENV.F_min, ENV.F_max))):
                assert layered_cost(F, args) == ref(F)

    def test_matches_reference_with_other_weights(self):
        w = CostWeights(w_fit=2.5, w_dyn=0.03, w_reg=0.004, gamma=0.37)
        cfg = replace(make_cfg(), weights=w)
        rng = np.random.default_rng(21)
        for _ in range(200):
            P = float(rng.uniform(ENV.P_min, ENV.P_max))
            L = float(model.eval_inductance(IND, rng.uniform(ENV.F_min, ENV.F_max), P)
                      + rng.normal(0, 0.02))
            prior = float(rng.uniform(ENV.F_min, ENV.F_max))
            got = observer.solve_pseudo_measurement(L, P, prior, cfg)
            assert abs(got - reference_inversion(L, P, prior, cfg)) <= cfg.refine_tol

    @pytest.mark.parametrize("shape, p", [
        ("monotone", (0.1, 0.6, 0.2, 1.3, 0.05, 0.02, 0.3, 1.0, 0.5, 4.75)),
        ("peak_above_F_max", (0.1, 0.6, 0.2, 1.3, 0.0, -0.15, 0.3, 1.0, 0.5, 4.75)),
        ("peak_below_F_floor", (0.0, 10.0, 0.0, 0.01, 0.0, -3.5, 0.0, 0.05, 0.0, 5.0)),
        ("l1_negative", (-0.1, -0.6, *IND.p[2:])),
    ], ids=["monotone", "peak_above_F_max", "peak_below_F_floor", "l1_negative"])
    def test_matches_reference_on_other_maps(self, shape, p):
        # maps the reference map never reaches: the map rising over the whole
        # interval, peaking at or above F_max at every pressure, falling from
        # below F_floor, and the reference map upside down (a trough, so
        # each branch's direction flips).  The inversion is within
        # refine_tol of the numpy oracle and equals the layered one
        cfg = replace(make_cfg(), ind=model.InductanceParams(p))
        rng = np.random.default_rng(22)
        branches = set()
        for _ in range(200):
            P = float(rng.uniform(ENV.P_min, ENV.P_max))
            _, l2, l3, l4, _ = model._coeffs(cfg.ind, P)
            peak = observer._peak_or_inf(l2, l3, l4)
            assert {"monotone": peak == math.inf, "peak_above_F_max": ENV.F_max <= peak < math.inf,
                    "peak_below_F_floor": peak < cfg.F_floor,
                    "l1_negative": 0.0 < peak < ENV.F_max}[shape]
            L = float(model.eval_inductance(cfg.ind, rng.uniform(ENV.F_min, ENV.F_max), P)
                      + rng.normal(0, 0.02))
            prior = float(rng.uniform(ENV.F_min, ENV.F_max))
            got = observer.solve_pseudo_measurement(L, P, prior, cfg)
            assert abs(got - reference_inversion(L, P, prior, cfg)) <= cfg.refine_tol
            assert got == layered_solve(L, P, prior, cfg)
            branches.add(got > peak)
        assert len(branches) == (2 if shape == "l1_negative" else 1)

    def test_priors_at_F_min_leave_the_floor_on_a_sublinear_map(self):
        # l2 < 1: where the reading lies above l5, C' < 0 at F_floor and C''
        # there is huge and positive, so a Newton step from the floor is
        # about 1e-23 N, under the step-size stop.  A prior at F_min (the
        # observer's clamp of an estimate held at the edge) starts the pass
        # at the floor; it must bisect off it and reach the numpy oracle's
        # minimum.  Most of the samples take that first step
        cfg = replace(make_cfg(), ind=model.InductanceParams((*IND.p[:2], -0.2, 0.6,
                                                              *IND.p[4:])))
        rng = np.random.default_rng(23)
        floor_steps = 0
        for k in range(200):
            P = float(rng.uniform(ENV.P_min, ENV.P_max))
            assert 0.0 < model._coeffs(cfg.ind, P)[1] < 1.0
            L = float(model.eval_inductance(cfg.ind, rng.uniform(ENV.F_min, ENV.F_max), P)
                      + rng.normal(0, 0.02))
            prior = (ENV.F_min, cfg.F_floor)[k % 2]
            got = observer.solve_pseudo_measurement(L, P, prior, cfg)
            assert abs(got - reference_inversion(L, P, prior, cfg)) <= cfg.refine_tol
            assert got == layered_solve(L, P, prior, cfg)
            _, _, g, h = cost_derivatives(cfg.F_floor, cost_args(L, prior, model._coeffs(
                cfg.ind, P), cfg.weights))
            floor_steps += g < 0.0 < h
        assert floor_steps > 100


def flat_params(l1, l2, l3, l4, l5):
    """Inductance parameters with pressure-independent coefficients."""
    return model.InductanceParams((0.0, l1, 0.0, l2, 0.0, l3, 0.0, l4, 0.0, l5))


FLAT_MAPS = [
    (0.6, -0.5, -0.55, -0.5, 4.75),    # math.pow(0.0, -0.5) raises
    (0.6, 800.0, -1.0, 800.0, 4.75),   # F**800 overflows or underflows
]


def same_float(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def golden_points(a, b, n):
    """The first ``n`` interior points golden section visits on [a, b]
    when every step keeps the lower part, then when every step keeps the
    upper part: the points of brackets shrinking onto either edge."""
    g = (math.sqrt(5.0) - 1.0) / 2.0
    points = []
    for keep_low in (True, False):
        lo, hi = a, b
        for _ in range(n):
            c, d = hi - g * (hi - lo), lo + g * (hi - lo)
            points += [c, d]
            lo, hi = (lo, d) if keep_low else (c, hi)
    return points


#: Tolerance of the float cost against the numpy cost, relative to
#: c + w_fit M M, where M = |m| + |l5| + |L_meas| is the size of the terms
#: of the residual r = m + l5 - L_meas, which cancel near the preimage.
#: ``math`` and numpy differ by about an ulp per ``pow`` or ``exp``, and a
#: few roundings follow, so the two costs differ by a few u in that
#: measure; the tolerance is 16u.
COST_TOL = 16 * U


class TestFloatCost:
    """``float_cost``, the cost on ``math`` floats that the inversion
    computes, against the numpy cost of ``reference_inversion`` (whose
    refinement is the golden section), at random and at edge points, and
    the maps and forces where ``math`` raises."""

    def test_bound_holds(self):
        # over 10^5 seeded points the float cost stays within COST_TOL of
        # the numpy cost, and equals it where either is not finite
        cfg = make_cfg()
        other = CostWeights(w_fit=2.5, w_dyn=0.03, w_reg=0.004, gamma=0.37)
        grid = np.linspace(ENV.F_min, ENV.F_max, REFERENCE_GRID_POINTS).tolist()
        edges = (golden_points(grid[0], grid[2], 25) + golden_points(grid[-3], grid[-1], 25)
                 + [ENV.F_min, ENV.F_max, 1e-300, 1e-12])
        rng = np.random.default_rng(30)
        worst, differ, points = 0.0, 0, 0
        for k in range(1000):
            params = flat_params(*FLAT_MAPS[k % 2]) if k % 10 < 2 else IND
            P = float(rng.uniform(ENV.P_min, ENV.P_max))
            coeffs = model._coeffs(params, P)
            l1, l2, l3, l4, l5 = coeffs
            L = float(model.eval_inductance(IND, rng.uniform(ENV.F_min, ENV.F_max), P)
                      + rng.normal(0, 0.02))
            prior = float(rng.uniform(ENV.F_min, ENV.F_max))
            w = other if k % 3 == 0 else cfg.weights
            fast_cost = float_cost(L, P, prior, w, params)
            numpy_cost = reference_cost(L, P, prior, w, params)
            forces = rng.uniform(ENV.F_min, ENV.F_max, 100 - len(edges) // 10).tolist()
            for F in forces + edges[k % 10::10]:
                with np.errstate(all="ignore"):
                    fast, x = fast_cost(F), float(numpy_cost(F))
                    m = float(model._inductance(F, *coeffs)) - l5
                points += 1
                if not (math.isfinite(fast) and math.isfinite(x)):
                    assert same_float(fast, x), (F, coeffs)
                    continue
                differ += fast != x
                M = abs(m) + abs(l5) + abs(L)
                worst = max(worst, abs(fast - x) / (COST_TOL * (x + w.w_fit * M * M)))
        assert points >= 100_000
        assert differ >= 100  # the two evaluations do differ in the last bits
        assert worst < 0.1

    @pytest.mark.parametrize("coeffs, F", [
        (FLAT_MAPS[0], 0.0),                  # ValueError from math.pow
        (FLAT_MAPS[1], 5.0),                  # OverflowError from math.pow
        (FLAT_MAPS[1], 0.3),                  # F**800 underflows
        ((0.6, 1.3, 800.0, 1.0, 4.75), 1.0),  # OverflowError from math.exp
        ((0.6, 1.3, -800.0, 1.0, 4.75), 1.0), # exp underflows
        ((1e-200, 1.3, -0.55, 1.0, 4.75), 1.0),  # a tiny l1
        ((0.6, -0.5, -0.55, 1.0, 4.75), 0.0),    # math.pow(0.0, -0.5) raises, cost inf
        ((0.6, 800.0, -1.0, 1.0, 4.75), 5.0),    # F**800 overflows, cost inf
    ])
    def test_math_edge_points_take_numpy_results(self, coeffs, F):
        # the float cost takes numpy's value
        w = make_cfg().weights
        cost = float_cost(4.9, 0.3, 1.0, w, flat_params(*coeffs))
        with np.errstate(all="ignore"):
            x = float(reference_cost(4.9, 0.3, 1.0, w, flat_params(*coeffs))(F))
        assert same_float(cost(F), x)

    @pytest.mark.parametrize("L", [math.inf, -math.inf, 1e200])
    def test_non_finite_costs_are_exact(self, L):
        # the cost of a reading far off the map is inf, as numpy's is
        w = make_cfg().weights
        cost = float_cost(L, 0.3, 1.0, w)
        for F in (0.5, 1.0, 4.0):
            with np.errstate(all="ignore"):
                x = float(reference_cost(L, 0.3, 1.0, w)(F))
            assert not math.isfinite(x) and same_float(cost(F), x)

    @pytest.mark.parametrize("coeffs, cause", [
        (FLAT_MAPS[0], "lambda2=-0.5"),
        (FLAT_MAPS[1], "overflows: its terms reach inf"),
        ((0.6, 1.3, -0.55, 800.0, 4.75), "reach inf"),      # F**800 in the exponent only
        ((0.6, 1.3, -1e-110, 150.0, 4.75), r"reach 7\.01e\+104 > 1e\+100"),  # 5**150 is finite
    ], ids=["negative_exponents", "power_800", "exponent_power_800", "exponent_power_150"])
    def test_math_exception_maps_are_rejected(self, coeffs, cause):
        # a config takes no map whose terms can overflow on Newton's
        # domain, however it is built
        params = flat_params(*coeffs)
        with pytest.raises(EnvelopeError, match=cause):
            observer.make_observer_config(params, ENV, dt=0.01, filt=FILT)
        with pytest.raises(EnvelopeError, match=cause):
            replace(make_cfg(), ind=params)

    @pytest.mark.parametrize("P", [ENV.P_min, 0.3, ENV.P_max])
    def test_reference_map_derivatives_raise_near_zero_force(self, P, monkeypatch):
        # F * F underflows to 0 in L'' below about 1e-162 N; the inversion's
        # domain is floored far above that, at F_floor, where every
        # derivative is finite, and no Newton iterate or bisection point
        # falls below the floor, also from readings below the map's
        # intercept and priors at F = 0.  Every force math.pow sees is one
        cfg = make_cfg()
        coeffs = model._coeffs(IND, P)
        args = cost_args(4.9, 1.0, coeffs, cfg.weights)
        with pytest.raises(ArithmeticError):
            cost_derivatives(1e-200, args)
        assert all(map(math.isfinite, cost_derivatives(cfg.F_floor, args)))
        seen = []
        pow_ = math.pow
        monkeypatch.setattr(math, "pow", lambda F, y: seen.append(F) or pow_(F, y))
        l5 = coeffs[4]
        for L in (l5 - 0.5, l5 - 1e-9, l5, l5 + 1e-9, l5 + 0.01):
            for prior in (0.0, 1e-3, 1.0):
                observer.solve_pseudo_measurement(L, P, prior, cfg)
        assert len(seen) > 15 and min(seen) >= cfg.F_floor
        assert cfg.F_floor in seen   # a pass from a prior at F = 0 starts at the floor
        # at the tightest tolerance a pass toward F = 0 ends at the floor
        seen.clear()
        tight = make_cfg(refine_tol=4.0 * math.ulp(ENV.F_max))
        got = observer.solve_pseudo_measurement(l5, P, 0.0, tight)
        assert seen and min(seen) >= tight.F_floor
        assert got <= tight.refine_tol


def box_maps():
    """Ten map entries from the fit's default coefficient box, each drawn
    from the whole box or from its part within 3 of 0, where more maps
    pass the config's check; or such a draw with the exponent pairs (p2,
    p3) and (p6, p7) set from lambda2 and lambda4 drawn in [0.05, 3] at
    both ends of the pressure range, so that the map is defined on all of
    it."""
    lo, hi = ident.default_inductance_bounds()
    entries = hst.tuples(*[hst.one_of(hst.floats(max(a, -3.0), min(b, 3.0)), hst.floats(a, b))
                           for a, b in zip(lo.tolist(), hi.tolist())])

    def slope_and_intercept(ends):
        # the line through (P_min, l_lo) and (P_max, l_hi), inside the box
        l_lo, l_hi = ends
        slope = (l_hi - l_lo) / (ENV.P_max - ENV.P_min)
        return slope, l_lo - slope * ENV.P_min

    exponents = hst.tuples(hst.floats(0.05, 3.0), hst.floats(0.05, 3.0)).map(slope_and_intercept)

    def with_exponents(p, lambda2, lambda4):
        return p[:2] + lambda2 + p[4:6] + lambda4 + p[8:]

    return hst.one_of(entries, hst.builds(with_exponents, entries, exponents, exponents))


class TestMapCheck:
    def test_accepted_maps_invert_with_finite_derivatives(self):
        # for every map a config accepts, the cost derivatives are finite
        # on Newton's domain, at readings up to 1 uH outside the envelope,
        # and the inversion never raises
        base = make_cfg()
        f0 = base.F_floor
        accepted = []
        points = hst.tuples(hst.one_of(hst.just(f0), hst.floats(f0, ENV.F_max)),
                            hst.floats(ENV.P_min, ENV.P_max),
                            hst.floats(ENV.L_min - 1.0, ENV.L_max + 1.0),
                            hst.floats(ENV.F_min, ENV.F_max))

        @settings(max_examples=300, deadline=None, database=None)
        @given(box_maps(), hst.lists(points, min_size=1, max_size=8))
        def check(p, samples):
            try:
                cfg = replace(base, ind=model.InductanceParams(p))
            except EnvelopeError:
                return
            accepted.append(p)
            for F, P, L, prior in samples:
                args = cost_args(L, prior, model._coeffs(cfg.ind, P), cfg.weights)
                assert all(map(math.isfinite, cost_derivatives(F, args))), (p, F, P, L)
                got = observer.solve_pseudo_measurement(L, P, prior, cfg)
                assert ENV.F_min <= got <= ENV.F_max

        check()
        assert len(accepted) >= 20

    def test_reference_map_bound(self):
        # the bound is derived at the corners; on the reference map it is
        # about 2e49, dominated by L'' at F_floor
        cfg = make_cfg()
        bound = observer._map_bound(IND, ENV, cfg.F_floor)
        assert 1e45 < bound < observer.MAP_LIMIT


class TestNewtonRefinement:
    @pytest.mark.parametrize("w", [
        make_cfg().weights,
        CostWeights(w_fit=2.5, w_dyn=0.03, w_reg=0.004, gamma=0.37),
        CostWeights(w_fit=1.0, w_dyn=0.0, w_reg=0.00144),
    ], ids=["default", "other", "w_dyn_0"])
    def test_match_central_differences(self, w):
        # L', L'', C' and C'' against central differences of the numpy map
        # and cost, with steps of 1e-4 F (first) and 1e-3 F (second
        # derivatives): near F = 0, at the peak and across the envelope,
        # with readings off the map so that the residual r is not 0.  The
        # differences' own error is below 1e-8 and 1e-5 relative to
        # |value| + 1 here; the tolerances are ten times that.
        rng = np.random.default_rng(50)
        for _ in range(100):
            P = float(rng.uniform(ENV.P_min, ENV.P_max))
            L = float(model.eval_inductance(IND, rng.uniform(ENV.F_min, ENV.F_max), P)
                      + rng.normal(0, 0.05))
            prior = float(rng.uniform(ENV.F_min, ENV.F_max))
            args = cost_args(L, prior, model._coeffs(IND, P), w)
            cost = reference_cost(L, P, prior, w)

            def inductance(F):
                return model.eval_inductance(IND, F, P)

            forces = [1e-3 * ENV.F_span, 0.01, model.peak_force(IND, P),
                      *rng.uniform(0.05, ENV.F_max, 4).tolist()]
            for F in forces:
                got = cost_derivatives(F, args)
                h1, h2 = 1e-4 * F, 1e-3 * F
                for k, f in ((0, inductance), (2, cost)):
                    first = (f(F + h1) - f(F - h1)) / (2 * h1)
                    second = (f(F + h2) - 2 * f(F) + f(F - h2)) / (h2 * h2)
                    assert abs(got[k] - first) <= 1e-7 * (abs(got[k]) + 1), (k, F, P)
                    assert abs(got[k + 1] - second) <= 1e-4 * (abs(got[k + 1]) + 1), (k, F, P)

    @pytest.mark.parametrize("g, h, a, b, x", [
        # C = F**4 / 4 - F**2 / 2: C'' < 0 at x, where Newton heads for the
        # maximum at 0
        (lambda F: F ** 3 - F, lambda F: 3 * F * F - 1, 0.5, 1.5, 0.5),
        # C = sqrt(1 + (F - 1)**2): C'' > 0, but the Newton step from x
        # lands at -7, and unguarded Newton diverges from there
        (lambda F: (F - 1) / math.sqrt(1 + (F - 1) ** 2),
         lambda F: (1 + (F - 1) ** 2) ** -1.5, 0.0, 3.1, 3.0),
    ], ids=["negative_curvature", "step_leaves_bracket"])
    def test_newton_bisects_instead_of_leaving_the_bracket(self, g, h, a, b, x):
        got = newton(lambda F, _: (0.0, 0.0, g(F), h(F)), None, a, b, x, 1e-5)
        assert abs(got - 1.0) <= 1e-5

    def test_step_cap_ends_a_pass_with_no_tolerance(self):
        # C' = sign(F - 1/3) is never 0, and every Newton step leaves the
        # bracket, so bisection runs until the bracket is two adjacent
        # floats, which no tolerance of 0 ends
        calls = []

        def derivatives(F, _):
            calls.append(F)
            return 0.0, 0.0, math.copysign(1.0, F - 1.0 / 3.0), 1.0

        got = newton(derivatives, None, 0.0, 1.0, 0.9, 0.0)
        assert abs(got - 1.0 / 3.0) <= 2 * math.ulp(1.0 / 3.0)
        assert len(calls) == observer._MAX_NEWTON_STEPS

    @pytest.mark.parametrize("a, b, x, args, tol, branch", [
        # the regularizer alone, C = 1 - 1 / (1 + 10 d d): C'' < 0 at the
        # start 3.0, 0.9 N from the prior
        (1.0, 5.0, 3.0, (0.0, 2.1, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 10.0), 1e-5,
         "negative_curvature"),
        # C = 1 - 1 / (1 + d d): C'' > 0 but tiny at the start 2.55, so the
        # Newton step lands near -5
        (1.0, 4.0, 2.55, (0.0, 2.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0), 1e-5,
         "step_leaves_bracket"),
        # C = (sqrt(F) - 1)**2 + 0.01 (F - 3)**2 at tol 0: C' is never
        # exactly 0 at the float iterates, so only the step cap ends the pass
        (0.5, 6.0, 3.0, (1.0, 3.0, 1.0, 0.5, 0.0, 1.0, 0.0, 1.0, 0.01, 0.0, 1.0), 0.0,
         "step_cap")], ids=["negative_curvature", "step_leaves_bracket", "step_cap"])
    def test_inversion_takes_the_oracles_branches(self, a, b, x, args, tol, branch,
                                                  monkeypatch):
        # the pass written out in _newton against newton on cost_derivatives:
        # the same iterates, read off math.pow's arguments (Newton takes
        # x**l4, then x**l2), the same result and the cost at the start, on
        # a pass that takes the branch named
        path = []

        def derivatives(F, args):
            out = cost_derivatives(F, args)
            path.append((F, out[2], out[3]))
            return out

        want = newton(derivatives, args, a, b, x, tol)
        seen = []
        pow_ = math.pow
        monkeypatch.setattr(math, "pow", lambda F, y: seen.append(F) or pow_(F, y))
        got, start = observer._newton(args, a, b, x, tol)
        monkeypatch.undo()
        assert same_float(got, want)
        assert start == layered_cost(x, args)
        assert seen[::2] == [F for F, _, _ in path]
        bisected = [x1 != x - g / h for (x, g, h), (x1, _, _) in zip(path, path[1:])]
        taken = {"negative_curvature": any(h <= 0.0 for _, _, h in path),
                 "step_leaves_bracket": any(h > 0.0 and b for (_, _, h), b in zip(path, bisected)),
                 "step_cap": len(path) == observer._MAX_NEWTON_STEPS}
        assert taken[branch], taken

    def test_non_finite_derivative_raises(self):
        # the safety check: F**800 overflows above about 2.4 N, which no
        # config's map does (TestFloatCost); the inversion's own pass
        # raises as the oracle's does
        cfg = make_cfg()
        coeffs = model._coeffs(flat_params(*FLAT_MAPS[1]), 0.3)
        args = cost_args(4.9, 3.0, coeffs, cfg.weights)
        with pytest.raises(FloatingPointError):   # 2**800 is finite, its square is not
            newton(cost_derivatives, args, 1.9, 2.1, 2.0, 1e-5)
        with pytest.raises(OverflowError):        # math.pow(3.0, 800.0) raises
            newton(cost_derivatives, args, 2.9, 3.1, 3.0, 1e-5)
        peak = observer._peak_or_inf(*coeffs[1:4])
        assert peak == 1.0
        with pytest.raises(FloatingPointError):   # the pass starts at the prior clamped to 2.1
            observer._invert(args, 1.9, 2.1, peak, 1e-5)


def inversion_samples(rng, n, near):
    """(L, P, prior) triples on the reference map: priors within about
    0.05 N of the force that made the reading (where one branch is
    searched), or anywhere in the envelope, always with both edges."""
    out = []
    for k in range(n):
        P = float(rng.uniform(ENV.P_min, ENV.P_max))
        F = float(rng.uniform(ENV.F_min, ENV.F_max))
        L = float(model.eval_inductance(IND, F, P) + rng.normal(0, 0.01))
        if k < 4:
            prior = (ENV.F_min, ENV.F_max)[k % 2]
        elif near:
            prior = min(max(F + float(rng.normal(0, 0.05)), ENV.F_min), ENV.F_max)
        else:
            prior = float(rng.uniform(ENV.F_min, ENV.F_max))
        out.append((L, P, prior))
    return out


class TestBranchPasses:
    @pytest.mark.parametrize("period, noise_L", [(8.0, 0.01), (4.0, 0.01), (8.0, 0.0),
                                                 (4.0, 0.0)])
    def test_tracking_samples_search_one_branch(self, period, noise_L, monkeypatch):
        # a tracking sample's prior lies near its preimage, and the other
        # branch's continuity bound alone rules that branch out, so a sample
        # runs one Newton pass.  On the 8 s and 4 s sweep cycles at seed 0,
        # the 4 s one re-seeded off the falling branch's mirror, the second
        # branch runs on 1.0% and 2.3% of the samples at 0.01 uH, at most
        # 5%.  The clean cycles run it once in 16,800 samples: on the 8 s
        # one a prior 2e-5 N past the peak leaves a bound of 6e-14 below
        # the cost of 1.1e-13 at the prior.  A recording goes through one
        # estimate_steps call, which inverts each sample once
        scenario = plant.Scenario.cyclic_estimation(cycle_period_s=period)
        pcfg = plant.default_plant_config(seed=0, noise_L=noise_L, noise_F=0.0)
        ds = plant.run_scenario(scenario, pcfg)
        cfg = observer.make_observer_config(IND, ENV, dt=0.01, filt=FILT, noise_L=noise_L)
        passes, inversions, calls = [], [0], []
        newton_, invert, steps = observer._newton, observer._invert, observer.estimate_steps

        def counted_newton(args, a, b, x, tol):
            passes.append((a, b))
            return newton_(args, a, b, x, tol)

        def counted_invert(*args):
            inversions[0] += 1
            return invert(*args)

        def counted_steps(*args):
            calls.append(len(args[1]))
            return steps(*args)

        monkeypatch.setattr(observer, "_newton", counted_newton)
        monkeypatch.setattr(observer, "_invert", counted_invert)
        monkeypatch.setattr(observer, "estimate_steps", counted_steps)
        est = observer.run_estimation(ds, DYN, cfg)
        assert calls == [len(ds)] and inversions[0] == len(ds)
        second = len(passes) - len(ds)
        assert (0 < second <= 0.05 * len(ds)) if noise_L else second <= (period == 8.0), second
        assert (est["reseeds"] > 0) == (period == 4.0 and noise_L > 0)


    def test_a_tie_keeps_the_priors_branch(self, monkeypatch):
        # with w_fit = 0 the cost depends on |F - prior| alone, so passes
        # that end 0.75 N either side of the prior, at 1.75 and 3.25 N across
        # the peak near 1.97 N, tie exactly: the prior's branch wins.  The
        # passes are fakes, the first reporting a cost at its start above
        # the other branch's bound, so that the second runs
        coeffs = model._coeffs(IND, 0.3)
        peak = observer._peak_or_inf(*coeffs[1:4])
        assert 1.75 < peak < 2.5
        args = cost_args(5.0, 2.5, coeffs, CostWeights(w_fit=0.0, w_dyn=1.0, w_reg=0.0))
        ends = [3.25, 1.75]
        branches = []

        def fake_newton(args, a, b, x, tol):
            branches.append((a, b))
            return ends[len(branches) - 1], 1.0

        monkeypatch.setattr(observer, "_newton", fake_newton)
        assert observer._invert(args, 1e-20, ENV.F_max, peak, 1e-5) == 3.25
        assert branches == [(peak, ENV.F_max), (1e-20, peak)]
        assert observer._cost(3.25, args) == observer._cost(1.75, args)


def reference_run(ds, cfg, spec):
    """``run_estimation`` on ``layered_run``, with ``reference_inversion``
    for the inversion and the state's filters designed from ``spec``.
    Returns F_hat."""
    env = cfg.envelope
    L0, P0 = float(ds.L[0]), float(ds.P[0])
    F0 = observer.nearest_preimage(L0, P0, cfg)
    st = observer.reset(float(np.clip(F0, env.F_min, env.F_max)), L0, P0, cfg)
    st = replace(st, L_filter=sig.prime(sig.design(spec, 100), L0),
                 P_filter=sig.prime(sig.design(spec, 100), P0))
    _, F_hat, _ = layered_run(st, ds.L.tolist(), ds.P.tolist(), DYN, cfg, reference_inversion)
    return np.array(F_hat)


#: Bound on |F_hat - reference F_hat| (N) over a run.  Each inversion is
#: within refine_tol (1e-5 N) of the oracle's, and the Kalman loop
#: carries these differences from sample to sample.  They reach about
#: 5e-6 N on the runs below, and 4.9e-5 N on the cycles of
#: ``test_accuracy.py``; the bound is twice the larger.
RUN_F_TOL = 1e-4


class TestRunEstimationPinned:
    def test_equals_reference_loop(self):
        # a 4 s stretch cycle at three pressures, on which the estimate
        # would lock onto the falling branch but for its re-seed
        self.check(4.0)

    def test_equals_reference_loop_on_an_8s_cycle(self):
        # the estimate tracks the 8 s cycle, so one branch decides nearly
        # every sample
        self.check(8.0)

    @staticmethod
    def check(period):
        scn = plant.Scenario(kind="cyclic_estimation", p_levels=(0.0, 0.3, 0.6),
                             cycles_per_level=1, cycle_period_s=period,
                             x_low=0.072, x_high=0.17)
        ds = plant.run_scenario(scn, plant.default_plant_config(seed=4))
        cfg = make_cfg()
        spec = sig.FilterSpec()
        got = observer.run_estimation(ds, DYN, cfg)
        F_hat = reference_run(ds, cfg, spec)
        assert np.max(np.abs(got["F_hat"] - F_hat)) <= RUN_F_TOL
        assert np.array_equal(got["x_hat"], [model.invert_dynamic_length(DYN, F, P)
                                             for F, P in zip(got["F_hat"], ds.P)])


class TestEstimateStep:
    def test_constant_truth_convergence(self):
        pcfg = plant.default_plant_config(seed=0, noise_L=0.0, noise_F=0.0,
                                          hysteresis=(), valve_tau=0.0)
        p = plant.Plant(pcfg, x0=0.12, P0=0.2)
        cfg = make_cfg()
        run = p.steps([0.2] * 201, 0.01, x_cmd=[0.12] * 201)
        st = observer.reset(0.5, run["L_meas"][0], run["P"][0], cfg)  # deliberately off
        for i in range(1, 201):  # 2 s at 100 Hz
            st, F_hat, x_hat = one_step(st, run["L_meas"][i], run["P"][i], DYN, cfg)
        assert F_hat == pytest.approx(run["F"][-1], rel=0.01)
        assert x_hat == pytest.approx(run["x"][-1], rel=0.01)

    def test_zero_noise_pressure_step_keeps_branch(self):
        # exact readings of a constant force on the rising branch while
        # the pressure steps: the map must be inverted at a time-matched
        # (L, P) pair, and the continuity prior must survive zero noise
        F, P0, P1 = 1.1, 0.2, 0.4
        assert F < model.peak_force(IND, P1) < model.peak_force(IND, P0)
        cfg = observer.make_observer_config(IND, ENV, dt=0.01, filt=FILT, noise_L=0.0)
        P = np.where(np.arange(400) < 100, P0, P1)
        L = model.eval_inductance(IND, F, P)
        st = observer.reset(F, L[0], P[0], cfg)
        F_hat = np.array(observer.estimate_steps(st, L.tolist(), P.tolist(), DYN, cfg)[1])
        assert np.all(F_hat < model.peak_force(IND, P1))
        assert np.max(np.abs(F_hat - F)) < 0.01
        assert np.max(np.abs(F_hat[-100:] - F)) < 1e-3

    def test_covariance_psd_over_many_steps(self):
        cfg = make_cfg()
        rng = np.random.default_rng(1)
        st = observer.reset(1.0, 5.0, 0.3, cfg)
        worst_asym, worst_eig = 0.0, np.inf
        for i in range(10_000):
            L = 4.9 + 0.2 * np.sin(0.002 * i) + 0.01 * rng.standard_normal()
            st, _, _ = one_step(st, L, 0.3, DYN, cfg)
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
        a = observer.run_estimation(ds, DYN, cfg)
        b = observer.run_estimation(ds, DYN, cfg)
        assert np.array_equal(a["F_hat"], b["F_hat"])
        assert np.array_equal(a["x_hat"], b["x_hat"])

    def test_config_filter_is_a_template(self):
        # runs on one config do not share a delay line: the config's filter
        # is copied by reset and never stepped
        scn = plant.Scenario(kind="cyclic_estimation", p_levels=(0.3,),
                             cycles_per_level=1, cycle_period_s=2.0,
                             x_low=0.072, x_high=0.17)
        ds = plant.run_scenario(scn, plant.default_plant_config(seed=9))
        cfg = observer.make_observer_config(IND, ENV, dt=0.01,
                                            filt=sig.design(sig.FilterSpec(), 100))
        a = observer.run_estimation(ds, DYN, cfg)
        b = observer.run_estimation(ds, DYN, cfg)
        for name in ("F_hat", "x_hat"):
            assert a[name].tobytes() == b[name].tobytes()
        assert not cfg.filt.zi.any()
        st = observer.reset(1.0, 4.9, 0.3, cfg)
        assert len({id(cfg.filt), id(st.L_filter), id(st.P_filter)}) == 3
        assert np.array_equal(st.L_filter.sos, cfg.filt.sos)
        assert np.array_equal(st.L_filter.zi, sig.prime(cfg.filt.copy(), 4.9).zi)
        assert np.array_equal(st.P_filter.zi, sig.prime(cfg.filt.copy(), 0.3).zi)


def run_bits(state, F_hat, x_hat):
    """The bytes of a call's returned state (``step_bits``) and of each of
    its estimates, so that equal bytes are equal bits."""
    return step_bits((state, math.nan, math.nan)), struct.pack(f"<{2 * len(F_hat)}d",
                                                             *F_hat, *x_hat)


class TestOneFrameStep:
    @pytest.mark.parametrize("noise_L", [0.0, 0.01, 0.03])
    @pytest.mark.parametrize("period", [8.0, 4.0, 2.0])
    def test_equals_layered_step_bit_for_bit(self, period, noise_L):
        # whole replay runs of the stretch cycle, one sample a call: every
        # bit of the state, both delay lines, F_hat and x_hat after every
        # sample; the whole run in one call ends on the same bits
        scn = plant.Scenario.cyclic_estimation(cycle_period_s=period)
        pcfg = plant.default_plant_config(seed=3, noise_L=noise_L)
        ds = plant.run_scenario(scn, pcfg)
        cfg = observer.make_observer_config(IND, ENV, dt=0.01, filt=FILT, noise_L=noise_L)
        L0, P0 = float(ds.L[0]), float(ds.P[0])
        st = observer.reset(observer.nearest_preimage(L0, P0, cfg), L0, P0, cfg)
        whole, twin = forked(st), forked(st)
        F_hat, x_hat = [], []
        for i, (L, P) in enumerate(zip(ds.L.tolist(), ds.P.tolist())):
            got = one_step(st, L, P, DYN, cfg)
            want = layered_step(twin, L, P, DYN, cfg)
            assert step_bits(got) == step_bits(want), i
            (st, F, x), twin = got, want[0]
            F_hat.append(F)
            x_hat.append(x)
        one_call = observer.estimate_steps(whole, ds.L.tolist(), ds.P.tolist(), DYN, cfg)
        assert run_bits(*one_call) == run_bits(st, F_hat, x_hat)

    @pytest.mark.parametrize("noise_L", [0.0, 0.01, 0.03])
    def test_pieces_equal_one_call_and_the_oracle(self, noise_L):
        # a cycle cut into calls at random points, 1-sample pieces and
        # empty ones included, against one call and against the layered
        # step of each sample (layered_step): every bit of the state and both
        # delay lines at each cut, and of F_hat and x_hat at every sample.
        # A NaN reading raises the oracle's error at the oracle's sample:
        # the delay lines have taken it, and no sample after it
        scn = plant.Scenario(kind="cyclic_estimation", p_levels=(0.0, 0.3, 0.6),
                             cycles_per_level=1, cycle_period_s=2.0, x_low=0.072, x_high=0.17)
        ds = plant.run_scenario(scn, plant.default_plant_config(seed=3, noise_L=noise_L))
        cfg = observer.make_observer_config(IND, ENV, dt=0.01, filt=FILT, noise_L=noise_L)
        L_all, P_all = ds.L.tolist(), ds.P.tolist()
        n = len(L_all)
        L0, P0 = L_all[0], P_all[0]

        def fresh():
            return observer.reset(observer.nearest_preimage(L0, P0, cfg), L0, P0, cfg)

        def oracle(L_raw):
            """layered_step over ``L_raw``: each sample's step_bits, and the
            error and the delay lines where a sample raises."""
            st, bits = fresh(), []
            for L, P in zip(L_raw, P_all):
                try:
                    st, F, x = layered_step(st, L, P, DYN, cfg)
                except ValueError as exc:
                    return bits, (str(exc), step_bits((st, 0.0, 0.0))[1:])
                bits.append(step_bits((st, F, x)))
            return bits, None

        want, _ = oracle(L_all)
        F_want = [struct.unpack("<7d", b[0])[5] for b in want]
        x_want = [struct.unpack("<7d", b[0])[6] for b in want]
        one_call = observer.estimate_steps(fresh(), L_all, P_all, DYN, cfg)
        assert step_bits((one_call[0], F_want[-1], x_want[-1])) == want[-1]
        assert run_bits(*one_call)[1] == run_bits(one_call[0], F_want, x_want)[1]

        @settings(max_examples=30, deadline=None, database=None)
        @given(hst.lists(hst.integers(0, n), max_size=30),
               hst.integers(0, n - 1), hst.integers(0, 6),
               hst.one_of(hst.none(), hst.integers(0, n - 1)))
        def check(cuts, run_start, run_len, nan_at):
            # cuts at random points, and a run of 1-sample pieces
            cuts = sorted(cuts + list(range(run_start, min(run_start + run_len, n))) + [0, n])
            L_raw = list(L_all)
            if nan_at is not None:
                L_raw[nan_at] = math.nan
                bits, raised = oracle(L_raw)
            else:
                bits, raised = want, None
            st, F_hat, x_hat = fresh(), [], []
            for a, b in zip(cuts, cuts[1:]):
                try:
                    st, F, x = observer.estimate_steps(st, L_raw[a:b], P_all[a:b], DYN, cfg)
                except ValueError as exc:
                    assert a <= nan_at < b
                    assert (str(exc), step_bits((st, 0.0, 0.0))[1:]) == raised
                    break
                F_hat += F
                x_hat += x
                if b > a:
                    assert step_bits((st, F[-1], x[-1])) == bits[b - 1], (a, b)
            else:
                assert nan_at is None and len(F_hat) == n
            assert run_bits(st, F_hat, x_hat)[1] == run_bits(st, F_want[:len(F_hat)],
                                                             x_want[:len(x_hat)])[1]

        check()

    def test_pressure_outside_the_envelope_raises_before_its_sample(self):
        # a raw pressure outside the envelope at a random sample raises the
        # layered step's EnvelopeError at that sample, in one call and in
        # pieces: the delay lines have taken every earlier sample, and not
        # that one
        scn = plant.Scenario(kind="cyclic_estimation", p_levels=(0.0, 0.3),
                             cycles_per_level=1, cycle_period_s=2.0, x_low=0.072, x_high=0.17)
        ds = plant.run_scenario(scn, plant.default_plant_config(seed=6))
        cfg = make_cfg()
        L_all, P_all = ds.L.tolist(), ds.P.tolist()
        n = len(L_all)

        def fresh():
            return observer.reset(observer.nearest_preimage(L_all[0], P_all[0], cfg),
                                  L_all[0], P_all[0], cfg)

        @settings(max_examples=30, deadline=None, database=None)
        @given(hst.integers(0, n - 1),
               hst.sampled_from([ENV.P_max + 0.01, -0.01, math.inf, math.nan]),
               hst.lists(hst.integers(0, n), max_size=10))
        def check(bad_at, bad_p, cuts):
            P_raw = list(P_all)
            P_raw[bad_at] = bad_p
            st = fresh()
            L_line, P_line = st.L_filter.copy(), st.P_filter.copy()
            for L, P in zip(L_all[:bad_at], P_raw):
                st = layered_step(st, L, P, DYN, cfg)[0]
                single_step(L_line, L)
                single_step(P_line, P)
            with pytest.raises(EnvelopeError) as raised:
                layered_step(st, L_all[bad_at], bad_p, DYN, cfg)
            want = (str(raised.value), step_bits((st, 0.0, 0.0))[1:])
            assert want[1] == (L_line.zi.tobytes(), P_line.zi.tobytes())
            for cuts in ([0, n], sorted(cuts + [0, n])):
                st = fresh()
                for a, b in zip(cuts, cuts[1:]):
                    if b <= bad_at:
                        st = observer.estimate_steps(st, L_all[a:b], P_raw[a:b], DYN, cfg)[0]
                        continue
                    with pytest.raises(EnvelopeError) as raised:
                        observer.estimate_steps(st, L_all[a:b], P_raw[a:b], DYN, cfg)
                    assert (str(raised.value), step_bits((st, 0.0, 0.0))[1:]) == want, (a, b)
                    break

        check()

    def test_equals_layered_step_in_a_closed_loop(self, monkeypatch):
        # every sample of a self-sensing load perturbation run, its pre-roll
        # included, against the layered step on a fork of each call's
        # state: one call for the pre-roll, then one per control period
        steps, sizes, pressures = observer.estimate_steps, [], []

        def checked(state, L_raw, P, dyn, cfg):
            want = layered_run(forked(state), L_raw, P, dyn, cfg)
            got = steps(state, L_raw, P, dyn, cfg)
            assert run_bits(*got) == run_bits(*want), len(sizes)
            sizes.append(len(P))
            pressures.extend(P)
            return got

        monkeypatch.setattr(observer, "estimate_steps", checked)
        setup = control.TrackingSetup(plant_cfg=plant.default_plant_config(seed=1), dyn=DYN)
        control.run_perturbation(setup, plant.Scenario.load_perturbation(duration_s=10.0))
        assert sizes == [300] + [5] * 200
        assert len(set(pressures)) > 100

    @pytest.mark.parametrize("noise_L", [0.0, 0.01, 0.03])
    def test_kalman_fixed_point_equals_the_layered_step(self, noise_L):
        # the covariance reaches the config's fixed point, where a sample
        # takes the stored gains and skips the recursion; moved off it
        # between two calls, to reset's covariance or a float spacing away,
        # the next call runs the recursion until it equals the fixed point
        # again (from reset's, it is back; from a spacing away it may settle
        # on a neighbouring float fixed point, where it runs on): every bit
        # of every sample against layered_run, which runs it on every sample
        cfg = observer.make_observer_config(IND, ENV, dt=0.01, filt=FILT, noise_L=noise_L)
        fixed, pred, (k0, k1) = cfg.kalman
        twin = layered_predict(state_of((1.0, 0.0), [[fixed[0], fixed[1]], [fixed[1], fixed[2]]]),
                               cfg)
        assert cov_bits(twin) == struct.pack("<3d", *pred)
        assert struct.pack("<2d", k0, k1) == struct.pack("<2d", pred[0] / (pred[0] + cfg.R),
                                                         pred[1] / (pred[0] + cfg.R))
        # the recursion reaches the fixed point in 114 to 614 samples from
        # reset's covariance, and a re-seed puts it back there: at noise_L
        # 0.03 this run re-seeds once, at sample 681, after the cut and
        # more than 614 samples before the end
        scn = plant.Scenario(kind="cyclic_estimation", p_levels=(0.2, 0.4),
                             cycles_per_level=1, cycle_period_s=8.0, x_low=0.072, x_high=0.17)
        ds = plant.run_scenario(scn, plant.default_plant_config(seed=8, noise_L=noise_L))
        L_all, P_all = ds.L.tolist(), ds.P.tolist()
        st = observer.reset(observer.nearest_preimage(L_all[0], P_all[0], cfg), L_all[0],
                            P_all[0], cfg)
        cut = 650
        first = observer.estimate_steps(forked(st), L_all[:cut], P_all[:cut], DYN, cfg)
        assert run_bits(*first) == run_bits(*layered_run(st, L_all[:cut], P_all[:cut], DYN, cfg))
        assert cov_bits(first[0]) == struct.pack("<3d", *fixed)
        L_rest, P_rest = L_all[cut:], P_all[cut:]
        for moved in ((0.25, 0.0, 1.0), (math.nextafter(fixed[0], 1.0), *fixed[1:]),
                      (*fixed[:2], math.nextafter(fixed[2], 0.0))):
            st = forked(replace(first[0], var_F=moved[0], cov_F_Fdot=moved[1], var_Fdot=moved[2]))
            got = observer.estimate_steps(forked(st), L_rest, P_rest, DYN, cfg)
            assert run_bits(*got) == run_bits(*layered_run(st, L_rest, P_rest, DYN, cfg)), moved
            if moved == (0.25, 0.0, 1.0):
                assert cov_bits(got[0]) == struct.pack("<3d", *fixed)

    def test_no_kalman_fixed_point_runs_the_recursion(self):
        # with no process noise the covariance shrinks on every sample and
        # never repeats: the config stores no fixed point, and every sample
        # runs the recursion, as the layered step does
        cfg = make_cfg(Q=np.zeros((2, 2)))
        assert cfg.kalman is None
        assert make_cfg().kalman is not None
        scn = plant.Scenario(kind="cyclic_estimation", p_levels=(0.3,), cycles_per_level=1,
                             cycle_period_s=2.0, x_low=0.072, x_high=0.17)
        ds = plant.run_scenario(scn, plant.default_plant_config(seed=8))
        L_all, P_all = ds.L.tolist(), ds.P.tolist()
        st = observer.reset(1.0, L_all[0], P_all[0], cfg)
        got = observer.estimate_steps(forked(st), L_all, P_all, DYN, cfg)
        assert run_bits(*got) == run_bits(*layered_run(st, L_all, P_all, DYN, cfg))

    def test_degenerate_stiffness_raises(self):
        cfg = make_cfg()
        st = observer.reset(1.0, 4.9, 0.3, cfg)
        with pytest.raises(model.DegenerateModelError, match="stiffness"):
            observer.estimate_steps(st, [4.9], [0.3],
                                    model.DynamicParams(k=1e-12, x0=0.1, c=1.6), cfg)

    def test_nan_passes_as_in_the_layered_step(self):
        # a NaN or infinite reading is rejected by the checked inversion,
        # and a NaN force passes the prior's clamp, as min(max(...)) lets
        # it: each raises the layered step's error
        cfg = make_cfg()
        st = observer.reset(1.0, 4.9, 0.3, cfg)
        for state, L, match in ((st, math.nan, "inductance reading must be finite"),
                                (st, math.inf, "inductance reading must be finite"),
                                (replace(st, F_hat=math.nan), 4.9, "prior force must be finite")):
            for step in (one_step, layered_step):
                with pytest.raises(ValueError, match=match):
                    step(forked(state), L, 0.3, DYN, cfg)

    def test_sequences_must_pair_up(self):
        cfg = make_cfg()
        st = observer.reset(1.0, 4.9, 0.3, cfg)
        with pytest.raises(ValueError, match="2 readings against 1 pressures"):
            observer.estimate_steps(st, [4.9, 4.9], [0.3], DYN, cfg)
        out, F_hat, x_hat = observer.estimate_steps(st, [], [], DYN, cfg)
        assert (F_hat, x_hat) == ([], [])
        assert step_bits((out, 0.0, 0.0)) == step_bits((st, 0.0, 0.0))


class TestReseed:
    @pytest.mark.parametrize("spec, n", [(sig.FilterSpec(), 4096),
                                         (sig.FilterSpec(order=5, cutoff_hz=2.0), 4096),
                                         (sig.FilterSpec(order=1, cutoff_hz=0.05), 1 << 15),
                                         (sig.FilterSpec(order=1, cutoff_hz=1e-4), 1 << 16)])
    def test_noise_gain_sums_the_impulse_response(self, spec, n):
        # g = sqrt(sum h h) over scipy's impulse response of the design,
        # which has decayed within n samples; a response that outlasts the
        # sum's cap of 65536 samples (the 1e-4 Hz design) is summed over
        # them; the default design's is 0.4546.  The config's sigma_L is g
        # times the sensor noise, raised to the noise floor, and the
        # template's delay line plays no part
        from scipy import signal as ss
        filt = sig.design(spec, 100)
        h = ss.sosfilt(filt.sos, np.r_[1.0, np.zeros(n - 1)])
        g = observer._noise_gain(filt)
        assert g == pytest.approx(math.sqrt(math.fsum(h * h)), rel=1e-12)
        assert spec != sig.FilterSpec() or abs(g - 0.4546) < 5e-5
        for noise_L in (0.0, 0.01, 0.03):
            cfg = observer.make_observer_config(IND, ENV, dt=0.01, filt=filt, noise_L=noise_L)
            assert cfg.sigma_L == pytest.approx(g * max(noise_L, observer.NOISE_FLOOR_UH),
                                                rel=1e-12)
        primed = replace(cfg, filt=sig.prime(filt.copy(), 4.9))
        assert primed.sigma_L == cfg.sigma_L

    def test_a_mirror_estimate_moves_to_the_rising_branch(self):
        # an estimate above the peak at a reading that the falling branch
        # cannot give, more than 3 sigma_L below L(F_max), is re-seeded
        # once, at the first sample, onto the reading's rising preimage, and
        # then tracks it; 3 sigma_L above L(F_max) the falling branch can
        # give the reading, and the estimate stays there
        cfg, P = make_cfg(), 0.3
        coeffs = model._coeffs(IND, P)
        peak = model.peak_force(IND, P)
        L_end = model._inductance_at(ENV.F_max, *coeffs)
        for L, reseeds in ((L_end - 0.05, 1), (L_end - 2.0 * cfg.sigma_L, 0)):
            F_rise = brentq(lambda F: model._inductance_at(F, *coeffs) - L, 1e-9, peak)
            st = observer.reset(3.0, L, P, cfg)
            first = observer.estimate_steps(st, [L], [P], DYN, cfg)[0]
            assert first.reseeds == reseeds
            assert (abs(first.F_hat - F_rise) < 0.05) == bool(reseeds)
            st, F_hat, _ = observer.estimate_steps(first, [L] * 200, [P] * 200, DYN, cfg)
            assert st.reseeds == reseeds
            assert (abs(F_hat[-1] - F_rise) < 1e-3) == bool(reseeds)

    @pytest.mark.parametrize("l3", [-5e-324, -1e-300])
    def test_a_peak_beyond_the_floats_never_fires(self, l3):
        # box maps with lambda3 = l3 at every pressure, for which -l3 l4
        # underflows to 0 or the peak's power overflows where l4 is small:
        # the rule neither raises nor fires, from a state at F_max on
        # readings anywhere around the envelope, and every bit equals the
        # layered step's
        base, tally = make_cfg(), {"accepted": 0, "no_peak": 0}

        @settings(max_examples=60, deadline=None, database=None)
        @given(box_maps(), hst.floats(ENV.P_min, ENV.P_max),
               hst.lists(hst.floats(ENV.L_min - 1.0, ENV.L_max + 1.0), min_size=1, max_size=12))
        def check(p, P, L_raw):
            p = p[:4] + (0.0, l3) + p[6:]
            try:
                cfg = replace(base, ind=model.InductanceParams(p))
            except EnvelopeError:
                return
            tally["accepted"] += 1
            _, l2, _, l4, _ = model._coeffs(cfg.ind, P)
            try:
                model._peak_at(l2, l3, l4)
            except (OverflowError, ZeroDivisionError):
                tally["no_peak"] += 1
            st = observer.reset(ENV.F_max, L_raw[0], P, cfg)
            got = observer.estimate_steps(forked(st), L_raw, [P] * len(L_raw), DYN, cfg)
            assert run_bits(*got) == run_bits(*layered_run(st, L_raw, [P] * len(L_raw), DYN, cfg))
            assert got[0].reseeds == 0

        check()
        assert tally["accepted"] >= 20 and tally["no_peak"] >= 5, tally

    def test_pieces_across_a_reseed_equal_one_call(self):
        # the 2 s cycle of test_pieces_equal_one_call_and_the_oracle
        # re-seeds at samples 157 and 377 at noise_L 0.01.  Cut just before,
        # just after, and into 1-sample pieces around each re-seed, the
        # pieces give one call's bits, and the count they pass on is its 2
        scn = plant.Scenario(kind="cyclic_estimation", p_levels=(0.0, 0.3, 0.6),
                             cycles_per_level=1, cycle_period_s=2.0, x_low=0.072, x_high=0.17)
        ds = plant.run_scenario(scn, plant.default_plant_config(seed=3, noise_L=0.01))
        cfg = observer.make_observer_config(IND, ENV, dt=0.01, filt=FILT, noise_L=0.01)
        L_all, P_all = ds.L.tolist(), ds.P.tolist()
        n = len(L_all)

        def fresh():
            return observer.reset(observer.nearest_preimage(L_all[0], P_all[0], cfg),
                                  L_all[0], P_all[0], cfg)

        whole = observer.estimate_steps(fresh(), L_all, P_all, DYN, cfg)
        assert whole[0].reseeds == 2
        st, at = fresh(), []
        for i in range(n):
            before = st.reseeds
            st = observer.estimate_steps(st, L_all[i:i + 1], P_all[i:i + 1], DYN, cfg)[0]
            if st.reseeds > before:
                at.append(i)
        assert at == [157, 377]
        for cuts in ([157], [158], [377], [378], [157, 158, 377, 378],
                     list(range(154, 161)) + list(range(375, 381))):
            st, F_hat, x_hat = fresh(), [], []
            for a, b in zip([0] + cuts, cuts + [n]):
                st, F, x = observer.estimate_steps(st, L_all[a:b], P_all[a:b], DYN, cfg)
                F_hat += F
                x_hat += x
            assert run_bits(st, F_hat, x_hat) == run_bits(*whole), cuts
            assert st.reseeds == 2


class TestBranchDisambiguation:
    def test_observer_smooth_inverter_jumps(self):
        pcfg = plant.default_plant_config(seed=0)
        p = plant.Plant(pcfg, x0=0.105, P0=0.2)
        cfg = make_cfg()
        dt = 0.01
        first = p.steps([0.2], dt, x_cmd=[0.105])
        st = observer.reset(first["F"][0], first["L_meas"][0], first["P"][0], cfg)
        F_true, F_obs, F_inv = [], [], []
        for i in range(int(20.0 / dt)):
            t = (i + 1) * dt
            x = 0.105 + 0.07 * 0.5 * (1 - np.cos(2 * np.pi * 0.1 * t))
            r = p.steps([0.2], dt, x_cmd=[x])
            L, P = r["L_meas"][0], r["P"][0]
            st, F_hat, _ = one_step(st, L, P, DYN, cfg)
            F_inv.append(observer.nearest_preimage(L, P, cfg))
            F_true.append(r["F"][0])
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
    def test_validation(self):
        for dt, R in ((0.01, -1.0), (0.01, math.nan), (0.0, 1.0), (math.nan, 1.0)):
            with pytest.raises(ValueError, match="dt must|R must"):
                ObserverConfig(dt=dt, Q=np.eye(2), R=R, envelope=ENV, ind=IND,
                               weights=CostWeights(), filt=FILT)
        with pytest.raises(ValueError, match="refine_tol"):
            ObserverConfig(dt=0.01, Q=np.eye(2), R=1.0, envelope=ENV, ind=IND,
                           weights=CostWeights(), filt=FILT, refine_tol=math.nan)
        with pytest.raises(ValueError):
            CostWeights(gamma=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_Q_rejected(self, bad):
        # checked before the eigenvalues, which a NaN or inf entry has none of
        Q = np.eye(2)
        Q[0, 1] = bad
        with pytest.raises(ValueError, match="Q must be finite"):
            ObserverConfig(dt=0.01, Q=Q, R=1.0, envelope=ENV, ind=IND,
                           weights=CostWeights(), filt=FILT)

    def test_flat_map_rejected(self):
        # exp(-1000 F) vanishes on the envelope, so the median |dL/dF| is 0
        # and R = (noise / gradient)**2 has no value; the map's terms are bounded
        params = flat_params(0.6, 1.3, -1000.0, 1.0, 4.75)
        assert observer.median_force_gradient(params, ENV) == 0.0
        assert observer._map_bound(params, ENV, ENV.F_max * 2.0 ** -80) < observer.MAP_LIMIT
        with pytest.raises(EnvelopeError, match=r"is flat over the envelope \(median \|dL/dF\| = 0\)"):
            observer.make_observer_config(params, ENV, dt=0.01, filt=FILT)

    @pytest.mark.parametrize("l3", [-285.0, -295.0])
    def test_nearly_flat_map_rejected(self, l3):
        # a median gradient of 1e-297 leaves (noise / gradient)**2 out of
        # range (OverflowError), and one of 8e-315 makes noise / gradient
        # inf; neither gives R, and the map is named as the cause
        params = flat_params(0.6, 1.3, l3, 1.0, 4.75)
        assert 0.0 < observer.median_force_gradient(params, ENV) < 1e-290
        with pytest.raises(EnvelopeError, match="nearly flat over the envelope"):
            observer.make_observer_config(params, ENV, dt=0.01, filt=FILT)

    def test_noise_scaled_defaults(self):
        cfg = make_cfg()
        span = ENV.F_span
        assert cfg.weights.w_fit == 1.0
        assert cfg.weights.w_dyn == pytest.approx((3 * 0.01) ** 2 / (0.05 * span) ** 2)
        assert cfg.weights.w_reg == pytest.approx(0.1 * cfg.weights.w_dyn)
        assert cfg.weights.gamma == pytest.approx(25.0 / span ** 2)
        assert cfg.R == pytest.approx((0.01 / observer.median_force_gradient(IND, ENV)) ** 2)

    @pytest.mark.parametrize("refine_tol", [1e-17, 1e-300])
    def test_refine_tol_below_float_spacing_rejected(self, refine_tol):
        # a bracket a float spacing or two wide never shrinks, so such a
        # tolerance would run every pass to the step cap
        with pytest.raises(ValueError, match="refine_tol"):
            make_cfg(refine_tol=refine_tol)

    def test_refinement_ends_at_the_tolerance_floor(self, monkeypatch):
        # at refine_tol = 4 ulp(F_max) every Newton pass the inversion runs,
        # over a whole branch, from the prior or on the other branch, still
        # ends on its stopping rules, before the step cap, as the oracle's
        # newton does; the inversion takes one of its passes' results, at a
        # sign change of C' a tolerance either side of it
        # (``decimal_slope``), unless it is at an edge of the branch
        floor = 4.0 * math.ulp(ENV.F_max)
        with pytest.raises(ValueError, match="refine_tol"):
            make_cfg(refine_tol=math.nextafter(floor, 0.0))
        cfg = make_cfg(refine_tol=floor)
        passes, newton_ = [], observer._newton
        monkeypatch.setattr(observer, "_newton",
                            lambda *args: passes.append(args) or newton_(*args))
        rng = np.random.default_rng(40)
        second = 0
        for near in (True, False):
            for L, P, prior in inversion_samples(rng, 150, near):
                passes.clear()
                got = observer.solve_pseudo_measurement(L, P, prior, cfg)
                second += len(passes) - 1
                results = {}
                for args, a, b, x, tol in passes:
                    assert tol == floor
                    steps = []

                    def counted(F, args):
                        steps.append(F)
                        return cost_derivatives(F, args)

                    F = newton(counted, args, a, b, x, floor)
                    assert len(steps) < observer._MAX_NEWTON_STEPS
                    assert a <= F <= b
                    results[F] = a, b
                a, b = results[got]
                if got - floor > a:
                    assert decimal_slope(got - floor, args) <= 0.0, (L, P, prior)
                if got + floor < b:
                    assert decimal_slope(got + floor, args) >= 0.0, (L, P, prior)
        assert second > 50
