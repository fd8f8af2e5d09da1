"""Hybrid EKF-plus-optimization observer for force and displacement.

Per sample: low-pass the raw inductance and, through the same filter,
the pressure (the static map holds only for an (L, P) pair taken
at the same instant, so the pressure must carry the same delay),
propagate a constant-velocity force model, invert the inductance map
through a composite scalar cost (model fidelity + continuity toward the
prediction + a redescending regularizer that stabilizes the near-peak
zero-gradient region), feed the resulting pseudo-measurement to a
Joseph-form Kalman update, and infer length through the affine force
model.

The inner minimization is a coarse global grid over the feasible force
interval followed by golden-section refinement of the best bracket; the
continuity term is what disambiguates the two force preimages of a
reading on a rising-then-falling curve.

Per sample, the map coefficients are evaluated once, for the inversion
and the gradient guard.  The golden pass returns the midpoint of its
last bracket, which depends only on the outcomes of its cost
comparisons, never on the cost values.  So each of its about 21 cost
evaluations runs on Python floats with ``math.pow`` and ``math.exp``,
which differ from numpy's loops in the last bit, and carries a bound on
its distance from the numpy evaluation.  A comparison the bounds cannot
decide (a near-tie, 1-4% of them on stretch cycles) is made on costs
taken exactly through numpy (``_certified_golden``); the gradient
guard's one threshold decision is made the same way.  The estimates
equal those of an all-numpy evaluation bit for bit.  The coarse grid is
costed on arrays, and one ``np.errstate`` covers the inversion and the
guard.

The Kalman state is five Python floats (the mean and the three distinct
covariance entries), and ``predict`` and ``update`` are the 2x2 matrix
products written out on them.  They repeat numpy's arithmetic operation
for operation, including the multiply-adds that an OpenBLAS kernel
fuses on a CPU with FMA instructions (``model._fma``), so there they
equal the matrix form bit for bit with no array built.  The tests probe
whether numpy fuses and skip that comparison where it does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import model
from . import signal as sig
from .model import DynamicParams, EnvelopeError, InductanceParams, OperatingEnvelope

__all__ = [
    "ObserverState",
    "CostWeights",
    "ObserverConfig",
    "make_observer_config",
    "median_force_gradient",
    "predict",
    "solve_pseudo_measurement",
    "update",
    "reset",
    "estimate_step",
    "nearest_preimage",
    "run_estimation",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: Inductance noise floor (uH) under which the noise-scaled tuning does
#: not go.  See ``make_observer_config``.
NOISE_FLOOR_UH = 1e-3

#: Most points of the coarse inversion grid: the whole grid is costed on
#: every sample, and a config value must not ask for an unbounded array.
MAX_GRID_POINTS = 65536


@dataclass(slots=True)
class ObserverState:
    """Force / force-rate mean with its 2x2 covariance, as five floats.

    The covariance is symmetric, so it is held as its three distinct
    entries: ``var_F``, ``cov_F_Fdot`` and ``var_Fdot``.

    ``pressure_filter`` is the delay line that matches the pressure to
    the filtered inductance.  It is None in a fresh state; the first
    ``estimate_step`` makes it as a copy of the inductance filter primed
    with that step's raw pressure, as the inductance filter is primed
    with the first raw reading.  Later states share it, and
    it advances in place.
    """

    F_hat: float
    Fdot_hat: float
    var_F: float
    cov_F_Fdot: float
    var_Fdot: float
    pressure_filter: sig.FilterState | None = None


@dataclass(frozen=True)
class CostWeights:
    """Weights of the composite inversion cost and the basin shape
    parameter of its regularization term."""

    w_fit: float = 1.0
    w_dyn: float = 0.01
    w_reg: float = 0.001
    gamma: float = 1.0

    def __post_init__(self):
        if self.w_fit < 0 or self.w_dyn < 0 or self.w_reg < 0:
            raise ValueError("cost weights must be >= 0")
        if self.gamma <= 0:
            raise ValueError("gamma must be > 0")


@dataclass(frozen=True)
class ObserverConfig:
    """Observer tuning.  ``grid`` (the coarse inversion grid over the
    feasible force interval) and ``Q_entries`` (``Q`` as four floats,
    row by row) are derived from the other fields on construction, so
    ``dataclasses.replace`` rebuilds them.  ``init_cov`` must be
    symmetric, since a state holds one off-diagonal entry."""

    dt: float
    Q: np.ndarray
    R: float
    envelope: OperatingEnvelope
    weights: CostWeights
    grid_points: int = 129
    refine_tol: float = 1e-5
    init_cov: np.ndarray = field(default_factory=lambda: np.diag([0.25, 1.0]))
    median_gradient: float = 0.1
    gradient_guard_ratio: float = 1e-4
    gradient_guard_inflation: float = 10.0
    grid: np.ndarray = field(init=False, repr=False, compare=False)
    Q_entries: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "Q", np.asarray(self.Q, dtype=float).reshape(2, 2))
        object.__setattr__(self, "init_cov", np.asarray(self.init_cov, dtype=float).reshape(2, 2))
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.R <= 0:
            raise ValueError("R must be positive")
        if not 16 <= self.grid_points <= MAX_GRID_POINTS:
            raise ValueError(f"grid_points must be in [16, {MAX_GRID_POINTS}]")
        if not self.refine_tol > 0:
            raise ValueError("refine_tol must be > 0")
        if not self.gradient_guard_ratio >= 0:
            raise ValueError("gradient_guard_ratio must be >= 0")
        if not self.gradient_guard_inflation >= 1:
            raise ValueError("gradient_guard_inflation must be >= 1")
        if np.any(np.linalg.eigvalsh(0.5 * (self.Q + self.Q.T)) < -1e-12):
            raise ValueError("Q must be positive semidefinite")
        C = self.init_cov
        if not np.all(np.isfinite(C)):
            raise ValueError("init_cov must be finite")
        if C[0, 1] != C[1, 0]:
            raise ValueError("init_cov must be symmetric")
        if np.any(np.linalg.eigvalsh(C) < -1e-12):
            raise ValueError("init_cov must be positive semidefinite")
        grid = np.linspace(self.envelope.F_min, self.envelope.F_max, self.grid_points)
        grid.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "Q_entries", tuple(self.Q.ravel().tolist()))


def median_force_gradient(params: InductanceParams, envelope: OperatingEnvelope,
                          n_f: int = 80, n_p: int = 16) -> float:
    """Median |dL/dF| over the envelope (excluding the F=0 edge)."""
    F = np.linspace(max(envelope.F_min, 1e-3 * envelope.F_span), envelope.F_max, n_f)
    P = np.linspace(envelope.P_min, envelope.P_max, n_p)
    FF, PP = np.meshgrid(F, P)
    return float(np.median(np.abs(model.d_inductance_dF(params, FF, PP, validate=False))))


def make_observer_config(params: InductanceParams, envelope: OperatingEnvelope,
                         dt: float, noise_L: float = 0.01,
                         sigma_F: float = 0.05, sigma_Fdot: float = 0.5,
                         **overrides) -> ObserverConfig:
    """Noise-scaled default configuration.

    The continuity weight prices a force deviation of 5% of the
    feasible span like an inductance residual of three times the sensor
    noise floor; the regularizer is a tenth of that; gamma shapes the
    attraction basin to about a fifth of the span.  R is the square of
    the noise-equivalent force (sensor noise over the median gradient).
    These are artifact defaults, all overridable.

    ``noise_L`` is raised to ``NOISE_FLOOR_UH`` first.  The continuity
    term is what keeps the estimate on its branch, and its weight
    scales with the noise squared: for a near-noiseless sensor it
    vanishes, and the coarse grid then picks the basin by its
    discretisation alone, so the estimate can jump to the other force
    preimage.  With the floor, the continuity price of a jump longer
    than about 0.7 N (14% of the span of the reference envelope)
    exceeds the largest residual a grid point can leave, half a grid
    step times the steepest slope of the reference map, whatever the
    sensor noise; that length grows as one over the noise, so without
    a floor it leaves the envelope.  At or above the floor the weights
    and R are the noise-scaled ones unchanged.
    """
    if not (noise_L >= 0 and sigma_F >= 0 and sigma_Fdot >= 0):
        raise ValueError(f"noise_L, sigma_F and sigma_Fdot must be >= 0, got "
                         f"{noise_L}, {sigma_F} and {sigma_Fdot}")
    span = envelope.F_span
    noise_L = max(noise_L, NOISE_FLOOR_UH)
    w_dyn = (3.0 * noise_L) ** 2 / (0.05 * span) ** 2
    weights = CostWeights(w_fit=1.0, w_dyn=w_dyn, w_reg=0.1 * w_dyn,
                          gamma=25.0 / span ** 2)
    med = median_force_gradient(params, envelope)
    cfg = ObserverConfig(
        dt=dt,
        Q=np.diag([(sigma_F * dt) ** 2, sigma_Fdot ** 2 * dt]),
        R=(noise_L / med) ** 2,
        envelope=envelope,
        weights=weights,
        median_gradient=med,
    )
    return replace(cfg, **overrides) if overrides else cfg


def reset(F0: float, cfg: ObserverConfig) -> ObserverState:
    """Fresh state at force F0 (must lie in the feasible interval), zero rate."""
    env = cfg.envelope
    if not (env.F_min <= F0 <= env.F_max):
        raise EnvelopeError(f"initial force {F0} outside [{env.F_min}, {env.F_max}]")
    (c00, c01), (_, c11) = cfg.init_cov.tolist()
    return ObserverState(float(F0), 0.0, c00, c01, c11)


def predict(state: ObserverState, cfg: ObserverConfig) -> ObserverState:
    """Constant-velocity propagation over one sampling interval.

    The mean is A m and the covariance A C A^T + Q, for A = [[1, dt],
    [0, 1]], written out on the state's floats in the order of numpy's
    ``A @ m`` and ``A @ C @ A.T``.  Three entries of those 2x2 products
    are ``c + dt * b`` with one rounding, because the BLAS kernel fuses
    that multiply-add, so ``model._fma`` computes them; the symmetrized
    off-diagonal is half the sum of the two, as ``0.5 * (C + C.T)`` is.
    """
    dt = cfg.dt
    q00, q01, q10, q11 = cfg.Q_entries
    c01, c11 = state.cov_F_Fdot, state.var_Fdot
    ac00 = model._fma(dt, c01, state.var_F)   # (A C)[0, 0]
    ac01 = model._fma(dt, c11, c01)           # (A C)[0, 1], and (A C A^T)[1, 0]
    return ObserverState(
        state.F_hat + dt * state.Fdot_hat, state.Fdot_hat,
        model._fma(ac01, dt, ac00) + q00,
        0.5 * ((ac01 + q01) + (ac01 + q10)),
        c11 + q11)


#: The golden pass decides each comparison of two exact costs from fast
#: ones on libm floats (``_cost_evaluators``) and their error bounds, and
#: evaluates a cost exactly only when the bounds overlap (Shewchuk's
#: filtered predicates).  The bounds assume that every ``pow`` or ``exp``
#: result, libm's or numpy's, is within a relative ``_EPS_FN`` of the
#: true value: 2**-40, 4096 times the 1 ulp by which the two differ.
#: With u the unit roundoff, ``_ULP``, and t = l3 * F**l4, the fast and
#: exact paths then differ by at most:
#:
#: - 2 eps relative in F**l2 and in F**l4, so 2 eps |t| (plus roundings)
#:   in t, and 2 eps + 2 eps |t| in exp(t);
#: - eps (4 + 2|t|) relative in m = l1 * F**l2 * exp(t), plus roundings,
#:   taken as eps (5 + 3|t|);
#: - that times |m|, plus 5u (|l5| + |L_meas|) for the roundings of
#:   r = m + l5 - L_meas, in the residual: dr;
#: - w_fit dr (2|r| + dr) plus 10u c in the cost c = w_fit r r + (terms
#:   both paths compute alike), since every term is >= 0, plus
#:   ``_UNDERFLOW_SLOP`` for w_fit r r falling below the normal floats.
#:
#: Each step keeps some slack (about eps |m|, or 2u c), more than the
#: dropped second-order terms and the rounding of the comparison itself.
#: The bound holds while F**l2, F**l4, exp(t), |l1| and w_fit lie in
#: (``_LO``, ``_HI``) and c below ``_HI``: then l1 * F**l2 and m are
#: normal floats, and nothing overflows in either path.  Outside that
#: range, and for NaN, inf or an exception from ``math``, the cost is
#: taken exactly.
_EPS_FN = 2.0 ** -40
_ULP = 2.0 ** -53
_LO = 2.0 ** -300
_HI = 2.0 ** 300
_UNDERFLOW_SLOP = 2.0 ** -1000


def _certified_golden(value, exact, a: float, b: float, tol: float) -> float:
    """Golden-section minimizer on [a, b] down to interval width tol.

    ``value(F)`` is ``(cost, bound)``, a cost within ``bound`` of
    ``exact(F)``; a bound of 0 marks an exact cost.  A comparison whose
    gap exceeds the two bounds has the exact costs' outcome; any other
    is made on exact costs.  The result depends on the outcomes alone,
    so it is the one that golden section on ``exact`` returns.
    """
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    (fc, ec), (fd, ed) = value(c), value(d)
    while b - a > tol:
        if not abs(fc - fd) > ec + ed:  # a near-tie, or NaN
            if ec:
                fc, ec = exact(c), 0.0
            if ed:
                fd, ed = exact(d), 0.0
        if fc < fd:
            b, d, fd, ed = d, c, fc, ec
            c = b - _GOLDEN * (b - a)
            fc, ec = value(c)
        else:
            a, c, fc, ec = c, d, fd, ed
            d = a + _GOLDEN * (b - a)
            fd, ed = value(d)
    return 0.5 * (a + b)


def _cost_evaluators(L_meas: float, prior_F: float, coeffs: tuple, w: CostWeights):
    """``(value, exact)`` for ``_certified_golden`` on the inversion cost
    at the map coefficients ``coeffs``.

    ``exact(F)`` takes F**l2 and F**l4 from one two-exponent ``np.power``
    call (``model._inductance_at``): the bits of ``_composite_cost``.
    ``value(F)`` repeats that arithmetic on ``math.pow`` and ``math.exp``
    and bounds its distance from ``exact(F)`` as set out above
    ``_EPS_FN``, or returns ``(exact(F), 0.0)``.  Callers set
    ``np.errstate``.
    """
    l1, l2, l3, l4, l5 = coeffs
    w_fit, w_dyn, w_reg, gamma = w.w_fit, w.w_dyn, w.w_reg, w.gamma

    def exact(F):
        return _cost_of_inductance(model._inductance_at(F, *coeffs), F, L_meas, prior_F, w)

    if not (_LO < abs(l1) < _HI and _LO < w_fit < _HI):
        return (lambda F: (exact(F), 0.0)), exact
    m_rel = 5.0 * _EPS_FN
    m_rel_t = 3.0 * _EPS_FN * abs(l3)     # times F**l4 > 0 is 3 eps |t|
    r_sums = 5.0 * _ULP * (abs(l5) + abs(L_meas))
    c_rel = 10.0 * _ULP

    def value(F):
        try:
            F_l2 = math.pow(F, l2)
            F_l4 = math.pow(F, l4)
            e = math.exp(l3 * F_l4)
        except (ValueError, OverflowError):
            return exact(F), 0.0
        if _LO < F_l2 < _HI and _LO < F_l4 < _HI and _LO < e < _HI:
            m = l1 * F_l2 * e
            r = m + l5 - L_meas
            dF = F - prior_F  # the rest is _cost_of_inductance's arithmetic
            c = (w_fit * r * r + w_dyn * dF * dF
                 + w_reg * (1.0 - 1.0 / (1.0 + gamma * dF * dF)))
            if c < _HI:
                dr = abs(m) * (m_rel + m_rel_t * F_l4) + r_sums
                return c, w_fit * dr * (2.0 * abs(r) + dr) + c_rel * c + _UNDERFLOW_SLOP
        return exact(F), 0.0

    return value, exact


def _gradient_below(F: float, coeffs: tuple, threshold: float) -> bool:
    """Whether |dL/dF| at F, as ``model._d_inductance_dF_of_powers`` gives
    it on one two-exponent ``np.power`` call, is below ``threshold``.

    It is decided on ``math.pow`` and ``math.exp`` when their result is
    further from ``threshold`` than its bound.  The bound is the one set
    out above ``_EPS_FN`` for q = l1 * F**(l2 - 1) * exp(t), which the
    derivative multiplies by s = l2 + k, where k = l3 * l4 * F**l4
    carries 2 eps |k| plus roundings: eps |q| (|s| (5 + 3|t|) + 3|k|).
    The same range rules hold, with |dL/dF| in (``_LO``, ``_HI``) in
    place of the cost's.
    """
    l1, l2, l3, l4, _ = coeffs
    try:
        F_l2m1 = math.pow(F, l2 - 1.0)
        F_l4 = math.pow(F, l4)
        t = l3 * F_l4
        e = math.exp(t)
    except (ValueError, OverflowError):
        pass
    else:
        q = l1 * F_l2m1 * e
        k = l3 * l4 * F_l4
        s = l2 + k
        g = abs(q * s)
        if (_LO < abs(l1) < _HI and _LO < F_l2m1 < _HI and _LO < F_l4 < _HI
                and _LO < e < _HI and _LO < g < _HI):
            bound = _EPS_FN * abs(q) * (abs(s) * (5.0 + 3.0 * abs(t)) + 3.0 * abs(k))
            if abs(g - threshold) > bound:
                return g < threshold
    F_l2m1, F_l4 = np.power(F, np.array((l2 - 1.0, l4))).tolist()
    return abs(float(model._d_inductance_dF_of_powers(F_l2m1, F_l4, l1, l2, l3, l4))) < threshold


def _composite_cost(F, L_meas: float, coeffs: tuple, prior_F: float, w: CostWeights):
    """Inversion cost at force F (scalar or array); ``coeffs`` are the
    five map coefficients at the inversion pressure.  Callers set
    ``np.errstate``."""
    return _cost_of_inductance(model._inductance(F, *coeffs), F, L_meas, prior_F, w)


def _cost_of_inductance(L_model, F, L_meas: float, prior_F: float, w: CostWeights):
    """Inversion cost at force F whose modeled inductance is ``L_model``."""
    r = L_model - L_meas
    dF = F - prior_F
    return (w.w_fit * r * r + w.w_dyn * dF * dF
            + w.w_reg * (1.0 - 1.0 / (1.0 + w.gamma * dF * dF)))


def solve_pseudo_measurement(L_meas: float, P: float, prior_F: float,
                             params: InductanceParams, cfg: ObserverConfig) -> float:
    """Force minimizing the composite inversion cost over the feasible interval.

    Coarse global scan (``grid_points`` samples) picks the basin; a
    golden-section pass on the winning bracket refines it to
    ``refine_tol``.  The result always lies inside the interval; edge
    minima are returned clamped, not raised.
    """
    cfg.envelope.check_P(P)
    if not math.isfinite(prior_F):
        raise ValueError("prior force must be finite")
    with np.errstate(all="ignore"):
        return _solve_pseudo_measurement(L_meas, prior_F, cfg, model._coeffs(params, float(P)))


def _solve_pseudo_measurement(L_meas: float, prior_F: float, cfg: ObserverConfig,
                              coeffs: tuple) -> float:
    """``solve_pseudo_measurement`` on the map coefficients at the
    inversion pressure, without its checks; callers set ``np.errstate``."""
    env = cfg.envelope
    w = cfg.weights
    grid = cfg.grid
    costs = _composite_cost(grid, L_meas, coeffs, prior_F, w)
    i = int(costs.argmin())
    if math.isnan(costs[i]):  # argmin picks the first NaN; skip NaNs as before
        i = int(np.nanargmin(costs))
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, cfg.grid_points - 1)]
    value, exact = _cost_evaluators(L_meas, prior_F, coeffs, w)
    f_star = _certified_golden(value, exact, float(a), float(b), cfg.refine_tol)
    return min(max(f_star, env.F_min), env.F_max)


def update(prior: ObserverState, F_star: float, cfg: ObserverConfig,
           R: float | None = None) -> ObserverState:
    """Scalar Kalman update of the force component (Joseph form).

    The pseudo-measurement observes the force directly, so the
    observation row is [1, 0]; the posterior force variance never
    exceeds the prior's.  The covariance is (I - K H) C (I - K H)^T +
    K K^T R, written out on floats in the order of numpy's products,
    none of which fuses a multiply-add here.
    """
    Rv = cfg.R if R is None else float(R)
    p00, p01, p11 = prior.var_F, prior.cov_F_Fdot, prior.var_Fdot
    S = p00 + Rv
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
        t00 * a + k0 * k0 * Rv,
        0.5 * ((t00 * b + t01 + k0 * k1 * Rv) + (t10 * a + k1 * k0 * Rv)),
        t10 * b + (b * p01 + p11) + k1 * k1 * Rv)


def estimate_step(state: ObserverState, L_raw: float, P: float,
                  params: InductanceParams, dyn: DynamicParams,
                  cfg: ObserverConfig, filt: sig.FilterState):
    """One full observer cycle on a raw sample.

    Returns ``(state, F_hat, x_hat)``.  The raw pressure must lie in
    the envelope.  It is passed through the state's pressure filter
    (a copy of ``filt``, primed on the first step, see
    ``ObserverState``) so that the map is inverted at a time-matched
    (L, P) pair, and the filtered value is clamped to the envelope,
    since the filter overshoots on steps.  Length is inferred from
    ``F_hat`` at the raw pressure, the one acting now.  Both filter
    states advance in place; the observer state is returned fresh.
    When the map gradient at the solution is nearly zero (curve peak),
    the measurement noise is inflated for that step to reflect the lost
    observability.
    """
    env = cfg.envelope
    env.check_P(P)
    p_filt = state.pressure_filter
    if p_filt is None:
        p_filt = sig.prime(filt.copy(), P)
    L_f = sig.step(filt, L_raw)
    P_f = min(max(sig.step(p_filt, P), env.P_min), env.P_max)
    pred = predict(state, cfg)
    prior_F = min(max(pred.F_hat, env.F_min), env.F_max)
    if not math.isfinite(prior_F):
        raise ValueError("prior force must be finite")
    coeffs = model._coeffs(params, P_f)
    g_floor = 1e-3 * env.F_span + env.F_min
    with np.errstate(all="ignore"):
        F_star = _solve_pseudo_measurement(L_f, prior_F, cfg, coeffs)
        flat = _gradient_below(max(F_star, g_floor), coeffs,
                               cfg.gradient_guard_ratio * cfg.median_gradient)
    Rv = cfg.R * cfg.gradient_guard_inflation if flat else cfg.R
    post = update(pred, F_star, cfg, R=Rv)
    post.pressure_filter = p_filt
    F_hat = post.F_hat
    x_hat = model.invert_dynamic_length(dyn, F_hat, P)
    return post, F_hat, x_hat


def nearest_preimage(L_meas: float, P: float, params: InductanceParams,
                     envelope: OperatingEnvelope, n_grid: int = 4001) -> float:
    """Memoryless baseline inverter: the force whose modeled inductance
    is closest to the reading, by dense scan.

    Has no continuity prior, so on a non-monotonic curve it is free to
    jump between the two branches from one call to the next.
    """
    grid = np.linspace(envelope.F_min, envelope.F_max, n_grid)
    r = model.eval_inductance(params, grid, P, validate=False) - L_meas
    return float(grid[int(np.nanargmin(r * r))])


def run_estimation(dataset, params: InductanceParams, dyn: DynamicParams,
                   cfg: ObserverConfig, filt: sig.FilterState,
                   F0: float | None = None) -> dict:
    """Stream a dataset through the observer.

    ``filt`` is the inductance filter, designed at the data's sample
    rate; it is primed with the first raw sample (no startup
    transient), and so is the pressure filter on the first step; the
    state starts at the force whose modeled inductance matches that
    first sample unless ``F0`` is given.
    Returns arrays ``F_hat`` and ``x_hat`` aligned with the dataset.
    """
    sig.prime(filt, float(dataset.L[0]))
    if F0 is None:
        F0 = nearest_preimage(float(dataset.L[0]), float(dataset.P[0]),
                              params, cfg.envelope)
    state = reset(float(np.clip(F0, cfg.envelope.F_min, cfg.envelope.F_max)), cfg)
    n = len(dataset)
    F_hat = np.empty(n)
    x_hat = np.empty(n)
    for i in range(n):
        state, F_hat[i], x_hat[i] = estimate_step(
            state, float(dataset.L[i]), float(dataset.P[i]), params, dyn, cfg, filt)
    return {"F_hat": F_hat, "x_hat": x_hat, "state": state}
