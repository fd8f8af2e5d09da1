"""Hybrid EKF-plus-optimization observer for force and displacement.

Per sample: low-pass the raw inductance and, through the same filter,
the pressure (the static map holds only for an (L, P) pair taken
at the same instant, so the pressure must carry the same delay; the
config holds the filter's design, and each state its two delay lines),
propagate a constant-velocity force model, invert the inductance map
through a composite scalar cost (model fidelity + continuity toward the
prediction + a redescending regularizer that stabilizes the near-peak
zero-gradient region), feed the resulting pseudo-measurement to a
Joseph-form Kalman update, and infer length through the affine force
model.

The inner minimization is by branch: the map's peak, in closed form
(``model._peak_at``), splits the feasible force interval into two
branches, each holding one force preimage of a reading.  A safeguarded
Newton iteration on the cost's derivative runs on the prior's branch,
from the prior, and on the other branch, from the reading's preimage
there, only where the continuity term alone does not price that branch
out; that term is what disambiguates the two preimages of a reading on
a rising-then-falling curve.  The cost's first and second derivatives
are closed-form from the same ``pow`` and ``exp`` terms as the map, so
the iteration converges in a few steps; a step that leaves the branch,
or a non-positive curvature, is replaced by bisection.  The config owns
the map it inverts and bounds that map's terms over Newton's domain once
(``_map_bound``), and the domain is floored at ``ObserverConfig.F_floor``
> 0, so every derivative Newton takes is finite.

A call runs a sequence of samples in one frame of float arithmetic
(``estimate_steps``): replay makes one call per recording, a closed
loop one where it reads the estimates (each self-sensing control
period, and the end of a run).  The call reads the config's floats once
and makes one state object; the Kalman state stays in five local floats
(the mean and the three distinct covariance entries).  Before its Kalman
loop, the call runs both filters over all its samples (``sig.run``, one
second-order section at a time, the floats of a sample at a time).  Per
sample, predict and update are the 2x2 matrix products written out on
the floats as plain left-to-right float arithmetic.  They are
deterministic on every host; a BLAS matrix product, which may fuse
multiply-adds, can differ from them in the last bit, and the tests bound
that difference by the standard rounding-error bound of a dot product.
The covariance's part of them (``_kalman_step``) reads no data, so the
config derives once the float fixed point that it reaches from a fresh
state's covariance (``_kalman_fixed_point``, after 355 samples at the
default tuning and noise_L 0.01), with its gains: the discrete
steady-state Kalman filter (Simon, *Optimal State Estimation*, 2006, ch.
7), here an exact float, not a limit.  A sample whose covariance equals
it, bit for bit, takes those gains and skips the covariance arithmetic,
which would give the same floats.  The test is made per sample, so a
covariance moved off the point runs the recursion on every sample until
it equals the point again, as one reset to ``reset``'s does after the
same samples; the floats may also repeat at a point next to it, where
the recursion runs on.  The only other call of a sample is the
inversion (``_invert``).  It takes one tuple of floats, the map's
coefficients at the pressure, the reading, the prior and the weights,
which the Newton pass, written out in ``_newton`` with its derivatives,
reads on ``math.pow`` and ``math.exp``: no array is built, and no
function object is made.  Its residual is written out in
``model._inductance_at``'s order, the copy the plant evaluates, so it
inverts the very bits of a noiseless reading; it does not claim to
agree with numpy's ``power`` and ``exp`` in the last bit.  A tracking
sample's prior lies near its preimage, and far from the other branch,
so it runs one pass of a few steps.
``solve_pseudo_measurement`` is the checked public entry to the same
inversion.

The continuity term also holds the estimate on the wrong branch: where
truth turns back just past the map's peak, the estimate can coast over
it onto the mirror trajectory of the falling branch, which fits every
reading.  That branch never reads below L(F_max, P), so
``estimate_steps`` re-seeds an estimate above the peak onto the rising
branch where the reading lies well below L(F_max, P).
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
    "solve_pseudo_measurement",
    "reset",
    "estimate_steps",
    "nearest_preimage",
    "run_estimation",
]

#: Inductance noise floor (uH) under which the noise-scaled tuning does
#: not go.  See ``make_observer_config``.
NOISE_FLOOR_UH = 1e-3

#: Most steps of one Newton pass (``_newton``).  Bisection alone takes a
#: whole branch, at most F_max wide, down to the floor of ``refine_tol``
#: (four float spacings of F_max) in about 50 halvings; the cap ends a
#: pass whatever the tolerance.
_MAX_NEWTON_STEPS = 100

#: Limit on the map's terms over Newton's domain (``_map_bound``): a product
#: of two stays below 1e200, far from overflow, as do residuals below 1e200 uH.
MAP_LIMIT = 1e100

#: ``reset``'s covariance: var_F, cov_F_Fdot and var_Fdot.
_RESET_COV = (0.25, 0.0, 1.0)

#: Most steps of the covariance recursion that ``_kalman_fixed_point``
#: takes from ``_RESET_COV``.  The default tuning repeats after 355 at
#: noise_L 0.01 and 614 at 0.03; a tuning that has not repeated by the cap
#: stores no fixed point, at a cost of about 2 ms per config.
_MAX_KALMAN_STEPS = 4096

#: ``ObserverConfig.kalman`` where there is no fixed point: no covariance
#: equals its NaNs.
_NO_FIXED_POINT = ((math.nan,) * 3, (math.nan,) * 3, (math.nan,) * 2)

#: Block length and most blocks of the impulse response that
#: ``_noise_gain`` sums: the default design's decays within one block.
_GAIN_BLOCK = 256
_MAX_GAIN_BLOCKS = 256


@dataclass(slots=True)
class ObserverState:
    """Force / force-rate mean with its 2x2 covariance, as five floats.

    The covariance is symmetric, so it is held as its three distinct
    entries: ``var_F``, ``cov_F_Fdot`` and ``var_Fdot``.

    ``L_filter`` and ``P_filter`` are the inductance and pressure
    filters, copies of the config's ``filt`` that ``reset`` primes.  The
    states ``estimate_steps`` returns share them, and they advance in
    place; a state built without them cannot be stepped.

    ``reseeds`` counts the re-seeds ``estimate_steps`` has made since
    ``reset``; it is no argument, so ``dataclasses.replace`` starts it at 0.
    """

    F_hat: float
    Fdot_hat: float
    var_F: float
    cov_F_Fdot: float
    var_Fdot: float
    L_filter: sig.FilterState | None = None
    P_filter: sig.FilterState | None = None
    reseeds: int = field(default=0, init=False)


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
    """Observer tuning for the inductance map ``ind`` it inverts.

    ``filt`` is the designed low-pass of the inductance and the pressure,
    a template that ``reset`` copies and nothing steps.  ``F_floor`` (the
    floor of the inversion's domain) is derived, and the map is checked
    (``_map_bound``), on construction, so ``dataclasses.replace`` redoes
    both, as it does ``kalman``, the float fixed point of the covariance recursion from a
    fresh state's covariance (``reset``, ``_kalman_fixed_point``), and
    ``sigma_L``, the filtered reading's noise deviation, g sqrt(R)
    ``median_force_gradient`` for g the filter's noise gain
    (``_noise_gain``): g times the sensor noise for
    ``make_observer_config``'s R.
    ``refine_tol`` must be at least four float spacings of the largest
    force: a bracket a spacing or two wide cannot be split, so a smaller
    tolerance would run every Newton pass to its step cap."""

    dt: float
    Q: np.ndarray
    R: float
    envelope: OperatingEnvelope
    ind: InductanceParams
    weights: CostWeights
    filt: sig.FilterState = field(repr=False, compare=False)
    refine_tol: float = 1e-5
    F_floor: float = field(init=False, repr=False, compare=False)
    kalman: tuple | None = field(init=False, repr=False, compare=False)
    sigma_L: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "Q", np.asarray(self.Q, dtype=float).reshape(2, 2))
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        env = self.envelope
        # the inversion's floor, within any refine_tol (>= 2**-50 F_max) of F = 0
        object.__setattr__(self, "F_floor", env.F_max * 2.0 ** -80)
        try:
            bound = _map_bound(self.ind, env, self.F_floor)
        except ArithmeticError:
            bound = math.inf
        if not bound < MAP_LIMIT:
            raise EnvelopeError(f"the inductance map overflows: its terms reach {bound:.3g} > "
                                f"{MAP_LIMIT:g} on [{self.F_floor:.3g}, {env.F_max:g}] N")
        if not 0.0 < self.R < math.inf:
            raise ValueError("R must be positive and finite")
        tol_floor = 4.0 * math.ulp(env.F_max)   # F_max is the largest |F|
        if not self.refine_tol >= tol_floor:
            raise ValueError(f"refine_tol must be >= {tol_floor!r} (four float spacings "
                             f"of the largest force)")
        if not np.isfinite(self.Q).all():
            raise ValueError("Q must be finite")
        if np.any(np.linalg.eigvalsh(0.5 * (self.Q + self.Q.T)) < -1e-12):
            raise ValueError("Q must be positive semidefinite")
        object.__setattr__(self, "kalman", _kalman_fixed_point(
            self.dt, tuple(self.Q.ravel().tolist()), self.R))
        object.__setattr__(self, "sigma_L", _noise_gain(self.filt) * math.sqrt(self.R)
                           * median_force_gradient(self.ind, env))


def _kalman_step(cov: tuple, dt: float, q: tuple, R: float) -> tuple:
    """One sample of the covariance recursion, which reads no data:
    ``(pred, gains, cov)``, the predicted covariance A C A^T + Q (A = [[1,
    dt], [0, 1]]; the off-diagonal is half the sum of the two, as ``0.5 *
    (C + C.T)`` is), the gains K = C H^T / (H C H^T + R) of the force's
    scalar measurement, and the Joseph-form update (I - K H) C (I - K H)^T
    + K K^T R, each covariance as its three distinct entries (var_F,
    cov_F_Fdot, var_Fdot), from ``cov`` and ``q``, Q's four entries row by
    row.  Written out on floats, each operation rounded once, in the order
    of numpy's products.
    """
    c00, c01, c11 = cov
    q00, q01, q10, q11 = q
    ac00 = c00 + dt * c01   # (A C)[0, 0]
    ac01 = c01 + dt * c11   # (A C)[0, 1], and (A C A^T)[1, 0]
    p00 = ac00 + ac01 * dt + q00
    p01 = 0.5 * ((ac01 + q01) + (ac01 + q10))
    p11 = c11 + q11
    S = p00 + R
    k0 = p00 / S
    k1 = p01 / S
    a = 1.0 - k0              # I - K H = [[a, 0], [b, 1]]
    b = 0.0 - k1
    t00 = a * p00             # (I - K H) C
    t01 = a * p01
    t10 = b * p00 + p01
    return ((p00, p01, p11), (k0, k1),
            (t00 * a + k0 * k0 * R,
             0.5 * ((t00 * b + t01 + k0 * k1 * R) + (t10 * a + k1 * k0 * R)),
             t10 * b + (b * p01 + p11) + k1 * k1 * R))


def _kalman_fixed_point(dt: float, q: tuple, R: float) -> tuple | None:
    """The covariance C* that ``_kalman_step`` maps to itself, bit for bit,
    reached from ``_RESET_COV``, as ``(C*, pred, gains)`` (its predicted
    covariance and gains): the discrete steady-state Kalman filter, here
    an exact float, not a limit.  None when the recursion does not repeat
    within ``_MAX_KALMAN_STEPS`` steps, or repeats on an entry of 0, which
    == does not tell from -0.0.
    """
    cov = _RESET_COV
    for _ in range(_MAX_KALMAN_STEPS):
        pred, gains, step = _kalman_step(cov, dt, q, R)
        if step == cov:
            return (cov, pred, gains) if all(cov) else None
        cov = step
    return None


def _noise_gain(filt: sig.FilterState) -> float:
    """sqrt(sum h_k h_k) for the impulse response h of ``filt``'s sections
    from a zero delay line: the standard deviation of its output on unit
    white noise, 0.4546 for the default design at 100 Hz.  The sum runs
    over blocks of ``_GAIN_BLOCK`` samples until a block leaves it
    unchanged, or over the first ``_MAX_GAIN_BLOCKS`` blocks of a response
    that lasts longer.
    """
    st = sig.FilterState(filt.sos)
    total, x = 0.0, [1.0] + [0.0] * (_GAIN_BLOCK - 1)
    for _ in range(_MAX_GAIN_BLOCKS):
        block = math.fsum(h * h for h in sig.run(st, x))
        if total + block == total:
            break
        total += block
        x = [0.0] * _GAIN_BLOCK
    return math.sqrt(total)


def _preimage(L: float, a: float, b: float, above: bool, tol: float,
              l1: float, l2: float, l3: float, l4: float, l5: float) -> float:
    """Where the map on its coefficients (``model._inductance_at``),
    monotone over [a, b], crosses the reading L: the lower end of a
    bisection bracket narrowed below ``tol``.  [a, b] lies below the map's
    peak (``_peak_or_inf``), or above it for ``above``; the map rises there
    for l1 > 0 below the peak and for l1 < 0 above it, and falls otherwise.
    A reading the map does not reach on [a, b] gives the end where the map
    comes nearest it, ``a`` for b < a.
    """
    inductance_at = model._inductance_at
    rising = (l1 > 0.0) != above
    while b - a >= tol:
        m = 0.5 * (a + b)
        if (inductance_at(m, l1, l2, l3, l4, l5) < L) == rising:
            a = m
        else:
            b = m
    return a


def _map_bound(ind: InductanceParams, env: OperatingEnvelope, F_floor: float) -> float:
    """The sum of the largest magnitudes of the map terms of Newton's
    derivatives in ``_newton`` (F**l2, F**l4, exp(l3 F**l4), 1 / (F F), m,
    l5, u, the polynomial in u of L'', L' and L'') over F in [F_floor,
    F_max] and the envelope's pressures; EnvelopeError unless l2, l4 > 0 at
    both ends of the pressure range, so on all of it.  Derived, not
    sampled: the coefficients are linear in P, F**l (l > 0) rises with F and is
    monotone in l, so each factor's extremes, and those of l3 F**l4, lie
    at corners; a product of the factors' extremes bounds the product.
    """
    lo, hi = model.eval_coeffs(ind, env.P_min), model.eval_coeffs(ind, env.P_max)
    l1, l2, l3, l4, l5 = (max(abs(a), abs(b)) for a, b in zip(lo, hi))
    F_l2 = max(math.pow(env.F_max, lo[1]), math.pow(env.F_max, hi[1]))
    F_l4 = max(math.pow(env.F_max, lo[3]), math.pow(env.F_max, hi[3]))
    F_l4_min = min(math.pow(F_floor, lo[3]), math.pow(F_floor, hi[3]))
    e = math.exp(max(a * g for a in (lo[2], hi[2]) for g in (F_l4_min, F_l4)))
    inv_FF = 1.0 / (F_floor * F_floor)
    m = l1 * F_l2 * e
    u = l2 + l3 * l4 * F_l4
    v = u * u + u + l3 * l4 * l4 * F_l4
    return F_l2 + F_l4 + e + inv_FF + m + l5 + u + v + m * u / F_floor + m * v * inv_FF


def median_force_gradient(params: InductanceParams, envelope: OperatingEnvelope) -> float:
    """Median |dL/dF| over an 80 x 16 grid of the envelope (excluding
    the F=0 edge)."""
    F = np.linspace(max(envelope.F_min, 1e-3 * envelope.F_span), envelope.F_max, 80)
    P = np.linspace(envelope.P_min, envelope.P_max, 16)
    FF, PP = np.meshgrid(F, P)
    return float(np.median(np.abs(model.d_inductance_dF(params, FF, PP, validate=False))))


def make_observer_config(params: InductanceParams, envelope: OperatingEnvelope,
                         dt: float, filt: sig.FilterState, noise_L: float = 0.01,
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
    term is what keeps the estimate on its branch: the inversion moves
    to the other force preimage only where the continuity price of the
    jump is below the squared residual the prior's branch leaves, such
    as the filter's lag on a moving force.  That price scales with the
    noise squared, so for a near-noiseless sensor it vanishes, and any
    such residual, however small, moves the estimate to the other
    branch.  With the floor, a jump of 5% of the span costs as much as a
    residual of three times the floor, 3 nH, and the price grows with
    the square of the jump's length, whatever the sensor noise.  At or
    above the floor the weights and R are the noise-scaled ones
    unchanged.

    ``filt`` is the designed inductance filter (``ObserverConfig.filt``).
    A map whose median gradient is 0, or so small that R overflows, is
    (nearly) flat and gives no R: EnvelopeError.  A NaN median comes only
    from a map whose terms overflow, which the config rejects with its
    own message.
    """
    if not (noise_L >= 0 and sigma_F >= 0 and sigma_Fdot >= 0):
        raise ValueError(f"noise_L, sigma_F and sigma_Fdot must be >= 0, got "
                         f"{noise_L}, {sigma_F} and {sigma_Fdot}")
    span = envelope.F_span
    noise_L = max(noise_L, NOISE_FLOOR_UH)
    w_dyn = (3.0 * noise_L) ** 2 / (0.05 * span) ** 2
    weights = CostWeights(w_fit=1.0, w_dyn=w_dyn, w_reg=0.1 * w_dyn,
                          gamma=25.0 / span ** 2)
    gradient = median_force_gradient(params, envelope)
    try:
        R = (noise_L / gradient) ** 2
    except (ZeroDivisionError, OverflowError):
        R = math.inf
    if R == math.inf:
        raise EnvelopeError(f"the inductance map is {'nearly ' if gradient else ''}flat over the "
                            f"envelope (median |dL/dF| = {gradient:.3g}), so the measurement "
                            f"variance R cannot be derived")
    cfg = ObserverConfig(dt=dt, Q=np.diag([(sigma_F * dt) ** 2, sigma_Fdot ** 2 * dt]), R=R,
                         envelope=envelope, ind=params, weights=weights, filt=filt)
    return replace(cfg, **overrides) if overrides else cfg


def reset(F0: float, L0: float, P0: float, cfg: ObserverConfig) -> ObserverState:
    """Fresh state at force F0 (must lie in the feasible interval), zero
    rate, force variance 0.25 N^2 and rate variance 1 (N/s)^2, with its
    own copies of ``cfg.filt`` primed at the raw reading L0 and pressure
    P0 (no startup transient when the stream begins there)."""
    env = cfg.envelope
    if not (env.F_min <= F0 <= env.F_max):
        raise EnvelopeError(f"initial force {F0} outside [{env.F_min}, {env.F_max}]")
    return ObserverState(float(F0), 0.0, *_RESET_COV,
                         sig.prime(cfg.filt.copy(), L0), sig.prime(cfg.filt.copy(), P0))


def _peak_or_inf(l2: float, l3: float, l4: float) -> float:
    """The force where the map on its coefficients turns (``model._peak_at``)
    where l3 < 0 and it is a float; inf for a monotone map (l3 >= 0) and
    for a peak beyond the floats."""
    if l3 < 0.0:
        try:
            return model._peak_at(l2, l3, l4)
        except (OverflowError, ZeroDivisionError):
            pass
    return math.inf


def _cost(F: float, args: tuple) -> float:
    """The inversion cost at one float force F >= ``F_floor``, for the
    sample's cost tuple ``args`` (``_invert``): w_fit r r + w_dyn dF dF +
    w_reg (1 - 1 / (1 + gamma dF dF)), for dF = F - prior_F and the residual
    r of ``model._inductance_at``."""
    L_meas, prior_F, l1, l2, l3, l4, l5, w_fit, w_dyn, w_reg, gamma = args
    r = model._inductance_at(F, l1, l2, l3, l4, l5) - L_meas
    dF = F - prior_F
    return w_fit * r * r + w_dyn * dF * dF + w_reg * (1.0 - 1.0 / (1.0 + gamma * dF * dF))


def _newton(args: tuple, a: float, b: float, x: float, tol: float) -> tuple:
    """A safeguarded Newton pass on the inversion cost's derivative over
    the bracket [a, b], F_floor <= a, from x in it, for the sample's cost
    tuple ``args`` (``_invert``): ``(F, C(x))``, the force it ends at and
    the cost at its start, ``_cost``'s float.

    With m = l1 F**l2 exp(l3 F**l4) and u = l2 + l3 l4 F**l4, the map's
    derivatives are L' = m u / F and L'' = m (u u - u + l3 l4 l4 F**l4) / (F
    F).  With r = m + l5 - L_meas, d = F - prior_F and q = 1 / (1 + gamma d
    d), the cost's are C' = 2 w_fit r L' + 2 w_dyn d + 2 w_reg gamma d q q
    and C'' = 2 w_fit (L' L' + r L'') + 2 w_dyn + 2 w_reg gamma (1 - 3
    gamma d d) q q q, written out in the loop on ``math.pow`` and
    ``math.exp``, and all finite on [``F_floor``, F_max] for a map a config
    accepts (``_map_bound``).  The products l3 l4, l3 l4 l4, w_reg gamma and
    3 gamma are taken once, each the left part of a left-to-right product,
    so the floats are those of the formulas.  The sign of C' moves one end
    of the bracket to the iterate.  The Newton step -C'/C'' is taken when
    C'' > 0, the iterate lies above a and the step lands strictly inside the
    bracket; otherwise the bracket is bisected.  So a pass started at a,
    which may be the floor, bisects first: near F = 0 the map's curvature,
    unbounded for l2 < 2, can shrink the Newton step to about F / |1 - l2|,
    below tol / 2, while the cost still falls into the bracket.  The pass
    ends on C' = 0, on a Newton step shorter than tol / 2, or once the
    bracket is narrower than tol, and after ``_MAX_NEWTON_STEPS`` steps
    whatever the tolerance.  FloatingPointError on a non-finite C' or C'';
    ``math`` exceptions propagate.
    """
    L_meas, prior_F, l1, l2, l3, l4, l5, w_fit, w_dyn, w_reg, gamma = args
    pow_, exp, isfinite = math.pow, math.exp, math.isfinite
    l34, wg, g3 = l3 * l4, w_reg * gamma, 3.0 * gamma
    l344 = l34 * l4
    half_tol = 0.5 * tol
    start = None
    for _ in range(_MAX_NEWTON_STEPS):
        F_l4 = pow_(x, l4)
        m = l1 * pow_(x, l2) * exp(l3 * F_l4)
        u = l2 + l34 * F_l4
        d1 = m * u / x
        d2 = m * (u * u - u + l344 * F_l4) / (x * x)
        r = m + l5 - L_meas
        dF = x - prior_F
        q = 1.0 / (1.0 + gamma * dF * dF)
        if start is None:
            start = w_fit * r * r + w_dyn * dF * dF + w_reg * (1.0 - q)
        rq = wg * q * q
        g = 2.0 * (w_fit * r * d1 + w_dyn * dF + rq * dF)
        h = 2.0 * (w_fit * (d1 * d1 + r * d2) + w_dyn + rq * q * (1.0 - g3 * dF * dF))
        if not (isfinite(g) and isfinite(h)):
            raise FloatingPointError(f"non-finite cost derivative at F={x!r}")
        step = g / h if h > 0.0 and x > a else math.inf
        if g > 0.0:
            b = x
        elif g < 0.0:
            a = x
        else:
            return x, start
        if a < x - step < b:
            if abs(step) < half_tol or b - a < tol:
                return x - step, start
            x -= step
        else:
            x = 0.5 * (a + b)
            if b - a < tol:
                return x, start
    return x, start


def _invert(args: tuple, lo: float, hi: float, peak: float, tol: float) -> float:
    """Force minimizing the inversion cost of one sample over [lo, hi], for
    its cost tuple ``args`` = ``(L_meas, prior_F, l1, ..., l5, w_fit,
    w_dyn, w_reg, gamma)``: the reading, the prior, the map's coefficients
    at the sample's pressure and the cost weights, and the map's ``peak``
    (``_peak_or_inf``).

    A peak strictly inside (lo, hi) splits the interval into two branches,
    on each of which the map is monotone; otherwise it is one branch.  A
    ``_newton`` pass runs on the prior's branch (the lower one for a prior
    at the peak), started at the prior clamped to [lo, hi], so to the
    branch.  Every force on the other branch lies at least d = |prior_F -
    peak| from the prior, so its cost is at least w_dyn d d + w_reg (1 - 1
    / (1 + gamma d d)); only where that bound is below the cost at the
    pass's start does a second pass run there, started at the branch's
    preimage of the reading (``_preimage``).  The lower ``_cost`` wins, the
    prior's branch on a tie.  The result lies in [lo, hi]; an edge minimum
    is returned within ``tol`` of it, not raised.
    """
    L_meas, prior_F, l1, l2, l3, l4, l5, w_fit, w_dyn, w_reg, gamma = args
    x = lo if prior_F < lo else hi if prior_F > hi else prior_F
    if not lo < peak < hi:
        return _newton(args, lo, hi, x, tol)[0]
    above = prior_F > peak
    a, b = (peak, hi) if above else (lo, peak)
    F, start = _newton(args, a, b, x, tol)
    d = prior_F - peak
    if not w_dyn * d * d + w_reg * (1.0 - 1.0 / (1.0 + gamma * d * d)) < start:
        return F
    a, b = (lo, peak) if above else (peak, hi)
    x = _preimage(L_meas, a, b, not above, tol, l1, l2, l3, l4, l5)
    other = _newton(args, a, b, x, tol)[0]
    return other if _cost(other, args) < _cost(F, args) else F


def solve_pseudo_measurement(L_meas: float, P: float, prior_F: float,
                             cfg: ObserverConfig) -> float:
    """Force minimizing the inversion cost of ``cfg.ind`` over the feasible interval.

    The checked entry to the inversion (``_invert``, which
    ``estimate_steps`` calls directly): the map's five coefficients at P
    (``model._coeffs``'s products and sums), the reading, the prior and
    ``cfg.weights`` make the sample's cost.  The map's peak splits
    [max(F_min, ``cfg.F_floor``), F_max] into its two branches; a
    safeguarded Newton iteration on the cost's derivative runs on the
    prior's branch from the prior, and on the other branch from the
    reading's preimage there only where the continuity cost of reaching
    that branch is below the cost at the prior, each to ``refine_tol``.
    The result lies inside the interval; an edge minimum is returned
    within ``refine_tol`` of it, not raised.  EnvelopeError for P outside
    the envelope, ValueError for a non-finite reading or prior.
    """
    cfg.envelope.check_P(P)
    if not math.isfinite(L_meas):
        raise ValueError("inductance reading must be finite")
    if not math.isfinite(prior_F):
        raise ValueError("prior force must be finite")
    P = float(P)
    p0, p1, p2, p3, p4, p5, p6, p7, p8, p9 = cfg.ind.p
    w, env = cfg.weights, cfg.envelope
    l1, l2, l3, l4, l5 = p0 * P + p1, p2 * P + p3, p4 * P + p5, p6 * P + p7, p8 * P + p9
    args = (L_meas, prior_F, l1, l2, l3, l4, l5, w.w_fit, w.w_dyn, w.w_reg, w.gamma)
    return _invert(args, max(env.F_min, cfg.F_floor), env.F_max, _peak_or_inf(l2, l3, l4),
                   cfg.refine_tol)


def estimate_steps(state: ObserverState, L_raw, P, dyn: DynamicParams, cfg: ObserverConfig):
    """The observer over a sequence of raw samples, in one frame.

    ``L_raw`` and ``P`` are equal-length sequences of readings and raw
    pressures; returns ``(state, F_hat, x_hat)``, the state after the last
    sample and a list of each estimate per sample.  Each sample is one
    observer cycle.  The raw pressure must lie in the envelope.  The
    reading and the pressure pass through the state's filters (``reset``
    primes them), so that the map is inverted at a time-matched (L, P)
    pair, and the filtered pressure is clamped to the envelope, since the
    filter overshoots on steps.  The predict (mean A m for A = [[1, dt], [0,
    1]]) and the scalar update of the force are written out on floats, each
    operation rounded once; the covariance's predict and Joseph-form update,
    with the gains, are ``_kalman_step``'s, or the gains of the config's
    fixed point (``ObserverConfig.kalman``) for a sample whose covariance
    equals it.  Between them the prior force, clamped to the envelope, is
    inverted (``_invert``, at the map's coefficients and peak at the
    filtered pressure, over [max(F_min, ``cfg.F_floor``), F_max]).  Before
    it, where the map at the filtered pressure has a peak (l1 > 0, l3 < 0
    and a float ``model._peak_at``), a predicted force above the peak whose
    filtered reading lies more than 3 ``cfg.sigma_L`` below L(F_max) is
    re-seeded: the force becomes the reading's rising-branch preimage
    (``_preimage`` on [F_min, min(peak, F_max)]), the rate 0 and the
    covariance ``reset``'s, and the returned state counts it
    (``ObserverState.reseeds``).  The peak is found at one power, and the
    rule never raises.
    Length is inferred from the force estimate through the affine force
    model at the raw pressure, the one acting now.  The clamps keep the
    value on a tie and let NaN through, as ``min(max(v, lo), hi)`` does.

    The config's floats and ``dyn``'s are read once per call, the Kalman
    mean and covariance stay in locals, and the filters run over all the
    call's samples before the loop (``sig.run``), advance in place and pass
    on to the returned state, the one object made per call.  A sample's
    errors are those of the per-sample checks, raised at that sample:
    EnvelopeError for a raw pressure outside the envelope (``check_P``),
    the checked inversion's errors (``solve_pseudo_measurement``) for a
    NaN filtered pressure or prior or a non-finite filtered reading, and
    DegenerateModelError for a stiffness below
    ``model.STIFFNESS_EPS``.  On an error the delay lines are run again
    from the call's start to where a sample at a time leaves them: through
    the sample that raised, or up to it for its raw pressure.  Cutting a
    sequence into pieces and chaining the states gives the same bits as
    one call.
    """
    if len(L_raw) != len(P):
        raise ValueError(f"{len(L_raw)} readings against {len(P)} pressures")
    dt, R, env, w = cfg.dt, cfg.R, cfg.envelope, cfg.weights
    q = tuple(cfg.Q.ravel().tolist())
    (f00, f01, f11), _, (g0, g1) = cfg.kalman or _NO_FIXED_POINT
    P_lo, P_hi, F_lo, F_hi = env.P_min, env.P_max, env.F_min, env.F_max
    p0, p1, p2, p3, p4, p5, p6, p7, p8, p9 = cfg.ind.p
    w_fit, w_dyn, w_reg, gamma = w.w_fit, w.w_dyn, w.w_reg, w.gamma
    F_low, tol = max(F_lo, cfg.F_floor), cfg.refine_tol
    margin = 3.0 * cfg.sigma_L
    peak_or_inf, inductance_at = _peak_or_inf, model._inductance_at
    k, x0, c = dyn.k, dyn.x0, dyn.c
    stiff = abs(k) >= model.STIFFNESS_EPS
    invert, kalman_step = _invert, _kalman_step
    L_filt, P_filt = state.L_filter, state.P_filter
    F, Fdot = state.F_hat, state.Fdot_hat
    c00, c01, c11 = state.var_F, state.cov_F_Fdot, state.var_Fdot
    reseeds = state.reseeds
    F_hat, x_hat = [], []
    add_F, add_x = F_hat.append, x_hat.append
    L_start, P_start = L_filt.copy(), P_filt.copy()
    try:
        for L_f, P_f, p in zip(sig.run(L_filt, L_raw), sig.run(P_filt, P), P):
            if not P_lo <= p <= P_hi:
                env.check_P(p)   # raises
            P_f = P_lo if P_f < P_lo else P_hi if P_f > P_hi else P_f
            F += dt * Fdot   # predict the mean
            l1, l2, l3, l4, l5 = (p0 * P_f + p1, p2 * P_f + p3, p4 * P_f + p5, p6 * P_f + p7,
                                  p8 * P_f + p9)
            peak = peak_or_inf(l2, l3, l4)
            if (l1 > 0.0 and F > peak   # re-seed a force on the falling branch's mirror
                    and L_f < inductance_at(F_hi, l1, l2, l3, l4, l5) - margin):
                F = _preimage(L_f, F_lo, min(peak, F_hi), False, tol, l1, l2, l3, l4, l5)
                Fdot, (c00, c01, c11) = 0.0, _RESET_COV
                reseeds += 1
            prior = F_lo if F < F_lo else F_hi if F > F_hi else F
            # NaN, which the clamps let through, or an infinite reading
            if P_f != P_f or prior != prior or L_f - L_f != 0.0:
                solve_pseudo_measurement(L_f, P_f, prior, cfg)   # raises
            F_star = invert((L_f, prior, l1, l2, l3, l4, l5, w_fit, w_dyn, w_reg, gamma),
                            F_low, F_hi, peak, tol)
            if c00 == f00 and c01 == f01 and c11 == f11:
                k0, k1 = g0, g1   # the fixed point's gains; the update keeps it
            else:
                _, (k0, k1), (c00, c01, c11) = kalman_step((c00, c01, c11), dt, q, R)
            innovation = F_star - F   # update the mean
            F += k0 * innovation
            Fdot += k1 * innovation
            if not stiff:
                raise model.DegenerateModelError(f"stiffness {k} below {model.STIFFNESS_EPS}, "
                                                 f"cannot invert")
            add_F(F)
            add_x(x0 + (F - c * p) / k)
    except BaseException:
        # the delay lines as a sample at a time leaves them: through the
        # sample that raised, or up to it when its raw pressure did
        j = len(F_hat)
        taken = j if not P_lo <= P[j] <= P_hi else j + 1
        L_filt.zi, P_filt.zi = L_start.zi, P_start.zi
        sig.run(L_filt, L_raw[:taken])
        sig.run(P_filt, P[:taken])
        raise
    out = ObserverState(F, Fdot, c00, c01, c11, L_filt, P_filt)
    out.reseeds = reseeds
    return out, F_hat, x_hat


def nearest_preimage(L_meas: float, P: float, cfg: ObserverConfig) -> float:
    """Memoryless baseline inverter: the force whose modeled inductance
    (``cfg.ind``) is closest to the reading, by a dense scan of 4001 forces.

    Has no continuity prior, so on a non-monotonic curve it is free to
    jump between the two branches from one call to the next.
    """
    grid = np.linspace(cfg.envelope.F_min, cfg.envelope.F_max, 4001)
    r = model.eval_inductance(cfg.ind, grid, P, validate=False) - L_meas
    return float(grid[int(np.nanargmin(r * r))])


def run_estimation(dataset, dyn: DynamicParams, cfg: ObserverConfig) -> dict:
    """Stream a dataset through the observer.

    The state starts at the first row: at the force whose modeled
    inductance matches that reading (``nearest_preimage``, a point of
    the envelope), with its filters primed at the row's reading and
    pressure (``reset``).  The whole recording then goes through one
    ``estimate_steps`` call.  Returns arrays ``F_hat`` and ``x_hat``
    aligned with the dataset, and the run's re-seed count ``reseeds``.
    """
    L0, P0 = float(dataset.L[0]), float(dataset.P[0])
    state = reset(nearest_preimage(L0, P0, cfg), L0, P0, cfg)
    state, F_hat, x_hat = estimate_steps(state, dataset.L.tolist(), dataset.P.tolist(), dyn, cfg)
    return {"F_hat": np.array(F_hat), "x_hat": np.array(x_hat), "reseeds": state.reseeds}
