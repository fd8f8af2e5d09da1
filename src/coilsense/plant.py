"""Synthetic ground-truth actuator standing in for the hardware testbed.

The plant combines the affine force model with a Prandtl-Ishlinskii
superposition of play (backlash) operators for the force-length
hysteresis, a first-order valve lag on pressure, and the deterministic
inductance map evaluated on the true force and pressure.  Sensor
channels add seeded Gaussian noise.  Inductance depends only on (F, P)
by construction, so the force-inductance trace is hysteresis-free while
the length-inductance trace is not.

A run of steps (``Plant.steps``) takes a sequence of commands and runs
the valve lag, the play operators, the force and the map per sample on
Python floats, in one loop: the play states are a tuple, their weighted
sum is a plain left-to-right loop, and the isotonic balance starts on
the segment of the knots that holds the last length, which usually
holds the new balance too, so the knots are sorted only when it does
not.  Both noise channels are drawn after the loop in one call.  The
tests keep a per-sample step as its reference, bit for bit, and the
array form (``np.clip`` and a BLAS dot product) as the force's, within
the rounding-error bound of a dot product.  An isotonic run, whose
length depends on the load at each sample, and the closed loop, whose
commands depend on the sensed channels, step.

A kinematic run (``Plant.run_kinematic``) knows all its commands before
its first sample.  Only the valve lag stays a scalar loop.  The play
operators are solved in closed form over each monotone run of the
length (``Plant._play_sum``): on a length that only rises a play
state is the larger of its value before the run and u - w, on one that
only falls the smaller of that value and u + w (Brokate and Sprekels,
*Hysteresis and Phase Transitions*, 1996, ch. 2).  The force, the map's
coefficients and their envelope check, both noise channels (one draw)
and time (a running sum of the step) run on whole arrays, and the
sensor map (``model._inductance_at``, the steps') per sample in blocks.
The run gives the bits, the final state and the noise stream that
``Plant.steps`` gives.
"""

from __future__ import annotations

import bisect
import copy
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import model
from .ident import Dataset
from .model import DynamicParams, InductanceParams, OperatingEnvelope

__all__ = [
    "PlayElement",
    "PlantConfig",
    "PlantState",
    "Scenario",
    "Plant",
    "IsotonicInfeasibleError",
    "RunLengthError",
    "check_run_length",
    "run_scenario",
    "reference_inductance_params",
    "reference_dynamic_params",
    "default_envelope",
    "default_hysteresis",
    "default_plant_config",
]

SCENARIO_KINDS = (
    "isobaric_sweep",
    "isometric_sweep",
    "calibration_grid",
    "cyclic_estimation",
    "force_tracking",
    "displacement_tracking",
    "load_perturbation",
)

#: The closed-loop kinds, which run through the control harness.
TRACKING_KINDS = ("force_tracking", "displacement_tracking")

WAVEFORMS = ("sine", "triangle", "steps")

#: A load profile places its events between this time (s) and this
#: fraction of the run, so a run with one is at least 3 / 0.78 s long.
LOAD_EVENTS_START_S = 3.0
LOAD_EVENTS_END_FRACTION = 0.78


#: Most samples one run may step, pre-roll and conditioning included.
#: At its peak a run holds about 300 bytes a sample (a closed loop;
#: ``simulate`` of a calibration grid and its CSV about 275, by
#: ``tracemalloc``), and a closed loop steps about 25 us a sample, so a
#: run stays under about 0.6 GB and a minute.  That is 5.5 h at the
#: default 100 Hz, 80 times the longest run of the default configs (the
#: 25,200-sample calibration grid).
MAX_RUN_SAMPLES = 2_000_000

#: Samples a kinematic run maps to the inductance at a time, so the
#: Python floats it makes for the map stay few.
MAP_BLOCK = 4096


class IsotonicInfeasibleError(ValueError):
    """Requested external load unreachable within the length envelope."""


class RunLengthError(ValueError):
    """A run would step more than ``MAX_RUN_SAMPLES`` samples."""


def check_run_length(name: str, seconds: float, rate_hz: float) -> None:
    """Raise RunLengthError unless ``seconds`` of scenario ``name`` at
    ``rate_hz`` hold at most ``MAX_RUN_SAMPLES`` samples."""
    if not seconds * rate_hz <= MAX_RUN_SAMPLES:
        raise RunLengthError(
            f"scenario '{name}': {seconds:g} s at {rate_hz:g} Hz is {seconds * rate_hz:.3g} "
            f"samples, more than the {MAX_RUN_SAMPLES} a run may step")


@dataclass(frozen=True)
class PlayElement:
    """One backlash element: play radius (m) and force weight (N/m)."""

    width: float
    weight: float

    def __post_init__(self):
        if not (0 <= self.width < math.inf and 0 <= self.weight < math.inf):
            raise ValueError(f"width and weight must be finite and >= 0, got {self}")


#: Reference ten-coefficient set for the synthetic actuator.  Frozen;
#: chosen so that at every pressure in [0, 0.65] MPa the force curve
#: rises then falls (one interior peak, shifting from about 2.36 N at
#: zero pressure down to 1.67 N at 0.65 MPa), the curves at different
#: pressures never cross, and the zero-force inductance stays within
#: 4.75..5.08 uH.
_REFERENCE_P = (0.10, 0.60, 0.20, 1.30, -0.15, -0.55, 0.30, 1.00, 0.50, 4.75)


def reference_inductance_params() -> InductanceParams:
    """The frozen reference coefficient set of the synthetic actuator."""
    return InductanceParams(_REFERENCE_P)


def reference_dynamic_params() -> DynamicParams:
    """Identified affine-model parameters of the 100 mm actuator."""
    return DynamicParams(k=38.6, x0=0.100, c=1.6310)


def default_envelope() -> OperatingEnvelope:
    return OperatingEnvelope(P_min=0.0, P_max=0.65, F_min=0.0, F_max=5.0,
                             x_min=0.07, x_max=0.18, L_min=4.5, L_max=5.8)


def default_hysteresis() -> tuple:
    """Four play elements; radii span a 4..16 mm band so that small
    strokes barely engage the loop while full sweeps open it fully."""
    return (
        PlayElement(width=0.004, weight=2.0),
        PlayElement(width=0.008, weight=2.0),
        PlayElement(width=0.012, weight=2.0),
        PlayElement(width=0.016, weight=2.0),
    )


@dataclass(frozen=True)
class PlantConfig:
    dyn: DynamicParams
    ind: InductanceParams
    hysteresis: tuple = ()
    valve_tau: float = 0.1
    noise_L: float = 0.01
    noise_F: float = 0.02
    seed: int = 0
    sensor_rate_hz: float = 100.0
    control_rate_hz: float = 20.0
    envelope: OperatingEnvelope = field(default_factory=default_envelope)

    def __post_init__(self):
        if self.valve_tau < 0 or self.noise_L < 0 or self.noise_F < 0:
            raise ValueError("valve_tau and noise levels must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.sensor_rate_hz <= 0 or self.control_rate_hz <= 0:
            raise ValueError("rates must be positive")
        ratio = self.sensor_rate_hz / self.control_rate_hz
        if not math.isfinite(ratio) or abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ValueError(
                f"sensor rate {self.sensor_rate_hz} must be an integer multiple "
                f"of control rate {self.control_rate_hz}"
            )

    @property
    def decimation_factor(self) -> int:
        return int(round(self.sensor_rate_hz / self.control_rate_hz))


def default_plant_config(seed: int = 0, **overrides) -> PlantConfig:
    cfg = PlantConfig(
        dyn=reference_dynamic_params(),
        ind=reference_inductance_params(),
        hysteresis=default_hysteresis(),
        seed=seed,
    )
    return replace(cfg, **overrides) if overrides else cfg


@dataclass
class PlantState:
    x: float
    P: float
    play_states: tuple
    t: float = 0.0


class Plant:
    """Single-owner simulator instance: state plus a seeded noise stream.

    The force (``_force``, the one copy the steps and the isotonic
    balance evaluate) sums its weighted play states left to right in
    plain floats, one rounding per product and per sum, so it gives the
    same bits on every host.  The inductance is the map on ``math``
    floats (``model._inductance_at``), the one copy the observer's cost
    inverts.  A step calls the validating ``model.eval_coeffs`` only when
    a cheap check of the coefficients fails, to raise its EnvelopeError.
    """

    def __init__(self, cfg: PlantConfig, x0: float | None = None, P0: float = 0.0):
        self.cfg = cfg
        self.rng = np.random.default_rng(cfg.seed)
        self._widths = tuple(float(h.width) for h in cfg.hysteresis)
        self._weights = tuple(float(h.weight) for h in cfg.hysteresis)
        x_init = cfg.dyn.x0 if x0 is None else float(x0)
        self.state = PlantState(x=x_init, P=float(P0),
                                play_states=(0.0,) * len(self._widths))

    def copy(self) -> "Plant":
        """An independent plant in the same state, with its own copy of
        the noise stream."""
        twin = copy.copy(self)
        twin.rng = copy.deepcopy(self.rng)
        twin.state = replace(self.state)
        return twin

    def _play(self, x: float, z: tuple) -> tuple:
        """The play states ``z`` advanced to length ``x`` and their
        weighted sum: each is clipped to [u - width, u + width], taking the
        bound on a tie as ``np.clip`` does, and its weighted term added
        left to right (not sum(), whose float rounding changed in Python
        3.12)."""
        u = x - self.cfg.dyn.x0
        z_new = []
        acc = 0.0
        for zi, w, g in zip(z, self._widths, self._weights):
            lo = u - w
            hi = u + w
            zi = lo if zi <= lo else zi
            zi = hi if zi >= hi else zi
            z_new.append(zi)
            acc += g * zi
        return tuple(z_new), acc

    def _force(self, x: float, P: float, z: tuple) -> float:
        """Unclamped force at a candidate length from the play states
        ``z`` (the plant's force is ``max(F, 0)``): k u + c P plus the
        weighted sum of the states that ``_play`` advances to ``x``,
        without building them."""
        dyn = self.cfg.dyn
        u = x - dyn.x0
        acc = 0.0
        for zi, w, g in zip(z, self._widths, self._weights):
            lo = u - w
            hi = u + w
            zi = lo if zi <= lo else zi
            zi = hi if zi >= hi else zi
            acc += g * zi
        return dyn.k * u + dyn.c * P + acc

    def _unreachable(self, F_load: float, P: float, z: tuple) -> IsotonicInfeasibleError:
        """The error for a load outside the force range of the envelope."""
        env = self.cfg.envelope
        F_lo = max(self._force(env.x_min, P, z), 0.0)
        F_hi = max(self._force(env.x_max, P, z), 0.0)
        return IsotonicInfeasibleError(
            f"load {F_load} N unreachable in x=[{env.x_min}, {env.x_max}] "
            f"(force range [{F_lo:.4g}, {F_hi:.4g}])")

    def _solve_isotonic(self, F_load: float, P: float, z: tuple, x: float) -> float:
        """Length at which the plant force balances the external load,
        from the play states ``z`` and the last length ``x``.

        With P and the play states fixed, the unclamped force is
        continuous, piecewise linear and strictly increasing in x (slope
        at least k), with knots at ``x0 + z +- width``.  Linear
        interpolation in the first segment whose right end reaches the
        load is exact.  It runs on the unclamped force, because the clamp
        at 0 N adds a kink that is not a knot.  A load more than 1e-12 N
        outside [max(f(x_min), 0), f(x_max)] raises IsotonicInfeasibleError;
        otherwise a load <= max(f(x_min), 0) gives x_min and one >=
        f(x_max) gives x_max.

        The search starts on the segment that holds ``x``, between the
        largest knot at or below it (or x_min) and the smallest one above
        it (or x_max), found in one pass over the unsorted knots.  The
        last sample left every play state within its width of its length,
        so the balance mostly lies in this segment.  Otherwise the knots
        are sorted and the search walks from it one segment at a time,
        right while the right end's force falls short of the load, left
        while the left end's reaches it.  The computed force is
        non-decreasing in x too (k > 0, the weights are >= 0 and every
        operation is a monotone rounding), so exactly one pair of
        adjacent knots has fa < F_load <= fb: from any start the walk ends
        on the segment that a bisection ends on, with the same end forces
        and the same bits.  It evaluates an end's force only on reaching
        that end, or when the load equals fb, which may round to f(x_max).
        Knots equal to the end they pass, as the trailing knots of the
        states a stretch dragged are, take its force without evaluating
        it: a steady hold makes 4 evaluations a solve rather than 6.
        """
        env = self.cfg.envelope
        lo, hi = env.x_min, env.x_max
        force = self._force
        if F_load <= 0.0:
            if F_load < max(force(lo, P, z), 0.0) - 1e-12:
                raise self._unreachable(F_load, P, z)
            return lo
        x0 = self.cfg.dyn.x0
        xa, xb = lo, hi
        for zi, w in zip(z, self._widths):
            k = zi - w + x0
            if k <= x:
                if xa < k < hi:
                    xa = k
            elif lo < k < xb:
                xb = k
            k = zi + w + x0
            if k <= x:
                if xa < k < hi:
                    xa = k
            elif lo < k < xb:
                xb = k
        fa, fb = force(xa, P, z), force(xb, P, z)
        if not fa < F_load <= fb:  # walk the sorted knots from that segment
            xs = [lo, *sorted(k for zi, w in zip(z, self._widths)
                              for k in (zi - w + x0, zi + w + x0) if lo < k < hi), hi]
            last = len(xs) - 1
            a = bisect.bisect_right(xs, xa, 1, last) - 1  # xs[a], xs[a + 1] are xa, xb
            while fb < F_load:
                if a + 1 == last:  # F_load > f(hi)
                    if F_load > max(fb, 0.0) + 1e-12:
                        raise self._unreachable(F_load, P, z)
                    return hi
                a += 1
                fa = fb  # a knot equal to the end it passes has its force
                if xs[a + 1] != xs[a]:
                    fb = force(xs[a + 1], P, z)
            while fa >= F_load:
                if a == 0:  # 0 < F_load <= f(lo)
                    if F_load < fa - 1e-12:
                        raise self._unreachable(F_load, P, z)
                    return lo
                a -= 1
                fb = fa
                if xs[a] != xs[a + 1]:
                    fa = force(xs[a], P, z)
            xa, xb = xs[a], xs[a + 1]
        # fa < F_load <= fb <= f(hi), so fb > fa and xb > xa
        if F_load == fb and F_load >= force(hi, P, z):
            return hi
        return xa + (F_load - fa) * (xb - xa) / (fb - fa)

    def steps(self, P_cmd, dt: float, x_cmd=None, F_load=None) -> dict:
        """Advance one sample per pressure command: valve lag, length
        (``x_cmd``, kinematic drive, or the balance against ``F_load``,
        isotonic), hysteretic force, inductance and sensor noise.

        Exactly one of ``x_cmd`` or ``F_load`` must be given, a sequence
        as long as ``P_cmd``.  Returns the channels ``t``, ``P``, ``x``,
        ``F`` (truth), ``L_clean`` and the sensed ``L_meas`` and
        ``F_meas``, each a list with one float per sample.  It is one
        scalar loop on floats that reads the config once; both noise
        channels are drawn after it in one call, L then F for each
        sample, and the state is written once.  A sample at the length of
        the one before it in the call reuses that sample's play states and
        their weighted sum: the clip is idempotent at one length, and equal
        lengths give equal offsets u, as x0 > 0 (a held length, as force
        tracking commands, clips once per call).  Cutting a run into pieces
        gives the same bits.  An error at a sample (IsotonicInfeasibleError
        for an unreachable load, the EnvelopeError of ``model.eval_coeffs``
        for coefficients outside the envelope, and ValueError for bad
        arguments at the first) is raised after the samples before it are
        finished: their noise drawn, the state left after them, and their
        channels set as the error's ``completed``.
        """
        st, cfg = self.state, self.cfg
        P, x, z, t = st.P, st.x, st.play_states, st.t
        ts, Ps, xs, Fs, Ls = [], [], [], [], []

        def finish() -> dict:
            noise = self.rng.standard_normal(2 * len(Ls)).tolist()  # per sample: L, then F
            st.x, st.P, st.play_states, st.t = x, P, z, t
            nL, nF = cfg.noise_L, cfg.noise_F
            return {"t": ts, "P": Ps, "x": xs, "F": Fs, "L_clean": Ls,
                    "L_meas": [L + nL * e for L, e in zip(Ls, noise[0::2])],
                    "F_meas": [F + nF * e for F, e in zip(Fs, noise[1::2])]}

        try:
            if dt <= 0:
                raise ValueError("dt must be positive")
            if (x_cmd is None) == (F_load is None):
                raise ValueError("provide exactly one of x_cmd or F_load")
            kinematic = F_load is None
            drive = x_cmd if kinematic else F_load
            if len(drive) != len(P_cmd):
                raise ValueError(f"{len(P_cmd)} pressure commands against {len(drive)} "
                                 f"{'lengths' if kinematic else 'loads'}")
            lag = cfg.valve_tau > 0
            decay = math.exp(-dt / cfg.valve_tau) if lag else 0.0
            k, x0, c = cfg.dyn.k, cfg.dyn.x0, cfg.dyn.c
            p0, p1, p2, p3, p4, p5, p6, p7, p8, p9 = cfg.ind.p
            solve, play = self._solve_isotonic, self._play
            inductance_at, finite = model._inductance_at, math.isfinite
            x_held = math.nan   # the length z_i and acc were clipped at
            for p_cmd, d in zip(P_cmd, drive):
                p_cmd = float(p_cmd)
                P_i = p_cmd + (P - p_cmd) * decay if lag else p_cmd
                if 0.0 > P_i:  # max(P_i, 0.0) without the call
                    P_i = 0.0
                x_i = float(d) if kinematic else solve(float(d), P_i, z, x)
                if x_i != x_held:  # at the length held, the clip keeps z_i
                    z_i, acc = play(x_i, z)
                    x_held = x_i
                F = k * (x_i - x0) + c * P_i + acc  # as _force sums it
                if 0.0 > F:
                    F = 0.0
                # the map's coefficients, as model._coeffs gives them
                l1, l2, l3 = p0 * P_i + p1, p2 * P_i + p3, p4 * P_i + p5
                l4, l5 = p6 * P_i + p7, p8 * P_i + p9
                if not (l2 > 0.0 and l4 > 0.0 and finite(l1 + l2 + l3 + l4 + l5)):
                    model.eval_coeffs(cfg.ind, P_i)  # raises its EnvelopeError
                t += dt
                P, x, z = P_i, x_i, z_i
                ts.append(t)
                Ps.append(P)
                xs.append(x)
                Fs.append(F)
                Ls.append(inductance_at(F, l1, l2, l3, l4, l5))
        except ValueError as err:
            err.completed = finish()
            raise
        return finish()

    def _play_sum(self, u, z) -> tuple:
        """The weighted sum of the play states at the length offsets
        ``u``, from the states ``z`` the first sample leaves (its entry
        of the sum is 0), and the states at the last sample.

        The samples after the first are cut into monotone runs of ``u``:
        a run ends where the sign of the nonzero steps of ``u`` flips,
        and a step that leaves ``u`` unchanged stays in the run it is
        in.  A play state starts each run in its band at the sample
        before, so over a run that does not fall the step's clip to
        [u - w, u + w] keeps it at the larger of its value before the
        run and u - w, and over one that does not rise at the smaller of
        that value and u + w.  Those values chain from run to run on
        floats, and only comparisons pick between floats, so every bit,
        ties included, is the step's.
        """
        acc = np.zeros(u.size)
        if u.size == 1:
            return acc, z
        up = u[1:] > u[:-1]
        moves = np.flatnonzero(up | (u[1:] < u[:-1]))
        flips = moves[1:][up[moves[1:]] != up[moves[:-1]]]
        starts = np.concatenate(([0], flips))  # of the runs, in u[1:]
        rising = up[np.concatenate((moves[:1], flips))] if moves.size else np.ones(1, bool)
        u = u[1:]
        lengths = np.diff(starts, append=u.size)
        ends = u[starts + lengths - 1]
        rising_at = np.repeat(rising, lengths)
        rising = rising.tolist()
        z_end = []
        for a, w, g in zip(z, self._widths, self._weights):
            anchors = []
            for rises, lo, hi in zip(rising, (ends - w).tolist(), (ends + w).tolist()):
                anchors.append(a)
                if rises:
                    if a <= lo:
                        a = lo
                elif a >= hi:
                    a = hi
            z_end.append(a)
            za = np.repeat(anchors, lengths)
            lo, hi = u - w, u + w
            acc[1:] += g * np.where(rising_at, np.where(za <= lo, lo, za),
                                    np.where(za >= hi, hi, za))
        return acc, tuple(z_end)

    def run_kinematic(self, P_cmd, x_cmd, dt: float) -> dict:
        """Drive the length through ``x_cmd`` under pressure commands
        ``P_cmd``, one sample per pair, as ``steps(P_cmd, dt,
        x_cmd=x_cmd)`` would.

        Returns the channels of ``steps`` as arrays, with the bits it
        gives, and leaves the plant in the state, noise stream included,
        that it leaves.  The valve lag is a scalar loop.  The play
        operators take ``_play``'s clip at the first sample and are solved
        in closed form over each monotone run of the length after it
        (``_play_sum``).  The force is summed on arrays in ``_force``'s
        order, and the map (``model._inductance_at``, as ``steps`` calls
        it) runs per sample, ``MAP_BLOCK`` samples at a time.  A
        non-finite length command raises ValueError, and a coefficient
        outside the envelope the EnvelopeError of its first sample; either
        leaves the state as it was.
        """
        if dt <= 0:
            raise ValueError("dt must be positive")
        P_cmd = np.asarray(P_cmd, dtype=float).tolist()
        x = np.array(x_cmd, dtype=float)
        if x.ndim != 1 or len(P_cmd) != x.size or not P_cmd:
            raise ValueError("need equal, non-zero numbers of P and x commands")
        if not np.isfinite(x).all():
            raise ValueError("length commands must be finite")
        st = self.state
        cfg = self.cfg
        dyn = cfg.dyn
        tau = cfg.valve_tau
        if tau > 0:
            decay = math.exp(-dt / tau)
            Pi, P = st.P, []
            append = P.append
            for p in P_cmd:
                Pi = p + (Pi - p) * decay
                if 0.0 > Pi:  # max(Pi, 0.0), as ``steps`` takes it, without the call
                    Pi = 0.0
                append(Pi)
        else:
            P = [max(float(p), 0.0) for p in P_cmd]
        P = np.array(P)
        coeffs = model._coeffs(cfg.ind, P)
        valid = np.isfinite(coeffs).all(axis=0) & (coeffs[1] > 0) & (coeffs[3] > 0)
        if not valid.all():
            model.eval_coeffs(cfg.ind, P[np.argmin(valid)].item())  # raises
        F0 = self._force(x[0].item(), P[0].item(), st.play_states)
        z = self._play(x[0].item(), st.play_states)[0]
        u = x - dyn.x0
        acc, z = self._play_sum(u, z)
        F = dyn.k * u + dyn.c * P + acc
        del acc
        F[0] = F0
        F = np.where(0.0 > F, 0.0, F)
        L_clean = np.empty(P.size)
        for i in range(0, P.size, MAP_BLOCK):
            block = slice(i, i + MAP_BLOCK)
            L_clean[block] = list(map(model._inductance_at, F[block].tolist(),
                                      *(c[block].tolist() for c in coeffs)))
        del coeffs
        noise = self.rng.standard_normal(2 * P.size)  # per sample: L, then F
        t = np.full(P.size, dt)
        t[0] = st.t + dt
        np.cumsum(t, out=t)  # sequential, as st.t + dt is
        st.x, st.P, st.play_states, st.t = x[-1].item(), P[-1].item(), z, t[-1].item()
        return {"t": t, "P": P, "x": x, "F": F, "L_clean": L_clean,
                "L_meas": L_clean + cfg.noise_L * noise[0::2],
                "F_meas": F + cfg.noise_F * noise[1::2]}


# ---------------------------------------------------------------------------
# Scenarios

#: The float fields of a ``Scenario``, lengths (m) first, that must be
#: finite (every entry, for a tuple field).  A dataset run reads them in
#: its commands, a closed loop in its feedforward and reference.
_LENGTH_FIELDS = ("x_low", "x_high", "hold_x", "x_levels")
_VALUE_FIELDS = ("amplitude", "frequency_hz", "center", "load", "p_levels", "p_cycle_max",
                 "p_cycle_step", "p_cmd", "event_magnitudes", "event_ramp_s")


@dataclass(frozen=True)
class Scenario:
    """Protocol record for one experiment or control run.

    Sweep kinds use the level/cycle fields, tracking kinds the
    reference fields plus their constraint (``hold_x`` for isometric
    force control, ``load`` for isotonic displacement control), and
    load perturbation the event fields.
    """

    kind: str
    label: str = ""
    waveform: str = "triangle"
    amplitude: float = 0.0
    frequency_hz: float = 0.1
    duration_s: float = 10.0
    center: float = 0.0
    hold_x: float | None = None
    load: float | None = None
    p_levels: tuple = ()
    x_levels: tuple = ()
    cycles_per_level: int = 1
    cycle_period_s: float = 8.0
    x_low: float | None = None
    x_high: float | None = None
    p_cycle_max: float = 0.66
    p_cycle_step: float = 0.02
    p_cmd: float = 0.0
    event_magnitudes: tuple = ()
    event_ramp_s: float = 0.4

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(f"unknown scenario kind '{self.kind}' (known: {SCENARIO_KINDS})")
        if self.waveform not in WAVEFORMS:
            raise ValueError(f"unknown waveform '{self.waveform}' (known: {WAVEFORMS})")
        if not 0.0 < self.total_duration_s < math.inf:
            raise ValueError(f"scenario duration must be positive and finite, "
                             f"got {self.total_duration_s} s")
        for name in _LENGTH_FIELDS + _VALUE_FIELDS:
            value = getattr(self, name)
            values = value if isinstance(value, (tuple, list)) else (value,)
            if not all(math.isfinite(v) for v in values if v is not None):
                what = "lengths" if name in _LENGTH_FIELDS else "values"
                raise ValueError(f"scenario {what} must be finite, got {name}={value}")

    @property
    def total_duration_s(self) -> float:
        if self.kind in ("isobaric_sweep", "calibration_grid", "cyclic_estimation"):
            return len(self.p_levels) * self.cycles_per_level * self.cycle_period_s
        if self.kind == "isometric_sweep":
            return len(self.x_levels) * self.cycles_per_level * self.cycle_period_s
        return self.duration_s

    def samples(self, rate_hz: float) -> int:
        """Number of samples of the scenario at ``rate_hz``; 0 when it is
        shorter than half a sample."""
        return int(round(self.total_duration_s / (1.0 / rate_hz)))

    @property
    def name(self) -> str:
        return self.label or self.kind

    def reference(self, t) -> np.ndarray:
        """Reference waveform for tracking kinds."""
        t = np.asarray(t, dtype=float)
        phase = self.frequency_hz * t
        if self.waveform == "sine":
            wave = np.sin(2.0 * math.pi * phase)
        elif self.waveform == "triangle":
            p = np.mod(phase + 0.25, 1.0)
            wave = np.where(p < 0.5, 4.0 * p - 1.0, 3.0 - 4.0 * p)
        else:  # steps: square wave
            wave = np.where(np.mod(phase, 1.0) < 0.5, 1.0, -1.0)
        out = self.center + self.amplitude * wave
        return float(out) if out.ndim == 0 else out

    # -- paper-protocol factories -------------------------------------------

    @classmethod
    def calibration_grid(cls, x0: float = 0.1, cycle_period_s: float = 6.0) -> "Scenario":
        """Isobaric stretch cycles to 170% of slack length, three per
        pressure level, pressures 0..0.65 MPa in 0.05 MPa steps."""
        return cls(kind="calibration_grid",
                   p_levels=tuple(np.round(np.arange(0.0, 0.6501, 0.05), 10)),
                   cycles_per_level=3, cycle_period_s=cycle_period_s,
                   x_low=x0, x_high=1.7 * x0)

    @classmethod
    def isobaric_sweep(cls, x0: float = 0.1, cycles: int = 3,
                       cycle_period_s: float = 6.0) -> "Scenario":
        return cls(kind="isobaric_sweep",
                   p_levels=tuple(np.round(np.arange(0.0, 0.6501, 0.05), 10)),
                   cycles_per_level=cycles, cycle_period_s=cycle_period_s,
                   x_low=x0, x_high=1.7 * x0)

    @classmethod
    def isometric_sweep(cls, x0: float = 0.1, cycles: int = 5,
                        cycle_period_s: float = 8.0) -> "Scenario":
        """Fixed lengths 100%..170% in 5% steps, pressure cycled to
        0.66 MPa in quantized 0.02 MPa increments."""
        return cls(kind="isometric_sweep",
                   x_levels=tuple(np.round(x0 * np.arange(1.0, 1.7001, 0.05), 10)),
                   cycles_per_level=cycles, cycle_period_s=cycle_period_s,
                   p_cycle_max=0.66, p_cycle_step=0.02)

    @classmethod
    def cyclic_estimation(cls, x0: float = 0.1, cycle_period_s: float = 8.0) -> "Scenario":
        """Continuous stretch cycles from a near-slack length to 170%,
        pressure stepped up one level after each cycle."""
        return cls(kind="cyclic_estimation",
                   p_levels=tuple(np.round(np.arange(0.0, 0.6501, 0.05), 10)),
                   cycles_per_level=1, cycle_period_s=cycle_period_s,
                   x_low=0.072, x_high=1.7 * x0)

    @classmethod
    def force_tracking(cls, waveform: str = "sine", frequency_hz: float = 0.2,
                       duration_s: float | None = None, center: float = 1.2,
                       amplitude: float = 0.3, hold_x: float = 0.115) -> "Scenario":
        duration_s = _tracking_duration(frequency_hz, duration_s)
        return cls(kind="force_tracking", waveform=waveform, frequency_hz=frequency_hz,
                   duration_s=duration_s, center=center, amplitude=amplitude,
                   hold_x=hold_x, label=f"force_{waveform}_{frequency_hz:g}Hz")

    @classmethod
    def displacement_tracking(cls, frequency_hz: float = 0.05,
                              duration_s: float | None = None, center: float = 0.125,
                              amplitude: float = 0.010, load: float = 1.5,
                              waveform: str = "sine") -> "Scenario":
        duration_s = _tracking_duration(frequency_hz, duration_s)
        return cls(kind="displacement_tracking", waveform=waveform,
                   frequency_hz=frequency_hz, duration_s=duration_s, center=center,
                   amplitude=amplitude, load=load,
                   label=f"disp_{waveform}_{frequency_hz:g}Hz")

    @classmethod
    def load_perturbation(cls, duration_s: float = 40.0, hold_x: float = 0.120,
                          load: float = 1.1,
                          magnitudes: tuple = (0.2, 0.15, -0.25, 0.25, -0.2, -0.15),
                          ramp_s: float = 1.0, p_cmd: float = 0.25) -> "Scenario":
        """Constant-length regulation while calibrated weights come and
        go at seeded random times (ramped over ``ramp_s``)."""
        return cls(kind="load_perturbation", duration_s=duration_s, center=hold_x,
                   hold_x=hold_x, load=load, event_magnitudes=tuple(magnitudes),
                   event_ramp_s=ramp_s, p_cmd=p_cmd)


def _tracking_duration(frequency_hz, duration_s):
    """``duration_s``, or by default three reference periods and at least 20 s."""
    if not 0.0 < frequency_hz < math.inf:
        raise ValueError(f"frequency_hz must be finite and > 0, got {frequency_hz}")
    return max(20.0, 3.0 / frequency_hz) if duration_s is None else duration_s


def perturbation_load_profile(scenario: Scenario, seed: int):
    """Event times (seeded) and the load-vs-time callable for a
    load_perturbation scenario."""
    mags = np.asarray(scenario.event_magnitudes, dtype=float)
    n = mags.size
    rng = np.random.default_rng([seed, 9173])
    t0, t1 = LOAD_EVENTS_START_S, LOAD_EVENTS_END_FRACTION * scenario.duration_s
    slots = np.linspace(t0, t1, n, endpoint=False)
    jitter = rng.uniform(0.0, 0.5 * (t1 - t0) / max(n, 1), size=n)
    times = slots + jitter
    events = list(zip(times.tolist(), mags.tolist()))

    def load_at(t: float) -> float:
        f = scenario.load or 0.0
        for ti, mi in events:
            if t >= ti + scenario.event_ramp_s:
                f += mi
            elif t > ti:
                f += mi * (t - ti) / scenario.event_ramp_s
        return f

    return times, load_at


def _tri01(phase) -> np.ndarray:
    """Triangle 0 -> 1 -> 0 over one unit of phase."""
    p = np.mod(phase, 1.0)
    return np.where(p < 0.5, 2.0 * p, 2.0 - 2.0 * p)


def run_scenario(scenario: Scenario, cfg: PlantConfig, return_truth: bool = False):
    """Simulate an open-loop scenario and return the sensed Dataset.

    The dataset holds the measured channels a real bench would log:
    true (post-lag) pressure, noisy inductance, noisy load-cell force,
    and the kinematic length.  With ``return_truth`` a dict of clean
    truth arrays is returned alongside.  Deterministic for a fixed
    config seed.
    """
    kind = scenario.kind
    if kind in TRACKING_KINDS:
        raise ValueError(f"'{kind}' runs through the control harness, not run_scenario")
    check_run_length(scenario.name, scenario.total_duration_s, cfg.sensor_rate_hz)
    dt = 1.0 / cfg.sensor_rate_hz
    n = scenario.samples(cfg.sensor_rate_hz)
    if n < 1:
        raise ValueError(f"scenario '{scenario.name}' is shorter than one sample")
    times = (np.arange(n) + 1) * dt

    if kind in ("isobaric_sweep", "calibration_grid", "cyclic_estimation"):
        block = scenario.cycles_per_level * scenario.cycle_period_s
        lvl = np.minimum((times / block).astype(int), len(scenario.p_levels) - 1)
        p_cmd = np.asarray(scenario.p_levels, dtype=float)[lvl]
        x_cmd = scenario.x_low + (scenario.x_high - scenario.x_low) * _tri01(
            times / scenario.cycle_period_s)
        run = Plant(cfg, x0=scenario.x_low).run_kinematic(p_cmd, x_cmd, dt)
    elif kind == "isometric_sweep":
        block = scenario.cycles_per_level * scenario.cycle_period_s
        lvl = np.minimum((times / block).astype(int), len(scenario.x_levels) - 1)
        x_cmd = np.asarray(scenario.x_levels, dtype=float)[lvl]
        raw = scenario.p_cycle_max * _tri01(times / scenario.cycle_period_s)
        p_cmd = np.round(raw / scenario.p_cycle_step) * scenario.p_cycle_step
        run = Plant(cfg, x0=float(scenario.x_levels[0])).run_kinematic(p_cmd, x_cmd, dt)
    elif kind == "load_perturbation":
        _, load_at = perturbation_load_profile(scenario, cfg.seed)
        run = Plant(cfg, x0=scenario.hold_x, P0=scenario.p_cmd).steps(
            [scenario.p_cmd] * n, dt, F_load=list(map(load_at, times.tolist())))
        run = {name: np.array(col) for name, col in run.items()}
    else:
        raise ValueError(f"unhandled scenario kind '{kind}'")

    ds = Dataset(
        t=run["t"], P=run["P"], L=run["L_meas"], F=run["F_meas"], x=run["x"],
        meta={"scenario": scenario.name, "kind": kind, "seed": cfg.seed,
              "sensor_rate_hz": cfg.sensor_rate_hz},
    )
    if not return_truth:
        return ds
    truth = {name: run[name] for name in ("F", "x", "L_clean", "P")}
    return ds, truth
