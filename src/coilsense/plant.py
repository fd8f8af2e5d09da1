"""Synthetic ground-truth actuator standing in for the hardware testbed.

The plant combines the affine force model with a Prandtl-Ishlinskii
superposition of play (backlash) operators for the force-length
hysteresis, a first-order valve lag on pressure, and the deterministic
inductance map evaluated on the true force and pressure.  Sensor
channels add seeded Gaussian noise.  Inductance depends only on (F, P)
by construction, so the force-inductance trace is hysteresis-free while
the length-inductance trace is not.
"""

from __future__ import annotations

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
    "StepResult",
    "Scenario",
    "Plant",
    "IsotonicInfeasibleError",
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

WAVEFORMS = ("sine", "triangle", "steps")


class IsotonicInfeasibleError(ValueError):
    """Requested external load unreachable within the length envelope."""


@dataclass(frozen=True)
class PlayElement:
    """One backlash element: play radius (m) and force weight (N/m)."""

    width: float
    weight: float

    def __post_init__(self):
        if self.width < 0 or self.weight < 0:
            raise ValueError(f"width and weight must be >= 0, got {self}")


def _play_update(z: np.ndarray, u: float, widths: np.ndarray) -> np.ndarray:
    """Advance play operators to input u (rate independent)."""
    return np.clip(z, u - widths, u + widths)


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
        if self.sensor_rate_hz <= 0 or self.control_rate_hz <= 0:
            raise ValueError("rates must be positive")
        ratio = self.sensor_rate_hz / self.control_rate_hz
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
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
    play_states: np.ndarray
    t: float = 0.0


@dataclass(frozen=True)
class StepResult:
    """Truth channels (F, x, L_clean, P) and sensed channels (L_meas, F_meas)."""

    t: float
    P: float
    x: float
    F: float
    L_clean: float
    L_meas: float
    F_meas: float


class Plant:
    """Single-owner simulator instance: state plus a seeded noise stream."""

    def __init__(self, cfg: PlantConfig, x0: float | None = None, P0: float = 0.0):
        self.cfg = cfg
        self.rng = np.random.default_rng(cfg.seed)
        self._widths = np.array([h.width for h in cfg.hysteresis], dtype=float)
        self._weights = np.array([h.weight for h in cfg.hysteresis], dtype=float)
        x_init = cfg.dyn.x0 if x0 is None else float(x0)
        self.state = PlantState(x=x_init, P=float(P0),
                                play_states=np.zeros(self._widths.size))

    def _force(self, x: float, P: float, z: np.ndarray) -> tuple:
        """Unclamped force and the advanced play states at a candidate
        length (the plant's force is ``max(F, 0)``)."""
        u = x - self.cfg.dyn.x0
        z_new = _play_update(z, u, self._widths)
        F = self.cfg.dyn.k * u + self.cfg.dyn.c * P + float(self._weights @ z_new)
        return F, z_new

    def _solve_isotonic(self, F_load: float, P: float) -> float:
        """Length at which the plant force balances the external load.

        With P and the play states fixed, the unclamped force is
        continuous, piecewise linear and strictly increasing in x (slope
        at least k), with knots at ``x0 + z +- width``.  Linear
        interpolation in the first segment whose right end reaches the
        load is exact.  It runs on the unclamped force, because the clamp
        at 0 N adds a kink that is not a knot.
        """
        env = self.cfg.envelope
        z = self.state.play_states
        lo, hi = env.x_min, env.x_max
        f_lo, f_hi = self._force(lo, P, z)[0], self._force(hi, P, z)[0]
        F_lo, F_hi = max(f_lo, 0.0), max(f_hi, 0.0)
        if F_load < F_lo - 1e-12 or F_load > F_hi + 1e-12:
            raise IsotonicInfeasibleError(
                f"load {F_load} N unreachable in x=[{lo}, {hi}] (force range [{F_lo:.4g}, {F_hi:.4g}])"
            )
        if F_load <= F_lo:
            return lo
        if F_load >= f_hi:
            return hi
        knots = np.sort(np.concatenate((z - self._widths, z + self._widths)) + self.cfg.dyn.x0)
        xa, fa = lo, f_lo
        for xb in knots[(knots > lo) & (knots < hi)].tolist():
            fb = self._force(xb, P, z)[0]
            if fb >= F_load:
                break
            xa, fa = xb, fb
        else:
            xb, fb = hi, f_hi
        # fa < F_load <= fb, so fb > fa and xb > xa
        return xa + (F_load - fa) * (xb - xa) / (fb - fa)

    def step(self, P_cmd: float, dt: float, x_cmd: float | None = None,
             F_load: float | None = None) -> StepResult:
        """Advance one sample: valve lag, length constraint, hysteretic
        force, inductance, sensor noise.

        Exactly one of ``x_cmd`` (kinematic drive) or ``F_load``
        (isotonic balance) must be given.
        """
        if dt <= 0:
            raise ValueError("dt must be positive")
        if (x_cmd is None) == (F_load is None):
            raise ValueError("provide exactly one of x_cmd or F_load")
        st = self.state
        cfg = self.cfg
        if cfg.valve_tau > 0:
            P = P_cmd + (st.P - P_cmd) * math.exp(-dt / cfg.valve_tau)
        else:
            P = float(P_cmd)
        P = max(P, 0.0)
        x = float(x_cmd) if x_cmd is not None else self._solve_isotonic(float(F_load), P)
        F, z_new = self._force(x, P, st.play_states)
        F = max(F, 0.0)
        L_clean = model.eval_inductance(cfg.ind, F, P)
        # Both sensor channels draw every step so the noise stream does
        # not depend on which channel a caller consumes.
        L_meas = L_clean + cfg.noise_L * self.rng.standard_normal()
        F_meas = F + cfg.noise_F * self.rng.standard_normal()
        st.x, st.P, st.play_states, st.t = x, P, z_new, st.t + dt
        return StepResult(t=st.t, P=P, x=x, F=F, L_clean=L_clean,
                          L_meas=L_meas, F_meas=F_meas)


# ---------------------------------------------------------------------------
# Scenarios

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
    base_settle_s: float = 2.0
    event_magnitudes: tuple = ()
    event_ramp_s: float = 0.4

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(f"unknown scenario kind '{self.kind}' (known: {SCENARIO_KINDS})")
        if self.waveform not in WAVEFORMS:
            raise ValueError(f"unknown waveform '{self.waveform}' (known: {WAVEFORMS})")
        if self.total_duration_s <= 0:
            raise ValueError("scenario duration must be positive")

    @property
    def total_duration_s(self) -> float:
        if self.kind in ("isobaric_sweep", "calibration_grid", "cyclic_estimation"):
            return len(self.p_levels) * self.cycles_per_level * self.cycle_period_s
        if self.kind == "isometric_sweep":
            return len(self.x_levels) * self.cycles_per_level * self.cycle_period_s
        return self.duration_s

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
        if duration_s is None:
            duration_s = max(20.0, 3.0 / frequency_hz)
        return cls(kind="force_tracking", waveform=waveform, frequency_hz=frequency_hz,
                   duration_s=duration_s, center=center, amplitude=amplitude,
                   hold_x=hold_x, label=f"force_{waveform}_{frequency_hz:g}Hz")

    @classmethod
    def displacement_tracking(cls, frequency_hz: float = 0.05,
                              duration_s: float | None = None, center: float = 0.125,
                              amplitude: float = 0.010, load: float = 1.5,
                              waveform: str = "sine") -> "Scenario":
        if duration_s is None:
            duration_s = max(20.0, 3.0 / frequency_hz)
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


def perturbation_load_profile(scenario: Scenario, seed: int):
    """Event times (seeded) and the load-vs-time callable for a
    load_perturbation scenario."""
    mags = np.asarray(scenario.event_magnitudes, dtype=float)
    n = mags.size
    rng = np.random.default_rng([seed, 9173])
    t0, t1 = 3.0, 0.78 * scenario.duration_s
    slots = np.linspace(t0, t1, n, endpoint=False)
    jitter = rng.uniform(0.0, 0.5 * (t1 - t0) / max(n, 1), size=n)
    times = slots + jitter

    def load_at(t: float) -> float:
        f = scenario.load or 0.0
        for ti, mi in zip(times, mags):
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
    if kind in ("force_tracking", "displacement_tracking"):
        raise ValueError(f"'{kind}' runs through the control harness, not run_scenario")
    dt = 1.0 / cfg.sensor_rate_hz
    n = int(round(scenario.total_duration_s / dt))
    times = (np.arange(n) + 1) * dt

    if kind in ("isobaric_sweep", "calibration_grid", "cyclic_estimation"):
        block = scenario.cycles_per_level * scenario.cycle_period_s
        lvl = np.minimum((times / block).astype(int), len(scenario.p_levels) - 1)
        p_cmd = np.asarray(scenario.p_levels, dtype=float)[lvl]
        x_cmd = scenario.x_low + (scenario.x_high - scenario.x_low) * _tri01(
            times / scenario.cycle_period_s)
        plant = Plant(cfg, x0=scenario.x_low)
        results = [plant.step(p_cmd[i], dt, x_cmd=float(x_cmd[i])) for i in range(n)]
    elif kind == "isometric_sweep":
        block = scenario.cycles_per_level * scenario.cycle_period_s
        lvl = np.minimum((times / block).astype(int), len(scenario.x_levels) - 1)
        x_cmd = np.asarray(scenario.x_levels, dtype=float)[lvl]
        raw = scenario.p_cycle_max * _tri01(times / scenario.cycle_period_s)
        p_cmd = np.round(raw / scenario.p_cycle_step) * scenario.p_cycle_step
        plant = Plant(cfg, x0=float(scenario.x_levels[0]))
        results = [plant.step(float(p_cmd[i]), dt, x_cmd=float(x_cmd[i])) for i in range(n)]
    elif kind == "load_perturbation":
        _, load_at = perturbation_load_profile(scenario, cfg.seed)
        plant = Plant(cfg, x0=scenario.hold_x, P0=scenario.p_cmd)
        results = [plant.step(scenario.p_cmd, dt, F_load=load_at(float(t))) for t in times]
    else:
        raise ValueError(f"unhandled scenario kind '{kind}'")

    ds = Dataset(
        t=[r.t for r in results], P=[r.P for r in results],
        L=[r.L_meas for r in results], F=[r.F_meas for r in results],
        x=[r.x for r in results],
        meta={"scenario": scenario.name, "kind": kind, "seed": cfg.seed,
              "sensor_rate_hz": cfg.sensor_rate_hz},
    )
    if not return_truth:
        return ds
    truth = {
        "F": np.array([r.F for r in results]),
        "x": np.array([r.x for r in results]),
        "L_clean": np.array([r.L_clean for r in results]),
        "P": np.array([r.P for r in results]),
    }
    return ds, truth
