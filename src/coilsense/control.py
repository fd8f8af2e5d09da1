"""PID-plus-feedforward pressure control and the three-way comparison
harness (open-loop, external-sensor feedback, self-sensing feedback).

The feedforward inverts the identified affine model; PID corrects the
rest (backward-difference derivative on the error, rectangular
integration, integral clamped in MPa for anti-windup).  All modes of a
comparison group share one plant seed and reference, so their noise
streams are identical and the comparison is paired.

Since pressurizing the actuator raises force and shortens it, the
force loop acts on (ref - measurement) while the displacement loop
acts on (measurement - ref).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import model
from . import observer as obs
from . import signal as sig
from .ident import GoodnessMetrics, fit_dynamic, goodness
from .model import DegenerateModelError, DynamicParams, InductanceParams
from .plant import (Plant, PlantConfig, Scenario, StepResult, perturbation_load_profile,
                    run_scenario)

__all__ = [
    "PidGains",
    "ControllerState",
    "TrackingSetup",
    "TrackingResult",
    "MODES",
    "pid_step",
    "feedforward_pressure",
    "identify_dynamic",
    "resolve_setup",
    "observer_config",
    "metrics_window_samples",
    "run_tracking",
    "compare_tracking",
    "run_perturbation",
]

MODES = ("open_loop", "sensor_fb", "self_sensing")

_C_EPS = 1e-9


@dataclass(frozen=True)
class PidGains:
    """Discrete PID gains mapping loop error to MPa.

    Defaults are the hardware-tuned values reported for the bench
    controller at 20 Hz; simulated plants generally need retuning
    (see TrackingSetup).  The PID runs on the plant's control ticks,
    so its period comes from ``PlantConfig.control_rate_hz``.
    """

    kp: float = 0.027
    ki: float = 0.001
    kd: float = 0.003

    def __post_init__(self):
        if self.kp < 0 or self.ki < 0 or self.kd < 0:
            raise ValueError("gains must be >= 0")


@dataclass
class ControllerState:
    """Integral accumulator (already in MPa, clamped) and previous error."""

    integral: float = 0.0
    prev_error: float = 0.0
    clamp: tuple = (-0.3, 0.3)


def _clamp(v: float, lo: float, hi: float) -> float:
    """``float(np.clip(v, lo, hi))`` for floats, without its call
    overhead: the strict comparisons keep ``v`` on a tie (so -0.0 stays
    -0.0 against a bound of 0.0) and let NaN through, as ``np.clip``
    does on a scalar."""
    return lo if v < lo else hi if v > hi else v


def pid_step(state: ControllerState, error: float, gains: PidGains, dt: float) -> float:
    """One positional PID update over a control period of ``dt`` seconds;
    returns the feedback pressure delta (MPa).

    Rectangular integration with the integral term clamped to
    ``state.clamp`` (anti-windup); backward-difference derivative on
    the error.
    """
    state.integral = _clamp(state.integral + gains.ki * error * dt, *state.clamp)
    derivative = (error - state.prev_error) / dt
    state.prev_error = error
    return gains.kp * error + state.integral + gains.kd * derivative


def feedforward_pressure(dyn: DynamicParams, F_ref: float | None = None,
                         x: float | None = None, x_ref: float | None = None,
                         F_load: float | None = None,
                         p_max: float = 0.65) -> tuple:
    """Model-inverting pressure command, clamped to [0, p_max].

    Force mode (``F_ref`` at fixed ``x``): P = (F_ref - k(x - x0)) / c.
    Displacement mode (``x_ref`` at fixed ``F_load``):
    P = (F_load - k(x_ref - x0)) / c.  Returns ``(pressure, saturated)``.
    """
    if abs(dyn.c) < _C_EPS:
        raise DegenerateModelError(f"pressure coefficient {dyn.c} too small to invert")
    force_mode = F_ref is not None
    disp_mode = x_ref is not None
    if force_mode == disp_mode:
        raise ValueError("give either (F_ref, x) or (x_ref, F_load)")
    if force_mode:
        if x is None:
            raise ValueError("force mode needs the held length x")
        p = (F_ref - dyn.k * (x - dyn.x0)) / dyn.c
    else:
        if F_load is None:
            raise ValueError("displacement mode needs the external load")
        p = (F_load - dyn.k * (x_ref - dyn.x0)) / dyn.c
    clipped = _clamp(p, 0.0, p_max)
    return clipped, clipped != p


def identify_dynamic(plant_cfg: PlantConfig, seed_tag: int = 501) -> DynamicParams:
    """Identify the affine model from a seeded calibration sweep of the plant.

    This is the model a bench campaign would produce: its stiffness
    absorbs the quasi-static part of the hysteresis, which matters for
    both feedforward quality and displacement inference.
    """
    scn = Scenario.isobaric_sweep(x0=plant_cfg.dyn.x0, cycles=1, cycle_period_s=4.0)
    ds = run_scenario(scn, replace(plant_cfg, seed=plant_cfg.seed + seed_tag))
    return fit_dynamic(ds).params


@dataclass
class TrackingSetup:
    """Everything a tracking or perturbation run needs besides the scenario.

    ``dyn``/``ind`` are the nominal models used by feedforward and the
    observer; ``dyn=None`` triggers one identification sweep (cached by
    ``resolve_setup``), ``ind=None`` uses the plant's own map (a
    bench-calibrated sensor model).  In isotonic runs the feedforward
    believes the external load to be ``load_nominal_scale`` times the
    scenario's (the true load); ``sensor_noise_x`` is the external
    displacement sensor's noise used by the sensor-feedback mode.
    The observer's filters are designed from ``filter_spec`` at the
    plant's sensor rate.
    """

    plant_cfg: PlantConfig
    dyn: DynamicParams | None = None
    ind: InductanceParams | None = None
    gains_force: PidGains = field(default_factory=lambda: PidGains(kp=0.30, ki=1.2, kd=0.05))
    gains_disp: PidGains = field(default_factory=lambda: PidGains(kp=40.0, ki=250.0, kd=1.0))
    p_max: float = 0.65
    integral_clamp_mpa: float = 0.3
    load_nominal_scale: float = 1.0
    sensor_noise_x: float = 3e-4
    filter_spec: sig.FilterSpec = sig.FilterSpec()
    observer_overrides: dict = field(default_factory=dict)
    preroll_s: float = 3.0
    condition_cycles: float = 1.0
    metrics_skip_periods: float = 1.0


def resolve_setup(setup: TrackingSetup) -> TrackingSetup:
    """Fill the derived fields of a setup (identified model, sensor map)."""
    out = replace(setup)
    if out.dyn is None:
        out.dyn = identify_dynamic(out.plant_cfg)
    if out.ind is None:
        out.ind = out.plant_cfg.ind
    return out


def observer_config(setup: TrackingSetup, ind: InductanceParams,
                    dt: float) -> obs.ObserverConfig:
    """The observer tuning of ``setup`` for inductance map ``ind`` at
    sampling interval ``dt``: scaled to the plant's sensor noise, then
    the setup's overrides applied."""
    return obs.make_observer_config(
        ind, setup.plant_cfg.envelope, dt=dt,
        **{"noise_L": setup.plant_cfg.noise_L, **setup.observer_overrides})


@dataclass
class TrackingResult:
    """Time series and metrics of one closed- or open-loop run.

    ``metrics`` compares plant truth against the reference over the
    metrics window; ``estimation`` (when present) summarizes the
    observer error against truth.  ``improvement_pct`` is filled by
    ``compare_tracking`` relative to the group's open-loop run.
    """

    scenario: str
    mode: str
    t: np.ndarray
    reference: np.ndarray
    truth: np.ndarray
    estimate: np.ndarray
    command: np.ndarray
    metrics: GoodnessMetrics
    improvement_pct: float | None = None
    estimation: dict | None = None
    meta: dict = field(default_factory=dict)


@dataclass
class _LoopStart:
    """A loop settled at t = 0 by ``_settle``: the observer tuning, the
    plant (with its noise stream), the inductance filter, the observer
    state (with its pressure filter), the last plant step and the
    feedforward pressure at the reference's start."""

    ocfg: obs.ObserverConfig
    plant: Plant
    filt: sig.FilterState
    state: obs.ObserverState
    last: StepResult
    p_ff0: float

    def copy(self) -> "_LoopStart":
        """An independent start: every mutable part is copied."""
        pf = self.state.pressure_filter
        state = replace(self.state, pressure_filter=None if pf is None else pf.copy())
        return replace(self, plant=self.plant.copy(), filt=self.filt.copy(), state=state)


def _drivers(scenario: Scenario, setup: TrackingSetup) -> tuple:
    """The feedforward ``ref -> pressure`` and the plant drive
    ``(plant, pressure, t) -> StepResult`` of ``scenario``.

    Force tracking holds the length (kinematic plant); every other kind
    balances the scenario's load profile (isotonic plant).
    """
    pcfg = setup.plant_cfg
    dts = 1.0 / pcfg.sensor_rate_hz
    if scenario.kind == "force_tracking":
        hold_x = scenario.hold_x

        def feedforward(ref: float) -> float:
            return feedforward_pressure(setup.dyn, F_ref=ref, x=hold_x, p_max=setup.p_max)[0]

        def drive(plant: Plant, p: float, t: float) -> StepResult:
            return plant.step(p, dts, x_cmd=hold_x)
    else:
        _, load_at = perturbation_load_profile(scenario, pcfg.seed)
        load_ff = setup.load_nominal_scale * scenario.load

        def feedforward(ref: float) -> float:
            return feedforward_pressure(setup.dyn, x_ref=ref, F_load=load_ff,
                                        p_max=setup.p_max)[0]

        def drive(plant: Plant, p: float, t: float) -> StepResult:
            return plant.step(p, dts, F_load=load_at(t))
    return feedforward, drive


def _settle(scenario: Scenario, setup: TrackingSetup) -> _LoopStart:
    """Settle the loop before t = 0; nothing here depends on the mode.

    The pre-roll reaches the operating point with the feedforward
    pressure applied (force tracking also ramps to the held length), so
    the valve and the observer are settled at t = 0; displacement
    tracking then runs conditioning cycles on the feedforward alone.
    Neither is logged.
    """
    pcfg = setup.plant_cfg
    force_mode = scenario.kind == "force_tracking"
    dts = 1.0 / pcfg.sensor_rate_hz
    ocfg = observer_config(setup, setup.ind, dts)
    feedforward, drive = _drivers(scenario, setup)
    F0 = float(scenario.reference(0.0)) if force_mode else scenario.load
    p_ff0 = feedforward(float(scenario.reference(0.0)))
    plant = Plant(pcfg, x0=pcfg.dyn.x0, P0=p_ff0)

    n_pre = int(round(setup.preroll_s / dts))
    if n_pre < 1:  # the first pre-roll step primes the filter and the state
        raise ValueError(f"preroll_s ({setup.preroll_s} s) must cover at least one sample")
    ramp_n = max(1, int(round(2.0 / dts)))
    filt = state = last = None
    for i in range(n_pre):
        if force_mode:
            frac = min(1.0, (i + 1) / ramp_n)
            x_cmd = pcfg.dyn.x0 + frac * (scenario.hold_x - pcfg.dyn.x0)
            last = plant.step(p_ff0, dts, x_cmd=x_cmd)
        else:
            last = drive(plant, p_ff0, 0.0)
        if filt is None:
            # Prime the inductance filter with the first reading and seed
            # the state at the operating force the experimenter knows
            # (reference start or hanging load): the nearest preimage of
            # the reading can pick the wrong branch of the peaked curve.
            # The first estimate_step primes the pressure filter.
            filt = sig.design(setup.filter_spec, pcfg.sensor_rate_hz)
            sig.prime(filt, last.L_meas)
            state = obs.reset(float(np.clip(F0, ocfg.envelope.F_min, ocfg.envelope.F_max)),
                              ocfg)
        state = obs.estimate_step(state, last.L_meas, last.P,
                                  setup.ind, setup.dyn, ocfg, filt)[0]
    if scenario.kind == "displacement_tracking" and setup.condition_cycles > 0:
        # exercise the loop region before measuring (standard practice)
        period = setup.condition_cycles / scenario.frequency_hz
        n_cond = int(round(period / dts))
        t_cond = (np.arange(n_cond) + 1) * dts - period
        for t, ref in zip(t_cond.tolist(), scenario.reference(t_cond).tolist()):
            last = drive(plant, feedforward(ref), t)
            state = obs.estimate_step(state, last.L_meas, last.P,
                                      setup.ind, setup.dyn, ocfg, filt)[0]
    return _LoopStart(ocfg, plant, filt, state, last, p_ff0)


def _run_loop(scenario: Scenario, mode: str, setup: TrackingSetup,
              start: _LoopStart | None = None) -> dict:
    """The closed-loop engine: feedforward plus PID on ``mode``'s
    feedback, with the observer stepping alongside the plant.

    It runs from ``start`` (which it consumes), or from a loop it
    settles itself (``_settle``).  Returns the logged channels ``t``,
    ``reference``, ``F``, ``x``, ``F_hat``, ``x_hat`` and ``command``.
    """
    if start is None:
        start = _settle(scenario, setup)
    pcfg = setup.plant_cfg
    force_mode = scenario.kind == "force_tracking"
    dts = 1.0 / pcfg.sensor_rate_hz
    dtc = 1.0 / pcfg.control_rate_hz
    sub = pcfg.decimation_factor
    gains = setup.gains_force if force_mode else setup.gains_disp
    ctrl = ControllerState(clamp=(-setup.integral_clamp_mpa, setup.integral_clamp_mpa))
    rng_x = np.random.default_rng([pcfg.seed, 77])  # external displacement sensor
    feedforward, drive = _drivers(scenario, setup)
    ocfg, plant, filt, state, last = start.ocfg, start.plant, start.filt, start.state, start.last

    t_log = _log_times(scenario, pcfg.sensor_rate_hz)
    log = np.empty((t_log.size, 7))
    log[:, 0] = t_log
    log[:, 1] = refs = scenario.reference(t_log)
    F_hat = state.F_hat
    x_hat = model.invert_dynamic_length(setup.dyn, F_hat, last.P)
    p_cmd = start.p_ff0
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
            p_cmd = _clamp(feedforward(ref) + dp, 0.0, setup.p_max)
        last = drive(plant, p_cmd, t)
        state, F_hat, x_hat = obs.estimate_step(state, last.L_meas, last.P,
                                                setup.ind, setup.dyn, ocfg, filt)
        log[i, 2:] = last.F, last.x, F_hat, x_hat, p_cmd
    return dict(zip(("t", "reference", "F", "x", "F_hat", "x_hat", "command"), log.T))


def _log_times(scenario: Scenario, rate_hz: float) -> np.ndarray:
    """The times of a closed-loop run's logged samples, from t = 0."""
    dt = 1.0 / rate_hz
    return np.arange(int(round(scenario.duration_s / dt))) * dt


def _metrics_start_s(scenario: Scenario, setup: TrackingSetup) -> float:
    """Where a tracking run's metrics window starts: after
    ``metrics_skip_periods`` of the reference, or at half the run if
    that is sooner."""
    return min(setup.metrics_skip_periods / scenario.frequency_hz, 0.5 * scenario.duration_s)


def metrics_window_samples(scenario: Scenario, setup: TrackingSetup) -> int:
    """How many logged samples the metrics of a tracking run cover;
    they need at least 2."""
    t = _log_times(scenario, setup.plant_cfg.sensor_rate_hz)
    return int(np.count_nonzero(t >= _metrics_start_s(scenario, setup)))


def _check_tracking(scenario: Scenario, mode: str) -> None:
    """Raise ValueError unless ``mode`` is known and ``scenario`` is a tracking kind."""
    if mode not in MODES:
        raise ValueError(f"unknown mode '{mode}' (known: {MODES})")
    if scenario.kind not in ("force_tracking", "displacement_tracking"):
        raise ValueError(f"run_tracking needs a tracking scenario, got '{scenario.kind}'")


def run_tracking(scenario: Scenario, mode: str, setup: TrackingSetup,
                 start: _LoopStart | None = None) -> TrackingResult:
    """Run one tracking scenario in one mode.

    The pre-roll (ramp to the operating point, plus conditioning cycles
    in displacement mode) is excluded from the logs; metrics skip the
    first ``metrics_skip_periods`` of the reference on top of that.
    ``start`` is a loop already settled for this scenario and setup,
    which ``compare_tracking`` passes so that its modes settle once.
    """
    _check_tracking(scenario, mode)
    setup = resolve_setup(setup)
    force_mode = scenario.kind == "force_tracking"
    log = _run_loop(scenario, mode, setup, start)
    t_log, ref_log = log["t"], log["reference"]
    truth_log = log["F"] if force_mode else log["x"]
    est_log = log["F_hat"] if force_mode else log["x_hat"]

    start_s = _metrics_start_s(scenario, setup)
    win = t_log >= start_s
    metrics = goodness(truth_log[win], ref_log[win])
    err_est = est_log[win] - truth_log[win]
    estimation = {
        "max_abs_error": float(np.max(np.abs(err_est))),
        "rmse": float(np.sqrt(np.mean(err_est ** 2))),
    }
    return TrackingResult(
        scenario=scenario.name, mode=mode, t=t_log, reference=ref_log,
        truth=truth_log, estimate=est_log, command=log["command"], metrics=metrics,
        estimation=estimation,
        meta={"seed": setup.plant_cfg.seed, "kind": scenario.kind,
              "metrics_window_start_s": float(start_s)},
    )


def compare_tracking(scenario: Scenario, setup: TrackingSetup,
                     modes: tuple = MODES) -> dict:
    """Run the mode group on identical seeds and fill improvements
    relative to the open-loop baseline (100 * (1 - rmse/rmse_open)).

    The loop is settled once; each mode starts from its own copy of
    that state, so the group equals separate ``run_tracking`` calls.
    """
    for mode in modes:
        _check_tracking(scenario, mode)
    setup = resolve_setup(setup)
    start = _settle(scenario, setup) if modes else None
    results = {mode: run_tracking(scenario, mode, setup, start.copy()) for mode in modes}
    base = results.get("open_loop")
    if base is not None:
        for mode, res in results.items():
            if mode != "open_loop" and base.metrics.rmse > 0:
                res.improvement_pct = 100.0 * (1.0 - res.metrics.rmse / base.metrics.rmse)
    return results


def run_perturbation(setup: TrackingSetup, scenario: Scenario | None = None) -> TrackingResult:
    """Hold a constant length by self-sensing feedback while seeded load
    steps come and go; report the force-estimation error statistics.

    ``estimation`` carries max |F_hat - F|, its RMSE, and the drift
    (mean error over the final 20% of the run, which is kept free of
    load events).
    """
    if scenario is None:
        scenario = Scenario.load_perturbation()
    if scenario.kind != "load_perturbation":
        raise ValueError(f"run_perturbation needs a load_perturbation scenario, got '{scenario.kind}'")
    setup = resolve_setup(setup)
    log = _run_loop(scenario, "self_sensing", setup)
    truth_log, est_log = log["F"], log["F_hat"]

    err = est_log - truth_log
    tail = slice(int(0.8 * err.size), None)
    estimation = {
        "max_abs_error": float(np.max(np.abs(err))),
        "rmse": float(np.sqrt(np.mean(err ** 2))),
        "drift": float(np.mean(err[tail])),
    }
    # the headline comparison here is self-sensed force against truth
    # (the regulated length is constant; its RMSE goes to meta)
    metrics = goodness(est_log, truth_log)
    return TrackingResult(
        scenario=scenario.name, mode="self_sensing", t=log["t"],
        reference=log["reference"], truth=truth_log, estimate=est_log,
        command=log["command"], metrics=metrics, estimation=estimation,
        meta={"seed": setup.plant_cfg.seed, "kind": scenario.kind,
              "x_rmse": float(np.sqrt(np.mean((log["x"] - scenario.hold_x) ** 2)))},
    )
