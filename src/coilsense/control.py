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
from .plant import (TRACKING_KINDS, Plant, PlantConfig, Scenario, check_run_length,
                    perturbation_load_profile, run_scenario)

__all__ = [
    "PidGains",
    "ControllerState",
    "TrackingSetup",
    "TrackingResult",
    "PrerollError",
    "MODES",
    "pid_step",
    "feedforward_pressure",
    "identify_dynamic",
    "resolve_setup",
    "observer_config",
    "metrics_window_samples",
    "loop_seconds",
    "run_tracking",
    "compare_tracking",
    "run_perturbation",
]

MODES = ("open_loop", "sensor_fb", "self_sensing")

_C_EPS = 1e-9

#: Seconds of pre-roll that settle a closed loop before t = 0.
PREROLL_S = 3.0
#: Reference periods of conditioning that precede a displacement-tracking
#: run, and of the run that the tracking metrics skip.
CONDITION_CYCLES = 1.0
METRICS_SKIP_PERIODS = 1.0


class PrerollError(ValueError):
    """The pre-roll of a closed loop holds no sample at the sensor rate."""


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


def feedforward_pressure(dyn: DynamicParams, F: float, x: float, p_min: float,
                         p_max: float) -> float:
    """Model-inverting pressure command: the pressure at which the affine
    model gives force ``F`` at length ``x``, P = (F - k(x - x0)) / c,
    clamped to [p_min, p_max].

    Force tracking asks for the reference force at the held length,
    displacement tracking for the reference length under the load.
    """
    if abs(dyn.c) < _C_EPS:
        raise DegenerateModelError(f"pressure coefficient {dyn.c} too small to invert")
    return _clamp((F - dyn.k * (x - dyn.x0)) / dyn.c, p_min, p_max)


def identify_dynamic(plant_cfg: PlantConfig, seed_tag: int = 501) -> DynamicParams:
    """Identify the affine model from a seeded calibration sweep of the plant.

    This is the model a bench campaign would produce: its stiffness
    absorbs the quasi-static part of the hysteresis, which matters for
    both feedforward quality and displacement inference.
    """
    scn = replace(Scenario.isobaric_sweep(x0=plant_cfg.dyn.x0, cycles=1, cycle_period_s=4.0),
                  label="identification_sweep")
    ds = run_scenario(scn, replace(plant_cfg, seed=plant_cfg.seed + seed_tag))
    return fit_dynamic(ds).params


@dataclass
class TrackingSetup:
    """Everything a tracking or perturbation run needs besides the scenario.

    ``dyn`` is the nominal affine model of the feedforward and the
    observer; ``dyn=None`` triggers one identification sweep (cached by
    ``resolve_setup``).  The observer inverts the plant's own map (a
    bench-calibrated sensor model).  In isotonic runs the feedforward
    believes the external load to be ``load_nominal_scale`` times the
    scenario's (the true load); ``sensor_noise_x`` is the external
    displacement sensor's noise used by the sensor-feedback mode.
    ``filt`` is the observer's designed low-pass at the plant's sensor
    rate, the template of every observer config made from the setup;
    None designs the default ``FilterSpec`` there (``observer_config``).
    ``p_max``, the highest pressure a loop commands, must lie in the
    envelope's pressure range, where the observer can read it; None
    takes the envelope's highest pressure.
    """

    plant_cfg: PlantConfig
    dyn: DynamicParams | None = None
    gains_force: PidGains = field(default_factory=lambda: PidGains(kp=0.30, ki=1.2, kd=0.05))
    gains_disp: PidGains = field(default_factory=lambda: PidGains(kp=40.0, ki=250.0, kd=1.0))
    p_max: float | None = None
    integral_clamp_mpa: float = 0.3
    load_nominal_scale: float = 1.0
    sensor_noise_x: float = 3e-4
    filt: sig.FilterState | None = field(default=None, repr=False, compare=False)
    observer_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        env = self.plant_cfg.envelope
        if self.p_max is None:
            self.p_max = env.P_max
        elif not env.P_min <= self.p_max <= env.P_max:
            raise ValueError(f"p_max {self.p_max} MPa outside the envelope's pressures "
                             f"[{env.P_min}, {env.P_max}]")


def resolve_setup(setup: TrackingSetup) -> TrackingSetup:
    """Fill the derived field of a setup, the identified model."""
    out = replace(setup)
    if out.dyn is None:
        out.dyn = identify_dynamic(out.plant_cfg)
    return out


def observer_config(setup: TrackingSetup, ind: InductanceParams,
                    dt: float) -> obs.ObserverConfig:
    """The observer tuning of ``setup`` for inductance map ``ind`` at
    sampling interval ``dt``: scaled to the plant's sensor noise, then
    the setup's overrides applied.  Its filter is the setup's, designed
    at the plant's sensor rate, not at 1 / ``dt``, which may differ from
    it in the last bits."""
    pcfg = setup.plant_cfg
    filt = setup.filt
    if filt is None:
        filt = sig.design(sig.FilterSpec(), pcfg.sensor_rate_hz)
    return obs.make_observer_config(ind, pcfg.envelope, dt=dt, filt=filt,
                                    **{"noise_L": pcfg.noise_L, **setup.observer_overrides})


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
    plant (with its noise stream), the observer state (with its
    filters) and the sensed force of the last plant sample."""

    ocfg: obs.ObserverConfig
    plant: Plant
    state: obs.ObserverState
    F_meas: float

    def copy(self) -> "_LoopStart":
        """An independent start: every mutable part is copied."""
        state = replace(self.state, L_filter=self.state.L_filter.copy(),
                        P_filter=self.state.P_filter.copy())
        return replace(self, plant=self.plant.copy(), state=state)


def _drivers(scenario: Scenario, setup: TrackingSetup) -> tuple:
    """The feedforward ``ref -> pressure`` and the plant drive
    ``(plant, pressures, times) -> channels``, one ``Plant.steps`` call
    over the samples at ``times``, of ``scenario``.

    Force tracking holds the length (kinematic plant); every other kind
    balances the scenario's load profile (isotonic plant).  The
    feedforward is clamped to the envelope's pressures up to the setup's
    ``p_max``.
    """
    pcfg = setup.plant_cfg
    dts = 1.0 / pcfg.sensor_rate_hz
    p_min = pcfg.envelope.P_min
    if scenario.kind == "force_tracking":
        hold_x = scenario.hold_x

        def feedforward(ref: float) -> float:
            return feedforward_pressure(setup.dyn, ref, hold_x, p_min, setup.p_max)

        def drive(plant: Plant, P_cmd: list, times: list) -> dict:
            return plant.steps(P_cmd, dts, x_cmd=[hold_x] * len(P_cmd))
    else:
        _, load_at = perturbation_load_profile(scenario, pcfg.seed)
        load_ff = setup.load_nominal_scale * scenario.load

        def feedforward(ref: float) -> float:
            return feedforward_pressure(setup.dyn, load_ff, ref, p_min, setup.p_max)

        def drive(plant: Plant, P_cmd: list, times: list) -> dict:
            return plant.steps(P_cmd, dts, F_load=list(map(load_at, times)))
    return feedforward, drive


def _step(run_plant, take, observe=None) -> dict:
    """``run_plant()``, one ``Plant.steps`` call, whose channels go to
    ``take``.  If a sample raises, the samples before it go to ``take``
    and then, with every sample taken before them, through ``observe``
    before the plant's error is raised: an observer error among them is
    the one raised, as it would have been when each sample was observed
    as it came."""
    try:
        run = run_plant()
    except ValueError as err:  # the plant's errors
        take(err.completed)
        if observe is not None:
            observe()
        raise
    take(run)
    return run


def _settle(scenario: Scenario, setup: TrackingSetup) -> _LoopStart:
    """Settle the loop before t = 0; nothing here depends on the mode.

    The pre-roll reaches the operating point with the feedforward
    pressure applied (force tracking also ramps to the held length), so
    the valve and the observer are settled at t = 0; displacement
    tracking then runs conditioning cycles on the feedforward alone.
    Neither is logged.  The observer reads no pressure it commands, so
    each stretch is one ``Plant.steps`` call, observed in one
    ``estimate_steps`` call: one for the pre-roll and one for the
    conditioning cycles.
    """
    pcfg = setup.plant_cfg
    check_run_length(scenario.name, loop_seconds(scenario), pcfg.sensor_rate_hz)
    force_mode = scenario.kind == "force_tracking"
    dts = 1.0 / pcfg.sensor_rate_hz
    n_pre = int(round(PREROLL_S / dts))
    if n_pre < 1:  # the first pre-roll step seeds the state and primes its filters
        raise PrerollError(f"the {PREROLL_S:g} s pre-roll of a closed loop holds no "
                           f"sample at {pcfg.sensor_rate_hz:g} Hz")
    ocfg = observer_config(setup, pcfg.ind, dts)
    feedforward, drive = _drivers(scenario, setup)
    F0 = float(scenario.reference(0.0)) if force_mode else scenario.load
    p_ff0 = feedforward(float(scenario.reference(0.0)))
    plant = Plant(pcfg, x0=pcfg.dyn.x0, P0=p_ff0)
    state = None

    def observe(run: dict) -> None:
        nonlocal state
        if not run["P"]:
            return
        if state is None:
            # Seed the state at the operating force the experimenter knows
            # (reference start or hanging load), with its filters primed at
            # the first sample: the nearest preimage of the reading can pick
            # the wrong branch of the peaked curve.
            state = obs.reset(float(np.clip(F0, ocfg.envelope.F_min, ocfg.envelope.F_max)),
                              run["L_meas"][0], run["P"][0], ocfg)
        state = obs.estimate_steps(state, run["L_meas"], run["P"], setup.dyn, ocfg)[0]

    if force_mode:
        ramp_n = max(1, int(round(2.0 / dts)))
        x0, hold_x = pcfg.dyn.x0, scenario.hold_x
        x_pre = [x0 + min(1.0, (i + 1) / ramp_n) * (hold_x - x0) for i in range(n_pre)]
        run = _step(lambda: plant.steps([p_ff0] * n_pre, dts, x_cmd=x_pre), observe)
    else:
        run = _step(lambda: drive(plant, [p_ff0] * n_pre, [0.0] * n_pre), observe)
    F_meas = run["F_meas"][-1]
    if scenario.kind == "displacement_tracking":
        # exercise the loop region before measuring (standard practice)
        period = CONDITION_CYCLES / scenario.frequency_hz
        n_cond = int(round(period / dts))
        t_cond = (np.arange(n_cond) + 1) * dts - period
        P_cond = list(map(feedforward, scenario.reference(t_cond).tolist()))
        run = _step(lambda: drive(plant, P_cond, t_cond.tolist()), observe)
        F_meas = run["F_meas"][-1] if run["F_meas"] else F_meas
    return _LoopStart(ocfg, plant, state, F_meas)


def _run_loop(scenario: Scenario, mode: str, setup: TrackingSetup,
              start: _LoopStart | None = None) -> dict:
    """The closed-loop engine: feedforward plus PID on ``mode``'s
    feedback, with the observer running behind the plant.

    It runs from ``start`` (which it consumes), or from a loop it
    settles itself (``_settle``).  Each control period (the plant's
    ``decimation_factor`` samples; the last may be shorter) sets the
    command at its first sample, clamped to the envelope's pressures up
    to ``p_max``, then steps the plant through the period in one
    ``Plant.steps`` call.  An open-loop command reads nothing of the
    plant, so that run builds its commands period by period first, with
    the same arithmetic, and steps them in one call; a run cut into pieces
    gives the plant's bits, and its errors are those of the period that
    raises.  The observer runs, in one ``estimate_steps``
    call over the samples it has not seen, only when the loop reads the
    estimates: at each self-sensing control tick, for the period before,
    and once at the end of the run.  A run cut into pieces gives the
    observer's bits, so this equals observing each sample as it comes.
    Returns the logged channels ``t``, ``reference``, ``F``, ``x``,
    ``F_hat``, ``x_hat`` and ``command``.
    """
    if start is None:
        start = _settle(scenario, setup)
    pcfg = setup.plant_cfg
    force_mode = scenario.kind == "force_tracking"
    dtc = 1.0 / pcfg.control_rate_hz
    sub = pcfg.decimation_factor
    gains = setup.gains_force if force_mode else setup.gains_disp
    ctrl = ControllerState(clamp=(-setup.integral_clamp_mpa, setup.integral_clamp_mpa))
    rng_x = np.random.default_rng([pcfg.seed, 77])  # external displacement sensor
    feedforward, drive = _drivers(scenario, setup)
    ocfg, plant, state, F_meas = start.ocfg, start.plant, start.state, start.F_meas
    p_min = pcfg.envelope.P_min

    t_log = _log_times(scenario, pcfg.sensor_rate_hz)
    refs = scenario.reference(t_log)
    times, ref_list = t_log.tolist(), refs.tolist()
    F, x, L, P, command, F_hat, x_hat = [], [], [], [], [], [], []

    def take(run: dict) -> None:
        F.extend(run["F"])
        x.extend(run["x"])
        L.extend(run["L_meas"])
        P.extend(run["P"])

    def observe() -> None:
        nonlocal state
        seen = len(F_hat)
        state, F_seq, x_seq = obs.estimate_steps(state, L[seen:], P[seen:], setup.dyn, ocfg)
        F_hat.extend(F_seq)
        x_hat.extend(x_seq)

    def period_command(i: int, dp: float) -> list:
        # dp = 0.0 too is added: it turns a -0.0 feedforward into 0.0
        P_cmd = _clamp(feedforward(ref_list[i]) + dp, p_min, setup.p_max)
        return [P_cmd] * len(times[i:i + sub])

    periods = range(0, len(times), sub)
    F_est = state.F_hat
    x_est = model.invert_dynamic_length(setup.dyn, F_est, plant.state.P)
    if mode == "open_loop":
        command = [P for i in periods for P in period_command(i, 0.0)]
        _step(lambda: drive(plant, command, times), take, observe)
    else:
        for i in periods:
            ref = ref_list[i]
            dp = 0.0
            if mode == "sensor_fb" and force_mode:
                dp = pid_step(ctrl, ref - F_meas, gains, dtc)
            elif mode == "sensor_fb":
                x_meas = plant.state.x + setup.sensor_noise_x * rng_x.standard_normal()
                dp = pid_step(ctrl, x_meas - ref, gains, dtc)
            elif mode == "self_sensing":
                if i:
                    observe()
                    F_est, x_est = F_hat[-1], x_hat[-1]
                dp = pid_step(ctrl, ref - F_est if force_mode else x_est - ref, gains, dtc)
            period = times[i:i + sub]
            P_cmd = period_command(i, dp)
            run = _step(lambda: drive(plant, P_cmd, period), take, observe)
            command += P_cmd
            F_meas = run["F_meas"][-1]
    observe()
    return dict(zip(("t", "reference", "F", "x", "F_hat", "x_hat", "command"),
                    (t_log, refs, *map(np.array, (F, x, F_hat, x_hat, command)))))


def loop_seconds(scenario: Scenario) -> float:
    """Seconds a closed loop on ``scenario`` steps: the pre-roll, the
    conditioning cycles of displacement tracking and the logged run."""
    seconds = PREROLL_S + scenario.duration_s
    if scenario.kind == "displacement_tracking":
        seconds += CONDITION_CYCLES / scenario.frequency_hz
    return seconds


def _log_times(scenario: Scenario, rate_hz: float) -> np.ndarray:
    """The times of a closed-loop run's logged samples, from t = 0."""
    dt = 1.0 / rate_hz
    return np.arange(int(round(scenario.duration_s / dt))) * dt


def _metrics_start_s(scenario: Scenario) -> float:
    """Where a tracking run's metrics window starts: after
    ``METRICS_SKIP_PERIODS`` of the reference, or at half the run if
    that is sooner."""
    return min(METRICS_SKIP_PERIODS / scenario.frequency_hz, 0.5 * scenario.duration_s)


def metrics_window_samples(scenario: Scenario, setup: TrackingSetup) -> int:
    """How many logged samples the metrics of a tracking run cover;
    they need at least 2."""
    t = _log_times(scenario, setup.plant_cfg.sensor_rate_hz)
    return int(np.count_nonzero(t >= _metrics_start_s(scenario)))


def _check_tracking(scenario: Scenario) -> None:
    """Raise ValueError unless ``scenario`` is a tracking kind."""
    if scenario.kind not in TRACKING_KINDS:
        raise ValueError(f"run_tracking needs a tracking scenario, got '{scenario.kind}'")


def run_tracking(scenario: Scenario, mode: str, setup: TrackingSetup,
                 start: _LoopStart | None = None) -> TrackingResult:
    """Run one tracking scenario in one mode.

    The pre-roll (ramp to the operating point, plus conditioning cycles
    in displacement mode) is excluded from the logs; metrics skip the
    first ``METRICS_SKIP_PERIODS`` of the reference on top of that.
    ``start`` is a loop already settled for this scenario and setup,
    which ``compare_tracking`` passes so that its modes settle once.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode '{mode}' (known: {MODES})")
    _check_tracking(scenario)
    setup = resolve_setup(setup)
    force_mode = scenario.kind == "force_tracking"
    log = _run_loop(scenario, mode, setup, start)
    t_log, ref_log = log["t"], log["reference"]
    truth_log = log["F"] if force_mode else log["x"]
    est_log = log["F_hat"] if force_mode else log["x_hat"]

    start_s = _metrics_start_s(scenario)
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


def compare_tracking(scenario: Scenario, setup: TrackingSetup) -> dict:
    """Run the three modes on identical seeds and fill improvements
    relative to the open-loop baseline (100 * (1 - rmse/rmse_open)).

    The loop is settled once; each mode starts from its own copy of
    that state, so the group equals separate ``run_tracking`` calls.
    """
    _check_tracking(scenario)
    setup = resolve_setup(setup)
    start = _settle(scenario, setup)
    results = {mode: run_tracking(scenario, mode, setup, start.copy()) for mode in MODES}
    base = results["open_loop"]
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
