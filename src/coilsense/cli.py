"""Command-line front end: fitting, estimation, simulation, tracking
comparisons, load-perturbation runs, and report aggregation.

One JSON config drives everything; every block falls back to the
package defaults, and any invalid block is reported before a single
file is written.  Each rate is stated once, in the ``plant`` block:
``sensor_rate_hz`` is the rate of the observer's filters and of the
data ``estimate`` reads, ``control_rate_hz`` the PID's.  All outputs
are plot-ready CSV or JSON, written atomically, and byte-identical for
a fixed config and seed.

Exit codes: 0 success, 1 usage/config error, 2 data error,
3 non-convergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import inspect
import json
import math
import os
import sys

import numpy as np

from . import __version__, control, ident, model, observer, plant
from . import signal as sig

__all__ = ["main", "ConfigError", "load_config", "validate_config"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NOCONV = 3

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Invalid run configuration."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the scripting
    # contract reserves 2 for data errors.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _dump_json(doc: dict, path: str) -> None:
    model._atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Configuration

def default_config() -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "seed": 0,
        "out_dir": "out",
        "plant": {},
        "envelope": {},
        "filter": dataclasses.asdict(sig.FilterSpec()),
        "observer": {},
        "controller": {},
        "scenarios": [],
        "paths": {},
    }


def load_config(path: str | None) -> dict:
    cfg = default_config()
    if path is None:
        return cfg
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config root must be an object")
    unknown = set(doc) - set(cfg)
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
    version = doc.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"{path}: unsupported schema_version {version}")
    cfg.update(doc)
    return cfg


def _number(name: str, value, kind: type = float):
    """``value`` as a finite ``kind`` (float or int); anything else,
    booleans and numeric strings included, is a ConfigError."""
    try:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError
        out = kind(value)
        if (kind is int and out != value) or not math.isfinite(out):
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        expected = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"{name}: expected {expected}, got {value!r}") from None
    return out


def _numbers(name: str, block: dict, kinds: dict) -> dict:
    """The entries of a config block, each key one of ``kinds`` and each
    value converted by ``_number`` to its kind."""
    unknown = set(block) - set(kinds)
    if unknown:
        raise ConfigError(f"{name}: unknown keys {sorted(unknown)}")
    return {k: _number(f"{name}.{k}", v, kinds[k]) for k, v in block.items()}


def _build_envelope(cfg: dict) -> model.OperatingEnvelope:
    fields = dataclasses.asdict(plant.default_envelope())
    fields.update(_numbers("envelope", cfg.get("envelope") or {}, dict.fromkeys(fields, float)))
    try:
        return model.OperatingEnvelope(**fields)
    except ValueError as exc:
        raise ConfigError(f"envelope: {exc}") from None


def _build_plant_config(cfg: dict) -> plant.PlantConfig:
    block = dict(cfg.get("plant") or {})
    kwargs = {"seed": _number("seed", cfg.get("seed", 0), int),
              "envelope": _build_envelope(cfg)}
    if "dyn" in block:
        d = block.pop("dyn")
        try:
            kwargs["dyn"] = model.DynamicParams(k=d["k"], x0=d["x0"], c=d["c"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"plant.dyn: {exc}") from None
    if "ind" in block:
        p = block.pop("ind")
        try:
            kwargs["ind"] = model.InductanceParams(tuple(p["p"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"plant.ind: {exc}") from None
    if "hysteresis" in block:
        try:
            kwargs["hysteresis"] = tuple(
                plant.PlayElement(width=h["width"], weight=h["weight"])
                for h in block.pop("hysteresis"))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"plant.hysteresis: {exc}") from None
    kwargs.update(_numbers("plant", block, dict.fromkeys(
        ("valve_tau", "noise_L", "noise_F", "sensor_rate_hz", "control_rate_hz"), float)))
    try:
        return plant.default_plant_config(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"plant: {exc}") from None


def _build_filter_spec(cfg: dict, sensor_rate_hz: float) -> sig.FilterSpec:
    """The observer's filter spec; its cutoff must lie below the Nyquist
    frequency of the plant's sensor rate."""
    block = _numbers("filter", cfg.get("filter") or {}, {"order": int, "cutoff_hz": float})
    try:
        spec = sig.FilterSpec(**block)
        sig.check_cutoff(spec, sensor_rate_hz)
    except ValueError as exc:
        raise ConfigError(f"filter: {exc}") from None
    return spec


_OBSERVER_KEYS = {"grid_points": int, "refine_tol": float, "sigma_F": float,
                  "sigma_Fdot": float, "noise_L": float, "gradient_guard_ratio": float,
                  "gradient_guard_inflation": float}


def _gains_from(block: dict, name: str) -> control.PidGains:
    """Gains of one controller block; an omitted gain is 0."""
    gains = {"kp": 0.0, "ki": 0.0, "kd": 0.0}
    gains.update(_numbers(f"controller.{name}", block, dict.fromkeys(gains, float)))
    try:
        return control.PidGains(**gains)
    except ValueError as exc:
        raise ConfigError(f"controller.{name}: {exc}") from None


def _build_setup(cfg: dict, pcfg: plant.PlantConfig) -> control.TrackingSetup:
    block = dict(cfg.get("controller") or {})
    gains = {}
    for key, attr in (("force_gains", "gains_force"), ("disp_gains", "gains_disp")):
        if key in block:
            gains[attr] = _gains_from(block.pop(key) or {}, key)
    return control.TrackingSetup(
        plant_cfg=pcfg, filter_spec=_build_filter_spec(cfg, pcfg.sensor_rate_hz),
        observer_overrides=_numbers("observer", cfg.get("observer") or {}, _OBSERVER_KEYS),
        **gains, **_numbers("controller", block, dict.fromkeys(
            ("p_max", "integral_clamp_mpa", "load_nominal_scale", "sensor_noise_x"), float)))


_TRACKING_KINDS = ("force_tracking", "displacement_tracking")

_SCENARIO_FACTORIES = {
    "calibration_grid": plant.Scenario.calibration_grid,
    "isobaric_sweep": plant.Scenario.isobaric_sweep,
    "isometric_sweep": plant.Scenario.isometric_sweep,
    "cyclic_estimation": plant.Scenario.cyclic_estimation,
    "force_tracking": plant.Scenario.force_tracking,
    "displacement_tracking": plant.Scenario.displacement_tracking,
    "load_perturbation": plant.Scenario.load_perturbation,
}


def scenario_from_config(block: dict) -> plant.Scenario:
    if not isinstance(block, dict) or "kind" not in block:
        raise ConfigError(f"scenario blocks need a 'kind': {block}")
    kind = block["kind"]
    factory = _SCENARIO_FACTORIES.get(kind)
    if factory is None:
        raise ConfigError(f"unknown scenario kind '{kind}' "
                          f"(known: {sorted(_SCENARIO_FACTORIES)})")
    params = dict(block)
    params.pop("kind")
    sig_params = set(inspect.signature(factory).parameters)
    unknown = set(params) - sig_params
    if unknown:
        raise ConfigError(f"scenario '{kind}': unknown keys {sorted(unknown)}")
    try:
        return factory(**params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"scenario '{kind}': {exc}") from None


_OBJECT_BLOCKS = ("plant", "envelope", "filter", "observer", "controller", "paths")


def _check_type(name: str, block, kind: type) -> None:
    if block is not None and not isinstance(block, kind):
        expected = "an object" if kind is dict else "a list"
        raise ConfigError(f"{name}: expected {expected}, got {block!r}")


def _check_block_types(cfg: dict) -> None:
    """Each block and each controller gain block is an object and
    ``scenarios`` is a list; a null block counts as empty."""
    for name in _OBJECT_BLOCKS:
        _check_type(name, cfg.get(name), dict)
    _check_type("scenarios", cfg.get("scenarios"), list)
    controller = cfg.get("controller") or {}
    for name in ("force_gains", "disp_gains"):
        _check_type(f"controller.{name}", controller.get(name), dict)


def validate_config(cfg: dict) -> dict:
    """Build every block once; raises ConfigError before any side effects.

    Returns the resolved objects for reuse by the commands.
    """
    _check_block_types(cfg)
    pcfg = _build_plant_config(cfg)
    setup = _build_setup(cfg, pcfg)
    try:
        control.observer_config(setup, pcfg.ind, 1.0 / pcfg.sensor_rate_hz)
    except ArithmeticError as exc:
        raise ConfigError(f"observer: tuning out of floating-point range ({exc})") from None
    except ValueError as exc:
        raise ConfigError(f"observer: {exc}") from None
    scenarios = [scenario_from_config(b) for b in (cfg.get("scenarios") or [])]
    for s in scenarios:
        if s.kind in _TRACKING_KINDS:
            if control.metrics_window_samples(s, setup) < 2:
                raise ConfigError(f"scenario '{s.name}': the metrics window of {s.duration_s:g} s "
                                  f"holds fewer than 2 samples at {pcfg.sensor_rate_hz:g} Hz")
        elif s.samples(pcfg.sensor_rate_hz) < 1:
            raise ConfigError(f"scenario '{s.name}': {s.total_duration_s:g} s is shorter "
                              f"than one sample at {pcfg.sensor_rate_hz:g} Hz")
    return {
        "plant": pcfg,
        "setup": setup,
        "scenarios": scenarios,
        "paths": dict(cfg.get("paths") or {}),
    }


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


def _provenance(cfg: dict) -> dict:
    return {"config_hash": _config_hash(cfg), "seed": cfg.get("seed", 0),
            "version": __version__}


def _out_dir(cfg: dict, args) -> str:
    out = args.out or cfg.get("out_dir") or "out"
    os.makedirs(out, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# Commands

def _load_dataset(args, resolved) -> ident.Dataset:
    path = getattr(args, "data", None) or resolved["paths"].get("data")
    if not path:
        raise ConfigError("no dataset given ( --data or paths.data )")
    return ident.read_csv(path)


def cmd_fit(args, cfg, resolved) -> int:
    ds = _load_dataset(args, resolved)
    out = _out_dir(cfg, args)
    if args.model == "dynamic":
        report = ident.fit_dynamic(ds)
        model.save_dynamic_params(report.params, os.path.join(out, "dynamic_params.json"))
        report.to_json(os.path.join(out, "fit_dynamic_report.json"))
        print(f"fit dynamic: k={report.params.k:.6g} x0={report.params.x0:.6g} "
              f"c={report.params.c:.6g}  rmse={report.rmse:.6g} r2={report.r2:.6g}")
        return EXIT_OK
    init = ident.heuristic_inductance_init(ds)
    report = ident.fit_inductance(ds, init, seed=resolved["plant"].seed)
    model.save_inductance_params(report.params, os.path.join(out, "inductance_params.json"))
    report.to_json(os.path.join(out, "fit_inductance_report.json"))
    print(f"fit inductance: rmse={report.rmse:.6g} r2={report.r2:.6g} "
          f"iterations={report.iterations} converged={report.converged}")
    return EXIT_OK if report.converged else EXIT_NOCONV


def _nominal_models(resolved):
    paths = resolved["paths"]
    dyn = (model.load_dynamic_params(paths["dynamic_params"])
           if "dynamic_params" in paths else plant.reference_dynamic_params())
    ind_p = (model.load_inductance_params(paths["inductance_params"])
             if "inductance_params" in paths else plant.reference_inductance_params())
    return dyn, ind_p


def _reversal_stats(ds: ident.Dataset, err: np.ndarray, window_s: float = 0.25) -> dict:
    """Error split around motion reversals of the length channel."""
    signs = np.sign(np.diff(ds.x))
    idx = np.where(signs != 0)[0]
    rev = np.zeros(len(ds), dtype=bool)
    n_rev = 0
    if idx.size > 1:
        flips = idx[1:][signs[idx[1:]] != signs[idx[:-1]]]
        n_rev = int(flips.size)
        dt = float(np.median(np.diff(ds.t)))
        half = max(1, int(round(window_s / dt)))
        for i in flips:
            rev[max(0, i - half): i + half + 1] = True
    out = {"window_s": window_s, "n_reversals": n_rev}
    if rev.any() and (~rev).any():
        out["rmse_near_reversal"] = float(np.sqrt(np.mean(err[rev] ** 2)))
        out["rmse_elsewhere"] = float(np.sqrt(np.mean(err[~rev] ** 2)))
    return out


def cmd_estimate(args, cfg, resolved) -> int:
    ds = _load_dataset(args, resolved)
    dyn, ind_p = _nominal_models(resolved)
    pcfg, setup = resolved["plant"], resolved["setup"]
    fs = pcfg.sensor_rate_hz
    dt_data = float(np.median(np.diff(ds.t))) if len(ds) > 1 else 1.0 / fs
    if abs(fs - 1.0 / dt_data) > 1e-6 * fs:
        raise ConfigError(f"plant.sensor_rate_hz {fs:g} Hz differs from "
                          f"the data's rate {1.0 / dt_data:g} Hz (1 / median dt)")
    env = pcfg.envelope
    outside = np.flatnonzero((ds.L < env.L_min) | (ds.L > env.L_max))
    if outside.size:
        i = int(outside[0])
        raise ident.DataFormatError(
            f"data row {i + 1} (t={ds.t[i]:g} s): inductance {ds.L[i]:g} uH outside "
            f"the envelope [{env.L_min:g}, {env.L_max:g}] ({outside.size} rows outside)")
    out = _out_dir(cfg, args)
    ocfg = control.observer_config(setup, ind_p, dt_data)
    est = observer.run_estimation(ds, ind_p, dyn, ocfg, sig.design(setup.filter_spec, fs))
    ident.write_csv(ds, os.path.join(out, "estimates.csv"),
                    extra={"F_hat": est["F_hat"], "x_hat": est["x_hat"]})
    metrics: dict = {"provenance": _provenance(cfg)}
    if ds.F is not None:
        g = ident.goodness(est["F_hat"], ds.F)
        metrics["force"] = g.as_dict()
    else:
        metrics["force"] = "unavailable (no F column)"
    if ds.x is not None:
        g = ident.goodness(est["x_hat"], ds.x)
        metrics["displacement"] = g.as_dict()
        if ds.F is not None:
            metrics["force_reversal_windows"] = _reversal_stats(ds, est["F_hat"] - ds.F)
    else:
        metrics["displacement"] = "unavailable (no x column)"
    _dump_json(metrics, os.path.join(out, "estimate_metrics.json"))
    print(f"estimate: wrote {len(ds)} rows; force metrics "
          f"{'available' if ds.F is not None else 'unavailable'}")
    return EXIT_OK


def cmd_simulate(args, cfg, resolved) -> int:
    out = _out_dir(cfg, args)
    pcfg = resolved["plant"]
    scenarios = [s for s in resolved["scenarios"]
                 if s.kind not in _TRACKING_KINDS]
    if getattr(args, "scenario", None):
        scenarios = [s for s in scenarios if s.name == args.scenario or s.kind == args.scenario]
    if not scenarios:
        raise ConfigError("no dataset scenarios selected (config 'scenarios' block)")
    for scenario in scenarios:
        ds = plant.run_scenario(scenario, pcfg)
        ident.write_csv(ds, os.path.join(out, f"{scenario.name}.csv"))
        print(f"simulate: {scenario.name}: {len(ds)} rows")
    return EXIT_OK


def _default_tracking_scenarios() -> list:
    out = [plant.Scenario.force_tracking(w, f)
           for w in ("sine", "triangle") for f in (0.2, 0.05)]
    out += [plant.Scenario.displacement_tracking(frequency_hz=f) for f in (0.05, 0.2)]
    return out


def _write_result_csv(path: str, res: control.TrackingResult) -> None:
    ident.write_columns(path, {"t": res.t, "reference": res.reference, "truth": res.truth,
                               "estimate": res.estimate, "command": res.command})


def _table_rows(scenario, results) -> list:
    rows = []
    for mode in control.MODES:
        if mode not in results:
            continue
        r = results[mode]
        rows.append({
            "trajectory": scenario.name, "method": mode,
            "rmse": r.metrics.rmse, "mae": r.metrics.mae,
            "improvement_pct": r.improvement_pct,
        })
    return rows


def _format_table(rows) -> str:
    lines = [f"{'Trajectory':24s} {'Method':14s} {'RMSE':>10s} {'MAE':>10s} {'Imp.(%)':>8s}",
             "-" * 70]
    for row in rows:
        imp = "-" if row["improvement_pct"] is None else f"{row['improvement_pct']:.1f}"
        lines.append(f"{row['trajectory']:24s} {row['method']:14s} "
                     f"{row['rmse']:10.4f} {row['mae']:10.4f} {imp:>8s}")
    return "\n".join(lines) + "\n"


def cmd_track(args, cfg, resolved) -> int:
    setup = resolved["setup"]
    out = _out_dir(cfg, args)
    scenarios = [s for s in resolved["scenarios"]
                 if s.kind in _TRACKING_KINDS]
    if not scenarios:
        scenarios = _default_tracking_scenarios()
    if getattr(args, "scenario", None):
        scenarios = [s for s in scenarios if s.name == args.scenario]
        if not scenarios:
            raise ConfigError(f"no tracking scenario named '{args.scenario}'")
    setup = control.resolve_setup(setup)
    rows = []
    for scenario in scenarios:
        results = control.compare_tracking(scenario, setup)
        for mode, res in results.items():
            _write_result_csv(os.path.join(out, f"{scenario.name}_{mode}.csv"), res)
        rows.extend(_table_rows(scenario, results))
    table = _format_table(rows)
    model._atomic_write_text(os.path.join(out, "tracking_table.txt"), table)
    _dump_json({"rows": rows, "provenance": _provenance(cfg)},
               os.path.join(out, "tracking_metrics.json"))
    print(table, end="")
    return EXIT_OK


def cmd_perturb(args, cfg, resolved) -> int:
    setup = resolved["setup"]
    out = _out_dir(cfg, args)
    scenarios = [s for s in resolved["scenarios"] if s.kind == "load_perturbation"]
    scenario = scenarios[0] if scenarios else plant.Scenario.load_perturbation()
    res = control.run_perturbation(setup, scenario)
    _write_result_csv(os.path.join(out, "perturbation.csv"), res)
    summary = {
        "estimation": res.estimation,
        "length_rmse_m": res.meta["x_rmse"],
        "metrics_estimate_vs_truth": res.metrics.as_dict(),
        "provenance": _provenance(cfg),
    }
    _dump_json(summary, os.path.join(out, "perturb_summary.json"))
    e = res.estimation
    print(f"perturb: max|err|={e['max_abs_error']:.4f} N  rmse={e['rmse']:.4f} N  "
          f"drift={e['drift']:.5f} N")
    return EXIT_OK


_REPORT_FILES = ("estimate_metrics.json", "tracking_metrics.json",
                 "perturb_summary.json", "fit_dynamic_report.json",
                 "fit_inductance_report.json")


def cmd_report(args, cfg, resolved) -> int:
    out = _out_dir(cfg, args)
    sections = {}
    for name in _REPORT_FILES:
        path = os.path.join(out, name)
        if os.path.exists(path):
            with open(path) as fh:
                sections[name.rsplit(".", 1)[0]] = json.load(fh)
    doc = {"provenance": _provenance(cfg), "sections": sections}
    _dump_json(doc, os.path.join(out, "report.json"))
    lines = [f"coilsense report (version {__version__}, "
             f"config {doc['provenance']['config_hash']}, seed {doc['provenance']['seed']})"]
    for key in sorted(sections):
        lines.append(f"  - {key}")
    text = "\n".join(lines) + "\n"
    model._atomic_write_text(os.path.join(out, "report.txt"), text)
    print(text, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point

def _build_parser() -> _Parser:
    parser = _Parser(prog="coilsense",
                     description="Self-sensing actuator toolkit: fit, estimate, "
                                 "simulate, track, perturb, report.")
    parser.add_argument("--config", help="run configuration (JSON)")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", help="override the output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="identify model parameters from a dataset CSV")
    p.add_argument("--model", choices=("dynamic", "inductance"), required=True)
    p.add_argument("--data", help="dataset CSV (t,P,L[,F][,x])")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("estimate", help="run the observer over a dataset CSV")
    p.add_argument("--data", help="dataset CSV (t,P,L[,F][,x]) sampled at "
                                  "plant.sensor_rate_hz; the filter is the config's "
                                  "'filter' block")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("simulate", help="generate plant datasets for config scenarios")
    p.add_argument("--scenario", help="only this scenario name or kind")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("track", help="three-mode tracking comparison")
    p.add_argument("--scenario", help="only this scenario name")
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("perturb", help="load-perturbation robustness run")
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("report", help="aggregate metric files into a report")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = int(args.seed)
        resolved = validate_config(cfg)
        return args.func(args, cfg, resolved)
    except (ConfigError, model.EnvelopeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ident.DataFormatError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
