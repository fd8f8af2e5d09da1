"""The benchmark's workloads: inputs, timed ``coilsense`` commands,
output checks and accuracy figures.

Every timed command goes through ``coilsense.cli.main`` with a config
file the workload writes, so the benchmark depends on the CLI and its
output files, not on internal APIs.  A command fails when it raises,
returns a non-zero exit code, or its output fails the command's check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time
import warnings
from dataclasses import dataclass

import numpy as np

from perfbench import reference


#: End-to-end metrics of an untraced run, in report order, with units.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
    ("error_pct", "%"),
)

#: Units of the figures: accuracy numbers, ``fail_frac`` and the raw times.
FIGURE_UNITS = {
    "force_nrmse_pct": "%",
    "length_nrmse_pct": "%",
    "selfsense_force_improvement_pct": "%",
    "selfsense_disp_improvement_pct": "%",
    "perturb_force_rmse_n": "N",
    "fit_rmse_uh": "uH",
    "fit_iterations": "count",
    "envelope_exits": "count",
    "error_pct": "%",
    "fail_frac": "ratio",
    "raw_setup_s": "s",
    "raw_wall_s": "s",
    "kernel_s": "s",
}


class CheckError(ValueError):
    """An output file is missing, unreadable or wrong."""


class SetupError(RuntimeError):
    """A workload's inputs could not be made, so nothing can be measured."""


@dataclass
class Command:
    """One timed CLI invocation and the check of what it wrote."""

    label: str
    argv: list
    check: object  # callable() -> None, raises CheckError


@dataclass
class CommandResult:
    label: str
    seconds: float
    ok: bool
    message: str = ""


@dataclass
class Workload:
    """A workload's set-up, which writes fresh inputs into a pass
    directory and returns the timed commands, and its ``figures``,
    which turn a pass's outputs into accuracy numbers (``error_pct``
    among them)."""

    setup: object     # callable(pass_dir, seed, cli) -> list[Command]
    figures: object   # callable(pass_dir) -> dict


# ---------------------------------------------------------------------------
# Running and checking commands

def run_command(cli, cmd: Command) -> CommandResult:
    """Run one command in-process and check its outputs.

    ``cli.main`` is looked up at call time so a tracer's rebinding of
    it is seen.  Console output is swallowed; a failure keeps its last
    line as the message.
    """
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(cmd.argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a raising command is a failed command, not a crashed benchmark
        return CommandResult(cmd.label, time.perf_counter() - t0, False,
                             f"raised {type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    if rc != 0:
        tail = sink.getvalue().strip().splitlines()[-1:] or [""]
        return CommandResult(cmd.label, seconds, False, f"exit code {rc}: {tail[0]}")
    try:
        cmd.check()
    except (CheckError, OSError, ValueError, KeyError, TypeError) as exc:
        return CommandResult(cmd.label, seconds, False, f"check failed: {exc}")
    return CommandResult(cmd.label, seconds, True)


def run_pass(workload: Workload, cli, pass_dir: str, seed: int, tracer=None) -> dict:
    """Set up fresh inputs in ``pass_dir``, then run and check every
    command; ``tracer`` (a context manager) spans both.  The reference
    kernel is sampled after set-up and after each command (``kernel_s``)."""
    os.makedirs(pass_dir)
    with tracer if tracer is not None else contextlib.nullcontext():
        t0 = time.perf_counter()
        commands = workload.setup(pass_dir, seed, cli)
        setup_s = time.perf_counter() - t0
        kernel_s = reference.sample(setup_s)
        results = []
        for cmd in commands:
            results.append(run_command(cli, cmd))
            kernel_s += reference.sample(results[-1].seconds)
    return {
        "setup_s": setup_s,
        "wall_s": sum(r.seconds for r in results),
        "kernel_s": kernel_s,
        "results": results,
        "digests": digests(pass_dir),
    }


def read_columns(path: str) -> dict:
    """Parse a numeric CSV with a header row into ``{column: array}``.

    The benchmark's own parser: ``coilsense.ident.read_csv`` rejects
    the extra ``F_hat,x_hat`` columns of ``estimates.csv``.
    """
    with open(path, encoding="utf-8") as fh:
        header = [h.strip() for h in fh.readline().split(",")]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # "no data" is checked below
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise CheckError(f"{path}: {exc}") from None
    if data.shape[0] == 0:
        raise CheckError(f"{path}: no data rows")
    if data.shape[1] != len(header):
        raise CheckError(f"{path}: {data.shape[1]} columns under a {len(header)}-column header")
    return {h: data[:, j] for j, h in enumerate(header)}


def read_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise CheckError(f"{path}: {exc}") from None


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def check_dataset(path: str, rows: int) -> None:
    cols = read_columns(path)
    _require(list(cols)[:3] == ["t", "P", "L"], f"{path}: header {list(cols)}")
    n = cols["t"].size
    _require(n == rows, f"{path}: {n} rows, expected {rows}")
    _require(all(np.isfinite(c).all() for c in cols.values()), f"{path}: non-finite value")


#: Share of the force span by which ``F_hat`` may leave the envelope
#: before a replay counts as diverged.  The Kalman posterior is not
#: clamped: at the parent commit it reaches -0.07 N on the 8 s cycle
#: and 5.41 N (F_max is 5 N) on the 4 s one, for every seed tried.
#: Those exits are counted in the ``envelope_exits`` figure instead.
ENVELOPE_SLACK = 0.2


def check_estimates(path: str, rows: int, F_min: float, F_max: float) -> None:
    """One row per input sample, finite ``x_hat``, and finite ``F_hat``
    inside the envelope widened by ``ENVELOPE_SLACK``."""
    cols = read_columns(path)
    for name in ("F_hat", "x_hat"):
        _require(name in cols, f"{path}: no {name} column")
    n = cols["F_hat"].size
    _require(n == rows, f"{path}: {n} rows for {rows} input samples")
    F_hat, x_hat = cols["F_hat"], cols["x_hat"]
    _require(np.isfinite(x_hat).all(), f"{path}: non-finite x_hat")
    _require(np.isfinite(F_hat).all(), f"{path}: non-finite F_hat")
    slack = ENVELOPE_SLACK * (F_max - F_min)
    lo, hi = F_min - slack, F_max + slack
    _require(bool(((F_hat >= lo) & (F_hat <= hi)).all()), f"{path}: F_hat outside [{lo}, {hi}]")


def check_tracking(path: str, rows: int) -> None:
    doc = read_json(path)
    got = doc["rows"]
    _require(len(got) == rows, f"{path}: {len(got)} rows, expected {rows}")
    _require(all(_finite(r["rmse"]) for r in got), f"{path}: non-finite rmse")


def check_perturb(path: str) -> None:
    doc = read_json(path)
    values = list(doc["estimation"].values()) + [doc["length_rmse_m"]]
    values += list(doc["metrics_estimate_vs_truth"].values())
    _require(all(_finite(v) for v in values), f"{path}: non-finite field")


def check_fit(path: str, n_coeffs: int) -> None:
    doc = read_json(path)
    _require(doc["converged"] is True, f"{path}: not converged")
    params = doc["params"]
    coeffs = params["p"] if "p" in params else list(params.values())
    _require(len(coeffs) == n_coeffs, f"{path}: {len(coeffs)} coefficients, expected {n_coeffs}")
    _require(all(_finite(v) for v in coeffs) and _finite(doc["rmse"]),
             f"{path}: non-finite coefficient or rmse")


def digests(root: str) -> dict:
    """sha256 of every file under ``root``, keyed by relative path."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for fname in files:
            path = os.path.join(dirpath, fname)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(out.items()))


def nrmse_pct(pred: np.ndarray, truth: np.ndarray) -> float:
    """RMSE as a percentage of the truth range."""
    return float(100.0 * np.sqrt(np.mean((pred - truth) ** 2)) / np.ptp(truth))


def _write_config(path: str, doc: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
    return path


def _setup_command(cli, argv: list, check) -> None:
    """A set-up command must succeed: without its inputs nothing can be measured."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        rc = cli.main(argv)
    if rc != 0:
        raise SetupError(f"set-up command {argv} exited {rc}: {sink.getvalue().strip()}")
    try:
        check()
    except (CheckError, OSError) as exc:
        raise SetupError(f"set-up command {argv}: {exc}") from None


# ---------------------------------------------------------------------------
# replay: batch estimation on two recorded cycles.  Signal, observer and
# model do nearly all the timed work, plant and control none, so an
# observer gain shows here first.

#: Cycle periods (s) of the two replayed datasets and their sample
#: counts at 100 Hz: the paper's 8 s cycle, and the 4 s cycle on which
#: the observer locks onto the falling branch.
REPLAY_CYCLES = ((8, 11200), (4, 5600))


def _force_envelope() -> tuple:
    """(F_min, F_max) of the program's default operating envelope."""
    from coilsense import plant
    env = plant.default_envelope()
    return env.F_min, env.F_max


def replay_setup(pass_dir: str, seed: int, cli) -> list:
    """Simulate both datasets with a noise-free load cell, so the F
    column is plant truth; inductance noise is unchanged because the
    plant draws both noise channels every step."""
    F_min, F_max = _force_envelope()
    commands = []
    for period, rows in REPLAY_CYCLES:
        cfg = _write_config(os.path.join(pass_dir, f"cycle{period}s.json"), {
            "seed": seed,
            "plant": {"noise_F": 0.0},
            "scenarios": [{"kind": "cyclic_estimation", "cycle_period_s": float(period)}],
        })
        data_dir = os.path.join(pass_dir, f"data{period}s")
        data = os.path.join(data_dir, "cyclic_estimation.csv")
        _setup_command(cli, ["--config", cfg, "--out", data_dir, "simulate"],
                       lambda data=data, rows=rows: check_dataset(data, rows))
        out = os.path.join(pass_dir, f"est{period}s")
        est = os.path.join(out, "estimates.csv")
        commands.append(Command(
            f"estimate cycle{period}s",
            ["--config", cfg, "--out", out, "estimate", "--data", data],
            lambda est=est, rows=rows: check_estimates(est, rows, F_min, F_max)))
    return commands


def replay_figures(pass_dir: str) -> dict:
    F_min, F_max = _force_envelope()
    F, x, F_hat, x_hat = [], [], [], []
    out = {"envelope_exits": 0}
    for period, _ in REPLAY_CYCLES:
        cols = read_columns(os.path.join(pass_dir, f"est{period}s", "estimates.csv"))
        out[f"force_nrmse_pct.cycle{period}s"] = nrmse_pct(cols["F_hat"], cols["F"])
        out["envelope_exits"] += int(((cols["F_hat"] < F_min) | (cols["F_hat"] > F_max)).sum())
        F.append(cols["F"])
        x.append(cols["x"])
        F_hat.append(cols["F_hat"])
        x_hat.append(cols["x_hat"])
    force = nrmse_pct(np.concatenate(F_hat), np.concatenate(F))
    out["force_nrmse_pct"] = force
    out["length_nrmse_pct"] = nrmse_pct(np.concatenate(x_hat), np.concatenate(x))
    out["error_pct"] = force
    return out


# ---------------------------------------------------------------------------
# closed_loop: three-mode tracking comparison and the perturbation run.
# The only workload with the isotonic plant solve, PID and both loop
# engines; the observer runs on every step.  The 0.05 Hz default
# scenarios run the same code for about 25 s each, so they are left out.

CLOSED_LOOP_SCENARIOS = ("force_sine_0.2Hz", "disp_sine_0.2Hz")


def closed_loop_setup(pass_dir: str, seed: int, cli) -> list:
    cfg = _write_config(os.path.join(pass_dir, "config.json"), {
        "seed": seed,
        "scenarios": [
            {"kind": "force_tracking", "waveform": "sine", "frequency_hz": 0.2},
            {"kind": "displacement_tracking", "waveform": "sine", "frequency_hz": 0.2},
            {"kind": "load_perturbation"},
        ],
    })
    out = os.path.join(pass_dir, "out")
    return [
        Command("track", ["--config", cfg, "--out", out, "track"],
                lambda: check_tracking(os.path.join(out, "tracking_metrics.json"),
                                       3 * len(CLOSED_LOOP_SCENARIOS))),
        Command("perturb", ["--config", cfg, "--out", out, "perturb"],
                lambda: check_perturb(os.path.join(out, "perturb_summary.json"))),
    ]


def closed_loop_figures(pass_dir: str) -> dict:
    out_dir = os.path.join(pass_dir, "out")
    rows = read_json(os.path.join(out_dir, "tracking_metrics.json"))["rows"]
    by_key = {(r["trajectory"], r["method"]): r for r in rows}
    force, disp = CLOSED_LOOP_SCENARIOS
    ratios = [100.0 * by_key[(s, "self_sensing")]["rmse"] / by_key[(s, "open_loop")]["rmse"]
              for s in CLOSED_LOOP_SCENARIOS]
    perturb = read_json(os.path.join(out_dir, "perturb_summary.json"))
    return {
        "selfsense_force_improvement_pct": by_key[(force, "self_sensing")]["improvement_pct"],
        "selfsense_disp_improvement_pct": by_key[(disp, "self_sensing")]["improvement_pct"],
        "perturb_force_rmse_n": perturb["estimation"]["rmse"],
        "error_pct": sum(ratios) / len(ratios),
    }


# ---------------------------------------------------------------------------
# calibrate: simulate the calibration grid, then fit both models.  No
# observer runs, so an observer change must leave it unchanged; the only
# workload with the CSV write-then-read round trip and the trust-region fit.

CALIBRATION_ROWS = 25200


def calibrate_setup(pass_dir: str, seed: int, cli) -> list:
    cfg = _write_config(os.path.join(pass_dir, "config.json"), {
        "seed": seed,
        "scenarios": [{"kind": "calibration_grid"}],
    })
    out = os.path.join(pass_dir, "out")
    data = os.path.join(out, "calibration_grid.csv")
    return [
        Command("simulate", ["--config", cfg, "--out", out, "simulate"],
                lambda: check_dataset(data, CALIBRATION_ROWS)),
        Command("fit inductance",
                ["--config", cfg, "--out", out, "fit", "--model", "inductance", "--data", data],
                lambda: check_fit(os.path.join(out, "fit_inductance_report.json"), 10)),
        Command("fit dynamic",
                ["--config", cfg, "--out", out, "fit", "--model", "dynamic", "--data", data],
                lambda: check_fit(os.path.join(out, "fit_dynamic_report.json"), 3)),
    ]


def calibrate_figures(pass_dir: str) -> dict:
    out_dir = os.path.join(pass_dir, "out")
    report = read_json(os.path.join(out_dir, "fit_inductance_report.json"))
    L = read_columns(os.path.join(out_dir, "calibration_grid.csv"))["L"]
    return {
        "fit_rmse_uh": report["rmse"],
        "fit_iterations": report["iterations"],
        "error_pct": float(100.0 * report["rmse"] / np.ptp(L)),
    }


WORKLOADS = {
    "replay": Workload(replay_setup, replay_figures),
    "closed_loop": Workload(closed_loop_setup, closed_loop_figures),
    "calibrate": Workload(calibrate_setup, calibrate_figures),
}
