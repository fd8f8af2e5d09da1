"""Outside-in span tracer for the coilsense benchmark.

The tracer wraps public functions of the ``coilsense`` modules by
rebinding their module (or class) attributes, including every alias a
module made with ``from .x import y``, so no source file is edited.
Spans live in memory as parallel arrays (name id, start, end, parent)
and are written out once, when the traced pass ends.

A target that no longer exists is recorded as absent instead of
failing the run; its metrics then read 0 and the run lists it.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

#: (module, attribute) pairs wrapped in a traced run.  ``Plant.step``
#: is split by drive mode into ``plant.step_kinematic`` and
#: ``plant.step_isotonic``.
TARGETS = (
    ("cli", "main"),
    ("ident", "read_csv"),
    ("ident", "write_csv"),
    ("ident", "fit_inductance"),
    ("ident", "fit_dynamic"),
    ("signal", "step"),
    ("observer", "make_observer_config"),
    ("observer", "estimate_step"),
    ("observer", "predict"),
    ("observer", "solve_pseudo_measurement"),
    ("observer", "update"),
    ("model", "eval_inductance"),
    ("model", "d_inductance_dF"),
    ("model", "invert_dynamic_length"),
    ("plant", "Plant.step"),
    ("plant", "run_scenario"),
    ("control", "pid_step"),
    ("control", "feedforward_pressure"),
    ("control", "identify_dynamic"),
    ("control", "run_tracking"),
    ("control", "run_perturbation"),
)

#: Real-time budget of one observer step: one sensor period at 100 Hz.
DEADLINE_S = 0.010

#: Per-layer metrics of a traced run, in report order, with their units.
PER_LAYER = (
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("ident.read_csv.total_s", "s"),
    ("ident.write_csv.total_s", "s"),
    ("ident.fit_inductance.total_s", "s"),
    ("ident.fit_inductance.iterations", "count"),
    ("ident.fit_dynamic.total_s", "s"),
    ("signal.step.calls", "count"),
    ("signal.step.self_us", "us"),
    ("observer.estimate_step.calls", "count"),
    ("observer.estimate_step.self_us", "us"),
    ("observer.estimate_step.p50_us", "us"),
    ("observer.estimate_step.p99_us", "us"),
    ("observer.deadline_misses", "count"),
    ("observer.predict.self_us", "us"),
    ("observer.solve_pseudo_measurement.self_us", "us"),
    ("observer.update.self_us", "us"),
    ("observer.make_observer_config.total_s", "s"),
    ("model.eval_inductance.per_step", "ratio"),
    ("model.eval_inductance.self_us", "us"),
    ("model.eval_inductance.calls_in_fit", "count"),
    ("model.eval_inductance.calls_in_plant", "count"),
    ("model.d_inductance_dF.per_step", "ratio"),
    ("model.d_inductance_dF.self_us", "us"),
    ("model.invert_dynamic_length.self_us", "us"),
    ("plant.step_kinematic.calls", "count"),
    ("plant.step_kinematic.self_us", "us"),
    ("plant.step_isotonic.calls", "count"),
    ("plant.step_isotonic.self_us", "us"),
    ("plant.run_scenario.total_s", "s"),
    ("control.pid_step.calls", "count"),
    ("control.pid_step.self_us", "us"),
    ("control.feedforward_pressure.self_us", "us"),
    ("control.run_tracking.self_s", "s"),
    ("control.run_perturbation.self_s", "s"),
    ("control.identify_dynamic.total_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("trace.absent", "count"),
)

_NO_PARENT = -1


def _kinematic(args, kwargs) -> bool:
    """True when a ``Plant.step(self, P_cmd, dt, x_cmd, F_load)`` call
    drives the length (x_cmd given) rather than balancing a load."""
    x_cmd = kwargs["x_cmd"] if "x_cmd" in kwargs else (args[3] if len(args) > 3 else None)
    return x_cmd is not None


class Tracer:
    """Records one span per call of each wrapped function.

    Single-threaded: spans nest on one stack.  Use as a context manager
    around the traced work; leaving it restores every rebound attribute.
    """

    def __init__(self, package: str = "coilsense", targets=TARGETS):
        self.package = package
        self.targets = targets
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [_NO_PARENT]
        self.absent: list[str] = []
        self._undo: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, pick):
        """Wrapper recording a span; ``pick(args, kwargs)`` gives its name id."""
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(pick(args, kwargs))
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                start[i] = t0
                stack.pop()

        return traced

    def _rebind(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> "Tracer":
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == self.package or n.startswith(self.package + "."))]
        for mod_name, attr in self.targets:
            label = f"{mod_name}.{attr}"
            module = sys.modules.get(f"{self.package}.{mod_name}")
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            fn = getattr(owner, fn_name, None) if owner is not None else None
            if not callable(fn):
                self.absent.append(label)
                continue
            if owner_name:  # a method: name the span by drive mode
                kin = self._name_id(f"{mod_name}.step_kinematic")
                iso = self._name_id(f"{mod_name}.step_isotonic")
                traced = self._wrap(fn, lambda a, k: kin if _kinematic(a, k) else iso)
                self._rebind(owner, fn_name, traced)
                continue
            nid = self._name_id(label)
            traced = self._wrap(fn, lambda a, k, nid=nid: nid)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._rebind(m, key, traced)
        return self

    def remove(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()

    def spans(self) -> "Spans":
        return Spans(self.names, np.frombuffer(self.name_id, dtype=np.int32).copy(),
                     np.frombuffer(self.parent, dtype=np.int64).copy(),
                     np.frombuffer(self.start, dtype=np.float64).copy(),
                     np.frombuffer(self.end, dtype=np.float64).copy())


class Spans:
    """Finished spans as arrays, in call order (a parent precedes its children)."""

    def __init__(self, names, name_id, parent, start, end):
        self.names = list(names)
        self.name_id = np.asarray(name_id, dtype=np.int64)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.start = np.asarray(start, dtype=float)
        self.end = np.asarray(end, dtype=float)
        self.duration = self.end - self.start
        self.self_time = self_times(self.parent, self.duration)

    def __len__(self) -> int:
        return int(self.name_id.size)

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self), dtype=bool)
        return self.name_id == self.names.index(name)

    def under(self, name: str) -> np.ndarray:
        """Spans that have a span called ``name`` among their ancestors."""
        target = self.names.index(name) if name in self.names else -2
        flag = np.zeros(len(self), dtype=bool)
        anc = self.parent.copy()
        live = anc >= 0
        while live.any():
            idx = np.nonzero(live)[0]
            flag[idx] |= self.name_id[anc[idx]] == target
            anc[idx] = self.parent[anc[idx]]
            live = anc >= 0
        return flag

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), name_id=self.name_id,
                 parent=self.parent, start=self.start, end=self.end)


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children of one parent never
    overlap and their durations add up.
    """
    parent = np.asarray(parent, dtype=np.int64)
    duration = np.asarray(duration, dtype=float)
    has = parent >= 0
    covered = np.bincount(parent[has], weights=duration[has], minlength=duration.size)
    return duration - covered


def _mean_us(values: np.ndarray) -> float:
    return float(values.mean() * 1e6) if values.size else 0.0


def layer_metrics(spans: Spans, absent, iterations: int, overhead_pct: float) -> dict:
    """The PER_LAYER metrics of one traced pass, as ``{name: value}``.

    ``iterations`` is the inductance fit's iteration count from its
    report (0 when the workload runs no fit).
    """
    out: dict = {}

    def calls(name):
        return int(spans.mask(name).sum())

    def self_us(name, where=None):
        m = spans.mask(name) if where is None else spans.mask(name) & where
        return _mean_us(spans.self_time[m])

    def total_s(name):
        return float(spans.duration[spans.mask(name)].sum())

    def self_s(name):
        return float(spans.self_time[spans.mask(name)].sum())

    n_cli = calls("cli.main")
    out["cli.main.calls"] = n_cli
    out["cli.main.self_s"] = self_s("cli.main") / n_cli if n_cli else 0.0
    for name in ("ident.read_csv", "ident.write_csv", "ident.fit_inductance", "ident.fit_dynamic"):
        out[f"{name}.total_s"] = total_s(name)
    out["ident.fit_inductance.iterations"] = int(iterations)
    out["signal.step.calls"] = calls("signal.step")
    out["signal.step.self_us"] = self_us("signal.step")

    step = spans.mask("observer.estimate_step")
    n_steps = int(step.sum())
    step_us = spans.duration[step] * 1e6
    out["observer.estimate_step.calls"] = n_steps
    out["observer.estimate_step.self_us"] = self_us("observer.estimate_step")
    out["observer.estimate_step.p50_us"] = float(np.percentile(step_us, 50)) if n_steps else 0.0
    out["observer.estimate_step.p99_us"] = float(np.percentile(step_us, 99)) if n_steps else 0.0
    out["observer.deadline_misses"] = int((spans.duration[step] > DEADLINE_S).sum())
    for name in ("observer.predict", "observer.solve_pseudo_measurement", "observer.update"):
        out[f"{name}.self_us"] = self_us(name)
    out["observer.make_observer_config.total_s"] = total_s("observer.make_observer_config")

    in_step = spans.under("observer.estimate_step")
    in_fit = spans.under("ident.fit_inductance")
    in_plant = spans.under("plant.step_kinematic") | spans.under("plant.step_isotonic")
    for name in ("model.eval_inductance", "model.d_inductance_dF"):
        n = int((spans.mask(name) & in_step).sum())
        out[f"{name}.per_step"] = n / n_steps if n_steps else 0.0
        out[f"{name}.self_us"] = self_us(name, in_step)
        if name == "model.eval_inductance":
            out[f"{name}.calls_in_fit"] = int((spans.mask(name) & in_fit).sum())
            out[f"{name}.calls_in_plant"] = int((spans.mask(name) & in_plant).sum())
    out["model.invert_dynamic_length.self_us"] = self_us("model.invert_dynamic_length")

    for name in ("plant.step_kinematic", "plant.step_isotonic"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_us"] = self_us(name)
    out["plant.run_scenario.total_s"] = total_s("plant.run_scenario")

    out["control.pid_step.calls"] = calls("control.pid_step")
    out["control.pid_step.self_us"] = self_us("control.pid_step")
    out["control.feedforward_pressure.self_us"] = self_us("control.feedforward_pressure")
    out["control.run_tracking.self_s"] = self_s("control.run_tracking")
    out["control.run_perturbation.self_s"] = self_s("control.run_perturbation")
    out["control.identify_dynamic.total_s"] = total_s("control.identify_dynamic")

    out["trace.overhead_pct"] = float(overhead_pct)
    out["trace.spans"] = len(spans)
    out["trace.absent"] = len(absent)
    return {name: out[name] for name, _ in PER_LAYER}
