"""Tests of the benchmark's own machinery: span arithmetic, tracing of
absent names, output checks, and agreement with BENCHMARK.json."""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import tracing  # noqa: E402
from perfbench import workloads as wl  # noqa: E402


# ---------------------------------------------------------------------------
# Self time

def test_self_time_subtracts_direct_children_only():
    # root(10) -> a(5) -> b(2); root -> c(3)
    parent = np.array([-1, 0, 1, 0])
    duration = np.array([10.0, 5.0, 2.0, 3.0])
    np.testing.assert_allclose(tracing.self_times(parent, duration), [2.0, 3.0, 2.0, 3.0])


def test_self_time_of_leaf_is_its_duration():
    np.testing.assert_allclose(tracing.self_times(np.array([-1, -1]), np.array([1.5, 0.5])),
                               [1.5, 0.5])


@pytest.fixture
def fake_package():
    """``fakepkg.a`` defines outer() -> inner(); ``fakepkg.b`` aliases inner."""
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def inner():
        return 1

    def outer():
        return a.inner() + 1

    a.inner, a.outer = inner, outer
    b.inner = inner
    mods = {"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b}
    sys.modules.update(mods)
    yield a, b
    for name in mods:
        sys.modules.pop(name, None)


def test_tracer_records_nesting_and_restores(fake_package):
    a, b = fake_package
    original = a.inner
    tracer = tracing.Tracer(package="fakepkg", targets=(("a", "outer"), ("a", "inner")))
    with tracer:
        assert a.outer() == 2
        assert b.inner() == 1  # the alias is wrapped too
    assert a.inner is original and b.inner is original
    spans = tracer.spans()
    names = [spans.names[i] for i in spans.name_id]
    assert names == ["a.outer", "a.inner", "a.inner"]
    assert list(spans.parent) == [-1, 0, -1]
    assert spans.self_time[0] == pytest.approx(spans.duration[0] - spans.duration[1])
    assert list(spans.under("a.outer")) == [False, True, False]


def test_absent_names_are_reported_not_raised(fake_package):
    a, _ = fake_package
    tracer = tracing.Tracer(package="fakepkg",
                            targets=(("a", "outer"), ("a", "gone"), ("missing", "f"),
                                     ("a", "Thing.step")))
    with tracer:
        a.outer()
    assert tracer.absent == ["a.gone", "missing.f", "a.Thing.step"]
    values = tracing.layer_metrics(tracer.spans(), tracer.absent, iterations=0,
                                   overhead_pct=0.0)
    assert list(values) == [name for name, _ in tracing.PER_LAYER]
    assert values["trace.absent"] == 3
    assert values["observer.estimate_step.calls"] == 0
    assert values["model.eval_inductance.per_step"] == 0.0


def test_method_spans_are_named_by_drive_mode(fake_package):
    a, _ = fake_package

    class Thing:
        def step(self, P_cmd, dt, x_cmd=None, F_load=None):
            return P_cmd

    a.Thing = Thing
    tracer = tracing.Tracer(package="fakepkg", targets=(("a", "Thing.step"),))
    with tracer:
        t = Thing()
        t.step(0.1, 0.01, x_cmd=0.1)
        t.step(0.1, 0.01, 0.1)
        t.step(0.1, 0.01, F_load=1.0)
    spans = tracer.spans()
    names = [spans.names[i] for i in spans.name_id]
    assert names == ["a.step_kinematic", "a.step_kinematic", "a.step_isotonic"]


# ---------------------------------------------------------------------------
# Failed commands

class FakeCli:
    """Stands in for ``coilsense.cli``: returns ``rc`` or raises ``exc``."""

    def __init__(self, rc=0, exc=None):
        self.rc, self.exc = rc, exc

    def main(self, argv):
        if self.exc is not None:
            raise self.exc
        return self.rc


def _estimates(path: Path, rows: int, F_hat=1.0, extra_line="") -> Path:
    lines = ["t,P,L,F,x,F_hat,x_hat"]
    lines += [f"{0.01 * (i + 1)},0.1,5.0,1.0,0.1,{F_hat},0.1" for i in range(rows)]
    path.write_text("\n".join(lines) + "\n" + extra_line)
    return path


def _estimate_command(path: Path, rows: int) -> wl.Command:
    return wl.Command("estimate", [], lambda: wl.check_estimates(str(path), rows, 0.0, 5.0))


def test_good_estimates_pass(tmp_path):
    path = _estimates(tmp_path / "estimates.csv", 4)
    assert wl.run_command(FakeCli(), _estimate_command(path, 4)).ok


@pytest.mark.parametrize("corrupt", [
    lambda p: p.unlink(),                                     # missing
    lambda p: p.write_text(""),                               # empty
    lambda p: p.write_text(p.read_text()[:-20]),              # truncated row
    lambda p: _estimates(p, 3),                               # a row short
    lambda p: _estimates(p, 4, F_hat="nan"),                  # non-finite
    lambda p: _estimates(p, 4, F_hat=7.0),                    # diverged
    lambda p: _estimates(p, 4, extra_line="1,2,x,4,5,6,7\n"),  # unparsable
], ids=["missing", "empty", "truncated", "short", "nan", "diverged", "unparsable"])
def test_corrupted_or_missing_output_fails_the_command(tmp_path, corrupt):
    path = _estimates(tmp_path / "estimates.csv", 4)
    corrupt(path)
    res = wl.run_command(FakeCli(), _estimate_command(path, 4))
    assert not res.ok and res.message.startswith("check failed")


def test_nonzero_exit_or_exception_fails_the_command(tmp_path):
    path = _estimates(tmp_path / "estimates.csv", 4)
    cmd = _estimate_command(path, 4)
    assert not wl.run_command(FakeCli(rc=2), cmd).ok
    res = wl.run_command(FakeCli(exc=ValueError("boom")), cmd)
    assert not res.ok and "boom" in res.message


def test_json_report_checks(tmp_path):
    fit = tmp_path / "fit.json"
    fit.write_text(json.dumps({"converged": False, "rmse": 0.1, "params": {"p": [0.0] * 10}}))
    with pytest.raises(wl.CheckError):
        wl.check_fit(str(fit), 10)
    fit.write_text(json.dumps({"converged": True, "rmse": 0.1, "params": {"p": [0.0] * 9}}))
    with pytest.raises(wl.CheckError):
        wl.check_fit(str(fit), 10)
    track = tmp_path / "tracking.json"
    track.write_text(json.dumps({"rows": [{"rmse": 0.1}] * 5}))
    with pytest.raises(wl.CheckError):
        wl.check_tracking(str(track), 6)
    track.write_text("{")
    with pytest.raises(wl.CheckError):
        wl.check_tracking(str(track), 6)


def test_digests_change_with_content(tmp_path):
    (tmp_path / "a.txt").write_text("1")
    first = wl.digests(str(tmp_path))
    (tmp_path / "a.txt").write_text("2")
    assert wl.digests(str(tmp_path)) != first


# ---------------------------------------------------------------------------
# BENCHMARK.json

def test_benchmark_json_matches_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(wl.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(wl.WORKLOADS)
