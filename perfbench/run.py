"""Run one coilsense benchmark workload and print its metrics.

    python3 perfbench/run.py --workload replay --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout.  The package is imported from
``src/`` of that checkout; nothing needs installing.  The run repeats
the workload (set-up, then its timed ``coilsense`` commands) until
``--seconds`` have passed, checks every output, and prints as its last
line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics (medians over
the passes, at reference speed: see reference.py); ``--trace 1`` spends
half the time on untraced passes, then makes one traced pass and reports
the per-layer metrics.  Outputs,
spans and a results file go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy is first imported: with
# default OpenBLAS threading the inductance fit time varies by 2x.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

WORKLOAD_NAMES = ("replay", "closed_loop", "calibrate")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_coilsense():
    """Import ``coilsense.cli`` from this checkout; returns (module, seconds)."""
    if not os.path.isfile(os.path.join(SRC, "coilsense", "cli.py")):
        raise SystemExit(f"error: no coilsense sources under {SRC}")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import coilsense.cli as cli
    seconds = time.perf_counter() - t0
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported coilsense from {cli.__file__}, not {SRC}")
    return cli, seconds


def environment() -> dict:
    import numpy
    import scipy
    lines = 0
    for path in sorted(glob.glob(os.path.join(SRC, "coilsense", "*.py"))):
        with open(path, "rb") as fh:
            lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "src_lines": lines,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    cli, import_s = import_coilsense()
    sys.path.insert(0, ROOT)
    from perfbench import reference, tracing
    from perfbench.workloads import END_TO_END, FIGURE_UNITS, WORKLOADS, SetupError, run_pass
    reference.seconds()  # warm-up: the first calls bind numpy's lazily loaded routines

    workload = WORKLOADS[args.workload]
    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = environment()
    print(f"coilsense benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))

    budget = args.seconds / 2 if args.trace else args.seconds
    passes = []
    figures = None
    t_start = time.perf_counter()
    traced = None
    try:
        while not passes or time.perf_counter() - t_start < budget:
            pass_dir = os.path.join(work, f"pass{len(passes)}")
            rec = run_pass(workload, cli, pass_dir, args.seed)
            passes.append(rec)
            if figures is None and all(r.ok for r in rec["results"]):
                figures = workload.figures(pass_dir)
            if len(passes) > 1:
                shutil.rmtree(os.path.join(work, f"pass{len(passes) - 2}"))
        if args.trace:
            tracer = tracing.Tracer()
            traced = run_pass(workload, cli, os.path.join(work, "traced"), args.seed,
                              tracer=tracer)
            passes.append(traced)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    results = [r for rec in passes for r in rec["results"]]
    attempted = len(results)
    failed = sum(not r.ok for r in results)
    same_outputs = all(rec["digests"] == passes[0]["digests"] for rec in passes)
    correct = failed == 0 and same_outputs and figures is not None
    for k, rec in enumerate(passes):
        cmds = ", ".join(f"{r.label} {r.seconds:.3f} s {'ok' if r.ok else 'FAILED'}"
                         for r in rec["results"])
        tag = "traced" if rec is traced else f"pass {k}"
        print(f"{tag}: setup {rec['setup_s']:.3f} s, wall {rec['wall_s']:.3f} s [{cmds}]")
    for r in results:
        if not r.ok:
            print(f"failed: {r.label}: {r.message}", file=sys.stderr)
    if not same_outputs:
        print("failed: outputs differ between passes with the same seed", file=sys.stderr)

    untraced = [rec for rec in passes if rec is not traced]
    figures = dict(figures or {})
    figures["fail_frac"] = failed / attempted
    kernel_s = [k for rec in untraced for k in rec["kernel_s"]]
    speed = reference.speed_factor(kernel_s)
    figures["raw_setup_s"] = import_s + statistics.median(rec["setup_s"] for rec in untraced)
    figures["raw_wall_s"] = statistics.median(rec["wall_s"] for rec in untraced)
    figures["kernel_s"] = statistics.median(kernel_s)
    if args.trace:
        spans = tracer.spans()
        spans.save(os.path.join(work, "spans.npz"))
        traced_wall = traced["wall_s"] * reference.speed_factor(traced["kernel_s"])
        base = figures["raw_wall_s"] * speed
        values = tracing.layer_metrics(
            spans, tracer.absent, iterations=int(figures.get("fit_iterations", 0)),
            overhead_pct=100.0 * (traced_wall - base) / base)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in tracing.PER_LAYER}
        for label in tracer.absent:
            print(f"absent: {label} (its metrics read 0)")
    else:
        values = {
            "setup_s": figures["raw_setup_s"] * speed,
            "wall_s": figures["raw_wall_s"] * speed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - failed / attempted,
            "error_pct": figures.get("error_pct"),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    for name in sorted(figures):
        unit = FIGURE_UNITS[name.split(".")[0]]
        print(f"figure {name} = {figures[name]:.6g} {unit}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']} {m['unit']}")
    digest = passes[-1]["digests"]
    for path, sha in digest.items():
        print(f"sha256 {sha}  {path}")

    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    results_path = os.path.join(
        WORK, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "environment": env, "import_s": import_s,
                   "passes": [{"setup_s": rec["setup_s"], "wall_s": rec["wall_s"],
                               "kernel_s": rec["kernel_s"], "traced": rec is traced,
                               "commands": [vars(r) for r in rec["results"]]}
                              for rec in passes],
                   "figures": figures, "metrics": metrics, "digests": digest,
                   "absent": tracer.absent if args.trace else []},
                  fh, indent=2, sort_keys=True)
    print(f"results: {os.path.relpath(results_path, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
