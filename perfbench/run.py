"""kmirror benchmark: one workload per invocation.

    python3 perfbench/run.py --workload qn-toy --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs a fixed
number of operations, each once untraced and once traced, and prints
per-layer metrics. The last line of standard output is the result as one JSON object.
The library is imported from ``src/`` next to this directory; without it
the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# set-ups are timed before and after the measured loop, so that their
# median samples the machine's speed at both ends of the run
SETUP_REPEATS_BEFORE, SETUP_REPEATS_AFTER = 8, 7


def load_kmirror():
    """Import ``kmirror`` from this checkout's ``src/``; ``None`` if absent."""
    src = ROOT / "src"
    if not (src / "kmirror" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import kmirror

    if not Path(kmirror.__file__).resolve().is_relative_to(src.resolve()):
        return None
    return kmirror


def environment(workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setups(workloads, name: str, seed: int, repeats: int, calibration, setups: list):
    """Build the workload ``repeats`` times, appending ``(start_ns, took_ns)``
    to ``setups``; returns the last build."""
    for _ in range(repeats):
        w = None  # free the previous build so that every repetition allocates alike
        calibration.sample()
        t0 = time.perf_counter_ns()
        w = workloads.WORKLOADS[name](seed)
        setups.append((t0, time.perf_counter_ns() - t0))
    return w


def end_to_end(workloads, measure, name: str, seed: int, seconds: float):
    calibration = measure.Calibration()
    setups = []
    w = timed_setups(workloads, name, seed, SETUP_REPEATS_BEFORE, calibration, setups)
    workloads.km.reset_saturation_events()
    stats = measure.run_closed_loop(w, seconds, workloads.MIN_OPS, calibration)
    succeeded = len(stats.durations_ns)
    # with no step accepted the end state is the untouched initial one
    checks, quality = {}, None
    if succeeded:
        try:
            checks = w.end_checks()
            quality = w.quality()
        except Exception as exc:  # noqa: BLE001 - reported as a failed check
            checks[f"raised:{type(exc).__name__}"] = False
    failed_checks = [k for k, ok in checks.items() if not ok]
    rss = peak_rss_mb()
    w = None
    timed_setups(workloads, name, seed, SETUP_REPEATS_AFTER, calibration, setups)
    calibration.sample()

    setup_starts, setup_ns = np.array(setups).T
    metrics = {"setup_s": (float(np.median(setup_ns * calibration.factors(setup_starts))) / 1e9, "s")}
    raw_ms = np.asarray(stats.durations_ns) / 1e6
    op_ms = raw_ms * calibration.factors(stats.starts_ns)
    if succeeded:
        for q in (50, 95):
            value = measure.latency_percentile(stats.starts_ns, op_ms, stats.failed_starts_ns, q)
            if value != float("inf"):
                metrics[f"op_ms_p{q}"] = (float(value), "ms")
        metrics["points_per_s"] = (stats.points / (float(op_ms.sum()) / 1e3), "1/s")
    if quality is not None:
        metrics["test_loss"] = (quality["test_loss"], "nat")
        metrics["rmse"] = (quality["rmse"], "density")
        metrics["model_order"] = (quality["model_order"], "count")
    metrics["peak_rss_mb"] = (rss, "MB")
    attempted = stats.attempted + len(checks)
    failed = stats.failed + len(failed_checks)
    metrics["ops_ok_frac"] = (1.0 - failed / attempted, "frac")

    report = {
        "ops": stats.attempted,
        "ops_failed_frac": stats.failed / stats.attempted,
        "failures": dict(stats.failures),
        "failed_end_checks": failed_checks,
        "latency_samples": succeeded,
        "saturation_events": workloads.km.saturation_events(),
        "loop_s": stats.wall_ns / 1e9,
        "calibration_ms_median": float(np.median(calibration.took_ns)) / 1e6,
        "calibration_samples": len(calibration.took_ns),
        "raw_setup_s": float(np.median(setup_ns)) / 1e9,
        "raw_op_ms_p50": float(np.median(raw_ms)) if succeeded else None,
    }
    return metrics, attempted, failed, report, stats


def per_layer(workloads, measure, spans, name: str, seed: int):
    setup_tracer = spans.Tracer()
    with setup_tracer.patched(workloads.SETUP_TARGETS):
        w = workloads.WORKLOADS[name](seed)
    workloads.km.reset_saturation_events()
    tracer = spans.Tracer()
    untraced, traced = measure.run_paired(w, lambda: tracer.patched(workloads.LOOP_TARGETS), w.trace_ops)

    by_name, by_layer = spans.summarize(setup_tracer.spans, tracer.spans)
    c = tracer.counters
    metrics = {}
    # every wrapped function and layer is reported, zeros included
    traced_names = dict.fromkeys(name for _, _, name, _ in workloads.SETUP_TARGETS + workloads.LOOP_TARGETS)
    for fn in traced_names:
        metrics[f"{fn}.calls"] = (by_name[fn]["calls"], "count")
        metrics[f"{fn}.ms"] = (by_name[fn]["ms"], "ms")
    metrics["kernels.kernel_matrix.entries"] = (c["kernels.kernel_matrix.entries"], "count")
    metrics["kernels.kernel_matrix.bytes_computed"] = (c["kernels.kernel_matrix.bytes_computed"], "B")
    for layer in dict.fromkeys(fn.split(".", 1)[0] for fn in traced_names):
        metrics[f"{layer}.self_ms"] = (by_layer[layer], "ms")
    atoms_in = c["komp.atoms_in"]
    metrics["komp.atoms_in"] = (atoms_in, "count")
    metrics["komp.atoms_removed"] = (c["komp.atoms_removed"], "count")
    metrics["komp.prune_yield"] = (c["komp.atoms_removed"] / atoms_in if atoms_in else 0.0, "frac")
    metrics["komp.residual_over_budget_max"] = (c["komp.residual_over_budget_max"], "frac")
    metrics["rkhs.saturation_events"] = (workloads.km.saturation_events(), "count")
    top_level_ns = sum(end - start for _, start, end, parent in tracer.spans if parent < 0)
    metrics["trace.ops"] = (traced.attempted, "count")
    metrics["trace.untraced_ms"] = (untraced.busy_ns / 1e6, "ms")
    metrics["trace.top_level_ms"] = (top_level_ns / 1e6, "ms")
    metrics["trace.overhead_frac"] = (traced.busy_ns / untraced.busy_ns - 1.0, "frac")

    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed
    report = {
        "ops_per_pass": w.trace_ops,
        "ops_failed_frac": failed / attempted,
        "failures": dict(untraced.failures + traced.failures),
        "spans": len(setup_tracer.spans) + len(tracer.spans),
    }
    return metrics, attempted, failed, report, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["spppot-toy", "qn-toy", "query-2d"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if load_kmirror() is None:
        print(f"kmirror sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import measure
    import spans
    import workloads

    print("env " + json.dumps(environment(args.workload, args.seed)), flush=True)
    if args.trace:
        metrics, attempted, failed, report, stats = per_layer(workloads, measure, spans, args.workload, args.seed)
    else:
        metrics, attempted, failed, report, stats = end_to_end(
            workloads, measure, args.workload, args.seed, args.seconds
        )
    for key, tb in stats.first_traceback.items():
        print(f"first {key}:\n{tb}", file=sys.stderr)
    print("report " + json.dumps(report), flush=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
