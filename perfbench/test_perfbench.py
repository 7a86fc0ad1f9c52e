"""Tests of the benchmark's own machinery.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import measure
import run
import spans
import workloads


def test_percentile_refuses_thin_tail():
    assert measure.percentile(range(200), 95) == 189
    with pytest.raises(ValueError, match="beyond"):
        measure.percentile(range(199), 95)
    assert measure.percentile(range(20), 50) == 9
    with pytest.raises(ValueError):
        measure.percentile(range(19), 50)


def test_self_time_of_nested_spans():
    synthetic = [
        ["optimizers.step", 0, 100, -1],
        ["komp.prune", 10, 30, 0],
        ["rkhs.evaluate_dual_many", 25, 50, 0],  # overlaps its sibling by 5
        ["kernels.kernel_matrix", 12, 20, 1],
        ["kernels.kernel_matrix", 60, 70, 0],
    ]
    assert spans.self_times(synthetic) == [100 - 40 - 10, 20 - 8, 25, 8, 10]
    by_name, by_layer = spans.summarize([[n, s * 10**6, e * 10**6, p] for n, s, e, p in synthetic])
    assert by_name["kernels.kernel_matrix"] == {"calls": 2, "ms": 18.0}
    assert by_layer == {"optimizers": 50.0, "komp": 12.0, "rkhs": 25.0, "kernels": 18.0}


class _Module:
    @staticmethod
    def inner(x):
        return x + 1

    @classmethod
    def outer(cls, x):
        return cls.inner(x) * 2


def test_tracer_links_parents_and_restores_originals():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: next(ticks))
    original = _Module.inner
    targets = [(_Module, "outer", "a.outer", None), (_Module, "inner", "b.inner", None)]
    with tracer.patched(targets):
        assert _Module.outer(1) == 4
    assert _Module.inner is original
    assert [(name, parent) for name, _, _, parent in tracer.spans] == [("a.outer", -1), ("b.inner", 0)]


class _Stepper:
    """Adds each input to its state; raises on every third call and fails
    its output check on every fifth input."""

    def __init__(self):
        self.state = 0
        self.calls = 0

    def next_input(self, i):
        return np.array([i])

    def call(self, x):
        self.calls += 1
        if self.calls % 3 == 0:
            raise ZeroDivisionError("stepper failed")
        return self.state + int(x[0])

    def check(self, x, out):
        return "fifth" if int(x[0]) % 5 == 4 else None

    def commit(self, out):
        self.state = out


def test_failing_steps_are_counted_not_skipped():
    stepper = _Stepper()
    stats = measure.run_closed_loop(stepper, 0.0, 30, measure.Calibration())
    raised = {i for i in range(30) if (i + 1) % 3 == 0}
    bad_check = {i for i in range(30) if i % 5 == 4} - raised
    assert stats.attempted == 30
    assert stats.failures == {"ZeroDivisionError": len(raised), "check:fifth": len(bad_check)}
    assert len(stats.durations_ns) == 30 - len(raised) - len(bad_check)
    assert stepper.state == sum(set(range(30)) - raised - bad_check)
    # 16 of 30 succeeded: a failed call counts as infinitely slow
    assert len(stats.failed_starts_ns) == stats.failed
    durations_ms = [d / 1e6 for d in stats.durations_ns]
    args = (stats.starts_ns, durations_ms, stats.failed_starts_ns)
    assert math.isfinite(measure.latency_percentile(*args, 50))
    assert measure.latency_percentile(*args, 60) == math.inf


def test_latency_tail_is_the_median_over_windows():
    # 30 windows of 200 calls at 1 ms; two of them hit a burst at 100 ms,
    # which is 6.7% of all calls and so sets the run's overall p95
    durations = np.ones(6000)
    durations[1000:1400] = 100.0
    starts = np.arange(6000) * 10
    assert measure.percentile(durations, 95) == 100.0
    assert measure.latency_percentile(starts, durations, [], 95) == 1.0
    # two failures after every call put every window's median on a failure
    failed = np.concatenate([starts + 3, starts + 6])
    assert measure.latency_percentile(starts, durations, failed, 50) == math.inf
    with pytest.raises(ValueError, match="beyond"):
        measure.latency_percentile(starts[:199], durations[:199], [], 95)


def test_calibration_scales_by_host_speed_around_each_moment():
    cal = measure.Calibration()
    ref = cal.REFERENCE_NS
    # the host runs at reference speed until t=1000, then at half speed
    cal.at_ns = [100 * k for k in range(20)]
    cal.took_ns = [ref] * 10 + [2 * ref] * 10
    assert np.allclose(cal.factors([0, 450, 1450, 1900, 5000]), [1.0, 1.0, 0.5, 0.5, 0.5])
    assert cal.factors([850])[0] == 1.0  # two of the five samples around it are slow


def test_query_reference_catches_perturbed_result():
    rng = np.random.default_rng(0)
    atoms = rng.uniform(size=(50, 2))
    weights = rng.uniform(-0.05, 0.05, size=50)
    points = rng.uniform(size=(256, 2))
    d2 = np.sum((points[:, None, :] - atoms[None, :, :]) ** 2, axis=-1)
    served = np.exp(np.exp(-d2 / 0.02) @ weights)
    assert workloads.reference_mismatch(points, atoms, weights, 0.01, served) is None
    row = workloads.QUERY_REF_ROWS[2]
    for bad in (served[row] * (1 + 1e-7), np.nan):
        perturbed = served.copy()
        perturbed[row] = bad
        assert workloads.reference_mismatch(points, atoms, weights, 0.01, perturbed) is not None


def test_metric_names_match_benchmark_json(monkeypatch):
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    monkeypatch.setattr(run, "SETUP_REPEATS_BEFORE", 1)
    monkeypatch.setattr(run, "SETUP_REPEATS_AFTER", 1)
    monkeypatch.setattr(workloads.QnToy, "trace_ops", 3)
    metrics, attempted, failed, _, _ = run.end_to_end(workloads, measure, "qn-toy", 1, 0.0)
    assert failed == 0
    assert list(metrics) == [m["name"] for m in spec["end_to_end"]]
    assert [u for _, u in metrics.values()] == [m["unit"] for m in spec["end_to_end"]]
    metrics, _, failed, _, _ = run.per_layer(workloads, measure, spans, "qn-toy", 1)
    assert failed == 0
    assert list(metrics) == [m["name"] for m in spec["per_layer"]]
    assert [u for _, u in metrics.values()] == [m["unit"] for m in spec["per_layer"]]
