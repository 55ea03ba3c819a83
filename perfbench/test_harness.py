"""Self-tests of the benchmark harness (no estimator run needed).

Run with ``python3 -m pytest perfbench/test_harness.py -q`` from the
repository root.
"""

import sys
import threading
import time

import pytest

import harness
import workloads


# --------------------------------------------------------------------- #
# The tail rule
# --------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "n, pct",
    [(1, None), (10, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0),
     (99, 75.0), (100, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0),
     (10000, 99.9)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, pct):
    assert harness.tail_percentile(n) == pct
    if pct is not None:
        values = list(range(1, n + 1))
        beyond = [v for v in values if v > harness.nearest_rank(values, pct)]
        assert len(beyond) >= harness.TAIL_MIN_BEYOND


def test_summarize_reports_median_tail_and_count():
    summary = harness.summarize(range(100, 0, -1))
    assert summary == {"n": 100, "p50": 50.5, "tail_pct": 90.0, "tail": 90}
    assert harness.summarize([3.0, 1.0, 2.0])["tail"] is None


# --------------------------------------------------------------------- #
# CPU speed normalization
# --------------------------------------------------------------------- #


def test_speed_factor_scales_to_reference_speed_over_the_interval():
    ref = harness.SPEED_REF_S
    samples = [(0.0, ref), (1.0, 2 * ref), (2.0, 2 * ref), (3.0, ref)]
    # A CPU running at half speed: a wall time halves at reference speed.
    assert harness.speed_factor(samples, 1.0, 2.0) == pytest.approx(0.5)
    assert harness.speed_factor(samples) == pytest.approx(1 / 1.5)
    assert harness.speed_factor(samples, 4.0, 5.0) is None


@pytest.mark.parametrize("mode", ["start", "start_thread"])
def test_speed_probe_samples_while_the_process_works(mode):
    probe = getattr(harness.SpeedProbe(), mode)()
    deadline = time.process_time() + 0.3
    while time.process_time() < deadline:
        pass
    samples = probe.stop()
    assert len(samples) >= 2
    assert all(loop > 0 for _, loop in samples)
    time.sleep(2 * harness.SPEED_INTERVAL_S)
    assert len(probe.samples) == len(samples)  # stopped means stopped


# --------------------------------------------------------------------- #
# Span self time
# --------------------------------------------------------------------- #


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_nested_span_self_time_excludes_children():
    clock = FakeClock()
    tracer = harness.Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        inner()
        inner()
        clock.now += 1.0

    inner = harness.traced(tracer, "inner", leaf)
    outer = harness.traced(tracer, "outer", middle)
    outer()
    doc = tracer.to_json()
    assert doc["self_s"] == {"outer": 2.0, "inner": 4.0}
    assert doc["calls"] == {"outer": 1, "inner": 2}
    assert doc["spans"] == 3


def test_span_closes_when_the_wrapped_call_raises():
    clock = FakeClock()
    tracer = harness.Tracer(clock=clock)

    def boom():
        clock.now += 1.0
        raise ValueError("x")

    with pytest.raises(ValueError):
        harness.traced(tracer, "boom", boom)()
    after = harness.traced(tracer, "after", lambda: None)
    after()
    assert tracer.to_json()["self_s"] == {"boom": 1.0, "after": 0.0}


def test_install_wraps_by_name_and_skips_missing_entry_points():
    import types

    module = types.ModuleType("repro._perfbench_probe")
    user = types.ModuleType("repro._perfbench_user")

    def work(x):
        return x + 1

    class Engine:
        def step(self):
            return work(1)

    module.work, module.Engine, user.work = work, Engine, work
    sys.modules[module.__name__] = module
    sys.modules[user.__name__] = user
    try:
        tracer = harness.Tracer()
        missing = harness.install(tracer, (
            ("a", module.__name__, "work", None),
            ("b", module.__name__, "Engine.step", None),
            ("c", module.__name__, "Engine.gone", None),
            ("d", module.__name__, "Gone.step", None),
        ))
        assert missing == [f"{module.__name__}.Engine.gone",
                           f"{module.__name__}.Gone.step"]
        assert user.work(1) == 2 and Engine().step() == 2
        assert tracer.to_json()["calls"] == {"a": 1, "b": 1}
    finally:
        del sys.modules[module.__name__], sys.modules[user.__name__]


def test_counters_per_operation_and_ratios():
    trace = {
        "self_s": {"apsel": 4.0}, "calls": {"apsel": 8},
        "counts": {"store.hits": 3, "store.gets": 4}, "spans": 8,
    }
    kernels = {"combine_calls": 10, "combine_memo_hits": 5,
               "sim_cycle_gates": 100}
    metrics = harness.layer_metrics(trace, kernels, ops=2,
                                    extra={"import.s": 1.5})
    assert list(metrics) == list(harness.LAYER_METRICS)
    assert metrics["apsel.s"] == 2.0
    assert metrics["apsel.calls"] == 4.0
    assert metrics["logicsim.cycle_gates"] == 50.0
    assert metrics["clark.memo_hit_frac"] == 0.5
    assert metrics["store.hit_frac"] == 0.75
    assert metrics["import.s"] == 1.5
    assert metrics["datapath.s"] == 0.0


# --------------------------------------------------------------------- #
# Open-loop latency
# --------------------------------------------------------------------- #


class _Status:
    def __init__(self, job_id, finished_at, now):
        self.id = job_id
        self.finished_at = finished_at
        self.finished = now >= finished_at
        self.state = "done" if self.finished else "running"


class FakeFifoServer:
    """One worker, FIFO: a job starts when it arrives and the worker is
    free, and takes ``cost(request)`` seconds."""

    def __init__(self, cost):
        self.cost = cost
        self.free_at = 0.0
        self.finish = {}
        self._lock = threading.Lock()

    def submit(self, request):
        with self._lock:
            job_id = f"job-{len(self.finish)}"
            start = max(time.time(), self.free_at)
            self.free_at = start + self.cost(request)
            self.finish[job_id] = self.free_at
            return _Status(job_id, self.free_at, time.time())

    def jobs(self):
        with self._lock:
            now = time.time()
            return [_Status(j, f, now) for j, f in self.finish.items()]


def test_open_loop_latency_counts_queueing_behind_a_stall():
    # The first job stalls the server for 0.4 s; the next two are due
    # shortly after and each need only 0.01 s of service.
    server = FakeFifoServer(lambda req: 0.4 if req == "stall" else 0.01)
    jobs = [(0.0, "x", "stall", 0), (0.05, "x", "quick", 0),
            (0.10, "x", "quick", 0)]
    generator = workloads._LoadGenerator(
        server, jobs, time.time() + 0.05,
        make_request=lambda family, point: family, poll_interval=0.01,
    )
    generator.run(time.monotonic() + 10.0)
    latency = generator.latencies()
    assert len(latency) == 3
    by_index = {generator.sent[j]: s for j, s in latency.items()}
    assert by_index[0] >= 0.4
    # Measured from the due time, the quick jobs carry the stall.
    assert by_index[1] >= 0.35 - 0.01
    assert by_index[2] >= 0.30 - 0.01
    assert max(generator.lag_s) < 0.05


def test_burst_jobs_are_sent_together():
    server = FakeFifoServer(lambda req: 0.01)
    submitted = []
    submit = server.submit

    def recording_submit(request):
        submitted.append(time.time())
        return submit(request)

    server.submit = recording_submit
    jobs = [(0.0, "burst", "a", 0), (0.0, "burst", "b", 0),
            (0.05, "repeat", "c", 0)]
    generator = workloads._LoadGenerator(
        server, jobs, time.time() + 0.05,
        make_request=lambda family, point: family, poll_interval=0.01,
    )
    assert generator.lanes() == [[0, 2], [1]]
    generator.run(time.monotonic() + 10.0)
    assert len(generator.finished) == 3
    assert abs(submitted[0] - submitted[1]) < 0.02


# --------------------------------------------------------------------- #
# Correctness accounting
# --------------------------------------------------------------------- #


def test_perturbed_report_counts_as_failed():
    report = {"benchmark": "bitcount", "lam": {"mean": 12.5, "var": 0.25}}
    perturbed = {"benchmark": "bitcount",
                 "lam": {"mean": 12.500000000000002, "var": 0.25}}
    reordered = {"lam": {"var": 0.25, "mean": 12.5}, "benchmark": "bitcount"}
    expected = harness.digest(report)
    outcome = workloads.Outcome()
    outcome.check("same", harness.digest(reordered) == expected)
    outcome.check("perturbed", harness.digest(perturbed) == expected)
    assert (outcome.attempted, outcome.failed) == (2, 1)
    assert outcome.errors == ["perturbed: mismatch"]


# --------------------------------------------------------------------- #
# Seeded inputs and accuracy
# --------------------------------------------------------------------- #


def test_sweep_points_are_seeded_and_contain_the_accuracy_point():
    points = harness.sweep_points(7)
    assert points == harness.sweep_points(7)
    assert points != harness.sweep_points(8)
    assert len(set(points)) == 16 and harness.ACCURACY_POINT in points
    lo, hi = harness.SWEEP_RANGE
    assert all(lo <= p <= hi for p in points)


def test_service_schedule_is_seeded_with_fixed_load():
    kwargs = dict(cycle_s=5.0, burst=2, base_point=1.0)
    a = harness.service_schedule(1, 10.0, **kwargs)
    assert a == harness.service_schedule(1, 10.0, **kwargs)
    b = harness.service_schedule(2, 10.0, **kwargs)
    for schedule in (a, b):
        kinds = [kind for _, kind, _, _ in schedule]
        assert kinds.count("burst") == 8
        assert kinds.count("ooo") == 2 and kinds.count("repeat") == 2
        new = [(f, p) for _, k, f, p in schedule if k != "repeat"]
        assert len(set(new)) == len(new)
        for due, kind, _, point in schedule:
            if kind == "repeat":  # a finished point: base or earlier burst
                assert point == 1.0 or any(
                    k == "burst" and p == point and d < due
                    for d, k, _, p in schedule
                )
    assert a != b


def test_kolmogorov_distance_to_samples():
    import numpy as np

    def step_cdf(x):  # a point mass at 1.0
        return (np.asarray(x) >= 1.0).astype(float)

    assert harness.kolmogorov_to_samples(step_cdf, [1.0, 1.0]) == 0.0
    assert harness.kolmogorov_to_samples(step_cdf, [0.0, 2.0]) == 0.5
    assert harness.kolmogorov_to_samples(step_cdf, [2.0, 3.0]) == 1.0


def test_printed_metrics_match_benchmark_json():
    import json
    from pathlib import Path

    import run

    spec = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
    )
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == (
        harness.LAYER_METRICS
    )
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
