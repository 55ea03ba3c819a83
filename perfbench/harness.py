"""Shared pieces of the estimator benchmark.

Nothing here imports :mod:`repro` at module level, so the self-tests in
``test_harness.py`` run without the package.  The pieces are:

* timing statistics (:func:`summarize`, with the tail rule: the highest
  percentile that still has at least ten samples beyond it);
* a span tracer (:class:`Tracer`) and the table of public layer entry
  points it wraps (:data:`LAYERS`, :func:`install`);
* the derivation of per-layer metrics from tracer and kernel-counter
  documents (:func:`layer_metrics`);
* report digests and the accuracy figures (:func:`digest`,
  :func:`kolmogorov_to_samples`);
* seeded input generation (:func:`sweep_points`, :func:`service_schedule`);
* :func:`fork_call` (:func:`fork_start` + :func:`fork_join`), which runs
  a function in a forked child and returns its JSON result, so each
  measured operation starts without the in-process memos an earlier one
  left behind.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import math
import os
import random
import select
import signal
import statistics
import sys
import threading
import time
import traceback

#: Percentiles the tail rule chooses from, highest last.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: Samples that must lie beyond a percentile for it to be reported.
TAIL_MIN_BEYOND = 10


# --------------------------------------------------------------------- #
# Timing statistics
# --------------------------------------------------------------------- #


def _rank(pct: float, n: int) -> int:
    # The tolerance keeps 99.9% of 10000 at rank 9990 despite rounding.
    return max(1, math.ceil(pct * n / 100.0 - 1e-9))


def nearest_rank(sorted_values, pct: float):
    """The ``pct``-th percentile by the nearest-rank rule."""
    return sorted_values[_rank(pct, len(sorted_values)) - 1]


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with >= 10 of ``n`` samples beyond it."""
    best = None
    for pct in TAIL_LADDER:
        if n - _rank(pct, n) >= TAIL_MIN_BEYOND:
            best = pct
    return best


def summarize(values) -> dict:
    """Median, tail (by the tail rule) and sample count of timings."""
    ordered = sorted(values)
    if not ordered:
        return {"n": 0, "p50": None, "tail_pct": None, "tail": None}
    pct = tail_percentile(len(ordered))
    return {
        "n": len(ordered),
        "p50": statistics.median(ordered),
        "tail_pct": pct,
        "tail": nearest_rank(ordered, pct) if pct is not None else None,
    }


# --------------------------------------------------------------------- #
# CPU speed normalization
# --------------------------------------------------------------------- #

#: Iterations of the fixed pure-Python loop one speed sample times.
SPEED_LOOP = 2000
#: That loop's time on an uncontended CPU of the 2-CPU host the benchmark
#: was built on; a time scaled by ``SPEED_REF_S / sample`` is in seconds
#: at that speed.
SPEED_REF_S = 2.5e-4
#: CPU seconds of the sampled process between two speed samples.
SPEED_INTERVAL_S = 0.05


def speed_sample() -> float:
    """Seconds the fixed loop takes on the CPU the caller runs on now."""
    start = time.perf_counter()
    table = {}
    for i in range(SPEED_LOOP):
        table[i & 63] = table.get(i & 63, 0) + i
    return time.perf_counter() - start


class SpeedProbe:
    """Samples the speed of the CPU a process runs on while it works.

    A shared host can slow one virtual CPU by half or more for seconds at
    a time, and the slowdown is the same for the program and for a fixed
    loop on that CPU.  :meth:`start` times the loop on the main thread
    every :data:`SPEED_INTERVAL_S` of the process's own CPU time
    (``ITIMER_PROF``), which follows a single-threaded program from CPU
    to CPU.  :meth:`start_thread` times it every :data:`SPEED_INTERVAL_S`
    of wall time on a thread of its own, for a process whose work runs
    on other threads; pin such a process to one CPU, or the samples may
    see another CPU than the work.  Either costs about half a percent of
    the CPU time.
    """

    def __init__(self) -> None:
        self.samples: list = []  # (wall time, loop seconds)
        self._stopped = threading.Event()

    def _on_tick(self, signum, frame) -> None:
        self.samples.append((time.time(), speed_sample()))

    def _sample_loop(self) -> None:
        while not self._stopped.wait(SPEED_INTERVAL_S):
            self.samples.append((time.time(), speed_sample()))

    def start(self) -> "SpeedProbe":
        signal.signal(signal.SIGPROF, self._on_tick)
        signal.setitimer(
            signal.ITIMER_PROF, SPEED_INTERVAL_S, SPEED_INTERVAL_S
        )
        return self

    def start_thread(self) -> "SpeedProbe":
        threading.Thread(
            target=self._sample_loop, name="perfbench-speed", daemon=True
        ).start()
        return self

    def stop(self) -> list:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        self._stopped.set()
        return list(self.samples)


def speed_factor(samples, begin: float = float("-inf"),
                 end: float = float("inf")) -> float | None:
    """``SPEED_REF_S`` over the mean loop time sampled in ``[begin, end]``.

    Multiplying a wall time by it gives the time at the reference speed.
    ``samples`` are ``(wall time, loop seconds)`` pairs; ``None`` when
    none falls in the interval.
    """
    loops = [s for t, s in samples if begin <= t <= end]
    if not loops:
        return None
    return SPEED_REF_S / statistics.fmean(loops)


# --------------------------------------------------------------------- #
# Tracing
# --------------------------------------------------------------------- #


class Tracer:
    """Per-layer self time, call counts and counters of wrapped calls.

    A span's self time is its duration minus the time its child spans
    (on the same thread) cover, so a layer that calls another is not
    charged for the callee.  Spans are aggregated as they close; nothing
    per call is kept.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        #: Entry points :func:`install` could not find.
        self.missing: list = []
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.self_s: dict[str, float] = {}
            self.calls: dict[str, int] = {}
            self.counts: dict[str, float] = {}
            self.spans = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self):
        """Open a span; returns the token :meth:`exit` needs."""
        frame = [0.0]
        self._stack().append(frame)
        return frame, self.clock()

    def exit(self, layer: str, token) -> None:
        frame, start = token
        elapsed = self.clock() - start
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][0] += elapsed
        with self._lock:
            self.self_s[layer] = self.self_s.get(layer, 0.0) + elapsed - frame[0]
            self.calls[layer] = self.calls.get(layer, 0) + 1
            self.spans += 1

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0.0) + value

    def to_json(self) -> dict:
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
                "spans": self.spans,
                "missing": list(self.missing),
            }


def traced(tracer: Tracer, layer: str, fn, after=None):
    """``fn`` wrapped in a ``layer`` span; ``after(tracer, args, result)``
    records counters once the call returns."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token = tracer.enter()
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(layer, token)
        if after is not None:
            after(tracer, args, result)
        return result

    wrapper.__perfbench_original__ = fn
    return wrapper


def _count_calls(name):
    return lambda tracer, args, result: tracer.count(name, 1)


def _count_len(name, index):
    return lambda tracer, args, result: tracer.count(name, len(args[index]))


def _count_instructions(tracer, args, result):
    tracer.count("cpu.instructions", result.instructions)


def _count_store_get(tracer, args, result):
    tracer.count("store.gets", 1)
    tracer.count("store.hits", result is not None)


def _count_store_put(tracer, args, result):
    # ``put_entry`` returns the written path for an on-disk store and
    # ``None`` for an in-memory one: only disk bytes are counted.
    if result is not None:
        tracer.count("store.put_bytes", os.path.getsize(result))


#: ``(layer, module, qualified name, counter)`` for every wrapped public
#: entry point.  Names imported elsewhere by value are patched in every
#: ``repro`` module that holds them (see :func:`install`).
LAYERS = (
    ("netlist", "repro.pipeline.ir", "ProcessorConfig.build", None),
    ("netlist", "repro.core.processor", "ProcessorModel.derive", None),
    ("datapath", "repro.dta.trainer", "DatapathTrainer.train", None),
    ("datapath", "repro.dta.trainer", "DatapathTrainer.measure",
     _count_calls("datapath.measure_calls")),
    ("cpu", "repro.cpu.interpreter", "FunctionalSimulator.run",
     _count_instructions),
    ("dta", "repro.dta.characterize", "ControlCharacterizer.characterize",
     None),
    ("dta", "repro.dta.characterize",
     "ControlCharacterizer.characterize_many", _count_len("dta.windows", 1)),
    ("dta", "repro.dta.characterize", "characterize_grid",
     _count_len("dta.windows", 1)),
    ("logicsim", "repro.logicsim.simulator", "LevelizedSimulator.evaluate",
     None),
    ("apsel", "repro.dta.algorithm1", "StageDTSAnalyzer.ap_trace", None),
    ("apsel", "repro.dta.algorithm1", "StageDTSAnalyzer.ap_trace_grid", None),
    ("cov", "repro.variation.process", "ProcessVariationModel.path_cov", None),
    ("cov", "repro.variation.process",
     "ProcessVariationModel.path_cov_matrix", None),
    ("clark", "repro.sta.ssta", "statistical_min", None),
    ("clark", "repro.sta.ssta", "statistical_min_grid", None),
    ("clark", "repro.dta.algorithm1", "StageDTSAnalyzer.combine", None),
    ("clark", "repro.dta.algorithm1", "StageDTSAnalyzer.combine_grid", None),
    ("errormodel", "repro.core.errormodel",
     "InstructionErrorModel.all_block_probabilities", None),
    ("marginal", "repro.cfg.marginal", "MarginalSolver.solve", None),
    ("estimate", "repro.stats.stein", "stein_normal_bound", None),
    ("estimate", "repro.stats.chen_stein", "chen_stein_bound", None),
    ("store.get", "repro.pipeline.store", "ArtifactStore.get_entry",
     _count_store_get),
    ("store.put", "repro.pipeline.store", "ArtifactStore.put_entry",
     _count_store_put),
    ("montecarlo", "repro.core.montecarlo", "MonteCarloValidator.estimate",
     None),
)


def install(tracer: Tracer, layers=LAYERS) -> list:
    """Wrap every entry point of ``layers``.

    Returns the qualified names that no longer exist, which are skipped
    (their layer then reads 0) so a renamed function cannot break the
    traced run.
    """
    missing = []
    for layer, module_name, qualname, after in layers:
        module = importlib.import_module(module_name)
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = vars(owner).get(attr) if owner is not None else None
        if original is None:
            missing.append(f"{module_name}.{qualname}")
            continue
        wrapper = traced(tracer, layer, original, after)
        if owner_name:
            setattr(owner, attr, wrapper)
            continue
        for name, mod in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and (
                getattr(mod, attr, None) is original
            ):
                setattr(mod, attr, wrapper)
    tracer.missing = missing
    return missing


def span_cost_s(samples: int = 20000) -> float:
    """Measured cost of one traced call over a plain call, in seconds."""
    tracer = Tracer()

    def plain():
        return None

    wrapped = traced(tracer, "calibrate", plain)
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(samples):
            plain()
        base = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(samples):
            wrapped()
        best = min(best, (time.perf_counter() - start - base) / samples)
    return max(best, 0.0)


# --------------------------------------------------------------------- #
# Per-layer metrics
# --------------------------------------------------------------------- #

#: Every per-layer metric, in BENCHMARK.json order, with its unit.
LAYER_METRICS = {
    "import.s": "s",
    "netlist.s": "s",
    "netlist.calls": "count",
    "datapath.s": "s",
    "datapath.measure_calls": "count",
    "cpu.s": "s",
    "cpu.instructions": "count",
    "dta.s": "s",
    "dta.windows": "count",
    "logicsim.s": "s",
    "logicsim.cycle_gates": "count",
    "logicsim.activity_hit_frac": "ratio",
    "apsel.s": "s",
    "apsel.calls": "count",
    "cov.s": "s",
    "cov.calls": "count",
    "cov.cells": "count",
    "cov.hit_frac": "ratio",
    "clark.s": "s",
    "clark.reductions": "count",
    "clark.memo_hit_frac": "ratio",
    "errormodel.s": "s",
    "marginal.s": "s",
    "estimate.s": "s",
    "store.get_s": "s",
    "store.put_s": "s",
    "store.hit_frac": "ratio",
    "store.put_bytes": "bytes",
    "queue.wait_s": "s",
    "job.run_s": "s",
    "scheduler.coalesce_frac": "ratio",
    "scheduler.batches": "count",
    "scheduler.window_wait_ms": "ms",
    "http.submit_ms": "ms",
    "http.poll_ms": "ms",
    "montecarlo.s": "s",
    "loadgen.lag_ms": "ms",
    "trace.overhead_frac": "ratio",
}


def merge_docs(docs) -> dict:
    """Sum tracer documents (or kernel-counter dicts) key by key; lists
    are merged as sets."""
    total: dict = {}
    for doc in docs:
        for key, value in doc.items():
            if isinstance(value, list):
                total[key] = sorted(set(total.get(key, [])) | set(value))
            elif isinstance(value, dict):
                inner = total.setdefault(key, {})
                for name, v in value.items():
                    inner[name] = inner.get(name, 0) + v
            else:
                total[key] = total.get(key, 0) + value
    return total


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict, kernels: dict, ops: int,
                  extra: dict | None = None) -> dict:
    """Per-operation layer metrics from summed tracer/kernel documents.

    ``trace`` and ``kernels`` cover the ``ops`` timed operations; times
    and counts are divided by ``ops``, ratios are not.  ``extra`` holds
    metrics measured outside the tracer (import time, service timings,
    Monte Carlo time, generator lag, tracing overhead).
    """
    self_s = trace.get("self_s", {})
    calls = trace.get("calls", {})
    counts = trace.get("counts", {})
    k = kernels
    per = 1.0 / max(ops, 1)
    values = {
        "netlist.s": self_s.get("netlist", 0.0) * per,
        "netlist.calls": calls.get("netlist", 0) * per,
        "datapath.s": self_s.get("datapath", 0.0) * per,
        "datapath.measure_calls": counts.get("datapath.measure_calls", 0) * per,
        "cpu.s": self_s.get("cpu", 0.0) * per,
        "cpu.instructions": counts.get("cpu.instructions", 0) * per,
        "dta.s": self_s.get("dta", 0.0) * per,
        "dta.windows": counts.get("dta.windows", 0) * per,
        "logicsim.s": self_s.get("logicsim", 0.0) * per,
        "logicsim.cycle_gates": k.get("sim_cycle_gates", 0) * per,
        "logicsim.activity_hit_frac": _ratio(
            k.get("activity_cache_hits", 0),
            k.get("activity_cache_hits", 0) + k.get("activity_cache_misses", 0),
        ),
        "apsel.s": self_s.get("apsel", 0.0) * per,
        "apsel.calls": calls.get("apsel", 0) * per,
        "cov.s": self_s.get("cov", 0.0) * per,
        "cov.calls": calls.get("cov", 0) * per,
        "cov.cells": k.get("cov_cells_computed", 0) * per,
        "cov.hit_frac": _ratio(
            k.get("cov_cache_hits", 0),
            k.get("cov_cache_hits", 0) + k.get("cov_cells_computed", 0),
        ),
        "clark.s": self_s.get("clark", 0.0) * per,
        "clark.reductions": (
            k.get("clark_reductions", 0) + k.get("grid_clark_reductions", 0)
        ) * per,
        "clark.memo_hit_frac": _ratio(
            k.get("combine_memo_hits", 0), k.get("combine_calls", 0)
        ),
        "errormodel.s": self_s.get("errormodel", 0.0) * per,
        "marginal.s": self_s.get("marginal", 0.0) * per,
        "estimate.s": self_s.get("estimate", 0.0) * per,
        "store.get_s": self_s.get("store.get", 0.0) * per,
        "store.put_s": self_s.get("store.put", 0.0) * per,
        "store.hit_frac": _ratio(
            counts.get("store.hits", 0), counts.get("store.gets", 0)
        ),
        "store.put_bytes": counts.get("store.put_bytes", 0) * per,
    }
    out = {name: 0.0 for name in LAYER_METRICS}
    out.update(values)
    out.update(extra or {})
    return {name: float(out[name]) for name in LAYER_METRICS}


# --------------------------------------------------------------------- #
# Reports and accuracy
# --------------------------------------------------------------------- #


def digest(doc) -> str:
    """SHA-256 of a report document's canonical (sorted-key) JSON bytes."""
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def kolmogorov_to_samples(cdf, samples) -> float:
    """Kolmogorov distance between a CDF and the samples' empirical CDF.

    ``cdf`` maps an array of points to CDF values and may be a step
    function, so both sides of every sample point are compared: between
    two consecutive samples the empirical CDF is flat, and the largest
    gap to a non-decreasing ``cdf`` sits at an end of the interval.
    """
    import numpy as np

    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    points = np.unique(x)
    emp_right = np.searchsorted(x, points, side="right") / n
    emp_left = np.searchsorted(x, points, side="left") / n
    model_right = np.asarray(cdf(points), dtype=float)
    model_left = np.asarray(cdf(np.nextafter(points, -np.inf)), dtype=float)
    return float(
        max(
            np.max(np.abs(model_right - emp_right)),
            np.max(np.abs(model_left - emp_left)),
        )
    )


# --------------------------------------------------------------------- #
# Seeded inputs
# --------------------------------------------------------------------- #

SWEEP_RANGE = (1.02, 1.32)
#: The operating point every sweep contains (the accuracy point).
ACCURACY_POINT = 1.20


def sweep_points(seed: int, n: int = 16) -> list[float]:
    """``n - 1`` seeded points, one per equal slice of the sweep range,
    plus :data:`ACCURACY_POINT`; sorted and distinct."""
    rng = random.Random(f"warm-sweep/{seed}")
    lo, hi = SWEEP_RANGE
    width = (hi - lo) / (n - 1)
    points = {ACCURACY_POINT}
    for i in range(n - 1):
        while True:
            point = round(lo + width * (i + rng.random()), 4)
            if point not in points:
                points.add(point)
                break
    return sorted(points)


#: ``(kind, slot)`` of each arrival within a cycle, the slot as a fraction
#: of the cycle: two bursts, a repeat between them, and the
#: ``ooo-tomasulo`` job once the second burst has drained.  With bursts
#: the most numerous jobs, the median latency is a coalesced burst's.
SERVICE_SLOTS = (("burst", 0.0), ("repeat", 0.25), ("burst", 0.45),
                 ("ooo", 0.7))
#: Seeded jitter of a due time, as a fraction of the cycle.
SERVICE_JITTER = 0.05


def service_schedule(seed: int, seconds: float, *, cycle_s: float,
                     burst: int, base_point: float) -> list:
    """The seeded open-loop arrival schedule of the service mix.

    Each ``cycle_s`` slice of the run holds the arrivals of
    :data:`SERVICE_SLOTS`: bursts of ``burst`` single-point ``inorder6``
    jobs at new operating points (due at one instant, so the scheduler
    may coalesce them), one ``ooo-tomasulo`` job at a new point, and a
    repeat of the previous burst's first point (the base point before
    any burst), which a one-thread server has finished and stored by
    the time it runs the repeat.

    Every seed offers the same load: each new point is drawn from its
    own slice of the range, fixed by its position in the schedule, so
    the seed picks only the point within the slice and the jitter.

    Returns ``(due_offset_s, kind, core_family, speculation)`` tuples,
    sorted by due time.
    """
    rng = random.Random(f"service-mix/{seed}")
    lo, hi = SWEEP_RANGE
    cycles = max(1, int(seconds // cycle_s))
    bursts = cycles * sum(kind == "burst" for kind, _ in SERVICE_SLOTS)

    def point_in(stratum, strata):
        width = (hi - lo) / strata
        return round(lo + width * (stratum + rng.random()), 4)

    jobs = []
    burst_index, last_burst = 0, [base_point]
    for c in range(cycles):
        for kind, slot in SERVICE_SLOTS:
            due = cycle_s * (c + slot + SERVICE_JITTER * rng.random())
            if kind == "burst":
                # Point i of burst k sits in slice k + i * bursts, so
                # every burst spans the range.
                last_burst = [
                    point_in(burst_index + i * bursts, burst * bursts)
                    for i in range(burst)
                ]
                jobs.extend((due, kind, "inorder6", p) for p in last_burst)
                burst_index += 1
            elif kind == "ooo":
                jobs.append((due, kind, "ooo-tomasulo", point_in(c, cycles)))
            else:
                jobs.append((due, kind, "inorder6", last_burst[0]))
    jobs.sort(key=lambda job: job[0])
    return jobs


# --------------------------------------------------------------------- #
# Forked operations
# --------------------------------------------------------------------- #


class ChildFailed(RuntimeError):
    """A forked operation raised or died; carries its traceback."""


def fork_start(fn, *args):
    """Start ``fn(*args)`` in a forked child; :func:`fork_join` collects it.

    The child starts from the parent's imported modules but none of the
    state ``fn`` builds, so repeated calls never share in-process memos.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: reports any outcome and never returns
        status = 0
        try:
            os.close(read_fd)
            try:
                payload = {"ok": True, "value": fn(*args)}
            except BaseException:
                payload = {"ok": False, "error": traceback.format_exc()}
                status = 1
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(json.dumps(payload).encode())
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


def fork_join(handle, timeout: float = 170.0):
    """Wait for a :func:`fork_start` child; returns its JSON result."""
    pid, read_fd = handle
    deadline = time.monotonic() + timeout
    chunks = []
    try:
        while True:
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([read_fd], [], [], max(remaining, 0))
            if not ready:
                os.kill(pid, signal.SIGKILL)
                raise ChildFailed(f"forked child timed out after {timeout}s")
            chunk = os.read(read_fd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(read_fd)
        _, status = os.waitpid(pid, 0)
    raw = b"".join(chunks)
    if not raw:
        raise ChildFailed(f"forked child exited with status {status}")
    payload = json.loads(raw)
    if not payload["ok"]:
        raise ChildFailed(payload["error"])
    return payload["value"]


def fork_call(fn, *args, timeout: float = 170.0):
    """Run ``fn(*args)`` in a forked child and return its JSON result."""
    return fork_join(fork_start(fn, *args), timeout)
