"""The benchmark's three workloads.

Each workload function takes a :class:`Run` (arguments, scratch
directory, deadline) and fills in an :class:`Outcome`.  Program work
runs in separate processes: a fresh interpreter per cold estimate, a
forked child per sweep (so no sweep reuses another's in-process memos),
and a ``repro serve`` subprocess for the service mix.  Every report is
checked byte-for-byte against its expected form; a mismatch, an
exception or a timeout counts as a failed operation.

Timings are reported at the reference CPU speed: each program process
samples the speed of the CPU it runs on (:class:`harness.SpeedProbe`),
and a wall time is scaled by :func:`harness.speed_factor` of the samples
taken while it ran.  The wall times are kept in the context line.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import harness

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = ROOT / "tests" / "pipeline" / "golden_inorder6_bitcount.json"
EXPECTED = HERE / "expected.json"

#: Reduced processor of the sweep (``SMALL`` of benchmarks/test_sweep_grid).
SMALL_PIPELINE = dict(
    data_width=8, mult_width=4, shift_bits=3, ctrl_regs=10,
    cloud_gates=60, seed=7,
)
SWEEP_SHAPE = dict(
    workload="bitcount", train_instructions=20_000,
    max_instructions=30_000, seed=0,
)
SWEEP_DATA_SAMPLES = 32
#: Operating point the warm store is trained at (outside the sweep range,
#: so every sweep point needs a new control artifact).
WARM_POINT = 1.00
#: Monte Carlo ground truth at the accuracy point.
MC_CHIPS = 16
MC_WINDOWS_PER_BLOCK = 6

#: Service job shape: small budgets on the default (full-size) processor.
SERVICE_SHAPE = dict(
    workload="bitcount", train_instructions=2_000,
    max_instructions=3_000, seed=0,
)
SERVICE_BASE_POINT = 1.00
SERVICE_MIX = dict(cycle_s=9.5, burst=2)
SERVICE_POLL_S = 0.1

SETUP_REPEATS = 3
MIN_OPS = 3


@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    trace: bool
    workdir: Path
    deadline: float
    repin: bool = False

    def remaining(self, cap: float = 170.0) -> float:
        return max(1.0, min(cap, self.deadline - time.monotonic()))


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    #: Timings at the reference CPU speed, and as measured.
    latencies: list = field(default_factory=list)
    wall_latencies: list = field(default_factory=list)
    points: int = 0
    busy_s: float = 0.0
    #: Wall time of the traced program work (tracing-overhead base).
    traced_s: float = 0.0
    setup_s: list = field(default_factory=list)
    wall_setup_s: list = field(default_factory=list)
    rss_mb: list = field(default_factory=list)
    dk_error_rate: float | None = None
    mc_mean_err: float | None = None
    traces: list = field(default_factory=list)
    kernels: list = field(default_factory=list)
    layer_extra: dict = field(default_factory=dict)
    context: dict = field(default_factory=dict)

    def check(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"{what}: {detail or 'mismatch'}")
        return ok

    def fail(self, what: str, detail: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.errors.append(f"{what}: {detail}")


def _pinned(workload: str) -> dict:
    return json.loads(EXPECTED.read_text()).get(workload, {})


def _factor(samples, begin=float("-inf"), end=float("inf")) -> float:
    """Speed factor of ``samples`` in ``[begin, end]``; 1 without any."""
    factor = harness.speed_factor(samples, begin, end)
    return 1.0 if factor is None else factor


def _copy_store(src: Path, dst: Path) -> None:
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst)


def _child_env() -> dict:
    env = dict(os.environ)
    src = os.pathsep.join((str(ROOT / "src"), str(HERE)))
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


# --------------------------------------------------------------------- #
# Program-side bodies (run inside forked children)
# --------------------------------------------------------------------- #


def _small_config():
    from repro.netlist import PipelineConfig
    from repro.pipeline.ir import ProcessorConfig

    return ProcessorConfig(pipeline=PipelineConfig(**SMALL_PIPELINE))


def _sweep_request(speculation):
    from repro import api

    return api.build_request(speculation=speculation, **SWEEP_SHAPE)


def _service_request(family, speculation):
    from repro import api

    return api.build_request(
        speculation=speculation, core_family=family, **SERVICE_SHAPE
    )


def _report_doc(report) -> dict:
    from repro import api

    return api.report_to_json(report, include_timing=False)


def _tracing(trace: bool):
    if not trace:
        return None
    tracer = harness.Tracer()
    harness.install(tracer)
    return tracer


def _rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _monte_carlo(pipeline, request) -> list:
    """Per-chip error rates (percent) at ``request``'s operating point."""
    workload = request.resolve_workload()
    program, setup, _ = workload.run_spec(
        request.eval_scale, seed=request.eval_seed
    )
    validator = pipeline.pipeline_for(request.speculation).validator(
        n_chips=MC_CHIPS, windows_per_block=MC_WINDOWS_PER_BLOCK
    )
    truth = validator.estimate(
        program, setup=setup, max_instructions=request.max_instructions,
        seed=0,
    )
    return [100.0 * float(r) for r in truth.chip_error_rates]


def setup_sweep_store(store_dir: str, trace: bool) -> dict:
    """Warm a sweep store and compute the Monte Carlo ground truth."""
    from repro.pipeline.pipeline import EstimationPipeline
    from repro.pipeline.store import ArtifactStore

    tracer = _tracing(trace)
    probe = harness.SpeedProbe().start()
    start = time.perf_counter()
    pipeline = EstimationPipeline(
        _small_config(), store=ArtifactStore(store_dir),
        n_data_samples=SWEEP_DATA_SAMPLES,
    )
    pipeline.execute(_sweep_request(WARM_POINT))
    rates = _monte_carlo(pipeline, _sweep_request(harness.ACCURACY_POINT))
    return {
        "seconds": time.perf_counter() - start,
        "speed": probe.stop(),
        "mc_rates": rates,
        "trace": tracer.to_json() if tracer is not None else None,
    }


def timed_sweep(store_dir: str, points: list, trace: bool) -> dict:
    """One 16-point ``execute_grid`` sweep over a fresh store copy."""
    from repro.kernels import kernel_stats
    from repro.pipeline.pipeline import EstimationPipeline
    from repro.pipeline.store import ArtifactStore

    tracer = _tracing(trace)
    pipeline = EstimationPipeline(
        _small_config(), store=ArtifactStore(store_dir),
        n_data_samples=SWEEP_DATA_SAMPLES,
    )
    requests = [_sweep_request(p) for p in points]
    _ = pipeline.processor  # the base processor recipe is set-up work
    if tracer is not None:
        tracer.reset()
    before = kernel_stats().snapshot()
    probe = harness.SpeedProbe().start()
    start = time.perf_counter()
    grid = pipeline.execute_grid(requests)
    seconds = time.perf_counter() - start
    speed = probe.stop()
    docs = [_report_doc(r.report) for r in grid.results]
    return {
        "seconds": seconds,
        "speed": speed,
        "digests": [harness.digest(d) for d in docs],
        "accuracy_report": docs[points.index(harness.ACCURACY_POINT)],
        "kernels": kernel_stats().delta(before).to_json(),
        "trace": tracer.to_json() if tracer is not None else None,
        "rss_mb": _rss_mb(),
    }


def reference_sweep(store_dir: str, points: list) -> list:
    """Scalar ``execute`` of every sweep point: the expected digests."""
    from repro.pipeline.pipeline import EstimationPipeline
    from repro.pipeline.store import ArtifactStore

    pipeline = EstimationPipeline(
        _small_config(), store=ArtifactStore(store_dir),
        n_data_samples=SWEEP_DATA_SAMPLES,
    )
    return [
        harness.digest(_report_doc(pipeline.execute(_sweep_request(p)).report))
        for p in points
    ]


def accuracy_probe(store_dir: str, trace: bool) -> dict:
    """The accuracy point estimated on its own, plus its ground truth."""
    from repro.pipeline.pipeline import EstimationPipeline
    from repro.pipeline.store import ArtifactStore

    tracer = _tracing(trace)
    pipeline = EstimationPipeline(
        _small_config(), store=ArtifactStore(store_dir),
        n_data_samples=SWEEP_DATA_SAMPLES,
    )
    request = _sweep_request(harness.ACCURACY_POINT)
    doc = _report_doc(pipeline.execute(request).report)
    return {
        "report": doc,
        "mc_rates": _monte_carlo(pipeline, request),
        "trace": tracer.to_json() if tracer is not None else None,
    }


def warm_service_state(store_dir: str) -> dict:
    """Warm the service store for both core families at the base point."""
    from repro.pipeline.ir import ProcessorConfig
    from repro.pipeline.pipeline import EstimationPipeline
    from repro.pipeline.store import ArtifactStore

    probe = harness.SpeedProbe().start()
    start = time.perf_counter()
    pipeline = EstimationPipeline(
        ProcessorConfig(), store=ArtifactStore(store_dir)
    )
    for family in ("inorder6", "ooo-tomasulo"):
        pipeline.execute(_service_request(family, SERVICE_BASE_POINT))
    return {"seconds": time.perf_counter() - start, "speed": probe.stop()}


def reference_service(store_dir: str, keys: list) -> dict:
    """Scalar ``execute`` of every distinct service request."""
    from repro.pipeline.ir import ProcessorConfig
    from repro.pipeline.pipeline import EstimationPipeline
    from repro.pipeline.store import ArtifactStore

    pipeline = EstimationPipeline(
        ProcessorConfig(), store=ArtifactStore(store_dir)
    )
    return {
        f"{family}@{point}": harness.digest(
            _report_doc(pipeline.execute(_service_request(family, point)).report)
        )
        for family, point in keys
    }


# --------------------------------------------------------------------- #
# Shared parent-side helpers
# --------------------------------------------------------------------- #


def _accuracy(outcome: Outcome, report_doc: dict, mc_rates: list) -> None:
    from repro import api

    report = api.report_from_json(report_doc)
    mc_mean = statistics.fmean(mc_rates)
    outcome.dk_error_rate = harness.kolmogorov_to_samples(
        report.error_rate_cdf, mc_rates
    )
    outcome.mc_mean_err = abs(1.0 - report.error_rate_mean / mc_mean)


def _start_probe(run: Run):
    """Start the accuracy probe of a workload that does not sweep the
    accuracy point; it runs beside untimed work only."""
    return harness.fork_start(
        accuracy_probe, str(run.workdir / "accuracy-store"), run.trace
    )


def _finish_probe(run: Run, outcome: Outcome, handle) -> None:
    probe = harness.fork_join(handle, timeout=run.remaining(60.0))
    if probe["trace"] is not None:
        outcome.layer_extra["montecarlo.s"] = [
            probe["trace"]["self_s"].get("montecarlo", 0.0)
        ]
    pinned = _pinned("warm-sweep").get(f"{harness.ACCURACY_POINT}")
    if pinned is not None:
        outcome.check(
            "accuracy point", harness.digest(probe["report"]) == pinned,
            "report differs from the pinned accuracy-point digest",
        )
    _accuracy(outcome, probe["report"], probe["mc_rates"])


# --------------------------------------------------------------------- #
# cold-estimate
# --------------------------------------------------------------------- #


def _cold_process(run: Run, trace: bool) -> tuple[float, dict]:
    """Wall seconds of one cold estimate and the child's document."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "cold_child.py"), str(run.seed),
         "1" if trace else "0"],
        env=_child_env(), capture_output=True, text=True,
        timeout=run.remaining(120.0),
    )
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise harness.ChildFailed(proc.stderr[-2000:])
    return seconds, json.loads(proc.stdout.strip().splitlines()[-1])


def cold_estimate(run: Run, outcome: Outcome) -> None:
    # Set-up: what a fresh install pays before its first estimate: the
    # package byte-compiled afresh and imported in a new interpreter.
    install = (
        "import harness; probe = harness.SpeedProbe().start(); "
        "import compileall, json, sys; "
        "compileall.compile_dir(sys.argv[1], force=True, quiet=1); "
        "import repro.pipeline.pipeline, repro.cli; "
        "print(json.dumps(probe.stop()))"
    )
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", install, str(ROOT / "src" / "repro")],
            env=_child_env(), check=True, timeout=run.remaining(60.0),
            capture_output=True, text=True,
        )
        seconds = time.perf_counter() - start
        speed = json.loads(proc.stdout.strip().splitlines()[-1])
        outcome.wall_setup_s.append(seconds)
        outcome.setup_s.append(seconds * _factor(speed))

    # An untimed first process fills the OS caches; at seeds other than
    # 0 its report is the expected one (the same request run in a
    # separate process), at seed 0 the golden report is.
    probe = _start_probe(run)
    try:
        _, first = _cold_process(run, trace=False)
    finally:
        _finish_probe(run, outcome, probe)
    if run.seed == 0:
        expected = harness.digest(json.loads(GOLDEN.read_text()))
        outcome.check(
            "cold warm-up", harness.digest(first["report"]) == expected,
            "report differs from tests/pipeline/golden_inorder6_bitcount.json",
        )
    else:
        expected = harness.digest(first["report"])

    start = time.monotonic()
    while len(outcome.latencies) < MIN_OPS or (
        time.monotonic() - start < run.seconds
    ):
        try:
            seconds, doc = _cold_process(run, trace=run.trace)
        except (harness.ChildFailed, subprocess.TimeoutExpired) as exc:
            outcome.fail("cold estimate", str(exc)[-500:])
            if time.monotonic() - start > run.seconds:
                break
            continue
        outcome.check(
            "cold estimate", harness.digest(doc["report"]) == expected,
            "report differs from the expected cold report",
        )
        outcome.wall_latencies.append(seconds)
        outcome.latencies.append(seconds * _factor(doc["speed"]))
        outcome.points += 1
        outcome.busy_s += outcome.latencies[-1]
        outcome.traced_s += seconds
        outcome.rss_mb.append(doc["rss_mb"])
        outcome.kernels.append(doc["kernels"])
        if doc["trace"] is not None:
            outcome.traces.append(doc["trace"])
            outcome.layer_extra.setdefault("import.s", []).append(
                doc["import_s"]
            )


# --------------------------------------------------------------------- #
# warm-sweep
# --------------------------------------------------------------------- #


def warm_sweep(run: Run, outcome: Outcome) -> None:
    points = harness.sweep_points(run.seed)
    outcome.context["points"] = points
    setups = []
    for i in range(SETUP_REPEATS):
        setups.append(
            harness.fork_call(
                setup_sweep_store, str(run.workdir / f"setup-{i}"),
                run.trace, timeout=run.remaining(60.0),
            )
        )
        outcome.wall_setup_s.append(setups[-1]["seconds"])
        outcome.setup_s.append(
            setups[-1]["seconds"] * _factor(setups[-1]["speed"])
        )
    mc_rates = setups[0]["mc_rates"]
    outcome.check(
        "monte carlo", all(s["mc_rates"] == mc_rates for s in setups),
        "ground truth differs across set-up repetitions",
    )
    snapshot = run.workdir / "setup-0"
    mc_traces = [s["trace"] for s in setups if s["trace"] is not None]
    if mc_traces:
        outcome.layer_extra["montecarlo.s"] = [
            t["self_s"].get("montecarlo", 0.0) for t in mc_traces
        ]

    pinned = _pinned("warm-sweep")
    if run.seed == 0 and not run.repin and all(f"{p}" in pinned for p in points):
        expected = [pinned[f"{p}"] for p in points]
    else:
        reference_dir = run.workdir / "reference"
        _copy_store(snapshot, reference_dir)
        expected = harness.fork_call(
            reference_sweep, str(reference_dir), points,
            timeout=run.remaining(90.0),
        )
        if run.repin:
            outcome.context["pinned"] = {
                f"{p}": d for p, d in zip(points, expected)
            }

    start = time.monotonic()
    accuracy_doc = None
    while len(outcome.latencies) < MIN_OPS or (
        time.monotonic() - start < run.seconds
    ):
        store_dir = run.workdir / "sweep"
        _copy_store(snapshot, store_dir)
        try:
            doc = harness.fork_call(
                timed_sweep, str(store_dir), points, run.trace,
                timeout=run.remaining(90.0),
            )
        except harness.ChildFailed as exc:
            outcome.fail("sweep", str(exc)[-500:])
            if time.monotonic() - start > run.seconds:
                break
            continue
        for point, got, want in zip(points, doc["digests"], expected):
            outcome.check(
                f"sweep point {point}", got == want,
                "report differs from scalar execute",
            )
        outcome.wall_latencies.append(doc["seconds"])
        outcome.latencies.append(doc["seconds"] * _factor(doc["speed"]))
        outcome.points += len(points)
        outcome.busy_s += outcome.latencies[-1]
        outcome.traced_s += doc["seconds"]
        outcome.rss_mb.append(doc["rss_mb"])
        outcome.kernels.append(doc["kernels"])
        if doc["trace"] is not None:
            outcome.traces.append(doc["trace"])
        accuracy_doc = doc["accuracy_report"]
    if accuracy_doc is not None:
        _accuracy(outcome, accuracy_doc, mc_rates)


# --------------------------------------------------------------------- #
# service-mix
# --------------------------------------------------------------------- #


class _Server:
    """A ``repro serve`` subprocess started through ``serve.py``."""

    def __init__(self, run: Run, state_dir: Path) -> None:
        self.out = run.workdir / "server.json"
        self.log = open(run.workdir / "server.log", "w")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "serve.py"), str(self.out),
             "1" if run.trace else "0", "--", "--port", "0",
             "--state-dir", str(state_dir)],
            env=_child_env(), stdout=subprocess.PIPE, stderr=self.log,
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("serving on "):
            self.stop()
            raise harness.ChildFailed(f"server did not start: {line!r}")
        self.url = line.split()[2]

    def mark(self) -> None:
        self.proc.send_signal(signal.SIGUSR1)
        time.sleep(0.05)

    def stop(self) -> dict | None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()
        if self.out.exists():
            return json.loads(self.out.read_text())
        return None


class _LoadGenerator:
    """Open-loop load from two sender threads, then a completion poll.

    Jobs are sent at their due times whatever the server's state; the
    jobs of a burst (same due time) go out on both threads at once, so
    they reach the server together.  A job's latency runs from its due
    time to the server's finish timestamp, so a stalled server also
    delays every job queued behind it, and polling only after the last
    send loses no precision.
    """

    LANES = 2

    def __init__(self, client, jobs, start_wall: float,
                 make_request, poll_interval: float = SERVICE_POLL_S) -> None:
        self.client = client
        self.jobs = jobs
        self.start_wall = start_wall
        self.make_request = make_request
        self.poll_interval = poll_interval
        self.sent: dict = {}  # job id -> schedule index
        self.lag_s: list = []
        self.submit_s: list = []
        self.poll_s: list = []
        self.finished: dict = {}  # job id -> JobStatus
        self.errors: list = []
        self._lock = threading.Lock()

    def due(self, index: int) -> float:
        return self.start_wall + self.jobs[index][0]

    def lanes(self) -> list:
        """Schedule indices per sender; a burst is spread over lanes."""
        lanes = [[] for _ in range(self.LANES)]
        position, previous = 0, None
        for index, job in enumerate(self.jobs):
            position = position + 1 if job[0] == previous else 0
            previous = job[0]
            lanes[position % self.LANES].append(index)
        return lanes

    def _send(self, indices) -> None:
        for index in indices:
            _, _, family, point = self.jobs[index]
            delay = self.due(index) - time.time()
            if delay > 0:
                time.sleep(delay)
            lag = max(0.0, time.time() - self.due(index))
            t0 = time.perf_counter()
            try:
                status = self.client.submit(self.make_request(family, point))
            except Exception as exc:  # a refused job is a failed job
                with self._lock:
                    self.errors.append(f"submit {family}@{point}: {exc}")
                continue
            with self._lock:
                self.lag_s.append(lag)
                self.submit_s.append(time.perf_counter() - t0)
                self.sent[status.id] = index

    def _poll(self, deadline: float) -> None:
        while len(self.finished) < len(self.sent):
            if time.monotonic() > deadline:
                return
            t0 = time.perf_counter()
            statuses = self.client.jobs()
            self.poll_s.append(time.perf_counter() - t0)
            for status in statuses:
                if status.id in self.sent and status.finished:
                    self.finished[status.id] = status
            time.sleep(self.poll_interval)

    def latencies(self) -> dict:
        """Job id -> seconds from its due time to the server finishing it."""
        return {
            job_id: status.finished_at - self.due(self.sent[job_id])
            for job_id, status in self.finished.items()
        }

    def run(self, deadline: float) -> None:
        main, *others = self.lanes()
        helpers = [
            threading.Thread(target=self._send, args=(lane,),
                             name="perfbench-send")
            for lane in others
        ]
        for helper in helpers:
            helper.start()
        try:
            self._send(main)
        finally:
            for helper in helpers:
                helper.join()
        self._poll(deadline)


def service_mix(run: Run, outcome: Outcome) -> None:
    from repro.service import ServiceClient

    jobs = harness.service_schedule(
        run.seed, run.seconds, base_point=SERVICE_BASE_POINT, **SERVICE_MIX
    )
    keys = sorted({(family, point) for _, _, family, point in jobs} | {
        (f, SERVICE_BASE_POINT) for f in ("inorder6", "ooo-tomasulo")
    })
    state_dir = run.workdir / "state"
    reference_dir = run.workdir / "reference"

    # Set-up: warm the store for both families, start the server, and
    # let one job per family build the server's processor models.
    warm = harness.fork_call(
        warm_service_state, str(state_dir / "store"),
        timeout=run.remaining(90.0),
    )
    _copy_store(state_dir / "store", reference_dir)
    start, server_up = time.perf_counter(), time.time()
    server = _Server(run, state_dir)
    reports = {}  # key -> report digests returned by the server
    try:
        client = ServiceClient(server.url, timeout=60.0)
        for family in ("inorder6", "ooo-tomasulo"):
            key = f"{family}@{SERVICE_BASE_POINT}"
            status = client.submit(_service_request(family, SERVICE_BASE_POINT))
            result = client.wait(status.id, timeout=run.remaining(60.0), poll=0.02)
            reports.setdefault(key, []).append(
                harness.digest(_report_doc(result.report))
            )
        server_s, server_ready = time.perf_counter() - start, time.time()
        server.mark()
        before = client.metrics()

        start_wall = time.time() + 0.2
        generator = _LoadGenerator(client, jobs, start_wall, _service_request)
        generator.run(time.monotonic() + run.remaining(120.0) - 30.0)
        after = client.metrics()
        for job_id, status in generator.finished.items():
            if status.state == "done":
                _, _, family, point = jobs[generator.sent[job_id]]
                reports.setdefault(f"{family}@{point}", []).append(
                    harness.digest(_report_doc(client.result(job_id).report))
                )
    finally:
        shutdown = server.stop()

    # Expected reports: pinned digests at seed 0, else scalar execute
    # over the copy of the warm store taken before the server ran.
    probe = _start_probe(run)
    try:
        pinned = _pinned("service-mix")
        if run.seed == 0 and not run.repin and all(
            f"{family}@{point}" in pinned for family, point in keys
        ):
            expected = pinned
        else:
            expected = harness.fork_call(
                reference_service, str(reference_dir), keys,
                timeout=run.remaining(90.0),
            )
            if run.repin:
                outcome.context["pinned"] = expected
    finally:
        _finish_probe(run, outcome, probe)
    for key, digests in sorted(reports.items()):
        for got in digests:
            outcome.check(
                f"job {key}", got == expected.get(key),
                "report differs from scalar execute",
            )
    for error in generator.errors:
        outcome.fail("service job", error)

    # Set-up and job timings at the reference CPU speed: the server's
    # samples over the server's part of set-up and over each job from its
    # due time to its finish.
    speed = shutdown["speed"] if shutdown is not None else []
    outcome.wall_setup_s.append(warm["seconds"] + server_s)
    outcome.setup_s.append(
        warm["seconds"] * _factor(warm["speed"])
        + server_s * _factor(speed, server_up, server_ready)
    )
    latencies = generator.latencies()
    by_kind = {}
    finishes, queue_wait, run_s, intervals = [], [], [], []
    for job_id, index in generator.sent.items():
        _, kind, family, point = jobs[index]
        status = generator.finished.get(job_id)
        if status is None or status.state != "done":
            detail = "not finished in time" if status is None else (
                status.error or status.state
            )
            outcome.fail(f"{kind} job {family}@{point}", detail[-500:])
            continue
        finishes.append(status.finished_at)
        outcome.wall_latencies.append(latencies[job_id])
        outcome.latencies.append(latencies[job_id] * _factor(
            speed, generator.due(index), status.finished_at
        ))
        by_kind.setdefault(kind, []).append(round(outcome.latencies[-1], 3))
        queue_wait.append(status.started_at - status.submitted_at)
        run_s.append(status.finished_at - status.started_at)
        intervals.append((status.started_at, status.finished_at))
    outcome.points = len(finishes)
    if finishes:
        outcome.busy_s = max(finishes) - start_wall
    # Jobs of one coalesced batch share their run interval: count the
    # union of intervals as the server's busy time.
    busy, reach = 0.0, float("-inf")
    for begin, end in sorted(intervals):
        busy += max(0.0, end - max(begin, reach))
        reach = max(reach, end)
    outcome.traced_s = busy
    if shutdown is not None:
        outcome.rss_mb.append(shutdown["rss_mb"])
        outcome.kernels.append(shutdown["kernels"])
        if shutdown["trace"] is not None:
            outcome.traces.append(shutdown["trace"])
    delta = {
        k: after["batching"][k] - before["batching"][k]
        for k in ("batches_formed", "jobs_coalesced", "window_waits",
                  "window_wait_ms_total")
    }
    outcome.context["pool_plan"] = after.get("pool_plan")
    outcome.context["latency_s_by_kind"] = by_kind
    outcome.context["server_busy_frac"] = (
        busy / outcome.busy_s if outcome.busy_s else 0.0
    )
    extra = outcome.layer_extra
    extra["scheduler.coalesce_frac"] = [
        delta["jobs_coalesced"] / max(len(generator.sent), 1)
    ]
    extra["scheduler.batches"] = [delta["batches_formed"]]
    extra["scheduler.window_wait_ms"] = [
        delta["window_wait_ms_total"] / max(delta["window_waits"], 1)
    ]
    extra["loadgen.lag_ms"] = [1000.0 * max(generator.lag_s, default=0.0)]
    for name, values, scale in (
        ("queue.wait_s", queue_wait, 1.0),
        ("job.run_s", run_s, 1.0),
        ("http.submit_ms", generator.submit_s, 1000.0),
        ("http.poll_ms", generator.poll_s, 1000.0),
    ):
        if values:
            extra[name] = [scale * statistics.median(values)]


WORKLOADS = {
    "cold-estimate": cold_estimate,
    "warm-sweep": warm_sweep,
    "service-mix": service_mix,
}
