"""Experiment ``service`` — the estimation job server.

Measures what the serving layer adds on top of the staged pipeline and
writes the numbers to ``BENCH_service.json`` at the repository root:

* **Cold vs. warm latency**: end-to-end (submit → result over a real
  socket) wall time for the first job of a workload vs. an identical
  resubmission served from the shared artifact store.  The warm path
  must re-train with zero logic simulations — that reuse is the whole
  reason a multi-tenant server beats per-tenant processes.
* **Warm throughput**: jobs/sec over a batch of store-hit jobs with
  batching *disabled* (``batch_window_ms=0``) — the strict
  job-at-a-time baseline the scheduler must never lose to.
* **Batched throughput**: the same warm job mix submitted by M
  concurrent tenants against a micro-batching service: the scheduler
  coalesces the compatible singles into shared grid passes, so the
  batch pays one evaluation simulation instead of M.  Batches run on
  the service's dispatch thread: batching wins by sharing the
  evaluation pass, not by running jobs in parallel.
* **Never-lose gate**: both services stay up, warmed, and the two
  throughputs are measured in :data:`PAIRS` pairs whose order alternates
  (warm first, then batched first, ...), so host-speed drift falls on
  both sides alike.  Batched must win the median pair ratio, that is at
  least 3 of the 5 pairs.  If batched wins a single pair with probability
  ``p``, the gate passes with probability ``P(Binomial(5, p) >= 3)``:
  0.97 at ``p = 0.85``, where one comparison would pass 0.85 of the time;
  and a batched path that loses a pair with ``p = 0.85`` passes only
  0.03 of the time.
* **HTTP overhead**: mean status-poll round-trip, bounding what the
  wire layer costs relative to the estimation itself.

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_service.py -q``.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import tempfile
import threading
import time

from conftest import print_table
from repro import api
from repro.netlist import PipelineConfig
from repro.pipeline.ir import ProcessorConfig
from repro.service import EstimationService, ServiceClient

#: Single canonical output location — CI uploads the repo-root file.
REPO_ROOT = pathlib.Path(__file__).parent.parent

SMALL = ProcessorConfig(
    pipeline=PipelineConfig(
        data_width=8, mult_width=4, shift_bits=3, ctrl_regs=10,
        cloud_gates=60, seed=7,
    )
)
WORKLOAD = "bitcount"
WARM_JOBS = 8
BATCH_WINDOW_MS = 50.0
#: Alternating (unbatched, batched) measurement pairs of the gate.
PAIRS = 5


def _request(seed=0):
    return api.build_request(
        workload=WORKLOAD,
        train_instructions=4_000,
        max_instructions=6_000,
        seed=seed,
    )


def _timed_job(client, request):
    start = time.perf_counter()
    status = client.submit(request)
    result = client.wait(status.id, timeout=300, poll=0.02)
    return time.perf_counter() - start, result


def _concurrent_tenants(client, n):
    """N tenants submit the same request at once; returns the results
    and the submit-to-last-result wall time."""
    ids = [None] * n
    start = time.perf_counter()

    def _submit(i):
        ids[i] = client.submit(_request()).id

    threads = [
        threading.Thread(target=_submit, args=(i,)) for i in range(n)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    results = [client.wait(i, timeout=300, poll=0.02) for i in ids]
    return results, time.perf_counter() - start


def _warm_throughput(client):
    """Drain a warm batch submitted back to back: (seconds, results,
    jobs)."""
    start = time.perf_counter()
    jobs = [client.submit(_request()) for _ in range(WARM_JOBS)]
    results = [client.wait(job.id, timeout=300, poll=0.02) for job in jobs]
    return time.perf_counter() - start, results, jobs


def test_service_benchmark():
    state_dir = pathlib.Path(tempfile.mkdtemp(prefix="repro-bench-service-"))

    # The unbatched baseline (batching disabled) and the micro-batching
    # service, each on its own state dir (queue + store).
    service = EstimationService(
        state_dir / "unbatched", config=SMALL, port=0, workers=1,
        n_data_samples=32, batch_window_ms=0,
    )
    batched_service = EstimationService(
        state_dir / "batched", config=SMALL, port=0, workers=1,
        n_data_samples=32, batch_window_ms=BATCH_WINDOW_MS,
    )
    with service.start_in_thread(), batched_service.start_in_thread():
        client = ServiceClient(f"http://127.0.0.1:{service.port}")
        batched_client = ServiceClient(
            f"http://127.0.0.1:{batched_service.port}"
        )

        cold_s, cold = _timed_job(client, _request())
        warm_s, warm = _timed_job(client, _request())
        # Untimed warm-up of the batched service's store and pipelines.
        _concurrent_tenants(batched_client, WARM_JOBS)

        pairs = []
        results = []
        batched_results = []
        for i in range(PAIRS):
            pair = {}
            for phase in ("warm", "batched")[:: 1 if i % 2 == 0 else -1]:
                if phase == "warm":
                    seconds, phase_results, jobs = _warm_throughput(client)
                    results.extend(phase_results)
                else:
                    phase_results, seconds = _concurrent_tenants(
                        batched_client, WARM_JOBS
                    )
                    batched_results.extend(phase_results)
                pair[f"{phase}_batch_s"] = round(seconds, 3)
                pair[f"{phase}_jobs_per_s"] = round(WARM_JOBS / seconds, 2)
            pair["ratio"] = round(
                pair["batched_jobs_per_s"] / pair["warm_jobs_per_s"], 3
            )
            pairs.append(pair)

        # Pure wire overhead: status polls of a finished job.
        polls = []
        for _ in range(20):
            t0 = time.perf_counter()
            client.status(jobs[-1].id)
            polls.append(time.perf_counter() - t0)
        poll_ms = 1000.0 * statistics.mean(polls)

        stats = client.store_stats()
        metrics = batched_client.metrics()

    batch_s = statistics.median(p["warm_batch_s"] for p in pairs)
    jobs_per_s = statistics.median(p["warm_jobs_per_s"] for p in pairs)
    batched_s = statistics.median(p["batched_batch_s"] for p in pairs)
    batched_jobs_per_s = statistics.median(
        p["batched_jobs_per_s"] for p in pairs
    )
    median_ratio = statistics.median(p["ratio"] for p in pairs)
    wins = sum(p["ratio"] >= 1.0 for p in pairs)
    batching = metrics["batching"]
    # Every batched-service job, the warm-up round included.
    coalesce_rate = batching["jobs_coalesced"] / (WARM_JOBS * (PAIRS + 1))

    doc = {
        "schema": "repro.bench-service/4",
        "workload": WORKLOAD,
        "config": "reduced (engine test-suite shape)",
        "cold_latency_s": round(cold_s, 3),
        "warm_latency_s": round(warm_s, 3),
        "warm_speedup": round(cold_s / warm_s, 2),
        "warm_jobs": WARM_JOBS,
        "warm_batch_s": round(batch_s, 3),
        "warm_jobs_per_s": round(jobs_per_s, 2),
        "status_poll_ms": round(poll_ms, 2),
        "cold_training_sims": cold.training_sims,
        "warm_training_sims": warm.training_sims,
        "batching": {
            "batch_window_ms": BATCH_WINDOW_MS,
            "batched_jobs": WARM_JOBS,
            "batched_batch_s": round(batched_s, 3),
            "batched_jobs_per_s": round(batched_jobs_per_s, 2),
            "coalesce_rate": round(coalesce_rate, 3),
            "batches_formed": batching["batches_formed"],
            "fallback_singles": batching["fallback_singles"],
            "window_wait_ms_max": batching["window_wait_ms_max"],
            "batching_speedup": round(batched_jobs_per_s / jobs_per_s, 2),
        },
        "never_lose": {
            "pairs": pairs,
            "median_ratio": median_ratio,
            "batched_wins": wins,
        },
        "store": {
            "entries": stats["entries"],
            "bytes": stats["bytes"],
            "hits": {
                ns: counters["hits"]
                for ns, counters in stats["stats"].items()
            },
        },
    }
    (REPO_ROOT / "BENCH_service.json").write_text(
        json.dumps(doc, indent=2)
    )

    print_table(
        ["metric", "cold", "warm", "gain"],
        [
            ["job latency (s)", round(cold_s, 3), round(warm_s, 3),
             f"{cold_s / warm_s:.2f}x"],
            ["training sims", cold.training_sims, warm.training_sims,
             f"-{cold.training_sims - warm.training_sims}"],
            ["warm throughput", "-", f"{jobs_per_s:.2f} jobs/s",
             f"{WARM_JOBS} jobs in {batch_s:.2f}s"],
            ["batched throughput", "-",
             f"{batched_jobs_per_s:.2f} jobs/s",
             f"{batched_jobs_per_s / jobs_per_s:.2f}x, "
             f"coalesce {coalesce_rate:.0%}"],
            ["never-lose pairs", "-", f"{wins}/{PAIRS} won",
             f"median ratio {median_ratio:.2f}x"],
            ["status poll (ms)", "-", round(poll_ms, 2), "-"],
        ],
        "Estimation service (BENCH_service.json)",
    )

    # The serving layer must preserve the store's reuse contract ...
    assert not cold.cache_hit
    assert warm.cache_hit
    assert warm.training_sims == 0
    assert all(r.cache_hit for r in results)
    # ... deliver a real warm speedup over the cold path ...
    assert warm_s < cold_s
    # ... and keep HTTP + queue overhead far below one warm job.
    assert jobs_per_s >= 1.0

    # The batching scheduler must actually coalesce the concurrent
    # compatible tenants ...
    assert batching["batches_formed"] >= 1
    assert coalesce_rate > 0
    # ... stay byte-identical to the unbatched path ...
    warm_report = warm.report.to_json(include_timing=False)
    for result in batched_results:
        assert result.report.to_json(include_timing=False) == warm_report
    # ... bound per-job latency overhead by the window ...
    assert batching["window_wait_ms_max"] <= BATCH_WINDOW_MS + 1.0
    # ... and never lose to the unbatched warm path: batched wins the
    # median of the alternating pairs.
    assert median_ratio >= 1.0, (
        f"batched lost the median of {PAIRS} alternating pairs "
        f"({wins} won): {pairs}"
    )
