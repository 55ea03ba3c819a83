"""Command-line interface.

Usage (after ``pip install -e .``)::

    python -m repro info
    python -m repro list
    python -m repro estimate gsm.decode [--speculation 1.15] [--json]
    python -m repro table2 [--max-instructions N] [--json]
    python -m repro sweep bitcount --points 1.0,1.1,1.15,1.2
    python -m repro batch bitcount dijkstra --cache-dir .cache
    python -m repro pipeline inspect [--cache-dir D] [--json]
    python -m repro montecarlo bitcount --chips 16
    python -m repro serve --port 8731 --state-dir .repro-service
    python -m repro submit bitcount --speculation 1.15 --json

``info`` prints the processor operating point, ``estimate`` runs the full
train+estimate flow for one benchmark, ``table2`` regenerates the paper's
Table 2 across the suite, ``sweep`` maps error rate and net performance
over speculation ratios, ``batch`` executes an arbitrary set of
(workload × operating point) jobs, and ``montecarlo`` measures the
brute-force per-chip error-rate distribution the framework is validated
against.  ``table2``, ``sweep``, and ``batch`` all run on the batch
estimation engine, which runs every job in this process, and
``--cache-dir`` (or the ``REPRO_CACHE_DIR`` environment variable)
enables the content-addressed artifact cache so warm re-runs skip every
training phase.

``serve`` runs the estimation job server (:mod:`repro.service`) and
``submit`` posts one job to it over HTTP; both speak the versioned
:mod:`repro.api` request/response schema, which is also the only way
this module constructs estimation requests.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro import api
from repro.core import ProcessorModel
from repro.runner import EstimationEngine, ProcessorConfig
from repro.workloads import list_workloads, load_workload

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _float_list(text: str) -> list[float]:
    try:
        return [float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of numbers: {text!r}"
        ) from None


def _grid_spec(text: str) -> list[float]:
    """Parse ``START:STOP:N`` into N evenly spaced sweep points."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected START:STOP:N, got {text!r}"
        )
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected START:STOP:N with numeric bounds, got {text!r}"
        ) from None
    if count < 1:
        raise argparse.ArgumentTypeError("N must be >= 1")
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    return [round(start + i * step, 10) for i in range(count)]


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir", default=None,
        help=(
            "artifact-cache directory (default: $REPRO_CACHE_DIR when "
            "set, else caching is off)"
        ),
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the artifact cache for this run",
    )


def _add_core_family_argument(parser: argparse.ArgumentParser) -> None:
    from repro.core.family import DEFAULT_FAMILY, available_core_families

    parser.add_argument(
        "--core-family", choices=available_core_families(),
        default=DEFAULT_FAMILY,
        help=(
            "registered core family (pipeline organization) to analyze "
            f"(default: {DEFAULT_FAMILY})"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Program error-rate estimation for timing-speculative "
            "processors (DAC 2019 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="print the processor operating point")
    sub.add_parser("list", help="list available benchmarks")

    est = sub.add_parser("estimate", help="estimate one benchmark")
    est.add_argument("benchmark", choices=list_workloads())
    est.add_argument("--speculation", type=float, default=1.15)
    est.add_argument("--max-instructions", type=int, default=None)
    est.add_argument("--json", action="store_true")
    _add_core_family_argument(est)

    tab = sub.add_parser("table2", help="regenerate Table 2")
    tab.add_argument("--max-instructions", type=int, default=None)
    tab.add_argument("--json", action="store_true")
    _add_core_family_argument(tab)
    _add_engine_arguments(tab)

    swp = sub.add_parser("sweep", help="speculation-ratio sweep")
    swp.add_argument("benchmark", choices=list_workloads())
    swp.add_argument(
        "--points", type=_float_list,
        default=[1.00, 1.05, 1.10, 1.15, 1.20, 1.25],
        help="comma-separated speculation ratios",
    )
    swp.add_argument(
        "--grid", type=_grid_spec, default=None, metavar="START:STOP:N",
        help=(
            "dense sweep: N evenly spaced speculation ratios from START "
            "to STOP (overrides --points); the engine batch-evaluates "
            "them in one grid pass"
        ),
    )
    swp.add_argument("--max-instructions", type=int, default=300_000)
    swp.add_argument(
        "--json", action="store_true",
        help="emit the full RunSummary (reports + cache telemetry)",
    )
    _add_core_family_argument(swp)
    _add_engine_arguments(swp)

    bat = sub.add_parser(
        "batch", help="run a batch of estimation jobs on the engine"
    )
    bat.add_argument(
        "benchmarks", nargs="*", metavar="benchmark",
        help="benchmarks to run (default: the full suite)",
    )
    bat.add_argument(
        "--speculation", type=_float_list, default=None,
        help="comma-separated speculation ratios (default: 1.15)",
    )
    bat.add_argument("--max-instructions", type=int, default=None)
    bat.add_argument("--train-instructions", type=int, default=None)
    bat.add_argument("--seed", type=int, default=0)
    bat.add_argument("--json", action="store_true")
    _add_core_family_argument(bat)
    _add_engine_arguments(bat)

    pipe = sub.add_parser(
        "pipeline", help="inspect the staged estimation pipeline"
    )
    pipe_sub = pipe.add_subparsers(dest="pipeline_command", required=True)
    ins = pipe_sub.add_parser(
        "inspect",
        help=(
            "print the stages and their implementations, the core "
            "families, and the artifact-store state"
        ),
    )
    ins.add_argument(
        "--cache-dir", default=None,
        help=(
            "artifact-store directory to report entry counts for "
            "(default: $REPRO_CACHE_DIR when set)"
        ),
    )
    ins.add_argument("--json", action="store_true")

    mc = sub.add_parser(
        "montecarlo",
        help="brute-force per-chip Monte Carlo validation run",
    )
    mc.add_argument("benchmark", choices=list_workloads())
    mc.add_argument(
        "--chips", type=_positive_int, default=16,
        help="manufactured chips to sample",
    )
    mc.add_argument(
        "--windows-per-block", type=_positive_int, default=6,
        help="execution windows analyzed per basic block",
    )
    mc.add_argument("--speculation", type=float, default=1.15)
    mc.add_argument("--max-instructions", type=int, default=100_000)
    mc.add_argument("--seed", type=int, default=0)
    mc.add_argument("--json", action="store_true")

    srv = sub.add_parser(
        "serve", help="run the HTTP/JSON estimation job server"
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8731)
    srv.add_argument(
        "--state-dir", default=None,
        help=(
            "service state directory holding the job queue and the "
            "shared artifact store (default: $REPRO_SERVICE_DIR when "
            "set, else .repro-service)"
        ),
    )
    srv.add_argument(
        "--workers", type=_positive_int, default=1,
        help="concurrent job-executor threads",
    )
    srv.add_argument(
        "--store-budget", type=int, default=None,
        help="LRU byte budget for the shared artifact store",
    )
    srv.add_argument(
        "--batch-window-ms", type=float, default=4.0,
        help=(
            "micro-batch window: a job waits up to this long (from "
            "enqueue, and no longer than the last batch took to run) "
            "for grid-compatible stragglers before its batch "
            "dispatches; 0 disables coalescing"
        ),
    )

    sm = sub.add_parser(
        "submit", help="submit one job to a running estimation server"
    )
    sm.add_argument("benchmark", choices=list_workloads())
    sm.add_argument(
        "--url", default=None,
        help=(
            "service URL (default: $REPRO_SERVICE_URL when set, else "
            "http://127.0.0.1:8731)"
        ),
    )
    sm.add_argument("--speculation", type=float, default=None)
    sm.add_argument("--max-instructions", type=int, default=None)
    sm.add_argument("--train-instructions", type=int, default=None)
    sm.add_argument("--seed", type=int, default=None)
    sm.add_argument(
        "--no-wait", action="store_true",
        help="print the job id and return without polling for the result",
    )
    sm.add_argument("--timeout", type=float, default=600.0)
    sm.add_argument("--json", action="store_true")
    _add_core_family_argument(sm)
    return parser


def _engine_from_args(args) -> EstimationEngine:
    cache_dir = None
    if not args.no_cache:
        cache_dir = args.cache_dir or os.environ.get("REPRO_CACHE_DIR")
    return EstimationEngine(
        ProcessorConfig(
            core_family=getattr(args, "core_family", "inorder6")
        ),
        cache_dir=cache_dir,
    )


def _fan_out_requests(names, points, *, max_instructions=None,
                      train_instructions=None, seed=0,
                      core_family="inorder6"):
    """Build the benchmark x speculation request cross product.

    Shared by ``sweep`` and ``batch`` so both fan-outs produce
    identically shaped requests (and therefore hit the same grid
    batching and artifact-cache keys in the engine).
    """
    return [
        api.build_request(
            workload=name,
            speculation=speculation,
            max_instructions=max_instructions,
            train_instructions=train_instructions,
            seed=seed,
            core_family=core_family,
        )
        for name in names
        for speculation in points
    ]


def _report_failures(summary, out) -> None:
    for result in summary.failed:
        out.write(
            f"FAILED {result.request.describe()}\n{result.error}\n"
        )


def _cmd_info(args, out) -> int:
    processor = ProcessorModel()
    for key, value in processor.describe().items():
        val = f"{round(value, 2):g}" if isinstance(value, float) else value
        out.write(f"{key:26s} {val}\n")
    return 0


def _cmd_list(args, out) -> int:
    for name in list_workloads():
        out.write(name + "\n")
    return 0


def _cmd_estimate(args, out) -> int:
    from repro.pipeline.pipeline import EstimationPipeline

    request = api.build_request(
        workload=args.benchmark,
        speculation=args.speculation,
        max_instructions=args.max_instructions,
        seed=0,
        core_family=args.core_family,
    )
    result = EstimationPipeline(
        ProcessorConfig(core_family=args.core_family)
    ).execute(request)
    report = result.report
    if args.json:
        out.write(json.dumps(api.report_to_json(report), indent=2) + "\n")
    else:
        out.write(str(report) + "\n")
        perf = result.processor.performance.improvement_percent(
            report.error_rate_mean / 100.0
        )
        out.write(f"net performance vs baseline: {perf:+.2f}%\n")
    return 0


def _cmd_table2(args, out) -> int:
    engine = _engine_from_args(args)
    requests = [
        api.build_request(
            workload=name, max_instructions=args.max_instructions, seed=0,
            core_family=args.core_family,
        )
        for name in list_workloads()
    ]
    summary = engine.run(requests)
    if args.json:
        rows = [
            api.report_to_json(r.report, include_timing=False)
            for r in summary.succeeded
        ]
        out.write(json.dumps(rows, indent=2) + "\n")
    else:
        for result in summary.succeeded:
            out.write(str(result.report) + "\n")
        out.write(f"# {summary.describe()}\n")
    if summary.failed:
        _report_failures(summary, out)
        return 1
    return 0


def _cmd_sweep(args, out) -> int:
    points = args.grid if args.grid is not None else args.points
    if not points:
        out.write("no sweep points given\n")
        return 2
    engine = _engine_from_args(args)
    requests = _fan_out_requests(
        [args.benchmark], points,
        max_instructions=args.max_instructions, seed=0,
        core_family=args.core_family,
    )
    summary = engine.run(requests)
    if args.json:
        out.write(json.dumps(summary.to_json(), indent=2) + "\n")
        return 1 if summary.failed else 0
    out.write(
        f"{'spec':>6s} {'MHz':>7s} {'ER%':>8s} {'perf%':>8s} "
        f"{'skipped':>7s} {'cache':>5s}\n"
    )
    for result in summary.succeeded:
        skipped = int(result.train_sim_skipped) + int(result.eval_sim_skipped)
        out.write(
            f"{result.speculation:6.2f} "
            f"{result.working_frequency_mhz:7.0f} "
            f"{result.report.error_rate_mean:8.3f} "
            f"{result.net_performance_percent:+8.2f} "
            f"{skipped:7d} "
            f"{'hit' if result.cache_hit else 'miss':>5s}\n"
        )
    out.write(f"# {summary.describe()}\n")
    if summary.failed:
        _report_failures(summary, out)
        return 1
    return 0


def _cmd_batch(args, out) -> int:
    names = args.benchmarks or list_workloads()
    unknown = sorted(set(names) - set(list_workloads()))
    if unknown:
        out.write(f"unknown benchmarks: {', '.join(unknown)}\n")
        return 2
    points = args.speculation or [None]
    engine = _engine_from_args(args)
    requests = _fan_out_requests(
        names, points,
        max_instructions=args.max_instructions,
        train_instructions=args.train_instructions,
        seed=args.seed,
        core_family=args.core_family,
    )
    summary = engine.run(requests)
    if args.json:
        out.write(json.dumps(summary.to_json(), indent=2) + "\n")
        return 1 if summary.failed else 0
    for result in summary.results:
        if result.ok:
            hit = "cache" if result.cache_hit else "train"
            out.write(
                f"{result.request.describe():24s} "
                f"ER {result.report.error_rate_mean:7.3f}% "
                f"(SD {result.report.error_rate_sd:.3f}%)  "
                f"[{hit}, "
                f"{result.train_seconds + result.estimate_seconds:.1f}s]\n"
            )
        else:
            out.write(f"{result.request.describe():24s} FAILED\n")
    out.write(f"summary: {summary.describe()}\n")
    if summary.failed:
        _report_failures(summary, out)
        return 1
    return 0


def _cmd_montecarlo(args, out) -> int:
    from repro.core.montecarlo import MonteCarloValidator

    processor = ProcessorModel(speculation=args.speculation)
    validator = MonteCarloValidator(
        processor,
        n_chips=args.chips,
        windows_per_block=args.windows_per_block,
    )
    program, setup, budget = load_workload(args.benchmark).run_spec(
        "large", seed=args.seed
    )
    result = validator.estimate(
        program,
        setup=setup,
        max_instructions=args.max_instructions or budget,
        seed=args.seed,
    )
    if args.json:
        out.write(
            json.dumps(result.to_json(benchmark=args.benchmark), indent=2)
            + "\n"
        )
    else:
        out.write(
            f"{args.benchmark}: MC ER = {result.mean_percent:.3f}% "
            f"(SD {result.sd_percent:.3f}%) over {args.chips} chips, "
            f"{result.windows_analyzed} windows, "
            f"{result.total_instructions} instructions\n"
        )
    return 0


def _cmd_pipeline(args, out) -> int:
    from repro.core.family import available_core_families, get_core_family
    from repro.pipeline import stages
    from repro.pipeline.store import ArtifactStore

    cache_dir = args.cache_dir or os.environ.get("REPRO_CACHE_DIR")
    store = ArtifactStore(cache_dir) if cache_dir else None
    families = available_core_families()
    if args.json:
        doc = {
            "schema": "repro.pipeline/1",
            "plan": dict(stages.PLAN),
            "core_families": [
                {
                    "name": name,
                    "stages": get_core_family(name).num_stages,
                    "description": get_core_family(name).description,
                }
                for name in families
            ],
            "stages": stages.describe(),
            "store": store.describe() if store is not None else None,
        }
        out.write(json.dumps(doc, indent=2) + "\n")
        return 0
    out.write(f"{'stage':12s} {'backend':13s} description\n")
    for stage, (name, description) in stages.STAGES.items():
        out.write(f"{stage:12s} {name:13s} {description}\n")
    out.write("core families:\n")
    for name in families:
        family = get_core_family(name)
        out.write(
            f"  {name:16s} {family.num_stages} stages  "
            f"{family.description}\n"
        )
    if store is not None:
        info = store.describe()
        out.write(f"store: {info['location']}\n")
        for namespace in sorted(info["entries"]):
            out.write(
                f"  {namespace:12s} {info['entries'][namespace]} entries\n"
            )
        if not info["entries"]:
            out.write("  (empty)\n")
    else:
        out.write("store: (none — pass --cache-dir or set REPRO_CACHE_DIR)\n")
    return 0


def _cmd_serve(args, out) -> int:
    import asyncio

    from repro.service import EstimationService

    state_dir = args.state_dir or os.environ.get(
        "REPRO_SERVICE_DIR", ".repro-service"
    )
    service = EstimationService(
        state_dir,
        host=args.host,
        port=args.port,
        workers=args.workers,
        store_budget=args.store_budget,
        batch_window_ms=args.batch_window_ms,
    )

    async def _main() -> None:
        await service.start()
        queued = service.queue.counts()["queued"]
        out.write(
            f"serving on http://{service.host}:{service.port} "
            f"(state: {state_dir}, workers: {service.workers}, "
            f"batch window: {service.batch_window_ms:g}ms)\n"
        )
        if queued:
            out.write(f"resuming {queued} queued job(s)\n")
        if hasattr(out, "flush"):
            out.flush()
        await service._server.serve_forever()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        out.write("shutting down\n")
    return 0


def _cmd_submit(args, out) -> int:
    from repro.service import ServiceClient, ServiceError

    url = args.url or os.environ.get(
        "REPRO_SERVICE_URL", "http://127.0.0.1:8731"
    )
    try:
        request = api.build_request(
            workload=args.benchmark,
            speculation=args.speculation,
            max_instructions=args.max_instructions,
            train_instructions=args.train_instructions,
            seed=args.seed,
            core_family=args.core_family,
        )
    except api.ApiError as exc:
        out.write(f"error: {exc}\n")
        return 2
    client = ServiceClient(url)
    try:
        status = client.submit(request)
        if args.no_wait:
            if args.json:
                out.write(json.dumps(status.to_json(), indent=2) + "\n")
            else:
                out.write(f"submitted {status.id} ({status.state})\n")
            return 0
        result = client.wait(status.id, timeout=args.timeout)
    except (ServiceError, TimeoutError, OSError) as exc:
        out.write(f"error: {exc}\n")
        return 1
    if args.json:
        out.write(json.dumps(result.to_json(), indent=2) + "\n")
    else:
        out.write(str(result.report) + "\n")
        out.write(
            f"job {result.job}: "
            f"{'warm' if result.cache_hit else 'cold'}, "
            f"training sims {result.training_sims}, "
            f"{result.train_seconds + result.estimate_seconds:.1f}s\n"
        )
    return 0


_COMMANDS = {
    "info": _cmd_info,
    "list": _cmd_list,
    "estimate": _cmd_estimate,
    "table2": _cmd_table2,
    "sweep": _cmd_sweep,
    "batch": _cmd_batch,
    "pipeline": _cmd_pipeline,
    "montecarlo": _cmd_montecarlo,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
}


def main(argv=None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args, out)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
