"""The canonical public API surface: versioned request/response schema.

Every frontend of the estimator — the CLI subcommands, the Python entry
point (``repro.EstimationPipeline`` / ``repro.runner``), and the HTTP
job server (:mod:`repro.service`) — exchanges the *same* JSON documents,
defined here and nowhere else.  A request built by ``repro submit``,
POSTed to ``/v1/jobs``, stored in the service queue, and replayed after
a crash is byte-for-byte the document this module produces.

Schema versioning
-----------------

Documents carry ``"schema": 4`` (an integer) and a ``"kind"`` tag naming
the document type.  Versions 2 and later are strict: an unknown field is
rejected with an error that names it and lists the valid fields, so a
typo in a client payload fails loudly at the boundary instead of
silently running the wrong job.  Version 3 adds the multi-point
``speculations`` axis to ``estimation-request`` (one document, many
operating points — expanded by :func:`requests_from_json` and answered
with a ``reports`` list on the ``job-result``).  Version 4 adds
``core_family`` — the registered pipeline organization the job runs on
(see :mod:`repro.core.family`); :func:`request_to_json` always emits it
so engines and schedulers batching on the wire document never coalesce
jobs across families.  Older documents stay *readable*: schema-2/3
documents parse unchanged (``core_family`` defaults to ``"inorder6"``),
and version-1 documents — the ad-hoc shapes earlier PRs emitted
(``EstimationRequest.identity_doc`` dicts, string-tagged
``repro.error-rate-report/1`` reports) — are accepted by
:func:`request_from_json` and :func:`report_from_json` and normalized
on the way in.

Document kinds
--------------

===================== =====================================================
kind                  produced / consumed by
===================== =====================================================
``estimation-request``  :func:`request_to_json` / :func:`request_from_json`
``job-status``          :class:`JobStatus` (queue + ``GET /v1/jobs/{id}``)
``job-result``          :class:`JobResult` (``GET /v1/jobs/{id}/result``)
``error-rate-report``   :func:`report_to_json` / :func:`report_from_json`
===================== =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.request import EstimationRequest
from repro.core.results import ErrorRateReport

__all__ = [
    "SCHEMA",
    "JOB_STATES",
    "ApiError",
    "EstimationRequest",
    "ErrorRateReport",
    "JobStatus",
    "JobResult",
    "build_request",
    "request_to_json",
    "request_from_json",
    "requests_from_json",
    "grid_request_to_json",
    "report_to_json",
    "report_from_json",
]

#: Current wire-schema version; bump on incompatible change.
SCHEMA = 4

#: Versions this build still reads (normalized on the way in).
_READABLE_SCHEMAS = (1, 2, 3, SCHEMA)

#: Lifecycle states a service job moves through (in order; the last two
#: are terminal).
JOB_STATES = ("queued", "running", "done", "failed")


class ApiError(ValueError):
    """A document failed schema validation at the API boundary."""


# --------------------------------------------------------------------- #
# EstimationRequest codec
# --------------------------------------------------------------------- #

#: ``field name -> (accepted types, allows None)`` for the request kind.
_REQUEST_FIELDS: dict[str, tuple[tuple[type, ...], bool]] = {
    "workload": ((str,), False),
    "train_scale": ((str,), False),
    "eval_scale": ((str,), False),
    "train_seed": ((int,), True),
    "eval_seed": ((int,), True),
    "speculation": ((int, float), True),
    "max_instructions": ((int,), True),
    "train_instructions": ((int,), True),
    "seed": ((int,), True),
    "reservoir_size": ((int,), False),
    "core_family": ((str,), False),
}

#: Field spellings older documents used, mapped to the canonical name.
_V1_ALIASES = {"benchmark": "workload"}

_META_KEYS = frozenset({"schema", "kind"})


def _reject_unknown(doc: dict, known: frozenset, kind: str) -> None:
    unknown = sorted(set(doc) - known - _META_KEYS)
    if unknown:
        raise ApiError(
            f"unknown field(s) {', '.join(map(repr, unknown))} in "
            f"{kind} document (schema {SCHEMA}); valid fields: "
            f"{', '.join(sorted(known))}"
        )


def _check_schema(doc, kind: str) -> int:
    """The document's schema version (1 for untagged legacy docs)."""
    if not isinstance(doc, dict):
        raise ApiError(f"{kind} document must be a JSON object, got "
                       f"{type(doc).__name__}")
    version = doc.get("schema", 1)
    if version not in _READABLE_SCHEMAS:
        raise ApiError(
            f"unsupported {kind} schema {version!r}; this build reads "
            f"schema {SCHEMA} (and legacy schema 1/2/3 documents)"
        )
    declared = doc.get("kind")
    if declared is not None and declared != kind:
        raise ApiError(f"expected a {kind!r} document, got {declared!r}")
    return version


def build_request(**fields) -> EstimationRequest:
    """Construct a validated :class:`EstimationRequest` from keywords.

    The one constructor frontends should use: it applies the same
    field-name and type validation as :func:`request_from_json`, so a
    CLI flag, a Python call, and a wire payload all fail identically on
    the same bad input.
    """
    doc = {"schema": SCHEMA, "kind": "estimation-request"}
    doc.update({k: v for k, v in fields.items() if v is not None})
    return request_from_json(doc)


def request_to_json(request: EstimationRequest) -> dict:
    """The request as a canonical current-schema wire document.

    ``core_family`` is always emitted (even at its default) so batch
    keys computed over the wire document split on it.
    """
    doc: dict = {"schema": SCHEMA, "kind": "estimation-request"}
    if not isinstance(request.workload, str):
        raise ApiError(
            "only named workloads serialize; a bring-your-own Workload "
            "object has no wire form"
        )
    doc["workload"] = request.workload
    for name in _REQUEST_FIELDS:
        if name == "workload":
            continue
        doc[name] = getattr(request, name)
    return doc


def request_from_json(doc: dict) -> EstimationRequest:
    """Parse a single-point request document (strict; schema 1 tolerated)."""
    version = _check_schema(doc, "estimation-request")
    body = {k: v for k, v in doc.items() if k not in _META_KEYS}
    if version == 1:
        body = {_V1_ALIASES.get(k, k): v for k, v in body.items()}
    if body.get("speculations") is not None:
        raise ApiError(
            "'speculations' marks a multi-point estimation-request; "
            "expand it with requests_from_json()"
        )
    body.pop("speculations", None)
    _reject_unknown(body, frozenset(_REQUEST_FIELDS), "estimation-request")
    if "workload" not in body:
        raise ApiError("estimation-request document is missing 'workload'")
    kwargs = {}
    for name, value in body.items():
        types, nullable = _REQUEST_FIELDS[name]
        if value is None:
            if not nullable:
                raise ApiError(f"field {name!r} must not be null")
            continue
        if isinstance(value, bool) or not isinstance(value, types):
            expected = "/".join(t.__name__ for t in types)
            raise ApiError(
                f"field {name!r} must be {expected}, got "
                f"{type(value).__name__} ({value!r})"
            )
        kwargs[name] = value
    if "core_family" in kwargs:
        from repro.core.family import available_core_families

        known = available_core_families()
        if kwargs["core_family"] not in known:
            raise ApiError(
                f"field 'core_family' names unknown core family "
                f"{kwargs['core_family']!r}; registered: "
                f"{', '.join(known)}"
            )
    try:
        return EstimationRequest(**kwargs)
    except ValueError as exc:
        raise ApiError(f"invalid estimation-request: {exc}") from None


def requests_from_json(doc: dict) -> list[EstimationRequest]:
    """Parse a request document, expanding a multi-point one.

    A schema-3 ``estimation-request`` may carry ``speculations`` — an
    array of operating points sharing every other field — instead of the
    scalar ``speculation``.  Returns one :class:`EstimationRequest` per
    point (a single-element list for ordinary documents), in array
    order.
    """
    _check_schema(doc, "estimation-request")
    speculations = doc.get("speculations") if isinstance(doc, dict) else None
    if speculations is None:
        return [request_from_json(doc)]
    if not isinstance(speculations, list) or not speculations:
        raise ApiError(
            "'speculations' must be a non-empty array of numbers"
        )
    for value in speculations:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ApiError(
                f"'speculations' entries must be numbers, got "
                f"{type(value).__name__} ({value!r})"
            )
    if doc.get("speculation") is not None:
        raise ApiError(
            "give either 'speculation' or 'speculations', not both"
        )
    base = {
        k: v for k, v in doc.items()
        if k not in ("speculations", "speculation")
    }
    return [
        request_from_json({**base, "speculation": float(value)})
        for value in speculations
    ]


def grid_request_to_json(requests) -> dict:
    """Serialize a homogeneous request batch as one multi-point document.

    The inverse of :func:`requests_from_json` for grids: the requests
    must be identical up to ``speculation`` and every point needs an
    explicit operating point (``speculations`` entries are numbers).
    """
    requests = list(requests)
    if not requests:
        raise ApiError("a grid request needs at least one point")
    docs = [request_to_json(request) for request in requests]
    if len(docs) == 1:
        return docs[0]
    base = {k: v for k, v in docs[0].items() if k != "speculation"}
    for other in docs[1:]:
        if {k: v for k, v in other.items() if k != "speculation"} != base:
            raise ApiError(
                "grid requests must be identical up to 'speculation'"
            )
    if any(doc["speculation"] is None for doc in docs):
        raise ApiError(
            "every grid point needs an explicit 'speculation'"
        )
    merged = dict(base)
    merged["speculations"] = [doc["speculation"] for doc in docs]
    return merged


# --------------------------------------------------------------------- #
# ErrorRateReport codec
# --------------------------------------------------------------------- #

def report_to_json(
    report: ErrorRateReport, include_timing: bool = True
) -> dict:
    """The report as a current-schema wire document.

    Identical to :meth:`ErrorRateReport.to_json` except the legacy
    string tag is replaced by the integer schema plus a ``kind``.
    """
    doc = report.to_json(include_timing=include_timing)
    doc["schema"] = SCHEMA
    doc["kind"] = "error-rate-report"
    return doc


def report_from_json(doc: dict) -> ErrorRateReport:
    """Parse a report document (schema 2, or the v1 string tag)."""
    if isinstance(doc, dict) and doc.get("schema") == ErrorRateReport.SCHEMA:
        return ErrorRateReport.from_json(doc)
    _check_schema(doc, "error-rate-report")
    body = dict(doc)
    body["schema"] = ErrorRateReport.SCHEMA
    body.pop("kind", None)
    try:
        return ErrorRateReport.from_json(body)
    except (KeyError, TypeError, ValueError) as exc:
        raise ApiError(f"invalid error-rate-report: {exc}") from None


# --------------------------------------------------------------------- #
# Job lifecycle documents
# --------------------------------------------------------------------- #

_JOB_STATUS_FIELDS = frozenset({
    "id", "state", "submitted_at", "started_at", "finished_at",
    "attempts", "worker", "error", "stages", "request",
})


@dataclass(frozen=True)
class JobStatus:
    """One job's lifecycle snapshot (queue row / ``GET /v1/jobs/{id}``).

    Attributes:
        id: Server-assigned job identifier.
        state: One of :data:`JOB_STATES`.
        submitted_at: POSIX timestamp of submission.
        started_at: POSIX timestamp execution began (``None`` if queued).
        finished_at: POSIX timestamp of the terminal transition.
        attempts: Execution attempts (> 1 after a crash-recovery requeue).
        worker: Identifier of the worker that ran (or is running) the
            job.
        error: Failure traceback for ``failed`` jobs.
        stages: Per-stage :class:`~repro.pipeline.pipeline.StageEvent`
            documents recorded by the run (``None`` until finished).
        request: The normalized schema-2 request document.
    """

    id: str
    state: str
    submitted_at: float
    started_at: float | None = None
    finished_at: float | None = None
    attempts: int = 0
    worker: str | None = None
    error: str | None = None
    stages: list | None = None
    request: dict | None = None

    def __post_init__(self) -> None:
        if self.state not in JOB_STATES:
            raise ApiError(
                f"unknown job state {self.state!r}; expected one of "
                f"{', '.join(JOB_STATES)}"
            )

    @property
    def finished(self) -> bool:
        return self.state in ("done", "failed")

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA,
            "kind": "job-status",
            "id": self.id,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "attempts": self.attempts,
            "worker": self.worker,
            "error": self.error,
            "stages": self.stages,
            "request": self.request,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "JobStatus":
        _check_schema(doc, "job-status")
        body = {k: v for k, v in doc.items() if k not in _META_KEYS}
        _reject_unknown(body, _JOB_STATUS_FIELDS, "job-status")
        try:
            return cls(**body)
        except TypeError as exc:
            raise ApiError(f"invalid job-status: {exc}") from None


_JOB_RESULT_FIELDS = frozenset({
    "job", "report", "reports", "cache_hit", "seed", "training_sims",
    "windows_preloaded", "train_seconds", "estimate_seconds", "stages",
    "batched", "batch",
})


@dataclass(frozen=True)
class JobResult:
    """One finished job's payload (``GET /v1/jobs/{id}/result``).

    Attributes:
        job: The job identifier.
        report_doc: The :func:`report_to_json` document (the first
            point's, for multi-point jobs).
        reports: Per-point report documents for a multi-point
            (``speculations``) job, in request order; ``None`` for
            ordinary single-point jobs.
        cache_hit: Whether the control model came warm from the store
            (every point, for multi-point jobs).
        seed: The resolved data-variation seed the job ran with.
        training_sims: Logic-simulator calls spent in training — ``0``
            for a fully warm job (the multi-tenant reuse evidence).
        windows_preloaded: Window artifacts preloaded from the store.
        train_seconds: Wall-clock training time.
        estimate_seconds: Wall-clock simulation + estimation time.
        stages: Per-stage event documents.
        batched: Whether the service's micro-batching scheduler coalesced
            this job with compatible concurrent jobs into one grid pass.
        batch: Batch telemetry for coalesced jobs (``jobs`` in the batch,
            distinct grid ``points``, the configured ``window_ms`` and the
            measured ``wait_ms`` straggler wait); ``None`` otherwise.
    """

    job: str
    report_doc: dict
    reports: list | None = None
    cache_hit: bool = False
    seed: int = 0
    training_sims: int = 0
    windows_preloaded: int | None = None
    train_seconds: float = 0.0
    estimate_seconds: float = 0.0
    stages: list = field(default_factory=list)
    batched: bool = False
    batch: dict | None = None

    @property
    def report(self) -> ErrorRateReport:
        """The decoded :class:`ErrorRateReport` (first point)."""
        return report_from_json(self.report_doc)

    @property
    def all_reports(self) -> list[ErrorRateReport]:
        """Every point's decoded report (length 1 for single-point jobs)."""
        if self.reports is None:
            return [self.report]
        return [report_from_json(doc) for doc in self.reports]

    @classmethod
    def from_results(
        cls,
        job_id: str,
        results,
        *,
        batched: bool = False,
        batch: dict | None = None,
    ) -> "JobResult":
        """Build from one or more per-point ``PipelineResult`` objects.

        A job's results are its slice of a grid pass's
        (``GridResult.results``): all of them for a job run on its own,
        or its own points of a coalesced batch.
        """
        results = list(results)
        first = results[0]
        training = first.report.training_kernel_stats or {}
        return cls(
            job=job_id,
            report_doc=report_to_json(first.report),
            reports=(
                [report_to_json(r.report) for r in results]
                if len(results) > 1 else None
            ),
            cache_hit=all(r.cache_hit for r in results),
            seed=first.seed,
            training_sims=int(training.get("sim_calls", 0)),
            windows_preloaded=first.windows_preloaded,
            train_seconds=max(r.train_seconds for r in results),
            estimate_seconds=sum(r.estimate_seconds for r in results),
            stages=[event.to_json() for event in first.events],
            batched=batched,
            batch=batch,
        )

    def to_json(self) -> dict:
        doc = {
            "schema": SCHEMA,
            "kind": "job-result",
            "job": self.job,
            "report": self.report_doc,
            "cache_hit": self.cache_hit,
            "seed": self.seed,
            "training_sims": self.training_sims,
            "windows_preloaded": self.windows_preloaded,
            "train_seconds": round(self.train_seconds, 3),
            "estimate_seconds": round(self.estimate_seconds, 3),
            "stages": self.stages,
            "batched": self.batched,
        }
        if self.reports is not None:
            doc["reports"] = self.reports
        if self.batch is not None:
            doc["batch"] = self.batch
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "JobResult":
        _check_schema(doc, "job-result")
        body = {k: v for k, v in doc.items() if k not in _META_KEYS}
        _reject_unknown(body, _JOB_RESULT_FIELDS, "job-result")
        body["report_doc"] = body.pop("report", None)
        if not isinstance(body["report_doc"], dict):
            raise ApiError("job-result document is missing 'report'")
        try:
            return cls(**body)
        except TypeError as exc:
            raise ApiError(f"invalid job-result: {exc}") from None
