"""Persistent, resumable job queue on SQLite.

One ``jobs`` table is the whole state machine: a job is submitted as a
normalized schema-2 request document, claimed atomically by a worker
(``queued -> running``), and finished with either a result document
(``done``) or a traceback (``failed``).  Because every transition is a
single transaction on a WAL-mode database, the queue survives a
``SIGKILL`` at any point: on restart :meth:`JobQueue.recover` requeues
whatever was mid-flight, finished jobs keep their results (nothing is
re-run, so nothing is duplicated), and queued jobs run as if the crash
never happened.

The design follows DAVOS's SQL-backed report store: state lives in SQL
rows that several processes can poll and update concurrently, not in
process memory.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
import uuid

from repro.api import JOB_STATES, JobStatus

__all__ = ["JobQueue"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id TEXT PRIMARY KEY,
    request TEXT NOT NULL,
    state TEXT NOT NULL,
    submitted_at REAL NOT NULL,
    started_at REAL,
    finished_at REAL,
    attempts INTEGER NOT NULL DEFAULT 0,
    worker TEXT,
    result TEXT,
    error TEXT,
    stages TEXT
);
CREATE INDEX IF NOT EXISTS jobs_by_state ON jobs (state, submitted_at, id);
"""


class JobQueue:
    """SQLite-backed FIFO job queue with crash recovery.

    Args:
        path: Database file (created on first use).  ``":memory:"``
            gives a process-local queue with the same contract.
    """

    def __init__(self, path) -> None:
        self.path = str(path)
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(
            self.path, timeout=30.0, check_same_thread=False,
            isolation_level=None,  # autocommit; claim() brackets explicitly
        )
        self._conn.row_factory = sqlite3.Row
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.executescript(_SCHEMA)
        self._conn.commit()

    def close(self) -> None:
        self._conn.close()

    # ------------------------------------------------------------------ #
    # Lifecycle transitions
    # ------------------------------------------------------------------ #

    def submit(self, request_doc: dict) -> str:
        """Enqueue one normalized request document; returns the job id."""
        job_id = "j" + uuid.uuid4().hex[:12]
        with self._lock:
            self._conn.execute(
                "INSERT INTO jobs (id, request, state, submitted_at,"
                " attempts) VALUES (?, ?, 'queued', ?, 0)",
                (job_id, json.dumps(request_doc), time.time()),
            )
            self._conn.commit()
        return job_id

    def claim(self, worker: str) -> tuple[str, dict] | None:
        """Atomically take the oldest queued job (``None`` when empty)."""
        claimed = self.claim_many(worker, 1)
        if not claimed:
            return None
        job_id, doc, _submitted = claimed[0]
        return job_id, doc

    def claim_many(
        self, worker: str, limit: int
    ) -> list[tuple[str, dict, float]]:
        """Atomically take up to ``limit`` oldest queued jobs (FIFO).

        One ``BEGIN IMMEDIATE`` transaction selects and transitions every
        row, so concurrent claimers (threads or processes) can never
        double-claim.  The scan is indexed — ``jobs_by_state`` covers the
        ``state`` equality plus the ``(submitted_at, id)`` order, see
        :meth:`claim_plan` — so a claim stays O(limit) however large the
        finished-job history grows.  Returns ``(job_id, request_doc,
        submitted_at)`` triples; the batching scheduler measures its
        micro-batch window from ``submitted_at`` (enqueue time, not claim
        time).
        """
        if limit < 1:
            return []
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                rows = self._conn.execute(
                    "SELECT id, request, submitted_at FROM jobs"
                    " WHERE state = 'queued'"
                    " ORDER BY submitted_at, id LIMIT ?",
                    (int(limit),),
                ).fetchall()
                if rows:
                    now = time.time()
                    self._conn.executemany(
                        "UPDATE jobs SET state = 'running', started_at = ?,"
                        " attempts = attempts + 1, worker = ?"
                        " WHERE id = ? AND state = 'queued'",
                        [(now, worker, row["id"]) for row in rows],
                    )
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
        return [
            (row["id"], json.loads(row["request"]), row["submitted_at"])
            for row in rows
        ]

    def claim_plan(self) -> str:
        """SQLite's query plan for the claim scan (index regression guard).

        The claim must resolve through the ``jobs_by_state`` index — a
        schema edit that silently demotes it to a full-table scan would
        make every claim O(total jobs ever submitted).
        """
        with self._lock:
            rows = self._conn.execute(
                "EXPLAIN QUERY PLAN"
                " SELECT id, request, submitted_at FROM jobs"
                " WHERE state = 'queued' ORDER BY submitted_at, id LIMIT 1"
            ).fetchall()
        return " ".join(str(row[-1]) for row in rows)

    def complete(self, job_id: str, result_doc: dict,
                 stages: list | None = None) -> None:
        """Record a successful run's result document."""
        self._finish(job_id, "done", result=json.dumps(result_doc),
                     stages=stages)

    def fail(self, job_id: str, error: str,
             stages: list | None = None) -> None:
        """Record a failed run's traceback."""
        self._finish(job_id, "failed", error=error, stages=stages)

    def _finish(self, job_id: str, state: str, *, result: str | None = None,
                error: str | None = None, stages: list | None = None) -> None:
        with self._lock:
            updated = self._conn.execute(
                "UPDATE jobs SET state = ?, finished_at = ?, result = ?,"
                " error = ?, stages = ? WHERE id = ?",
                (
                    state, time.time(), result, error,
                    json.dumps(stages) if stages is not None else None,
                    job_id,
                ),
            ).rowcount
            self._conn.commit()
        if not updated:
            raise KeyError(f"unknown job {job_id!r}")

    def recover(self) -> int:
        """Requeue jobs a dead worker left ``running``; returns the count.

        Call once at server startup, before workers start claiming:
        anything still marked running must belong to a process that was
        killed mid-job.  Finished jobs are untouched, so a recovered
        queue never re-runs (or double-reports) completed work.
        """
        with self._lock:
            count = self._conn.execute(
                "UPDATE jobs SET state = 'queued', started_at = NULL,"
                " worker = NULL WHERE state = 'running'"
            ).rowcount
            self._conn.commit()
        return count

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #

    def get(self, job_id: str) -> JobStatus | None:
        """The job's :class:`~repro.api.JobStatus` (``None`` if unknown)."""
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
        if row is None:
            return None
        return self._status(row)

    def result_doc(self, job_id: str) -> dict | None:
        """The stored result document of a ``done`` job."""
        with self._lock:
            row = self._conn.execute(
                "SELECT result FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
        if row is None or row["result"] is None:
            return None
        return json.loads(row["result"])

    def list(self, limit: int = 100) -> list[JobStatus]:
        """Most recently submitted jobs, newest first."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT * FROM jobs ORDER BY submitted_at DESC, id DESC"
                " LIMIT ?",
                (int(limit),),
            ).fetchall()
        return [self._status(row) for row in rows]

    def counts(self) -> dict[str, int]:
        """Jobs per state (all states present, zero-filled)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT state, COUNT(*) AS n FROM jobs GROUP BY state"
            ).fetchall()
        counts = {state: 0 for state in JOB_STATES}
        for row in rows:
            counts[row["state"]] = row["n"]
        return counts

    def pending(self) -> int:
        """Jobs still queued or running."""
        counts = self.counts()
        return counts["queued"] + counts["running"]

    def depth(self) -> int:
        """Jobs waiting to be claimed (index-only count)."""
        with self._lock:
            row = self._conn.execute(
                "SELECT COUNT(*) FROM jobs WHERE state = 'queued'"
            ).fetchone()
        return int(row[0])

    @staticmethod
    def _status(row: sqlite3.Row) -> JobStatus:
        return JobStatus(
            id=row["id"],
            state=row["state"],
            submitted_at=row["submitted_at"],
            started_at=row["started_at"],
            finished_at=row["finished_at"],
            attempts=row["attempts"],
            worker=row["worker"],
            error=row["error"],
            stages=(
                json.loads(row["stages"])
                if row["stages"] is not None else None
            ),
            request=json.loads(row["request"]),
        )
