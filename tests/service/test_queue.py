"""Tests for the persistent SQLite job queue (resume semantics)."""

import threading

import pytest

from repro.service import JobQueue

REQ = {"schema": 2, "kind": "estimation-request", "workload": "bitcount"}


@pytest.fixture
def queue(tmp_path):
    q = JobQueue(tmp_path / "queue.db")
    yield q
    q.close()


class TestLifecycle:
    def test_submit_then_claim_fifo(self, queue):
        first = queue.submit(REQ)
        second = queue.submit(dict(REQ, workload="dijkstra"))
        claimed_id, doc = queue.claim("w0")
        assert claimed_id == first
        assert doc == REQ
        claimed_id, doc = queue.claim("w0")
        assert claimed_id == second
        assert doc["workload"] == "dijkstra"
        assert queue.claim("w0") is None

    def test_status_transitions(self, queue):
        job_id = queue.submit(REQ)
        status = queue.get(job_id)
        assert status.state == "queued"
        assert status.attempts == 0
        assert status.request == REQ

        queue.claim("w7")
        status = queue.get(job_id)
        assert status.state == "running"
        assert status.attempts == 1
        assert status.worker == "w7"
        assert status.started_at is not None

        queue.complete(job_id, {"answer": 42}, stages=[{"stage": "dta"}])
        status = queue.get(job_id)
        assert status.state == "done"
        assert status.finished
        assert status.finished_at is not None
        assert status.stages == [{"stage": "dta"}]
        assert queue.result_doc(job_id) == {"answer": 42}

    def test_failure_records_error(self, queue):
        job_id = queue.submit(REQ)
        queue.claim("w0")
        queue.fail(job_id, "Traceback: boom")
        status = queue.get(job_id)
        assert status.state == "failed"
        assert "boom" in status.error
        assert queue.result_doc(job_id) is None

    def test_unknown_job(self, queue):
        assert queue.get("nope") is None
        with pytest.raises(KeyError):
            queue.complete("nope", {})

    def test_counts_and_listing(self, queue):
        ids = [queue.submit(REQ) for _ in range(3)]
        queue.claim("w0")
        counts = queue.counts()
        assert counts == {"queued": 2, "running": 1, "done": 0, "failed": 0}
        assert queue.pending() == 3
        listed = queue.list()
        assert {s.id for s in listed} == set(ids)


class TestClaimMany:
    def test_claims_up_to_limit_fifo(self, queue):
        ids = [queue.submit(dict(REQ, seed=i)) for i in range(5)]
        claimed = queue.claim_many("sched", 3)
        assert [job_id for job_id, _doc, _t in claimed] == ids[:3]
        for job_id, doc, submitted_at in claimed:
            assert queue.get(job_id).state == "running"
            assert doc["workload"] == "bitcount"
            assert submitted_at == queue.get(job_id).submitted_at
        rest = queue.claim_many("sched", 10)
        assert [job_id for job_id, _doc, _t in rest] == ids[3:]
        assert queue.claim_many("sched", 10) == []
        assert queue.claim_many("sched", 0) == []

    def test_depth_counts_only_queued(self, queue):
        assert queue.depth() == 0
        for i in range(3):
            queue.submit(dict(REQ, seed=i))
        assert queue.depth() == 3
        queue.claim_many("sched", 2)
        assert queue.depth() == 1

    def test_no_duplicate_claims_across_concurrent_claim_many(self, queue):
        ids = {queue.submit(dict(REQ, seed=i)) for i in range(24)}
        claimed: list[str] = []
        lock = threading.Lock()

        def _scheduler(name):
            while True:
                got = queue.claim_many(name, 4)
                if not got:
                    return
                with lock:
                    claimed.extend(job_id for job_id, _doc, _t in got)

        threads = [
            threading.Thread(target=_scheduler, args=(f"s{i}",))
            for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(claimed) == 24, "every job claimed exactly once"
        assert set(claimed) == ids

    def test_claim_scan_stays_indexed(self, queue):
        """Regression guard: the claim must resolve through the
        ``jobs_by_state`` index, not a full-table scan over the entire
        finished-job history."""
        plan = queue.claim_plan()
        assert "USING INDEX jobs_by_state" in plan
        assert "SCAN jobs" not in plan


class TestCrashRecovery:
    def test_recover_requeues_only_running(self, tmp_path):
        queue = JobQueue(tmp_path / "queue.db")
        done_id = queue.submit(REQ)
        queue.claim("w0")
        queue.complete(done_id, {"answer": 1})
        killed_id = queue.submit(REQ)
        queue.claim("w0")
        queued_id = queue.submit(REQ)
        queue.close()  # SIGKILL: the process disappears mid-job

        revived = JobQueue(tmp_path / "queue.db")
        assert revived.recover() == 1
        status = revived.get(killed_id)
        assert status.state == "queued"
        assert status.worker is None
        assert status.attempts == 1  # the lost attempt stays on record

        # Completed work is untouched: same result, not re-run.
        assert revived.get(done_id).state == "done"
        assert revived.result_doc(done_id) == {"answer": 1}
        assert revived.get(queued_id).state == "queued"

        # The recovered job is claimable again (attempt 2).
        claimed = {revived.claim("w1")[0], revived.claim("w1")[0]}
        assert claimed == {killed_id, queued_id}
        assert revived.get(killed_id).attempts == 2
        revived.close()

    def test_no_duplicate_claims_across_threads(self, queue):
        ids = {queue.submit(dict(REQ, seed=i)) for i in range(20)}
        claimed: list[str] = []
        lock = threading.Lock()

        def _worker(name):
            while True:
                got = queue.claim(name)
                if got is None:
                    return
                with lock:
                    claimed.append(got[0])

        threads = [
            threading.Thread(target=_worker, args=(f"w{i}",))
            for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(claimed) == 20, "every job claimed exactly once"
        assert set(claimed) == ids
