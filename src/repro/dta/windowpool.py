"""Window-analysis layer: activity deduplication and intra-job fan-out.

Every expensive step of the training phase is a *window analysis*: push
an instruction window through the pipeline scheduler, encode the
stimulus, run the levelized logic simulation, and analyze the resulting
switching activity with Algorithms 1 and 2.  This module factors the two
structural optimizations out of the call sites:

* :class:`ActivityCache` — a content-addressed cache of
  :class:`~repro.logicsim.activity.ActivityTrace` results, keyed on a
  SHA-256 digest of the *encoded stimulus*.  The schedule → stimulus →
  logic-sim pipeline is a pure function of the stimulus (windows are
  always simulated from the flushed pipeline state), so two windows with
  the same encoded stimulus have bitwise-identical activity; the second
  occurrence is free.  The normal and corrected characterization flows,
  on-demand characterization during estimation, per-instruction
  breakdowns, and the Monte Carlo validator all route through one cache.
  Entries round-trip losslessly through a JSON document (packed bits +
  base64), which is what makes **period-sweep reuse** possible: the
  digest and the trace are independent of the clock period, so a
  re-characterization of the same program at a new period can preload
  the persisted entries and run zero logic simulations.
* :class:`WindowAnalysisPool` — fan-out for per-window /
  per-(block, edge) analysis tasks, executed by a named *executor*
  (:mod:`repro.dta.executor`: ``local-serial``, ``local-fork``, or the
  adaptive ``auto`` default, which forks only when its cost model says
  the fan-out pays on this host).  Tasks are dispatched in sorted key
  order and results are merged back in that same order, so a parallel
  run is byte-identical to a serial one; worker-side
  :class:`~repro.kernels.KernelStats` deltas are merged into the
  parent's counters so telemetry survives the fan-out, and large
  worker-side activity-trace deltas cross back through one
  ``multiprocessing.shared_memory`` block instead of per-entry pipe
  pickling.
"""

from __future__ import annotations

import base64
import hashlib
import math

import numpy as np

from repro.dta.executor import (
    SHM_MIN_BYTES,
    ExecutionPlan,
    adopt_bytes,
    get_executor,
    in_pool_worker,
    share_bytes,
)
from repro.kernels import kernel_stats
from repro.logicsim.activity import ActivityTrace

__all__ = ["ActivityCache", "WindowAnalysisPool"]


def _encode_bits(array: np.ndarray) -> dict:
    """A boolean array as a JSON-safe packed-bits document."""
    data = np.packbits(np.ascontiguousarray(array, dtype=bool), axis=None)
    return {
        "shape": [int(d) for d in array.shape],
        "bits": base64.b64encode(data.tobytes()).decode("ascii"),
    }


def _unpack_bits(raw, shape) -> np.ndarray:
    """The boolean array of ``shape`` packed into ``raw`` by ``packbits``."""
    count = int(np.prod(shape)) if shape else 0
    bits = np.frombuffer(raw, dtype=np.uint8)
    return np.unpackbits(bits, count=count).astype(bool).reshape(shape)


def _decode_bits(doc: dict) -> np.ndarray:
    """Exact inverse of :func:`_encode_bits`."""
    shape = tuple(int(d) for d in doc["shape"])
    return _unpack_bits(base64.b64decode(doc["bits"]), shape)


class ActivityCache:
    """Content-addressed window activity traces.

    The cache is an in-memory map ``stimulus digest -> ActivityTrace``
    shared by every consumer of window analysis within one estimator.
    It distinguishes entries *preloaded* from a persisted document (the
    sweep-reuse path, counted as ``windows_reused``) from entries added
    by this process's own simulations (counted as plain cache hits on
    re-use, and flagged ``dirty`` so callers know there is new content
    worth persisting).
    """

    #: Schema tag of the persisted document.
    SCHEMA = "repro.window-activity/1"

    def __init__(self) -> None:
        self._entries: dict[str, ActivityTrace] = {}
        self._preloaded: set[str] = set()
        self._dirty = False

    @staticmethod
    def digest(source_values: np.ndarray) -> str:
        """Content hash of an encoded stimulus (shape + packed bits)."""
        values = np.ascontiguousarray(source_values, dtype=bool)
        h = hashlib.sha256()
        h.update(repr(values.shape).encode())
        h.update(np.packbits(values, axis=None).tobytes())
        return h.hexdigest()

    def activity(self, source_values: np.ndarray, compute) -> ActivityTrace:
        """The activity trace for ``source_values``, cached by content.

        ``compute`` is the fallback simulator call (typically
        ``LevelizedSimulator.activity``); it runs on a miss and its
        result is stored.
        """
        stats = kernel_stats()
        key = self.digest(source_values)
        trace = self._entries.get(key)
        if trace is not None:
            stats.activity_cache_hits += 1
            if key in self._preloaded:
                stats.windows_reused += 1
            return trace
        stats.activity_cache_misses += 1
        trace = compute(source_values)
        self._entries[key] = trace
        self._dirty = True
        return trace

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, digest: str) -> bool:
        return digest in self._entries

    @property
    def dirty(self) -> bool:
        """True when entries were added since construction / preload."""
        return self._dirty

    # ------------------------------------------------------------------ #
    # Worker hand-off (fork-based pool)
    # ------------------------------------------------------------------ #

    def snapshot_keys(self) -> set[str]:
        """The digests currently cached (cheap; for worker deltas)."""
        return set(self._entries)

    def export_shared_since(
        self, keys: set[str], min_bytes: int = SHM_MIN_BYTES
    ) -> dict:
        """Worker->parent payload of the entries added since ``keys``.

        A trace crosses the worker->parent process boundary pickled; raw
        boolean arrays are 8x larger than their information content, so
        both arrays of every new entry are bit-packed with
        :func:`numpy.packbits` into one byte string, handed off by
        :func:`~repro.dta.executor.share_bytes` (inline when small,
        through one shared-memory block when large).  Only a fork-pool
        worker has a parent to hand a block to; elsewhere the payload
        stays inline.  The parent adopts with :meth:`adopt_shared`.
        """
        index: dict[str, tuple] = {}
        chunks: list[bytes] = []
        for digest, trace in self._entries.items():
            if digest in keys:
                continue
            activated = np.packbits(trace.activated, axis=None).tobytes()
            values = np.packbits(trace.values, axis=None).tobytes()
            index[digest] = (
                trace.activated.shape, len(activated), len(values)
            )
            chunks += (activated, values)
        if not in_pool_worker():
            min_bytes = math.inf
        return {"index": index, **share_bytes(b"".join(chunks), min_bytes)}

    def adopt_shared(self, payload: dict) -> None:
        """Exact inverse of :meth:`export_shared_since` (only-missing).

        Shared-memory payloads are consumed: the block is unlinked after
        its entries are adopted, whether or not any were new.
        """
        data = memoryview(adopt_bytes(payload))
        offset = 0
        for digest, (shape, a_len, v_len) in payload["index"].items():
            activated = data[offset : offset + a_len]
            values = data[offset + a_len : offset + a_len + v_len]
            offset += a_len + v_len
            if digest not in self._entries:
                self._entries[digest] = ActivityTrace(
                    activated=_unpack_bits(activated, shape),
                    values=_unpack_bits(values, shape),
                )
                self._dirty = True

    # ------------------------------------------------------------------ #
    # Persistence (period-sweep reuse)
    # ------------------------------------------------------------------ #

    def to_doc(self) -> dict:
        """A JSON-safe document of every entry (sorted, lossless)."""
        return {
            "schema": self.SCHEMA,
            "windows": {
                digest: {
                    "activated": _encode_bits(trace.activated),
                    "values": _encode_bits(trace.values),
                }
                for digest, trace in sorted(self._entries.items())
            },
        }

    def preload(self, doc: dict) -> int:
        """Load persisted entries; returns how many were added.

        Preloaded entries are tracked separately so that hits on them
        count as ``windows_reused`` — the counter the sweep benchmark
        asserts on.  Existing entries are never overwritten.
        """
        if doc.get("schema") != self.SCHEMA:
            raise ValueError(
                f"unsupported window-activity schema {doc.get('schema')!r};"
                f" expected {self.SCHEMA!r}"
            )
        added = 0
        for digest, entry in doc["windows"].items():
            if digest in self._entries:
                continue
            self._entries[digest] = ActivityTrace(
                activated=_decode_bits(entry["activated"]),
                values=_decode_bits(entry["values"]),
            )
            self._preloaded.add(digest)
            added += 1
        return added

    @classmethod
    def from_doc(cls, doc: dict) -> "ActivityCache":
        """A fresh cache populated from a :meth:`to_doc` document."""
        cache = cls()
        cache.preload(doc)
        return cache


# --------------------------------------------------------------------- #
# The pool
# --------------------------------------------------------------------- #


class WindowAnalysisPool:
    """Deterministic fan-out for window-analysis tasks, via an executor.

    ``map(func, context, n_tasks)`` evaluates ``func(context, i)`` for
    ``i in range(n_tasks)`` and returns the results *in task order* —
    the contract callers rely on to merge results in the same sorted
    key order as a serial run, making parallel output byte-identical.
    ``context`` is shared with fork workers through fork inheritance
    (not pickling), so it may hold arbitrarily heavy analyzer state;
    task *results* must be picklable.

    *How* the map runs is decided by the named executor
    (:mod:`repro.dta.executor`): ``local-serial`` stays in-process,
    ``local-fork`` forks on request (degrading only when forking is
    unsafe), and ``auto`` — the default — forks exactly when the cost
    model says the fan-out pays on this host.  Counters and results are
    shaped identically on every path, and concurrent ``map`` calls from
    different threads are safe: the serial path holds no shared state
    and the fork hand-off is serialized under a process-wide lock.
    """

    def __init__(self, workers: int = 1, executor: str = "auto") -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.executor_name = executor
        self._executor = get_executor(executor)

    def plan(self, n_tasks: int) -> "ExecutionPlan":
        """The :class:`ExecutionPlan` a map of ``n_tasks`` would run."""
        return self._executor.plan(n_tasks, self.workers)

    def map(self, func, context, n_tasks: int) -> list:
        return self._executor.map(func, context, n_tasks, self.workers)
