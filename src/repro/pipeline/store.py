"""One content-addressed artifact store for every pipeline stage.

Before this module existed the repository had three caching mechanisms,
each with its own keying and persistence: the runner's artifact cache
(control / datapath / windows JSON documents on disk), the
``ActivityCache``'s ``to_doc``/``preload`` round-trip, and the stage
analyzer's path-moment ``registry_doc``.  The :class:`ArtifactStore`
collapses their *persistence* behind one contract:

* every entry is addressed by ``(stage name, implementation name, input
  IR content hash)``, digested into a single SHA-256 key
  (:meth:`ArtifactStore.compose_key`);
* entries are JSON documents living at
  ``<root>/<stage>/<key[:2]>/<key>.json`` (or in memory when no root is
  given, which is what gives every pipeline memoization for free);
* writes are durable and atomic — the temp file is fsynced before the
  rename and the directory is fsynced after it — so a ``SIGKILL``ed
  writer can never leave a truncated artifact behind, and concurrent
  writers (processes, service tenants) share a directory without
  locking;
* a corrupt entry is a *miss*: it is deleted and the stage recomputes,
  instead of poisoning the run with a parse error;
* an optional byte budget (``max_bytes``) turns the store into an LRU
  cache: recency is tracked in a small SQLite index (``index.db``,
  WAL-mode — safe across processes, in the spirit of DAVOS's SQL-backed
  report store) and the least-recently-used entries are evicted when a
  write pushes the total over budget.

Period-independent stages (datapath training, window artifacts) simply
omit the clock period from their input IR, so one entry serves every
operating point of a frequency sweep — the same hierarchical-reuse
structure FATE uses between its gate-level and high-level models.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import tempfile
import threading
import time
from pathlib import Path

__all__ = ["ArtifactStore", "stable_digest"]

#: Environment variable consulted for a default store byte budget.
BUDGET_ENV = "REPRO_STORE_BUDGET"


def stable_digest(doc) -> str:
    """SHA-256 hex digest of a canonical JSON rendering of ``doc``."""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _fsync_dir(path: Path) -> None:
    """Best-effort fsync of a directory (durability of the rename)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


class ArtifactStore:
    """Content-addressed JSON artifact documents, one namespace per stage.

    Args:
        root: Directory for the on-disk store, or ``None`` for a
            process-local in-memory store (same contract, no
            persistence) — the default every
            :class:`~repro.pipeline.pipeline.EstimationPipeline` gets so
            stages are memoized even without a cache directory.
        max_bytes: LRU eviction budget in bytes of stored JSON; ``None``
            (the default) reads the :data:`BUDGET_ENV` environment
            variable and falls back to unbounded.  Applies to both
            backings.
    """

    def __init__(self, root=None, max_bytes: int | None = None) -> None:
        self.root = Path(root) if root is not None else None
        if max_bytes is None:
            env = os.environ.get(BUDGET_ENV)
            max_bytes = int(env) if env else None
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive (or None)")
        self.max_bytes = max_bytes
        self._memory: dict[tuple[str, str], dict] = {}
        self._memory_sizes: dict[tuple[str, str], int] = {}
        self._index_conn: sqlite3.Connection | None = None
        # (size, mtime_ns) of each on-disk entry this store last decoded
        # or wrote: an unchanged file is known valid without a re-read.
        self._verified: dict[tuple[str, str], tuple[int, int]] = {}
        self._lock = threading.Lock()
        #: Per-stage telemetry: ``{stage: {"hits": n, "misses": n,
        #: "puts": n, "corrupt": n}}`` accumulated over this store's
        #: lifetime (the ``pipeline inspect`` / warm-run evidence).
        self.stats: dict[str, dict[str, int]] = {}
        #: Entries/bytes removed by LRU eviction over this store's
        #: lifetime.
        self.evicted_entries: int = 0
        self.evicted_bytes: int = 0

    # ------------------------------------------------------------------ #
    # Keying
    # ------------------------------------------------------------------ #

    @staticmethod
    def compose_key(stage: str, backend: str, input_hash: str) -> str:
        """The store key for one (stage, backend, input IR hash) triple."""
        return stable_digest(
            {"stage": stage, "backend": backend, "input": input_hash}
        )

    # ------------------------------------------------------------------ #
    # Entry API (keys from compose_key)
    # ------------------------------------------------------------------ #

    def path_for(self, namespace: str, key: str) -> Path:
        if self.root is None:
            raise ValueError("in-memory ArtifactStore has no paths")
        return self.root / namespace / key[:2] / f"{key}.json"

    def get_entry(self, namespace: str, key: str) -> dict | None:
        """Fetch by explicit key; corrupt entries are deleted and miss."""
        counters = self._counters(namespace)
        if self.root is None:
            doc = self._memory.get((namespace, key))
            if doc is not None:
                # Re-insert to mark recency (dicts preserve order).
                self._memory[(namespace, key)] = self._memory.pop(
                    (namespace, key)
                )
                counters["hits"] += 1
            else:
                counters["misses"] += 1
            return doc
        path = self.path_for(namespace, key)
        try:
            with open(path) as handle:
                doc = json.load(handle)
                stat = os.fstat(handle.fileno())
        except OSError:
            counters["misses"] += 1
            self._index_forget(namespace, key)
            return None
        except ValueError:
            # Truncated write or garbage: treat as a miss and remove the
            # entry so the recompute's put() repopulates it cleanly.
            counters["misses"] += 1
            counters["corrupt"] += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            self._index_forget(namespace, key)
            return None
        self._verified[(namespace, key)] = (stat.st_size, stat.st_mtime_ns)
        counters["hits"] += 1
        self._index_touch(namespace, key, path)
        return doc

    def has_entry(self, namespace: str, key: str) -> bool:
        """Whether a valid entry exists, for a caller that already holds
        the document's content.

        An entry this store decoded or wrote, and whose file has not
        changed since (same size and modification time), is checked by
        ``stat`` alone.  Any other entry is read like :meth:`get_entry`,
        so a truncated or corrupt one is removed and reads as a miss.
        Counted and marked recently used like a :meth:`get_entry` call.
        """
        if not self.unchanged(namespace, key):
            return self.get_entry(namespace, key) is not None
        self._counters(namespace)["hits"] += 1
        self._index_touch(namespace, key, self.path_for(namespace, key))
        return True

    def unchanged(self, namespace: str, key: str) -> bool:
        """Whether this store decoded or wrote the entry and its file has
        not changed since (same size and modification time).

        Always false for an in-memory store, whose reads decode nothing.
        Not counted as a read.
        """
        if self.root is None:
            return False
        try:
            stat = os.stat(self.path_for(namespace, key))
        except OSError:
            return False
        verified = self._verified.get((namespace, key))
        return verified == (stat.st_size, stat.st_mtime_ns)

    def put_entry(self, namespace: str, key: str, doc: dict):
        """Store by explicit key; durable, concurrent writers are safe."""
        self._counters(namespace)["puts"] += 1
        blob = json.dumps(doc)
        if self.root is None:
            self._memory.pop((namespace, key), None)
            self._memory[(namespace, key)] = doc
            self._memory_sizes[(namespace, key)] = len(blob)
            self._evict(protect=(namespace, key))
            return None
        path = self.path_for(namespace, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
                stat = os.fstat(handle.fileno())
            os.replace(tmp, path)
            _fsync_dir(path.parent)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._verified[(namespace, key)] = (stat.st_size, stat.st_mtime_ns)
        self._index_record(namespace, key, len(blob))
        self._evict(protect=(namespace, key))
        return path

    def __contains__(self, namespace_key: tuple[str, str]) -> bool:
        namespace, key = namespace_key
        if self.root is None:
            return (namespace, key) in self._memory
        return self.path_for(namespace, key).exists()

    # ------------------------------------------------------------------ #
    # LRU index + eviction
    # ------------------------------------------------------------------ #

    def _index(self) -> sqlite3.Connection:
        """The recency/size index (lazily opened, WAL, cross-process)."""
        if self._index_conn is None:
            assert self.root is not None
            self.root.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(
                self.root / "index.db",
                timeout=30.0,
                check_same_thread=False,
            )
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(
                "CREATE TABLE IF NOT EXISTS entries ("
                " namespace TEXT NOT NULL,"
                " key TEXT NOT NULL,"
                " bytes INTEGER NOT NULL,"
                " accessed REAL NOT NULL,"
                " PRIMARY KEY (namespace, key))"
            )
            conn.commit()
            self._index_conn = conn
        return self._index_conn

    def _index_record(self, namespace: str, key: str, nbytes: int) -> None:
        with self._lock:
            conn = self._index()
            conn.execute(
                "INSERT OR REPLACE INTO entries (namespace, key, bytes,"
                " accessed) VALUES (?, ?, ?, ?)",
                (namespace, key, nbytes, time.time()),
            )
            conn.commit()

    def _index_touch(self, namespace: str, key: str, path: Path) -> None:
        with self._lock:
            conn = self._index()
            updated = conn.execute(
                "UPDATE entries SET accessed = ? WHERE namespace = ?"
                " AND key = ?",
                (time.time(), namespace, key),
            ).rowcount
            if not updated:
                # File exists but predates the index (or another process
                # evicted the row): reconcile from the filesystem.
                try:
                    nbytes = path.stat().st_size
                except OSError:
                    nbytes = 0
                conn.execute(
                    "INSERT OR REPLACE INTO entries (namespace, key,"
                    " bytes, accessed) VALUES (?, ?, ?, ?)",
                    (namespace, key, nbytes, time.time()),
                )
            conn.commit()

    def _index_forget(self, namespace: str, key: str) -> None:
        with self._lock:
            conn = self._index()
            conn.execute(
                "DELETE FROM entries WHERE namespace = ? AND key = ?",
                (namespace, key),
            )
            conn.commit()

    def total_bytes(self) -> int:
        """Stored JSON bytes (index-tracked on disk, exact in memory)."""
        if self.root is None:
            return sum(self._memory_sizes.values())
        with self._lock:
            row = self._index().execute(
                "SELECT COALESCE(SUM(bytes), 0) FROM entries"
            ).fetchone()
        return int(row[0])

    def _evict(self, protect: tuple[str, str]) -> None:
        """Drop least-recently-used entries until under ``max_bytes``.

        The just-written entry is protected so a put always makes
        progress even when it alone exceeds the budget.
        """
        if self.max_bytes is None:
            return
        if self.root is None:
            total = sum(self._memory_sizes.values())
            for ns_key in list(self._memory):
                if total <= self.max_bytes:
                    break
                if ns_key == protect:
                    continue
                self._memory.pop(ns_key, None)
                size = self._memory_sizes.pop(ns_key, 0)
                total -= size
                self.evicted_entries += 1
                self.evicted_bytes += size
            return
        while True:
            with self._lock:
                conn = self._index()
                total = int(conn.execute(
                    "SELECT COALESCE(SUM(bytes), 0) FROM entries"
                ).fetchone()[0])
                if total <= self.max_bytes:
                    return
                victim = conn.execute(
                    "SELECT namespace, key, bytes FROM entries"
                    " WHERE NOT (namespace = ? AND key = ?)"
                    " ORDER BY accessed, namespace, key LIMIT 1",
                    protect,
                ).fetchone()
                if victim is None:
                    return
                namespace, key, nbytes = victim
                conn.execute(
                    "DELETE FROM entries WHERE namespace = ? AND key = ?",
                    (namespace, key),
                )
                conn.commit()
            try:
                os.unlink(self.path_for(namespace, key))
            except OSError:
                pass
            self.evicted_entries += 1
            self.evicted_bytes += int(nbytes)

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #

    def entries(self) -> list:
        """All stored artifacts (paths on disk, (namespace, key) in memory)."""
        if self.root is None:
            return sorted(self._memory)
        if not self.root.exists():
            return []
        return sorted(self.root.glob("*/??/*.json"))

    def entry_counts(self) -> dict[str, int]:
        """Stored entries per namespace (for ``pipeline inspect``)."""
        counts: dict[str, int] = {}
        if self.root is None:
            for namespace, _key in self._memory:
                counts[namespace] = counts.get(namespace, 0) + 1
            return counts
        for path in self.entries():
            namespace = path.parent.parent.name
            counts[namespace] = counts.get(namespace, 0) + 1
        return counts

    def describe(self) -> dict:
        """Location, budget, per-stage entry counts, and telemetry."""
        return {
            "location": str(self.root) if self.root is not None else "memory",
            "entries": self.entry_counts(),
            "bytes": self.total_bytes(),
            "budget_bytes": self.max_bytes,
            "evicted_entries": self.evicted_entries,
            "evicted_bytes": self.evicted_bytes,
            "stats": {k: dict(v) for k, v in sorted(self.stats.items())},
        }

    def close(self) -> None:
        """Close the recency index connection (no-op when unopened)."""
        if self._index_conn is not None:
            self._index_conn.close()
            self._index_conn = None

    def _counters(self, namespace: str) -> dict[str, int]:
        return self.stats.setdefault(
            namespace, {"hits": 0, "misses": 0, "puts": 0, "corrupt": 0}
        )
