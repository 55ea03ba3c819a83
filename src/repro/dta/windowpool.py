"""Window-analysis layer: activity deduplication.

Every expensive step of the training phase is a *window analysis*: push
an instruction window through the pipeline scheduler, encode the
stimulus, run the levelized logic simulation, and analyze the resulting
switching activity with Algorithms 1 and 2.  Callers
(:mod:`repro.dta.characterize`, :mod:`repro.core.montecarlo`) run their
windows in-process, one after another, in sorted key order; this module
holds the structural optimization they share.

:class:`ActivityCache` is a content-addressed cache of
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
"""

from __future__ import annotations

import base64
import hashlib

import numpy as np

from repro.kernels import kernel_stats
from repro.logicsim.activity import ActivityTrace

__all__ = ["ActivityCache"]


def _encode_bits(array: np.ndarray) -> dict:
    """A boolean array as a JSON-safe packed-bits document."""
    data = np.packbits(np.ascontiguousarray(array, dtype=bool), axis=None)
    return {
        "shape": [int(d) for d in array.shape],
        "bits": base64.b64encode(data.tobytes()).decode("ascii"),
    }


def _decode_bits(doc: dict) -> np.ndarray:
    """Exact inverse of :func:`_encode_bits`."""
    shape = tuple(int(d) for d in doc["shape"])
    count = int(np.prod(shape)) if shape else 0
    bits = np.frombuffer(base64.b64decode(doc["bits"]), dtype=np.uint8)
    return np.unpackbits(bits, count=count).astype(bool).reshape(shape)


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
        self._documents: set[str] = set()
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
        """True when entries were added since construction or the last
        :meth:`mark_persisted`."""
        return self._dirty

    def mark_persisted(self) -> None:
        """Clear :attr:`dirty`: every entry has been written out."""
        self._dirty = False

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

    def preload(self, doc: dict, key: str | None = None) -> int:
        """Load persisted entries; returns how many were added.

        Preloaded entries are tracked separately so that hits on them
        count as ``windows_reused`` — the counter the sweep benchmark
        asserts on.  Existing entries are never overwritten.  ``key``,
        the document's store key, is remembered for :meth:`loaded`.
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
        if key is not None:
            self._documents.add(key)
        return added

    def loaded(self, key: str) -> bool:
        """Whether the document stored under ``key`` was preloaded."""
        return key in self._documents

    @classmethod
    def from_doc(cls, doc: dict) -> "ActivityCache":
        """A fresh cache populated from a :meth:`to_doc` document."""
        cache = cls()
        cache.preload(doc)
        return cache
