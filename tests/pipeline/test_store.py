"""The unified content-addressed ArtifactStore."""

import json
import os

import pytest

from repro.pipeline.store import ArtifactStore, stable_digest

DOC = {"schema": "test/1", "value": [1, 2, 3]}


class TestKeying:
    def test_stable_digest_is_order_insensitive(self):
        assert stable_digest({"a": 1, "b": 2}) == stable_digest(
            {"b": 2, "a": 1}
        )

    def test_compose_key_covers_every_part(self):
        base = ArtifactStore.compose_key("dta", "kernels", "abc")
        assert ArtifactStore.compose_key("dta", "kernels", "abc") == base
        assert ArtifactStore.compose_key("datapath", "kernels", "abc") != base
        assert ArtifactStore.compose_key("dta", "reference", "abc") != base
        assert ArtifactStore.compose_key("dta", "kernels", "abd") != base


class TestMemoryStore:
    def test_roundtrip_and_contains(self):
        store = ArtifactStore()
        key = store.compose_key("dta", "kernels", "in0")
        assert store.get_entry("dta", key) is None
        store.put_entry("dta", key, DOC)
        assert store.get_entry("dta", key) == DOC
        assert ("dta", key) in store
        assert ("dta", "other") not in store

    def test_no_paths_in_memory_mode(self):
        store = ArtifactStore()
        with pytest.raises(ValueError):
            store.path_for("dta", "abcd")

    def test_entry_counts_and_describe(self):
        store = ArtifactStore()
        store.put_entry("control", "k1", DOC)
        store.put_entry("control", "k2", DOC)
        store.put_entry("windows", "k3", DOC)
        assert store.entry_counts() == {"control": 2, "windows": 1}
        info = store.describe()
        assert info["location"] == "memory"
        assert info["stats"]["control"]["puts"] == 2


class TestDiskStore:
    def test_roundtrip_layout_and_atomicity(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = "cdef" + "0" * 60
        path = store.put_entry("datapath", key, DOC)
        assert path == tmp_path / "datapath" / "cd" / f"{key}.json"
        assert store.get_entry("datapath", key) == DOC
        # No temp files left behind.
        assert not list(tmp_path.rglob(".tmp-*"))

    def test_corrupt_entry_is_deleted_and_missed(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = "ab" + "1" * 62
        store.put_entry("control", key, DOC)
        path = store.path_for("control", key)
        path.write_text('{"schema": "test/1", "value": [1, 2')  # truncated
        assert store.get_entry("control", key) is None
        assert not path.exists(), "corrupt entry must be removed"
        assert store.stats["control"]["corrupt"] == 1
        # The recompute-and-put path repopulates cleanly.
        store.put_entry("control", key, DOC)
        assert store.get_entry("control", key) == DOC

    def test_has_entry_checks_validity(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = "ac" + "4" * 62
        assert not store.has_entry("control", key)
        store.put_entry("control", key, DOC)
        assert store.has_entry("control", key)
        # Another store has not read the entry yet: it decodes it once.
        assert ArtifactStore(tmp_path).has_entry("control", key)
        path = store.path_for("control", key)
        path.write_text('{"schema": "test/1", "value": [1, 2')  # truncated
        assert not store.has_entry("control", key)
        assert not path.exists(), "corrupt entry must be removed"
        assert store.stats["control"]["corrupt"] == 1

    def test_unchanged_tracks_this_stores_reads_and_writes(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = "ac" + "5" * 62
        assert not store.unchanged("control", key)
        store.put_entry("control", key, DOC)
        assert store.unchanged("control", key)
        other = ArtifactStore(tmp_path)
        assert not other.unchanged("control", key)
        other.get_entry("control", key)
        assert other.unchanged("control", key)
        path = store.path_for("control", key)
        stat = path.stat()
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**6))
        assert not store.unchanged("control", key)
        assert not ArtifactStore().unchanged("control", key)

    def test_hit_miss_telemetry(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = store.compose_key("dta", "kernels", "x")
        assert store.get_entry("dta", key) is None
        store.put_entry("dta", key, DOC)
        assert store.get_entry("dta", key) == DOC
        stats = store.stats["dta"]
        assert stats == {"hits": 1, "misses": 1, "puts": 1, "corrupt": 0}

    def test_backend_identity_partitions_entries(self, tmp_path):
        store = ArtifactStore(tmp_path)
        kernels = store.compose_key("dta", "kernels", "same-input")
        other = store.compose_key("dta", "reference", "same-input")
        store.put_entry("dta", kernels, DOC)
        assert store.get_entry("dta", other) is None
        assert store.get_entry("dta", kernels) == DOC

    def test_entries_sorted(self, tmp_path):
        store = ArtifactStore(tmp_path)
        keys = ["aa" + "2" * 62, "bb" + "3" * 62]
        for k in keys:
            store.put_entry("windows", k, DOC)
        entries = store.entries()
        assert entries == sorted(entries)
        assert len(entries) == 2

    def test_double_put_idempotent(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = "ee" + "4" * 62
        store.put_entry("control", key, DOC)
        store.put_entry("control", key, DOC)
        assert json.loads(store.path_for("control", key).read_text()) == DOC
        assert len(store.entries()) == 1
