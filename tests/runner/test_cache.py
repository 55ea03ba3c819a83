"""Stability and input coverage of the artifact-store keys.

Store entries are addressed by input-IR content hashes
(:class:`ControlInputIR` / :class:`DatapathInputIR`) and by the
program fingerprint.  ``TestArtifactCache`` pins the on-disk entry
contract the runner relies on; the rest of the store is covered by
``tests/pipeline/test_store.py``.
"""

import json

import pytest

from repro.cpu import assemble
from repro.netlist import PipelineConfig
from repro.pipeline import ArtifactStore
from repro.pipeline.ir import (
    ControlInputIR,
    DatapathInputIR,
    ProcessorConfig,
    TrainingSpec,
)
from repro.runner import program_fingerprint, stable_digest
from repro.variation import VariationConfig

SRC = "li r1, 5\nloop: subcc r1, r1, 1\nbne loop\nhalt"


@pytest.fixture(scope="module")
def program():
    return assemble(SRC, name="cache-toy")


def _control_key(program, **overrides):
    kwargs = dict(
        pipeline_config=PipelineConfig(),
        variation_config=VariationConfig(),
        scheme_name="replay-half-frequency",
        clock_period=1.2345678901234567,
        paths_per_endpoint=12,
        train_scale="small",
        train_seed=None,
        train_instructions=400_000,
    )
    kwargs.update(overrides)
    config = ProcessorConfig(
        pipeline=kwargs["pipeline_config"],
        variation=kwargs["variation_config"],
        scheme=kwargs["scheme_name"],
        paths_per_endpoint=kwargs["paths_per_endpoint"],
    )
    spec = TrainingSpec(
        kwargs["train_scale"], kwargs["train_seed"],
        kwargs["train_instructions"],
    )
    return ControlInputIR.build(
        program, config, spec, float(kwargs["clock_period"])
    ).content_hash


def _datapath_key(**config):
    return DatapathInputIR.build(ProcessorConfig(**config)).content_hash


class TestKeys:
    def test_stable_digest_ignores_key_order(self):
        assert stable_digest({"a": 1, "b": 2}) == stable_digest(
            {"b": 2, "a": 1}
        )

    def test_control_key_is_stable(self, program):
        """Same inputs must always map to the same key (across runs)."""
        assert _control_key(program) == _control_key(program)

    def test_control_key_tracks_every_input(self, program):
        base = _control_key(program)
        other = assemble(SRC, name="other-name")
        assert _control_key(other) != base
        assert _control_key(program, clock_period=1.3) != base
        assert _control_key(program, scheme_name="pipeline-flush") != base
        assert _control_key(program, train_scale="large") != base
        assert _control_key(program, train_seed=1) != base
        assert _control_key(program, train_instructions=10) != base
        assert (
            _control_key(
                program,
                pipeline_config=PipelineConfig(data_width=8),
            )
            != base
        )

    def test_control_key_full_period_precision(self, program):
        """Periods differing below display precision still differ."""
        a = _control_key(program, clock_period=1.0)
        b = _control_key(program, clock_period=1.0 + 1e-12)
        assert a != b

    def test_datapath_key_is_period_independent(self):
        key = _datapath_key(paths_per_endpoint=12)
        assert key == _datapath_key(paths_per_endpoint=12)
        assert key == _datapath_key(paths_per_endpoint=12, speculation=1.3)
        assert key != _datapath_key(
            pipeline=PipelineConfig(seed=99), paths_per_endpoint=12
        )

    def test_program_fingerprint_covers_code(self, program):
        same = assemble(SRC, name="cache-toy")
        assert program_fingerprint(same) == program_fingerprint(program)
        patched = assemble(
            "li r1, 6\nloop: subcc r1, r1, 1\nbne loop\nhalt",
            name="cache-toy",
        )
        assert program_fingerprint(patched) != program_fingerprint(
            program
        )


class TestArtifactCache:
    """The runner's on-disk artifact cache is a disk-backed ArtifactStore."""

    def test_roundtrip(self, tmp_path):
        cache = ArtifactStore(tmp_path)
        key = "ab" + "0" * 62
        assert cache.get_entry("control", key) is None
        assert ("control", key) not in cache
        path = cache.put_entry("control", key, {"x": [1, 2, 3]})
        assert path.exists()
        assert cache.get_entry("control", key) == {"x": [1, 2, 3]}
        assert ("control", key) in cache

    def test_layout_shards_by_prefix(self, tmp_path):
        cache = ArtifactStore(tmp_path)
        key = "cd" + "1" * 62
        path = cache.put_entry("datapath", key, {})
        assert path == tmp_path / "datapath" / "cd" / f"{key}.json"
        assert cache.entries() == [path]

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ArtifactStore(tmp_path)
        key = "ef" + "2" * 62
        path = cache.put_entry("control", key, {"ok": True})
        path.write_text("{not json")
        assert cache.get_entry("control", key) is None
        # A corrupt (truncated / garbage) entry is evicted on read, so
        # the recompute-and-put path finds a clean slot.
        assert not path.exists()
        cache.put_entry("control", key, {"ok": True})
        assert cache.get_entry("control", key) == {"ok": True}

    def test_truncated_entry_is_evicted(self, tmp_path):
        cache = ArtifactStore(tmp_path)
        key = "ab" + "4" * 62
        path = cache.put_entry("windows", key, {"windows": {"a": [1, 2, 3]}})
        full = path.read_text()
        path.write_text(full[: len(full) // 2])  # torn write
        assert cache.get_entry("windows", key) is None
        assert not path.exists()
        assert cache.entries() == []

    def test_double_put_is_idempotent(self, tmp_path):
        cache = ArtifactStore(tmp_path)
        key = "01" + "3" * 62
        cache.put_entry("control", key, {"v": 1})
        cache.put_entry("control", key, {"v": 1})
        assert len(cache.entries()) == 1
        assert json.loads(cache.entries()[0].read_text()) == {"v": 1}
