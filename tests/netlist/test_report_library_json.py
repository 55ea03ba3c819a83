"""Tests for the timing-library JSON round trip."""

import pytest

from repro.netlist import CellTiming, GateType, TimingLibrary


class TestLibraryJson:
    def test_roundtrip_identity(self):
        lib = TimingLibrary(setup_time=40.0, derate=1.1)
        again = TimingLibrary.from_json(lib.to_json())
        assert again.to_json() == lib.to_json()
        assert again.setup_time == 40.0
        assert again.derate == 1.1
        for t in GateType:
            assert again.delay(t, 2) == pytest.approx(lib.delay(t, 2))

    def test_overrides_survive(self):
        lib = TimingLibrary(
            cells={GateType.NOT: CellTiming(99.0, 1.0, 0.2)}
        )
        again = TimingLibrary.from_json(lib.to_json())
        assert again.delay(GateType.NOT, 0) == pytest.approx(99.0 * 1.0)
        assert again.sigma_fraction(GateType.NOT) == 0.2

    def test_file_roundtrip(self, tmp_path):
        lib = TimingLibrary()
        path = tmp_path / "lib.json"
        lib.save(path)
        assert TimingLibrary.load(path).to_json() == lib.to_json()

    def test_malformed_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            TimingLibrary.from_json('{"cells": {"and2": {}}}')

    def test_defaults_for_missing_top_level(self):
        lib = TimingLibrary.from_json('{"cells": {}}')
        assert lib.derate == 1.0
