"""Tests for voltage scaling."""

import numpy as np
import pytest

from repro.perf import VoltageScalingModel


class TestVoltageModel:
    def test_nominal_factor_is_one(self):
        m = VoltageScalingModel()
        assert m.delay_factor(0.9) == pytest.approx(1.0)

    def test_lower_voltage_slower(self):
        m = VoltageScalingModel()
        assert m.delay_factor(0.8) > 1.0
        assert m.delay_factor(1.0) < 1.0

    def test_monotone_decreasing(self):
        m = VoltageScalingModel()
        vs = np.linspace(0.5, 1.2, 30)
        factors = m.delay_factor(vs)
        assert (np.diff(factors) < 0).all()

    def test_inverse_roundtrip(self):
        m = VoltageScalingModel()
        for factor in (0.9, 1.0, 1.1, 1.3):
            v = m.voltage_for_delay_factor(factor)
            assert m.delay_factor(v) == pytest.approx(factor, abs=1e-6)

    def test_paper_guardband_corner(self):
        """Section 6.1 signs off at 0.81 V, a 10% droop from 0.9 V."""
        m = VoltageScalingModel()
        assert m.guardband_voltage(0.10) == pytest.approx(0.81)
        # The droop corner is meaningfully slower than nominal.
        assert m.delay_factor(0.81) > 1.05

    def test_undervolt_equivalent_of_speculation(self):
        m = VoltageScalingModel()
        v = m.undervolt_for_speculation(1.15)
        assert v < 0.9
        assert m.delay_factor(v) == pytest.approx(1.15, abs=1e-6)

    def test_energy_saving_positive_and_bounded(self):
        m = VoltageScalingModel()
        saving = m.energy_saving_percent(1.15)
        assert 0.0 < saving < 50.0
        # More aggressive speculation buys more energy.
        assert m.energy_saving_percent(1.25) > saving

    def test_validation(self):
        with pytest.raises(ValueError):
            VoltageScalingModel(v_threshold=1.0)
        m = VoltageScalingModel()
        with pytest.raises(ValueError):
            m.delay_factor(0.2)
        with pytest.raises(ValueError):
            m.guardband_voltage(1.5)
