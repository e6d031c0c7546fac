import numpy as np
import pytest

from jcqsim import units


def test_thermal_beta_at_30mk():
    # hand evaluation of 1/(k_B * 30)
    assert units.thermal_beta(30.0) == pytest.approx(1.0 / (0.08617333262 * 30.0), rel=1e-14)
    assert units.thermal_beta(30.0) == pytest.approx(0.3868173, rel=1e-6)


def test_thermal_beta_high_temperature_limit():
    assert units.thermal_beta(1e16) < 1e-14


def test_thermal_beta_rejects_nonpositive():
    with pytest.raises(ValueError):
        units.thermal_beta(0.0)
    with pytest.raises(ValueError):
        units.thermal_beta(-5.0)


def test_coth_argument_consistency():
    # E_J / (2 k_B T) at the working point feeds the golden-rule coth
    value = 51.8 * units.thermal_beta(30.0) / 2.0
    assert value == pytest.approx(10.0186, abs=2e-3)


def test_thermal_beta_strictly_decreasing():
    temps = np.linspace(1.0, 500.0, 40)
    betas = [units.thermal_beta(t) for t in temps]
    assert all(b1 > b2 for b1, b2 in zip(betas[:-1], betas[1:]))


def test_characteristic_time_of_working_point():
    # hbar / E_J is the qubit characteristic time, about 12.707 ps
    assert units.HBAR / 51.8 == pytest.approx(12.707, abs=5e-4)


def test_hbar_value_matches_codata():
    # 6.582119569e-16 eV s expressed in ueV ps
    assert units.HBAR == pytest.approx(6.582119569e-16 * 1e6 * 1e12, rel=1e-14)
