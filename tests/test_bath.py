import tracemalloc

import numpy as np
import pytest

from jcqsim import (HBAR, NumericalError, OhmicBath, SaturationError, eta_coefficients,
                    memory_time, power_spectrum, response_function,
                    spectral_density, thermal_beta)
from oracles import analytic_gamma, trapezoid_gamma


def test_bath_validation():
    with pytest.raises(ValueError):
        OhmicBath(alpha=-1e-6, omega_c=5.0, temperature=30.0)
    with pytest.raises(ValueError):
        OhmicBath(alpha=5e-6, omega_c=0.0, temperature=30.0)
    with pytest.raises(ValueError):
        OhmicBath(alpha=5e-6, omega_c=5.0, temperature=-1.0)


class TestSpectralDensity:

    def test_zero_at_zero(self, paper_bath):
        assert spectral_density(paper_bath, 0.0) == 0.0

    def test_value_at_qubit_frequency(self, paper_bath):
        # direct evaluation of 2 pi hbar alpha w exp(-w/w_c)
        expected = 2.0 * np.pi * HBAR * 5e-6 * 0.078698 * np.exp(-0.078698 / 5.0)
        assert expected == pytest.approx(1.6019e-3, rel=1e-4)
        assert spectral_density(paper_bath, 0.078698) == pytest.approx(expected, rel=1e-12)

    def test_maximum_at_cutoff(self, paper_bath):
        grid = np.linspace(1e-3, 40.0, 20000)
        values = [spectral_density(paper_bath, w) for w in grid]
        assert grid[int(np.argmax(values))] == pytest.approx(paper_bath.omega_c, abs=5e-3)

    def test_nonnegative(self, paper_bath):
        for w in np.linspace(0.0, 200.0, 100):
            assert spectral_density(paper_bath, w) >= 0.0

    def test_negative_frequency_rejected(self, paper_bath):
        with pytest.raises(ValueError):
            spectral_density(paper_bath, -0.1)


class TestPowerSpectrum:

    def test_low_frequency_limit(self, paper_bath):
        expected = 4.0 * np.pi * HBAR * paper_bath.alpha / thermal_beta(30.0)
        assert expected == pytest.approx(0.106915, rel=1e-4)
        assert power_spectrum(paper_bath, 1e-9) == pytest.approx(expected, rel=1e-6)

    def test_high_frequency_classical_ratio(self, paper_bath):
        w = 1.0  # beta hbar w >> 1
        ratio = power_spectrum(paper_bath, w) / (HBAR * spectral_density(paper_bath, w))
        assert ratio == pytest.approx(1.0, rel=1e-12)

    def test_exceeds_zero_point(self, paper_bath):
        # strictly above the zero-point value wherever coth - 1 is resolvable
        # in double precision; never below it anywhere
        for w in (1e-3, 0.01, 0.1):
            assert power_spectrum(paper_bath, w) > HBAR * spectral_density(paper_bath, w)
        for w in (1.0, 10.0):
            assert power_spectrum(paper_bath, w) >= HBAR * spectral_density(paper_bath, w)

    def test_zero_frequency_rejected(self, paper_bath):
        with pytest.raises(ValueError):
            power_spectrum(paper_bath, 0.0)


class TestResponseFunction:

    def test_imaginary_part_vanishes_at_origin(self, paper_bath):
        assert response_function(paper_bath, 0.0).imag == 0.0

    def test_imaginary_part_temperature_independent(self, paper_bath):
        hot = OhmicBath(alpha=5e-6, omega_c=5.0, temperature=300.0)
        for t in (0.5, 1.0, 5.0, 20.0):
            assert response_function(paper_bath, t).imag == pytest.approx(
                response_function(hot, t).imag, rel=1e-9)

    def test_trapezoid_oracle(self, paper_bath):
        # naive 1e6-point trapezoid over [0, 50 w_c]
        for t in (0.0, 1.0, 10.0):
            ref = trapezoid_gamma(paper_bath, t)
            val = response_function(paper_bath, t)
            assert abs(val - ref) / abs(ref) < 1e-6

    def test_analytic_oracle(self, paper_bath):
        # the fine panels near w = 0 scale with beta, so cover 10 to 300 mK;
        # the grid at 1000 ps is integrated in several panel blocks
        for bath in (OhmicBath(5e-6, 5.0, 10.0), paper_bath, OhmicBath(5e-6, 5.0, 300.0)):
            scale = abs(response_function(bath, 0.0).real)
            for t in (0.0, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 1000.0):
                ref = analytic_gamma(bath, t)
                val = response_function(bath, t)
                assert abs(val - ref) <= 1e-12 * scale

    @pytest.mark.parametrize("temperature", [10.0, 30.0, 300.0])
    def test_analytic_oracle_dense_vector(self, temperature):
        # one unsorted call over several chunks, so rows of different times
        # share the panel and node factors of each grid
        bath = OhmicBath(5e-6, 5.0, temperature)
        times = np.random.default_rng(7).permutation(
            np.concatenate([np.linspace(0.0, 100.0, 201), [1000.0]]))
        gammas = response_function(bath, times)
        scale = abs(analytic_gamma(bath, 0.0).real)
        for t, gamma in zip(times, gammas):
            assert abs(gamma - analytic_gamma(bath, t)) <= 1e-12 * scale
        assert gammas[times == 0.0][0].imag == 0.0

    def test_memory_decay_ratio(self, paper_bath):
        re0 = response_function(paper_bath, 0.0).real
        assert abs(response_function(paper_bath, 10.0).real) / re0 < 0.02

    def test_linear_in_alpha(self, paper_bath):
        doubled = OhmicBath(alpha=1e-5, omega_c=5.0, temperature=30.0)
        for t in (0.0, 1.0, 10.0):
            g1 = response_function(paper_bath, t)
            g2 = response_function(doubled, t)
            assert abs(g2 - 2.0 * g1) <= 1e-10 * abs(g1)

    def test_zero_time_real_part_monotone_in_temperature(self):
        values = [response_function(OhmicBath(5e-6, 5.0, temp), 0.0).real
                  for temp in (10.0, 30.0, 100.0, 300.0)]
        assert all(a < b for a, b in zip(values[:-1], values[1:]))

    def test_negative_time_rejected(self, paper_bath):
        with pytest.raises(ValueError):
            response_function(paper_bath, -1.0)

    @pytest.mark.parametrize("t", [np.nan, np.inf, [0.0, 1.0, np.nan]])
    def test_nonfinite_time_rejected(self, paper_bath, t):
        with pytest.raises(ValueError):
            response_function(paper_bath, t)

    def test_zero_coupling(self):
        free = OhmicBath(alpha=0.0, omega_c=5.0, temperature=30.0)
        assert response_function(free, 3.0) == 0.0

    def test_vector_matches_scalar(self, paper_bath):
        # unsorted, repeated and spanning several chunks; shape is kept
        times = np.array([[50.0, 0.0, 0.3, 7.0, 0.3], [100.0, 1.0, 2.0, 0.05, 20.0]])
        gammas = response_function(paper_bath, times)
        assert gammas.shape == times.shape and gammas.dtype == complex
        scale = response_function(paper_bath, 0.0).real
        for t, gamma in zip(times.ravel(), gammas.ravel()):
            assert abs(gamma - response_function(paper_bath, t)) <= 1e-13 * scale


class TestMemoryTime:

    def test_loose_threshold_met_immediately(self, paper_bath):
        assert memory_time(paper_bath, 0.999, t_max=20.0) <= 0.1

    def test_alpha_rescaling_invariance(self, paper_bath):
        doubled = OhmicBath(alpha=1e-5, omega_c=5.0, temperature=30.0)
        assert memory_time(paper_bath, 0.05, t_max=20.0) == pytest.approx(
            memory_time(doubled, 0.05, t_max=20.0), abs=1e-12)

    def test_consistent_with_reported_memory_time(self, paper_bath):
        # the reported bath memory is about 10 ps; the 2% criterion is met
        # well inside that
        tau_mem = memory_time(paper_bath, 0.02, t_max=20.0)
        assert 0.1 < tau_mem <= 10.0

    def test_saturation(self, paper_bath):
        with pytest.raises(SaturationError):
            memory_time(paper_bath, 1e-9, t_max=10.0)

    @pytest.mark.parametrize("threshold, grid", [
        pytest.param(1.5, {}, id="threshold=1.5"),
        pytest.param(0.0, {}, id="threshold=0"),
        pytest.param(0.01, {"t_step": 0.0}, id="t_step=0"),
        pytest.param(0.01, {"t_step": -0.1}, id="t_step<0"),
        pytest.param(0.01, {"t_step": 200.0}, id="t_step>t_max"),
        pytest.param(0.01, {"t_max": -1.0}, id="t_max<0"),
        pytest.param(0.01, {"t_max": 0.0}, id="t_max=0"),
        pytest.param(0.01, {"t_max": np.nan}, id="t_max=nan"),
        pytest.param(0.01, {"t_max": np.inf}, id="t_max=inf"),
        pytest.param(0.01, {"t_step": np.nan}, id="t_step=nan"),
    ])
    def test_threshold_domain(self, paper_bath, threshold, grid):
        with pytest.raises(ValueError):
            memory_time(paper_bath, threshold, **grid)


@pytest.mark.parametrize("work", [
    pytest.param(lambda bath: memory_time(bath, 0.01), id="memory_time"),
    pytest.param(lambda bath: eta_coefficients(bath, 12.707, 64, 64), id="eta-192-rows"),
])
def test_working_memory_bounded(paper_bath, work):
    # passes shrink as the row count grows; the whole grid at once would
    # hold hundreds of MB at dk_max = 64
    tracemalloc.start()
    try:
        work(paper_bath)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_time_beyond_panel_limit(paper_bath):
    # raised before the grid is allocated
    with pytest.raises(NumericalError):
        response_function(paper_bath, 1e7)


def test_quadrature_failure_reports_residual(paper_bath):
    with pytest.raises(NumericalError) as info:
        response_function(paper_bath, 10.0, rtol=1e-300)
    assert info.value.residual is not None and info.value.residual > 0.0
