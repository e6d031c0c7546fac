import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest

from jcqsim import (HBAR, OhmicBath, SaturationError, eta_coefficients, memory_time,
                    power_spectrum, response_function, response_integral,
                    spectral_density, thermal_beta)
from jcqsim.bath import _MEMORY_TIMES, _memory_shape
from jcqsim.influence import _q_shape
from oracles import analytic_gamma, trapezoid_gamma


def test_bath_validation():
    with pytest.raises(ValueError):
        OhmicBath(alpha=-1e-6, omega_c=5.0, temperature=30.0)
    with pytest.raises(ValueError):
        OhmicBath(alpha=5e-6, omega_c=0.0, temperature=30.0)
    with pytest.raises(ValueError):
        OhmicBath(alpha=5e-6, omega_c=5.0, temperature=-1.0)


@pytest.mark.parametrize("field", ["alpha", "omega_c", "temperature"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_bath_nonfinite_rejected(field, value):
    params = {"alpha": 5e-6, "omega_c": 5.0, "temperature": 30.0, field: value}
    with pytest.raises(ValueError, match="finite"):
        OhmicBath(**params)


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
        # the thermal scale beta hbar / 2 enters the trigamma argument, so
        # cover 10 to 300 mK; at large t the terms of Re gamma cancel to
        # leave a 1/t^2 tail
        for bath in (OhmicBath(5e-6, 5.0, 10.0), paper_bath, OhmicBath(5e-6, 5.0, 300.0)):
            scale = abs(response_function(bath, 0.0).real)
            for t in (0.0, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 1000.0, 1e4, 1e5, 1e7):
                ref = analytic_gamma(bath, t)
                val = response_function(bath, t)
                assert abs(val - ref) <= 1e-12 * scale

    @pytest.mark.parametrize("temperature", [10.0, 30.0, 300.0])
    def test_analytic_oracle_dense_vector(self, temperature):
        # one unsorted call over many times, elementwise against the oracle
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
        # unsorted and repeated; shape is kept
        times = np.array([[50.0, 0.0, 0.3, 7.0, 0.3], [100.0, 1.0, 2.0, 0.05, 20.0]])
        gammas = response_function(paper_bath, times)
        assert gammas.shape == times.shape and gammas.dtype == complex
        scale = response_function(paper_bath, 0.0).real
        for t, gamma in zip(times.ravel(), gammas.ravel()):
            assert abs(gamma - response_function(paper_bath, t)) <= 1e-13 * scale


def test_trigamma_matches_mpmath():
    # gamma weights the trigamma by 1/(2 b^2), so the gamma oracles hide
    # its error; check it alone on Re w >= 1, near and far from 1
    from jcqsim.bath import _trigamma

    rng = np.random.default_rng(3)
    w = np.concatenate([1.0 + rng.uniform(0.0, 3.0, 50) - 1j * rng.uniform(0.0, 5.0, 50),
                        1.0 + 10.0 ** rng.uniform(-3.0, 6.0, 50) * (0.02 - 1j)])
    ref = np.array([complex(mp.polygamma(1, complex(x))) for x in w])
    assert np.abs(_trigamma(w) / ref - 1.0).max() < 1e-14


def test_log_gamma_matches_mpmath():
    # Q is a difference of log-gammas, so check Re ln Gamma alone on
    # Re w >= 1: the trigamma sample, then out to |w| = 1e300, where a plain
    # product of the eight shifts would overflow
    from jcqsim.bath import _log_gamma_real

    rng = np.random.default_rng(3)
    w = np.concatenate([1.0 + rng.uniform(0.0, 3.0, 50) - 1j * rng.uniform(0.0, 5.0, 50),
                        1.0 + 10.0 ** rng.uniform(-3.0, 6.0, 50) * (0.02 - 1j),
                        1.0 + 10.0 ** rng.uniform(6.0, 300.0, 50) * (0.02 - 1j),
                        [1.0, 2.0, 1.0 - 1e300j, 1e300, 1e300 - 1e300j]])
    with mp.workdps(30):
        ref = np.array([float(mp.re(mp.loggamma(complex(x)))) for x in w])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = _log_gamma_real(w)
    assert np.isfinite(values).all()
    assert (np.abs(values - ref) / np.maximum(1.0, np.abs(ref))).max() <= 1e-14


class TestResponseIntegral:

    def test_curvature_is_gamma(self, paper_bath):
        # central second difference, off by h^2/12 times the fourth derivative
        h = 1e-3
        scale = response_function(paper_bath, 0.0).real
        for t in (0.5, 1.0, 10.0, 100.0):
            q = response_integral(paper_bath, np.array([t - h, t, t + h]))
            curvature = (q[0] - 2.0 * q[1] + q[2]) / (h * h)
            assert abs(curvature - response_function(paper_bath, t)) <= 1e-6 * scale

    def test_slope_at_origin(self, paper_bath):
        # the forward difference is off by h gamma(0) / 2, which is real
        h = 1e-4
        slope = (response_integral(paper_bath, h) - response_integral(paper_bath, 0.0)) / h
        assert slope.imag == pytest.approx(2.0 * HBAR * paper_bath.alpha * paper_bath.omega_c,
                                           rel=1e-6)
        assert slope.real == pytest.approx(0.5 * h * response_function(paper_bath, 0.0).real,
                                           rel=1e-2)

    def test_shape_and_domain(self, paper_bath):
        times = np.array([[2.0, 0.0], [1.0, 2.0]])
        values = response_integral(paper_bath, times)
        assert values.shape == times.shape and values.dtype == complex
        assert values[0, 0] == values[1, 1] == response_integral(paper_bath, 2.0)
        for bad in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                response_integral(paper_bath, bad)


class TestMemoryTime:

    def test_loose_threshold_met_immediately(self, paper_bath):
        assert memory_time(paper_bath, 0.999) <= 0.1

    @pytest.mark.parametrize("alpha", [0.0, 5e-6])
    def test_returns_a_python_float(self, alpha):
        # alpha = 0 takes its own branch, with no memory at all
        bath = OhmicBath(alpha=alpha, omega_c=5.0, temperature=30.0)
        assert type(memory_time(bath, 0.05)) is float

    def test_alpha_rescaling_invariance(self, paper_bath):
        doubled = OhmicBath(alpha=1e-5, omega_c=5.0, temperature=30.0)
        assert memory_time(paper_bath, 0.05) == pytest.approx(
            memory_time(doubled, 0.05), abs=1e-12)

    def test_consistent_with_reported_memory_time(self, paper_bath):
        # the reported bath memory is about 10 ps; the 2% criterion is met
        # well inside that
        tau_mem = memory_time(paper_bath, 0.02)
        assert 0.1 < tau_mem <= 10.0

    def test_saturation(self, paper_bath):
        with pytest.raises(SaturationError):
            memory_time(paper_bath, 1e-9)

    @pytest.mark.parametrize("threshold", [
        pytest.param(1.5, id="threshold=1.5"),
        pytest.param(0.0, id="threshold=0"),
    ])
    def test_threshold_domain(self, paper_bath, threshold):
        with pytest.raises(ValueError):
            memory_time(paper_bath, threshold)

    @pytest.mark.parametrize("omega_c, temperature, threshold, expected", [
        (5.0, 30.0, 0.01, 2.0),
        (0.5, 10.0, 0.05, 8.2),
        (20.0, 300.0, 0.001, 1.6),
        (1.0, 1000.0, 0.2, 2.2),
        (50.0, 100.0, 0.005, 0.3),
    ])
    def test_pinned_values(self, omega_c, temperature, threshold, expected):
        # a 151-point numerical search for max|Im gamma| gives these too: it
        # lies 1.6e-5 (relative) below the closed-form peak at every w_c
        bath = OhmicBath(alpha=5e-6, omega_c=omega_c, temperature=temperature)
        assert memory_time(bath, threshold) == pytest.approx(expected, abs=1e-9)

    def test_cached_shape_gives_the_cold_call_bits(self, cache_baths):
        # each bath reuses the shape left by the one before it whenever
        # (w_c, T) repeats, the last one a shape filled at alpha = 0
        _memory_shape.cache_clear()
        reused = []
        for bath in cache_baths:
            hits = _memory_shape.cache_info().hits
            warm = [memory_time(bath, 0.5)]
            reused.append(_memory_shape.cache_info().hits > hits)
            warm += [memory_time(bath, threshold) for threshold in (0.05, 0.01)]
            _memory_shape.cache_clear()
            assert warm == [memory_time(bath, threshold) for threshold in (0.5, 0.05, 0.01)]
        assert reused == [False, True, False, False, False, True]

    def test_cached_shape_is_read_only(self, paper_bath):
        memory_time(paper_bath, 0.01)
        shape = _memory_shape(paper_bath.omega_c, paper_bath.temperature)
        assert not shape.flags.writeable
        assert not _MEMORY_TIMES.flags.writeable


@pytest.mark.parametrize("work", [
    pytest.param(lambda bath: memory_time(bath, 0.01), id="memory_time"),
    pytest.param(lambda bath: eta_coefficients(bath, 12.707, 64, 64), id="eta-192-rows"),
])
def test_working_memory_bounded(paper_bath, work):
    # both evaluate closed forms on at most a few thousand times; measure a
    # cold call, whatever an earlier test left in the shape caches
    _memory_shape.cache_clear()
    _q_shape.cache_clear()
    tracemalloc.start()
    try:
        work(paper_bath)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
