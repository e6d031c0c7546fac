import dataclasses

import numpy as np
import pytest

from jcqsim import (ConfigError, NoDecayError, OhmicBath, QubitParameters,
                    bloch_decoherence_time, build_transfer_tensor, compare,
                    eta_coefficients, fit_decay, initial_state, propagate,
                    short_time_propagator)
from jcqsim.analysis import US_PER_PS, _local_maxima, step_count
from jcqsim.cli import RunConfig
from jcqsim.itm import Trajectory

from conftest import PAPER_DT, PAPER_SAMPLE_EVERY, PAPER_TAU2_BLOCH_US
from oracles import projected_fit_tau


def _synthetic_trajectory(times_ps, rho01, rho00=None):
    n = len(times_ps)
    rhos = np.zeros((n, 2, 2), dtype=complex)
    pop = 0.5 * np.ones(n) if rho00 is None else np.asarray(rho00)
    rhos[:, 0, 0] = pop
    rhos[:, 1, 1] = 1.0 - pop
    rhos[:, 0, 1] = rho01
    rhos[:, 1, 0] = np.conj(rho01)
    return Trajectory(times=np.asarray(times_ps, dtype=float), rhos=rhos)


class TestBloch:

    def test_paper_value(self, paper_qubit, paper_bath):
        _, tau2 = bloch_decoherence_time(paper_qubit, paper_bath)
        assert abs(tau2 / PAPER_TAU2_BLOCH_US - 1.0) < 0.02
        _, tau2_nc = bloch_decoherence_time(paper_qubit, paper_bath, include_cutoff=False)
        assert abs(tau2_nc / PAPER_TAU2_BLOCH_US - 1.0) < 0.02
        # the cutoff factor accounts for about 1.6% between the two variants
        assert tau2 > tau2_nc

    def test_dephasing_is_twice_relaxation(self, paper_qubit, paper_bath):
        tau1, tau2 = bloch_decoherence_time(paper_qubit, paper_bath)
        assert tau2 == 2.0 * tau1

    def test_alpha_doubling_halves_tau2(self, paper_qubit, paper_bath):
        _, tau2 = bloch_decoherence_time(paper_qubit, paper_bath)
        doubled = OhmicBath(alpha=2 * paper_bath.alpha, omega_c=paper_bath.omega_c,
                            temperature=paper_bath.temperature)
        _, tau2_2a = bloch_decoherence_time(paper_qubit, doubled)
        assert tau2_2a == pytest.approx(0.5 * tau2, rel=1e-12)

    def test_monotone_in_alpha_and_temperature(self, paper_qubit):
        taus_alpha = [bloch_decoherence_time(
            paper_qubit, OhmicBath(a, 5.0, 30.0))[1] for a in (1e-6, 5e-6, 2e-5)]
        assert taus_alpha[0] > taus_alpha[1] > taus_alpha[2]
        taus_temp = [bloch_decoherence_time(
            paper_qubit, OhmicBath(5e-6, 5.0, t))[1] for t in (10.0, 30.0, 300.0)]
        assert taus_temp[0] > taus_temp[1] > taus_temp[2]

    def test_preconditions(self, paper_bath):
        detuned = QubitParameters(e_j=51.8, e_c=122.0, n_g=0.3)
        with pytest.raises(ConfigError):
            bloch_decoherence_time(detuned, paper_bath)
        sweet = QubitParameters(e_j=51.8, e_c=122.0, n_g=0.5)
        with pytest.raises(ConfigError):
            bloch_decoherence_time(sweet, OhmicBath(0.0, 5.0, 30.0))


class TestFitDecay:

    @pytest.mark.parametrize("tau_us", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("c_inf", [0.0, 0.25])
    def test_exact_on_synthetic_exponential(self, tau_us, c_inf):
        t = np.linspace(0.0, 3.0e6, 200)
        y = c_inf + (0.5 - c_inf) * np.exp(-t / (tau_us * 1e6))
        fit = fit_decay(_synthetic_trajectory(t, y), "abs_rho01")
        assert fit.tau == pytest.approx(tau_us, rel=1e-6)
        # the asymptote direction is poorly conditioned when the window spans
        # a fraction of tau, so it gets a looser bound than tau itself
        assert fit.c_inf == pytest.approx(c_inf, abs=1e-6)
        assert not fit.envelope
        assert type(fit.rms_residual) is float

    def test_oscillatory_envelope(self):
        t = np.linspace(0.0, 3.0e6, 6000)
        y = 0.5 * np.abs(np.sin(2.0 * np.pi * t / 5.0e4)) * np.exp(-t / 1.0e6)
        fit = fit_decay(_synthetic_trajectory(t, y), "abs_rho01")
        assert fit.envelope
        assert fit.tau == pytest.approx(1.0, rel=0.02)

    def test_signed_oscillation_via_imaginary_part(self):
        t = np.linspace(0.0, 3.0e6, 6000)
        y = 0.5j * np.sin(2.0 * np.pi * t / 5.0e4) * np.exp(-t / 1.0e6)
        fit = fit_decay(_synthetic_trajectory(t, y), "im_rho01")
        assert fit.envelope
        assert fit.tau == pytest.approx(1.0, rel=0.02)

    def test_constant_raises(self):
        t = np.linspace(0.0, 3.0e6, 100)
        with pytest.raises(NoDecayError):
            fit_decay(_synthetic_trajectory(t, np.full(100, 0.5)), "abs_rho01")

    def test_nearly_flat_slow_decay_raises(self):
        # decaying 1000x slower than the window: no-decay error
        t = np.linspace(0.0, 1.0e3, 100)
        y = 0.5 * np.exp(-t / 1.0e8)
        with pytest.raises(NoDecayError):
            fit_decay(_synthetic_trajectory(t, y), "abs_rho01")

    @pytest.mark.parametrize("t0, spacing", [
        pytest.param(0.0, 3.0e4, id="from-0"),
        # the decay underflows on every sample before tau reaches the spacing
        pytest.param(1.0e5, 1.0, id="late-window"),
    ])
    def test_step_is_no_decay(self, t0, spacing):
        # the cost keeps falling as tau shrinks below the sample spacing
        t = t0 + spacing * np.arange(100)
        y = np.r_[0.5, np.zeros(99)]
        with pytest.raises(NoDecayError, match="abs_rho01 shows no exponential decay"):
            fit_decay(_synthetic_trajectory(t, y), "abs_rho01")

    def test_late_window(self):
        # time runs from the first fitted sample: on absolute times the decay
        # underflows at every tau the search tries, 3,000 tau after t = 0
        t = 1.0e5 + np.arange(100.0)
        y = 0.2 + 0.3 * np.exp(-(t - 1.0e5) / 30.0)
        fit = fit_decay(_synthetic_trajectory(t, y), "abs_rho01")
        assert fit.tau == pytest.approx(30.0 * US_PER_PS, rel=1e-9)
        assert fit.c0 == pytest.approx(0.5, rel=1e-9)
        assert fit.c_inf == pytest.approx(0.2, rel=1e-9)

    def test_sample_count_precondition(self):
        t = np.linspace(0.0, 1e6, 20)
        with pytest.raises(ConfigError):
            fit_decay(_synthetic_trajectory(t, np.exp(-t / 1e5)), "abs_rho01")

    def test_unknown_observable(self):
        t = np.linspace(0.0, 1e6, 100)
        with pytest.raises(ValueError):
            fit_decay(_synthetic_trajectory(t, np.exp(-t / 1e5)), "rho01")

    def test_paper_trajectory_dephasing_time(self, paper_trajectory):
        fit = fit_decay(paper_trajectory, "im_rho01")
        assert fit.tau == pytest.approx(1.05299, rel=0.15)
        # the population observable sees the same dephasing envelope
        fit2 = fit_decay(paper_trajectory, "rho00")
        assert fit2.tau == pytest.approx(fit.tau, rel=0.02)

    @pytest.mark.parametrize("alpha, temperature, dk_max, t_max, every, bracket", [
        pytest.param(5e-6, 30.0, 1, 3.0e6, PAPER_SAMPLE_EVERY, (0.5e6, 2.0e6), id="paper"),
        pytest.param(5e-6, 100.0, 2, 1.0e6, PAPER_SAMPLE_EVERY, (0.5e6, 2.0e6),
                     id="dk2-100mK-1us"),
        pytest.param(1e-7, 30.0, 1, 2.0e7, 256, (1.0e7, 1.0e8), id="alpha1e-7-20us"),
    ])
    def test_tau_is_the_least_squares_minimum(self, paper_qubit, alpha, temperature, dk_max,
                                              t_max, every, bracket):
        # compare prints tau to 12 digits, so the fit must settle it there
        # rather than stop where the cost stops changing
        bath = OhmicBath(alpha=alpha, omega_c=5.0, temperature=temperature)
        n_steps = step_count(t_max, PAPER_DT)
        table = eta_coefficients(bath, PAPER_DT, n_steps, dk_max)
        transfer = build_transfer_tensor(short_time_propagator(paper_qubit, PAPER_DT), table)
        trajectory = propagate(initial_state("zero"), transfer, table, n_steps,
                               sample_every=every)
        fit = fit_decay(trajectory, "im_rho01")
        assert fit.envelope
        envelope = np.abs(trajectory.im_rho01)
        peaks = _local_maxima(envelope)
        root = projected_fit_tau(trajectory.times[peaks], envelope[peaks], *bracket)
        assert fit.tau == pytest.approx(root * US_PER_PS, rel=1e-14, abs=0.0)

    def test_cadence_invariance(self, paper_trajectory):
        fit = fit_decay(paper_trajectory, "im_rho01")
        thinned = Trajectory(times=paper_trajectory.times[::2],
                             rhos=paper_trajectory.rhos[::2])
        fit_thin = fit_decay(thinned, "im_rho01")
        assert fit_thin.tau == pytest.approx(fit.tau, rel=0.02)


class TestCompare:

    @pytest.mark.parametrize("dk_max, tau2_itm, ratio", [
        pytest.param(1, 1.1090215214, 0.674773818551, id="dk1"),
        pytest.param(2, 1.05548168939, 0.642198006278, id="dk2"),
        pytest.param(4, 0.99510695816, 0.60546356321, id="dk4"),
    ])
    def test_headline_digits(self, dk_max, tau2_itm, ratio):
        # the default run's digits as printed; 1e-9 lies far above the
        # BLAS-dependent last digits and far below any change of the physics
        config = dataclasses.replace(RunConfig(), dk_max=dk_max)
        report = compare(config.qubit, config.bath, config.dt_ps, config.dk_max,
                         config.t_max_ps, sample_every=config.sample_every,
                         initial=config.initial_state, observable=config.observable,
                         include_cutoff=True)
        assert report.tau2_bloch == pytest.approx(1.64354557173, rel=1e-9)
        assert report.tau2_itm == pytest.approx(tau2_itm, rel=1e-9)
        assert report.ratio == pytest.approx(ratio, rel=1e-9)
        assert all(type(value) is float for value in dataclasses.astuple(report))

    def test_directional_claim_short_window(self, paper_qubit, paper_bath):
        report = compare(paper_qubit, paper_bath, dt=12.707, dk_max=1, t_max=1.0e6,
                         sample_every=64, initial="zero", observable="im_rho01",
                         include_cutoff=True)
        assert report.tau2_itm < report.tau2_bloch
        assert report.ratio == pytest.approx(report.tau2_itm / report.tau2_bloch, rel=1e-12)

    def test_weaker_coupling_lengthens_both(self, paper_qubit, paper_bath):
        base = compare(paper_qubit, paper_bath, dt=12.707, dk_max=1, t_max=1.0e6,
                       sample_every=64, initial="zero", observable="im_rho01",
                       include_cutoff=True)
        # 50x weaker coupling decays 50x slower; give the fit a window that
        # resolves a visible fraction of the decay
        weak_bath = OhmicBath(alpha=1e-7, omega_c=5.0, temperature=30.0)
        weak = compare(paper_qubit, weak_bath, dt=12.707, dk_max=1, t_max=2.0e7,
                       sample_every=256, initial="zero", observable="im_rho01",
                       include_cutoff=True)
        assert weak.tau2_bloch > base.tau2_bloch
        assert weak.tau2_itm > base.tau2_itm
