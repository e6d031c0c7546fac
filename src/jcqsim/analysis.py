"""Decoherence-time extraction: golden-rule Bloch rates and trajectory fits.

The Markovian baseline at the gate-charge sweet spot (B_z = 0) is

    1/tau_1 = 2/tau_2 = J(w_0) coth(beta hbar w_0 / 2) / (2 hbar),

with w_0 = B_x / hbar, so the dephasing time is exactly twice the
relaxation time. The non-Markovian number is the least-squares fit of
c_inf + (c0 - c_inf) e^(-(t - t_0)/tau), t_0 the first fitted sample's
time, to an ITM trajectory observable, or to the envelope of its local
maxima if it oscillates, by variable projection
(Golub and Pereyra, SIAM J. Numer. Anal. 10, 413 (1973)).
Nothing here defaults a run setting: ``cli.RunConfig`` owns the default run.
"""

from dataclasses import dataclass

import numpy as np

from .bath import OhmicBath, spectral_density
from .errors import ConfigError, NoDecayError
from .influence import eta_coefficients
from .itm import Trajectory, build_transfer_tensor, propagate
from .qubit import QubitParameters, initial_state, short_time_propagator
from .units import HBAR

US_PER_PS = 1e-6

FIT_OBSERVABLES = ("abs_rho01", "re_rho01", "im_rho01", "rho00", "rho11")
# envelope fitting kicks in when this many oscillation peaks are present
_MIN_PEAKS = 8
# a fitted tau beyond this many window spans is no decay
_MAX_SPANS = 100.0


@dataclass(frozen=True)
class DecayFit:
    """Exponential-decay fit y(t) = c_inf + (c0 - c_inf) exp(-(t - t_0) / tau).

    t_0 is the time of the first fitted sample, so c0 is the fit's value there.
    """

    tau: float  # microseconds
    c0: float
    c_inf: float
    rms_residual: float
    observable: str
    envelope: bool


@dataclass(frozen=True)
class ComparisonReport:
    """Markovian vs ITM dephasing times (microseconds) and their ratio."""

    tau2_bloch: float
    tau2_itm: float
    ratio: float


def bloch_decoherence_time(params: QubitParameters, bath: OhmicBath,
                           include_cutoff: bool = True) -> tuple[float, float]:
    """Golden-rule (tau_1, tau_2) in microseconds at the B_z = 0 working point.

    ``include_cutoff=False`` evaluates J(w_0) without the exponential cutoff
    factor, which moves tau_2 by about 1.6% at the default parameters.
    """
    if abs(params.b_z) > 1e-12:
        raise ConfigError(f"Bloch rates implemented at the sweet spot B_z = 0 only; "
                          f"got B_z = {params.b_z} ueV (n_g = {params.n_g})")
    if bath.alpha == 0.0:
        raise ConfigError("alpha = 0 gives an infinite decoherence time")
    omega0 = params.b_x / HBAR
    j_val = spectral_density(bath, omega0)
    if not include_cutoff:
        j_val = 2.0 * np.pi * HBAR * bath.alpha * omega0
    rate1 = j_val / np.tanh(0.5 * bath.beta * HBAR * omega0) / (2.0 * HBAR)
    tau1_ps = 1.0 / rate1
    return float(tau1_ps * US_PER_PS), float(2.0 * tau1_ps * US_PER_PS)


def _local_maxima(y: np.ndarray) -> np.ndarray:
    """Indices of 3-point-stencil local maxima (strict left, non-strict right)."""
    if len(y) < 3:
        return np.array([], dtype=int)
    return np.nonzero((y[1:-1] > y[:-2]) & (y[1:-1] >= y[2:]))[0] + 1


def _projected(t, y, tau):
    """(c_inf, c0, residual, slope) of the least-squares fit at a fixed tau.

    The amplitudes are solved on the centred decay; residual = model - y.
    ``slope`` has the sign of the cost's derivative in tau: the amplitude
    times the residual's product with d/dtau of the decay, less its part in
    span{1, decay}, to which the residual is orthogonal but for rounding.
    """
    decay = np.exp(t / -tau)
    mean, y_mean = decay.sum() / len(t), y.sum() / len(t)  # as .mean(), without its overhead
    centred = decay - mean
    norm = centred @ centred
    amplitude = centred @ y / norm
    c_inf = y_mean - amplitude * mean
    residual = amplitude * centred - (y - y_mean)
    grad = decay * t
    grad = grad - grad.sum() / len(t) - (centred @ grad / norm) * centred
    return c_inf, c_inf + amplitude, residual, amplitude * (residual @ grad)


@np.errstate(invalid="ignore")  # a decay that underflows everywhere: 0/0, not negative
def _least_squares_tau(t, y, span, observable):
    """(tau, c_inf, c0, residual) at the root of ``_projected``'s slope.

    From span / 3, tau doubles while the slope is negative, or halves while
    it is not, to bracket its sign change; NoDecayError if the cost still
    falls past ``_MAX_SPANS`` spans, or still rises below the smallest
    sample spacing. The Illinois rule then shrinks the bracket until no
    double lies inside; the end with the smaller |slope| is the fit. A
    secant point that rounds onto an end moves one double inside, where
    bisecting would take some 25 more steps.
    """
    lo = hi = span / 3.0
    fit_lo = fit_hi = _projected(t, y, lo)
    while fit_hi[3] < 0.0:
        if hi > _MAX_SPANS * span:
            raise NoDecayError(f"fitted time constant {hi * US_PER_PS:.3g} us exceeds "
                               f"{_MAX_SPANS:g}x the window span")
        lo, fit_lo, hi = hi, fit_hi, 2.0 * hi
        fit_hi = _projected(t, y, hi)
    while not fit_lo[3] < 0.0:
        if lo < np.diff(t).min():
            raise NoDecayError(f"{observable} shows no exponential decay on the window")
        hi, fit_hi, lo = lo, fit_lo, 0.5 * lo
        fit_lo = _projected(t, y, lo)
    # secant weights: the Illinois rule halves the one at an end kept twice
    s_lo, s_hi, moved = fit_lo[3], fit_hi[3], 0
    while np.nextafter(lo, hi) < hi:
        tau = lo - s_lo * (hi - lo) / (s_hi - s_lo)
        tau = min(max(tau, np.nextafter(lo, hi)), np.nextafter(hi, lo))
        fit = _projected(t, y, tau)
        if fit[3] < 0.0:
            if moved < 0:
                s_hi *= 0.5
            lo, fit_lo, s_lo, moved = tau, fit, fit[3], -1
        else:
            if moved > 0:
                s_lo *= 0.5
            hi, fit_hi, s_hi, moved = tau, fit, fit[3], 1
    tau, (c_inf, c0, residual, _) = min((lo, fit_lo), (hi, fit_hi),
                                        key=lambda end: abs(end[1][3]))
    return tau, c_inf, c0, residual


def fit_decay(trajectory: Trajectory, observable: str) -> DecayFit:
    """Fit the decay time of a trajectory observable.

    Needs at least 50 samples. Oscillatory data (enough local maxima of the
    magnitude spread over the window) is reduced to its extremum envelope
    before fitting. Time is measured from the first fitted sample, so a late
    window does not underflow. Non-decaying data raises NoDecayError.
    """
    if observable not in FIT_OBSERVABLES:
        raise ValueError(f"observable must be one of {FIT_OBSERVABLES}, got {observable!r}")
    t = np.asarray(trajectory.times, dtype=float)
    y = np.asarray(getattr(trajectory, observable), dtype=float)
    if len(y) < 50:
        raise ConfigError(f"need at least 50 samples to fit, got {len(y)}")

    span = t[-1] - t[0]
    z = np.abs(y)
    peaks = _local_maxima(z)
    envelope = len(peaks) >= _MIN_PEAKS and (t[peaks[-1]] - t[peaks[0]]) >= 0.5 * span
    if envelope:
        t_fit, y_fit = t[peaks], z[peaks]
    else:
        t_fit, y_fit = t, y

    scale = np.abs(y_fit).max()
    if scale == 0.0 or y_fit.std() < 1e-13 * max(scale, 1.0):
        raise NoDecayError(f"{observable} is constant over the window")

    tau, c_inf, c0, residual = _least_squares_tau(t_fit - t_fit[0], y_fit, span, observable)
    amplitude = abs(c0 - c_inf)
    if amplitude < 1e-12 * max(scale, 1.0):
        raise NoDecayError(f"{observable} shows no exponential decay on the window")
    if tau > _MAX_SPANS * span:
        raise NoDecayError(f"fitted time constant {tau * US_PER_PS:.3g} us exceeds "
                           f"{_MAX_SPANS:g}x the window span")
    return DecayFit(tau=float(tau) * US_PER_PS, c0=float(c0), c_inf=float(c_inf),
                    rms_residual=float(np.sqrt(np.mean(residual ** 2)) / amplitude),
                    observable=observable, envelope=envelope)


def step_count(t_max: float, dt: float) -> int:
    """Whole steps of dt that fit in t_max, at least one; ConfigError if not finite."""
    steps = np.floor(t_max / dt + 1e-9)
    if not np.isfinite(steps):
        raise ConfigError(f"step count t_max / dt = {t_max} / {dt} is not finite")
    return max(1, int(steps))


def compare(params: QubitParameters, bath: OhmicBath, dt: float, dk_max: int,
            t_max: float, *, sample_every: int, initial: str, observable: str,
            include_cutoff: bool) -> ComparisonReport:
    """Run both estimators at one parameter point and report their ratio.

    The ITM side evolves ``initial``, sampled every ``sample_every`` steps,
    and fits ``observable``; the Bloch side takes ``include_cutoff``.
    """
    n_steps = step_count(t_max, dt)
    _, tau2_bloch = bloch_decoherence_time(params, bath, include_cutoff=include_cutoff)
    table = eta_coefficients(bath, dt, n_steps, dk_max)
    propagator = short_time_propagator(params, dt)
    transfer = build_transfer_tensor(propagator, table)
    trajectory = propagate(initial_state(initial), transfer, table, n_steps,
                           sample_every=sample_every)
    fit = fit_decay(trajectory, observable)
    return ComparisonReport(tau2_bloch=tau2_bloch, tau2_itm=fit.tau, ratio=fit.tau / tau2_bloch)
