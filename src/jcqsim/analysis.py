"""Decoherence-time extraction: golden-rule Bloch rates and trajectory fits.

The Markovian baseline at the gate-charge sweet spot (B_z = 0) is

    1/tau_1 = 2/tau_2 = J(w_0) coth(beta hbar w_0 / 2) / (2 hbar),

with w_0 = B_x / hbar, so the dephasing time is exactly twice the
relaxation time. The non-Markovian number comes from fitting a decaying
exponential (with free asymptote) to an ITM trajectory observable; for
oscillatory observables the fit runs on the envelope of local extrema.
Nothing here defaults a run setting: ``cli.RunConfig`` owns the default run.
"""

from dataclasses import dataclass

import numpy as np

from .bath import OhmicBath, spectral_density
from .errors import ConfigError, NoDecayError, NumericalError
from .influence import eta_coefficients
from .itm import Trajectory, build_transfer_tensor, propagate
from .qubit import QubitParameters, initial_state, short_time_propagator
from .units import HBAR

US_PER_PS = 1e-6

FIT_OBSERVABLES = ("abs_rho01", "re_rho01", "im_rho01", "rho00", "rho11")
# envelope fitting kicks in when this many oscillation peaks are present
_MIN_PEAKS = 8
# the fit stops once a step moves tau by at most this fraction of tau
_TAU_XTOL = 1e-15
# a predicted cost reduction below this fraction of the cost is lost in its rounding
_COST_ROUNDING = 1e-13
_MAX_ITERATIONS = 20000
# a fitted tau beyond this many window spans is no decay
_MAX_SPANS = 100.0


@dataclass(frozen=True)
class DecayFit:
    """Exponential-decay fit y(t) = c_inf + (c0 - c_inf) exp(-t / tau)."""

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
    return tau1_ps * US_PER_PS, 2.0 * tau1_ps * US_PER_PS


def _local_maxima(y: np.ndarray) -> np.ndarray:
    """Indices of 3-point-stencil local maxima (strict left, non-strict right)."""
    if len(y) < 3:
        return np.array([], dtype=int)
    return np.nonzero((y[1:-1] > y[:-2]) & (y[1:-1] >= y[2:]))[0] + 1


def _exp_model(p, t):
    c_inf, c0, tau = p
    return c_inf + (c0 - c_inf) * np.exp(-t / tau)


def _exp_jacobian(p, t):
    """Columns d/dc_inf, d/dc0 and d/dtau of ``_exp_model``."""
    c_inf, c0, tau = p
    decay = np.exp(-t / tau)
    return np.column_stack([1.0 - decay, decay, (c0 - c_inf) * decay * t / (tau * tau)])


def _levenberg_marquardt(t, y, p, tau_max):
    """Least-squares fit of ``_exp_model`` to (t, y) from p; (p, residual, ended).

    Each step solves (J^T J + damping D) d = -J^T r, with D the largest
    diagonal of J^T J seen so far, or 1 where that is 0 (Marquardt's
    scaling, as in MINPACK). A step is taken if it lowers the cost, or if
    the reduction it predicts is below the cost's rounding, so that the
    cost cannot judge it; otherwise it is refused and the damping grows.
    Near the minimum the cost stops resolving steps long before tau is
    settled, so the fit ends on its step in tau, at a taken step that

    - moves tau by at most ``_TAU_XTOL`` of tau;
    - is unresolved and moves tau no less than the taken step before it:
      the steps have reached the rounding of the gradient;
    - carries tau past ``tau_max``, a time the caller refuses: towards it
      the minimum recedes along a flat valley.

    ``ended`` is False if none of these happens within ``_MAX_ITERATIONS``.
    """
    p = np.asarray(p, dtype=float)
    residual = _exp_model(p, t) - y
    cost = residual @ residual
    damping = 1e-3
    scale = np.zeros(3)
    last = np.inf
    for _ in range(_MAX_ITERATIONS):
        jac = _exp_jacobian(p, t)
        normal = jac.T @ jac
        gradient = jac.T @ residual
        scale = np.maximum(scale, np.diag(normal))
        step = np.linalg.solve(normal + damping * np.diag(np.where(scale > 0.0, scale, 1.0)),
                               -gradient)
        trial = p + step
        trial_residual = _exp_model(trial, t) - y
        trial_cost = trial_residual @ trial_residual
        predicted = -step @ (2.0 * gradient + normal @ step)
        unresolved = predicted <= _COST_ROUNDING * cost
        if trial_cost < cost or unresolved:
            move = abs(step[2])
            p, residual, cost = trial, trial_residual, trial_cost
            damping = max(damping / 10.0, 1e-12)
            if (move <= _TAU_XTOL * abs(p[2]) or p[2] > tau_max
                    or (unresolved and move >= last)):
                return p, residual, True
            last = move
        else:
            damping *= 10.0
    return p, residual, False


def fit_decay(trajectory: Trajectory, observable: str) -> DecayFit:
    """Fit the decay time of a trajectory observable.

    Needs at least 50 samples. Oscillatory data (enough local maxima of the
    magnitude spread over the window) is reduced to its extremum envelope
    before fitting. Non-decaying data raises NoDecayError; a diverged fit
    raises NumericalError.
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

    tail = max(1, len(y_fit) // 10)
    c_inf0 = float(y_fit[-tail:].mean())
    c00 = float(y_fit[0])
    # log-linear seed for tau: the least-squares slope of log(vals) against t
    # on the samples clearly above the asymptote
    vals = np.sign(c00 - c_inf0) * (y_fit - c_inf0)
    ok = vals > 0.05 * max(abs(c00 - c_inf0), 1e-30)
    if ok.sum() >= 2:
        t_ok = t_fit[ok] - t_fit[ok].mean()
        slope = t_ok @ np.log(vals[ok]) / (t_ok @ t_ok)
        tau0 = -1.0 / slope if slope < 0 else span
    else:
        tau0 = span / 3.0
    tau0 = min(max(tau0, span * 1e-3), span * 1e3)

    with np.errstate(all="ignore"):  # a refused trial step may overflow
        (c_inf, c0, tau), fun, ended = _levenberg_marquardt(
            t_fit, y_fit, [c_inf0, c00, tau0], _MAX_SPANS * span)
    residual = float(np.sqrt(np.mean(fun ** 2)))
    amplitude = abs(c0 - c_inf)
    rms = residual / amplitude if amplitude > 0 else np.inf

    if not np.isfinite([c_inf, c0, tau]).all() or not ended:
        raise NumericalError("decay fit did not converge")
    if tau <= 0 or amplitude < 1e-12 * max(scale, 1.0):
        raise NoDecayError(f"{observable} shows no exponential decay on the window")
    if tau > _MAX_SPANS * span:
        raise NoDecayError(f"fitted time constant {tau * US_PER_PS:.3g} us exceeds "
                           f"{_MAX_SPANS:g}x the window span")
    return DecayFit(tau=float(tau) * US_PER_PS, c0=float(c0), c_inf=float(c_inf),
                    rms_residual=rms, observable=observable, envelope=envelope)


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
