"""Ohmic bath: spectral density, noise power spectrum and response function.

The environment is described entirely by its spectral density

    J(w) = 2 pi hbar alpha w exp(-w / w_c)

together with the temperature. Derived from it are the noise power
spectrum S(w) = J(w) hbar coth(beta hbar w / 2) and the time-domain
response function

    gamma(t) = (1/pi) Int_0^inf dw J(w) [coth(beta hbar w / 2) cos(wt)
                                         - i sin(wt)],

whose width sets the bath memory time. Every frequency integral over the
bath, gamma(t) here and the influence coefficients in ``influence``, goes
through ``spectral_integrals``: Gauss-Legendre panels on [0, 50 w_c],
geometric near w = 0 for the thermal feature of coth and one oscillation
period wide beyond, with a lower-order rule on the same panels as the
error estimate.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, SaturationError
from .units import HBAR, thermal_beta

# Integration window: the exponential cutoff makes the integrand beyond
# 50 w_c smaller than 1e-20 of the total.
_CUTOFF_MULTIPLE = 50.0
# Gauss-Legendre orders per panel: the value, and the lower-order check
# whose difference to it is the error estimate.
_GL_NODES = 16
_GL_CHECK_NODES = 9
# response_function integrates this many ascending times on the grid of
# the largest.
_TIME_CHUNK = 8
# Panels per pass, which bounds the working memory at any t; and the most
# panels one grid may have (t of about 1e5 ps), which bounds its edges.
_PANEL_BLOCK = 4096
_MAX_PANELS = 2**22


@dataclass(frozen=True)
class OhmicBath:
    """Ohmic environment with dimensionless coupling alpha and cutoff omega_c.

    Parameters
    ----------
    alpha : dimensionless dissipation strength (>= 0)
    omega_c : cutoff frequency in 1/ps (> 0)
    temperature : bath temperature in mK (> 0)
    """

    alpha: float
    omega_c: float
    temperature: float

    def __post_init__(self):
        if self.alpha < 0.0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.omega_c <= 0.0:
            raise ValueError(f"omega_c must be > 0, got {self.omega_c}")
        if self.temperature <= 0.0:
            raise ValueError(f"temperature must be > 0, got {self.temperature}")

    @property
    def beta(self) -> float:
        """Inverse thermal energy in 1/ueV."""
        return thermal_beta(self.temperature)


def spectral_density(bath: OhmicBath, omega: float) -> float:
    """J(omega) in ueV; zero at omega = 0 by the linear prefactor."""
    if omega < 0.0:
        raise ValueError(f"omega must be >= 0, got {omega}")
    return 2.0 * np.pi * HBAR * bath.alpha * omega * np.exp(-omega / bath.omega_c)


def power_spectrum(bath: OhmicBath, omega: float) -> float:
    """Noise power spectrum S(omega) = J(omega) hbar coth(beta hbar omega/2).

    Units ueV^2 ps. The omega -> 0 limit is finite (4 pi hbar alpha k_B T)
    but omega = 0 itself is rejected because of the coth pole.
    """
    if omega <= 0.0:
        raise ValueError(f"omega must be > 0, got {omega}")
    x = 0.5 * bath.beta * HBAR * omega
    return spectral_density(bath, omega) * HBAR / np.tanh(x)


def _x_coth_x(x):
    """x*coth(x), stable through x = 0."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-4
    safe = np.where(small, 1.0, x)
    return np.where(small, 1.0 + x * x / 3.0, safe / np.tanh(safe))


def _panel_nodes(edges: np.ndarray, n: int):
    """Gauss-Legendre nodes and weights of order n, shape (panels, n)."""
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * np.diff(edges)[:, None]
    mid = edges[:-1, None] + half
    return mid + half * x, half * w


def _omega_grid(bath: OhmicBath, t_scale: float) -> np.ndarray:
    """Panel edges on [0, 50 w_c]: geometric near zero, one period wide beyond."""
    w_max = _CUTOFF_MULTIPLE * bath.omega_c
    width = min(0.5 * bath.omega_c, 2.0 * np.pi / max(t_scale, 1e-12))
    # the thermal feature of coth(b w), b = beta hbar / 2, lives below ~1/b:
    # panels double in width from 0.01/b until they are as wide as the
    # uniform ones
    fine = []
    e = 0.01 / (0.5 * bath.beta * HBAR)
    while e < width:
        fine.append(e)
        e *= 2.0
    start = fine[-1] if fine else 0.0
    n_uniform = int(np.ceil((w_max - start) / width))
    if n_uniform > _MAX_PANELS:
        raise NumericalError(f"panel grid for t = {t_scale} ps needs {n_uniform} panels, "
                             f"above the limit of {_MAX_PANELS}")
    return np.unique(np.concatenate(
        [[0.0], fine, np.linspace(start, w_max, n_uniform + 1)[1:]]))


def spectral_integrals(bath: OhmicBath, t_scale: float, windows):
    """Integrate window rows against the Ohmic weights on one panel grid.

    ``windows(omega)`` returns ``(W_re, W_im)``, each of shape
    ``(rows,) + omega.shape``. Row r gives

        (1/pi) Int_0^inf dw J(w) [coth(b w) W_re(w) - i W_im(w)],   b = beta hbar / 2,

    on panels one oscillation period wide at ``t_scale``, the largest time
    the windows oscillate with. Returns the values and, per row, the sum
    over panels of |Re| + |Im| of the difference to a lower-order rule.
    """
    b = 0.5 * bath.beta * HBAR
    edges = _omega_grid(bath, t_scale)
    value, residual = 0.0, 0.0
    for lo in range(0, edges.size - 1, _PANEL_BLOCK):
        per_panel = []
        for n in (_GL_NODES, _GL_CHECK_NODES):
            omega, weights = _panel_nodes(edges[lo:lo + _PANEL_BLOCK + 1], n)
            # (1/pi) J(w) coth(b w) = (2 hbar alpha / b) e^{-w/w_c} (b w) coth(b w)
            decay = weights * (2.0 * HBAR * bath.alpha) * np.exp(-omega / bath.omega_c)
            s_re = decay * _x_coth_x(b * omega) / b
            s_im = decay * omega
            w_re, w_im = windows(omega)
            per_panel.append(((np.asarray(w_re) * s_re).sum(axis=-1),
                              (np.asarray(w_im) * s_im).sum(axis=-1)))
        (re, im), (re_low, im_low) = per_panel
        value = value + re.sum(axis=-1) - 1j * im.sum(axis=-1)
        residual = residual + np.abs(re - re_low).sum(axis=-1) + np.abs(im - im_low).sum(axis=-1)
    return value, residual


def _gamma_chunk(bath: OhmicBath, times: np.ndarray):
    """gamma and its residual at ascending ``times``, on the grid of the last."""
    def windows(omega):
        phase = np.multiply.outer(times, omega)
        return np.cos(phase), np.sin(phase)

    return spectral_integrals(bath, times[-1], windows)


def response_function(bath: OhmicBath, t, rtol: float = 1e-8) -> complex | np.ndarray:
    """Bath response function gamma(t) in ueV/ps, for finite t >= 0.

    ``t`` is a time or an array of times; the result is a complex or a
    complex array of the same shape. The accuracy target is ``rtol``
    relative to Re gamma(0); a NumericalError carrying the largest residual
    is raised if the quadrature cannot certify it.
    """
    times = np.asarray(t, dtype=float)
    flat = times.ravel()
    bad = ~(np.isfinite(flat) & (flat >= 0.0))
    if bad.any():
        raise ValueError(f"t must be finite and >= 0, got {flat[bad][0]}")
    gamma = np.empty(flat.size, dtype=complex)
    residual = np.empty(flat.size)
    order = np.argsort(flat, kind="stable")
    for i in range(0, flat.size, _TIME_CHUNK):
        idx = order[i:i + _TIME_CHUNK]
        gamma[idx], residual[idx] = _gamma_chunk(bath, flat[idx])

    scale = _gamma_chunk(bath, np.zeros(1))[0][0].real
    worst = residual.max(initial=0.0)
    if worst > rtol * scale:
        raise NumericalError(f"response quadrature residual {worst:.3e} above target "
                             f"{rtol * scale:.3e} at t={flat[np.argmax(residual)]}",
                             residual=worst / scale)
    return complex(gamma[0]) if times.ndim == 0 else gamma.reshape(times.shape)


def memory_time(bath: OhmicBath, threshold: float, t_max: float = 100.0,
                t_step: float = 0.1) -> float:
    """Smallest grid time beyond which gamma has decayed below ``threshold``.

    Both |Re gamma| / Re gamma(0) and |Im gamma| / max|Im gamma| must stay
    below the threshold from the returned time to the end of the fixed grid
    (default step 0.1 ps on [0, 100 ps]). Raises SaturationError if the
    criterion is never met within the grid.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    if not (np.isfinite(t_max) and t_max > 0.0):
        raise ValueError(f"t_max must be finite and > 0, got {t_max}")
    if not 0.0 < t_step <= t_max:
        raise ValueError(f"t_step must be in (0, t_max], got {t_step}")
    times = np.arange(0.0, t_max + 0.5 * t_step, t_step)
    # |Im gamma| peaks within ~1/w_c of the origin, below the grid resolution;
    # normalize by the true peak, not the coarse-grid maximum
    peak_times = np.linspace(0.0, min(3.0 / bath.omega_c, t_max), 151)
    gamma = response_function(bath, np.concatenate([times, peak_times]))
    im_max = np.abs(gamma.imag).max()
    gamma = gamma[:times.size]
    re0 = abs(gamma[0].real)
    if re0 == 0.0:  # alpha = 0: no memory at all
        return times[1]
    re_ratio = np.abs(gamma.real) / re0
    im_ratio = np.abs(gamma.imag) / im_max if im_max > 0.0 else np.zeros_like(re_ratio)
    ok = (re_ratio < threshold) & (im_ratio < threshold)
    # require the condition to hold from t to the grid end
    ok_tail = np.flip(np.logical_and.accumulate(np.flip(ok)))
    idx = np.nonzero(ok_tail)[0]
    if idx.size == 0:
        raise SaturationError(
            f"gamma never stays below threshold {threshold} within [0, {t_max}] ps",
            grid_end=float(times[-1]))
    return float(times[idx[0]])
