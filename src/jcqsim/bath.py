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
error estimate. Each integrated row oscillates as e^{i w tau}; on the
uniform panels that factor splits into a panel-midpoint phase and a node
phase shared by every panel, so a row costs one product per panel, not
one cosine and sine per node.
"""

from dataclasses import dataclass
from functools import cache

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
# the largest. Larger chunks share each pass among more rows, but put the
# small times of a chunk on a grid finer than they need; memory_time is 2.5
# times slower at 8 and flat from 64 to 128.
_TIME_CHUNK = 64
# (panel, row) entries per pass, which bounds the working memory at any t
# and row count (larger passes measured no faster); and the most panels one
# grid may have (t of about 1e5 ps).
_BLOCK_VALUES = 2**14
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


@cache
def _nodes():
    """Gauss-Legendre nodes and weights on [-1, 1]: the value rule's, then the check rule's."""
    rules = [np.polynomial.legendre.leggauss(n) for n in (_GL_NODES, _GL_CHECK_NODES)]
    return tuple(np.concatenate(part) for part in zip(*rules))


def _omega_grid(bath: OhmicBath, t_scale: float):
    """Panels on [0, 50 w_c]: geometric near zero, one period wide beyond.

    Returns the edges of the geometric panels, then the uniform part as
    ``(start, half, count)``: ``count`` panels of half-width ``half`` from
    ``start``, the last geometric edge.
    """
    w_max = _CUTOFF_MULTIPLE * bath.omega_c
    width = min(0.5 * bath.omega_c, 2.0 * np.pi / max(t_scale, 1e-12))
    # the thermal feature of coth(b w), b = beta hbar / 2, lives below ~1/b:
    # panels double in width from 0.01/b until they are as wide as the
    # uniform ones
    fine = [0.0]
    e = 0.01 / (0.5 * bath.beta * HBAR)
    while e < width:
        fine.append(e)
        e *= 2.0
    start = fine[-1]
    count = int(np.ceil((w_max - start) / width))
    if count > _MAX_PANELS:
        raise NumericalError(f"panel grid for t = {t_scale} ps needs {count} panels, "
                             f"above the limit of {_MAX_PANELS}")
    return np.array(fine), (start, 0.5 * (w_max - start) / count, count)


def _progression(first, step, count, taus):
    """e^{i (first + step j) tau} for j < count, shape (groups, count, rows).

    j = n a + c splits each factor into one of two tables of about
    sqrt(count) exponentials, so the pass costs one product per entry.
    """
    n = int(np.ceil(np.sqrt(count)))
    coarse = np.exp(1j * (first + step * n * np.arange(n))[:, None] * taus)
    fine = np.exp(1j * (step * np.arange(n))[:, None] * taus)
    table = coarse[:, :, None, :] * fine[:, None, :, :]
    return table.reshape(taus.shape[0], n * n, -1)[:, :count]


def _passes(bath: OhmicBath, t_scale: float, rows: int):
    """The panel grid as passes ``(first, step, panels, half, offsets)``.

    The nodes of a pass are w = first + step j + offsets[m, k], for j <
    panels and a batch of offset rows m. A pass of uniform panels has one
    offset row, h x, shared by all its panels; the geometric panels carry
    their whole nodes as offsets, one batch row per panel. A pass holds at
    most _BLOCK_VALUES (panel, row) entries, or one panel.
    """
    x = _nodes()[0]
    fine, (start, half, count) = _omega_grid(bath, t_scale)
    block = max(1, _BLOCK_VALUES // (rows + x.size))
    fine_half = 0.5 * np.diff(fine)[:, None]
    fine_nodes = fine[:-1, None] + fine_half * (1.0 + x)
    for m in range(0, fine_nodes.shape[0], block):
        yield 0.0, 0.0, 1, fine_half[m:m + block, :, None], fine_nodes[m:m + block]
    for j in range(0, count, block):
        yield start + (2 * j + 1) * half, 2.0 * half, min(block, count - j), half, half * x[None]


def spectral_integrals(bath: OhmicBath, t_scale: float, taus, amplitudes):
    """Integrate oscillating rows against the Ohmic weights on one panel grid.

    ``taus`` has shape ``(groups, rows)``; ``amplitudes(omega)`` returns
    ``(A_re, A_im)``, each broadcastable to ``(groups,) + omega.shape``.
    Row (g, r) gives

        (1/pi) Int_0^inf dw J(w) [coth(b w) W_re(w) - i W_im(w)],   b = beta hbar / 2,

    with W_re = Re(A_re[g] e^{i w tau}) and W_im = Im(A_im[g] e^{i w tau}),
    tau = taus[g, r], on panels one oscillation period wide at ``t_scale``,
    the largest time the rows oscillate with. At a node w = m + h x of a
    uniform panel with midpoint m and half-width h the phase splits as
    e^{i m tau} e^{i h x tau}; every uniform panel has the same h, so the
    node factors are one small matrix per pass and the node sum a matrix
    product. Returns the values and, per row, the sum over panels of
    |Re| + |Im| of the difference to a lower-order rule.
    """
    taus = np.asarray(taus, dtype=float)
    b = 0.5 * bath.beta * HBAR
    x, w = _nodes()
    value, residual = 0.0, 0.0
    for first, step, panels, h, offsets in _passes(bath, t_scale, taus.size):
        omega = first + step * np.arange(panels)[:, None] + offsets[..., None, :]
        # (1/pi) J(w) coth(b w) = (2 hbar alpha / b) e^{-w/w_c} (b w) coth(b w)
        decay = (h * w) * (2.0 * HBAR * bath.alpha) * np.exp(-omega / bath.omega_c)
        a_re, a_im = amplitudes(omega)
        node_phase = np.exp(1j * offsets[..., None] * taus[:, None, None, :])
        panel_phase = _progression(first, step, panels, taus[:, None, :])[:, None]
        per_panel = []
        for weights in (a_re * decay * _x_coth_x(b * omega) / b, a_im * decay * omega):
            value_rule = weights[..., :_GL_NODES] @ node_phase[..., :_GL_NODES, :]
            check_rule = weights[..., _GL_NODES:] @ node_phase[..., _GL_NODES:, :]
            per_panel.append((panel_phase * value_rule, panel_phase * (value_rule - check_rule)))
        (re, re_error), (im, im_error) = per_panel
        value = value + re.real.sum(axis=(1, 2)) - 1j * im.imag.sum(axis=(1, 2))
        residual = (residual + np.abs(re_error.real).sum(axis=(1, 2))
                    + np.abs(im_error.imag).sum(axis=(1, 2)))
    return value, residual


def _gamma_chunk(bath: OhmicBath, times: np.ndarray):
    """gamma and its residual at ascending ``times``, on the grid of the last."""
    value, residual = spectral_integrals(bath, times[-1], times[None, :],
                                         lambda omega: (1.0, 1.0))
    return value[0], residual[0]


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
