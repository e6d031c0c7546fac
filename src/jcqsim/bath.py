"""Ohmic bath: spectral density, noise power spectrum and response function.

The environment is described entirely by its spectral density

    J(w) = 2 pi hbar alpha w exp(-w / w_c)

together with the temperature. Derived from it are the noise power
spectrum S(w) = J(w) hbar coth(beta hbar w / 2) and the time-domain
response function

    gamma(t) = (1/pi) Int_0^inf dw J(w) [coth(beta hbar w / 2) cos(wt)
                                         - i sin(wt)],

whose width sets the bath memory time. For this bath the integral has a
closed form (Weiss, Quantum Dissipative Systems, the chapter on the Ohmic
correlation function): expanding coth as a geometric series of
exponentials sums it to a trigamma function. With z = 1/w_c - i t and
b = beta hbar / 2,

    gamma(t) = 2 hbar alpha [conj(1/z^2) + Re psi'(1 + z/(2b)) / (2 b^2)],

and a double time integral of it, Q'' = gamma, is

    Q(t) = 2 hbar alpha [conj(ln z) - 2 Re ln Gamma(1 + z/(2b))],

with slope Q'(0) = 2 i hbar alpha w_c. ``influence`` builds every
coefficient from second differences of Q, in which the integration
constants cancel. gamma needs the trigamma function and Q the real part of
the log-gamma function, both at complex argument; ``_trigamma`` and
``_log_gamma_real`` evaluate them with numpy alone, by recurrence shifts
and the asymptotic series.

alpha enters gamma and Q only as the prefactor 2 hbar alpha. The bracket,
their shape, depends on (w_c, T, t) alone: ``_response_shape`` and
``integral_shape`` evaluate it, and every caller multiplies it by the
prefactor. ``memory_time`` keeps the shape on its fixed grid for one bath
shape (w_c, T) at a time, so a sweep over alpha evaluates the closed form
once.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import SaturationError
from .units import HBAR, thermal_beta

# Bernoulli numbers B_2 .. B_16 of the asymptotic trigamma and log-gamma series.
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)
_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)


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
        for name in ("alpha", "omega_c", "temperature"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
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


def _trigamma(w):
    """psi'(w) for complex w with Re w >= 1.

    Twelve recurrence shifts psi'(w) = 1/w^2 + psi'(w + 1) move the argument
    to |w| > 12, where the asymptotic series
    1/w + 1/(2 w^2) + sum_k B_2k / w^(2k+1) through B_16 is exact in double
    precision.
    """
    total = 0.0
    for _ in range(12):
        total = total + 1.0 / (w * w)
        w = w + 1.0
    u = 1.0 / (w * w)
    series = 0.0
    for b2k in reversed(_BERNOULLI):
        series = (series + b2k) * u
    return total + (1.0 + 0.5 / w + series) / w


def _log_gamma_real(w):
    """Re ln Gamma(w) for complex w with Re w >= 1.

    Eight recurrence shifts ln Gamma(w) = ln Gamma(w + 8) - ln prod_k (w + k)
    move the argument to z = w + 8, where Stirling's series
    (z - 1/2) ln z - z + ln(2 pi) / 2 + sum_k B_2k / (2k (2k - 1) z^(2k-1))
    through B_16 is exact in double precision. The shift is one product of
    the factors (w + k) / z, each of modulus in [1/9, 1], so it neither
    overflows nor underflows at any finite w, and it takes one logarithm
    where a sum would take eight.
    """
    z = w + 8.0
    u = 1.0 / z
    shift = 1.0
    for k in range(8):
        shift = shift * ((w + k) * u)
    u2 = u * u
    series = 0.0
    for n, b2k in reversed(list(enumerate(_BERNOULLI, start=1))):
        series = series * u2 + b2k / (2 * n * (2 * n - 1))
    # the factor z^8 taken out of the shift product joins (z - 1/2) ln z
    return (((z - 8.5) * np.log(z)).real - z.real + _HALF_LOG_2PI
            + (series * u).real - np.log(np.abs(shift)))


def _checked_times(t):
    """``t`` as a float array, raising ValueError unless every time is finite and >= 0."""
    times = np.asarray(t, dtype=float)
    bad = ~(np.isfinite(times) & (times >= 0.0))
    if bad.any():
        raise ValueError(f"t must be finite and >= 0, got {times[bad].ravel()[0]}")
    return times


def _closed_form_args(omega_c, temperature, times):
    """(z, b) of the closed forms at the checked ``times``."""
    return 1.0 / omega_c - 1j * times, 0.5 * thermal_beta(temperature) * HBAR


def _response_shape(omega_c: float, temperature: float, times: np.ndarray):
    """gamma / (2 hbar alpha) at the checked ``times``, for the bath shape (w_c, T)."""
    z, b = _closed_form_args(omega_c, temperature, times)
    return np.conj(1.0 / (z * z)) + _trigamma(1.0 + z / (2.0 * b)).real / (2.0 * b * b)


def integral_shape(omega_c: float, temperature: float, times: np.ndarray) -> np.ndarray:
    """Q / (2 hbar alpha) at the checked ``times``, always as an array."""
    z, b = _closed_form_args(omega_c, temperature, times)
    z = np.atleast_1d(z)  # a scalar takes the array path, so it gets the same bits
    return np.conj(np.log(z)) - 2.0 * _log_gamma_real(1.0 + z / (2.0 * b))


def _gamma(bath: OhmicBath, shape):
    """gamma from its shape."""
    # + 0.0 turns the -0.0 of alpha = 0, and of Im gamma(0), into 0.0
    return 2.0 * HBAR * bath.alpha * shape + 0.0


def response_function(bath: OhmicBath, t) -> complex | np.ndarray:
    """Bath response function gamma(t) in ueV/ps, for finite t >= 0.

    ``t`` is a time or an array of times; the result is a complex or a
    complex array of the same shape.
    """
    times = _checked_times(t)
    # z^2 overflows above t of about 1e154, where 1/z^2 = 0 is the right limit
    with np.errstate(over="ignore"):
        gamma = _gamma(bath, _response_shape(bath.omega_c, bath.temperature, times))
    return complex(gamma) if times.ndim == 0 else gamma


def response_integral(bath: OhmicBath, t) -> complex | np.ndarray:
    """Double time integral Q(t) of gamma in ueV ps, for finite t >= 0.

    Q'' = gamma; ``t`` is a time or an array of times, as for
    ``response_function``.
    """
    times = _checked_times(t)
    q = 2.0 * HBAR * bath.alpha * integral_shape(bath.omega_c, bath.temperature, times)
    return complex(q[0]) if times.ndim == 0 else q


# memory_time's grid, step 0.1 ps on [0, 100 ps]
_MEMORY_TIMES = np.arange(0.0, 100.05, 0.1)
_MEMORY_TIMES.flags.writeable = False


@functools.lru_cache(maxsize=1)
def _memory_shape(omega_c: float, temperature: float) -> np.ndarray:
    """gamma / (2 hbar alpha) on ``_MEMORY_TIMES``, read-only: 16 KB for one bath shape."""
    shape = _response_shape(omega_c, temperature, _MEMORY_TIMES)
    shape.flags.writeable = False
    return shape


def memory_time(bath: OhmicBath, threshold: float) -> float:
    """Smallest grid time beyond which gamma has decayed below ``threshold``.

    Both |Re gamma| / Re gamma(0) and |Im gamma| / max|Im gamma| must stay
    below the threshold from the returned time to the end of the fixed grid,
    step 0.1 ps on [0, 100 ps]. |Im gamma| = 4 hbar alpha a t / (a^2 + t^2)^2,
    a = 1/w_c, peaks at t = a / sqrt(3) at (3 sqrt(3) / 4) hbar alpha w_c^2.
    Raises SaturationError if the criterion is never met within the grid.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    gamma = _gamma(bath, _memory_shape(bath.omega_c, bath.temperature))
    im_max = 0.75 * np.sqrt(3.0) * HBAR * bath.alpha * bath.omega_c ** 2
    re0 = abs(gamma[0].real)
    if re0 == 0.0:  # alpha = 0: no memory at all
        return float(_MEMORY_TIMES[1])
    re_ratio = np.abs(gamma.real) / re0
    im_ratio = np.abs(gamma.imag) / im_max if im_max > 0.0 else np.zeros_like(re_ratio)
    ok = (re_ratio < threshold) & (im_ratio < threshold)
    # require the condition to hold from t to the grid end
    ok_tail = np.flip(np.logical_and.accumulate(np.flip(ok)))
    idx = np.nonzero(ok_tail)[0]
    if idx.size == 0:
        raise SaturationError(
            f"gamma never stays below threshold {threshold} within [0, 100.0] ps")
    return float(_MEMORY_TIMES[idx[0]])
