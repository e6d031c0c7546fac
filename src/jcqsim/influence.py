"""Discretized influence-functional coefficients and their factor tables.

Paths are piecewise constant on cells of the time grid: interior points own
full cells [(k-1/2) dt, (k+1/2) dt], while the first and last points own
half cells ([0, dt/2] and [N dt - dt/2, N dt]) matching the half-step
system/bath splitting at the path ends. The coefficients are double time
integrals of the bath response function over the cells,

    eta_{kk'} = Int_{cell k} dt' Int_{cell k'} dt'' gamma(t' - t''),

with the self term integrated over the ordered triangle t'' < t'. They are
evaluated in the frequency domain: folding the cell geometry into the
omega-integrand gives windows that are regular at omega -> 0, and
``bath.spectral_integrals`` integrates them against the Ohmic weights. The
two self terms share one panel grid. Every pair row is a class amplitude
times the phase e^{i w tau}, tau fixed by the class and dk, so the pairs of
all separations share a second grid, one oscillation period wide at
(dk_max + 1) dt, on which the three class amplitudes are evaluated once.
The engine's lower-order error estimate gates the table at 1e-8 of
max|eta|.

A pair coefficient carries one of three classes depending on which cells it
connects: interior-interior, endpoint-interior or endpoint-endpoint.

The qubit couples to the bath through half the Pauli operator (the standard
gate-charge noise convention, the same normalization under which the
golden-rule dephasing formula used by the Bloch comparison holds), so every
influence exponent carries the squared coupling weight (1/2)^2.
"""

from dataclasses import dataclass

import numpy as np

from .bath import OhmicBath, spectral_integrals
from .errors import NumericalError
from .units import HBAR

# Bath couples to (sigma_z / 2); exponents scale with the square.
COUPLING_WEIGHT = 0.5
_G2 = COUPLING_WEIGHT * COUPLING_WEIGHT

INTERIOR = "interior"
ENDPOINT = "endpoint"

# spin-pair index p = 2*b_plus + b_minus, basis index b -> s = 1 - 2b
SPIN_PLUS = np.array([1.0, 1.0, -1.0, -1.0])
SPIN_MINUS = np.array([1.0, -1.0, 1.0, -1.0])

_PAIR_CLASSES = ("ii", "ei", "ee")

# Largest accepted quadrature residual, relative to max|eta|.
_ETA_RTOL = 1e-8


@dataclass(frozen=True)
class EtaTable:
    """Influence coefficients for one time grid and one memory span.

    ``eta_pair_*`` arrays are indexed by separation dk = 1 .. dk_max; the
    endpoint-interior entries apply to pairs with exactly one half cell and
    the endpoint-endpoint entries to the (first, last) pair.
    """

    dt: float
    n_steps: int
    dk_max: int
    eta_self_interior: complex
    eta_self_end: complex
    eta_pair_interior: np.ndarray
    eta_pair_end_interior: np.ndarray
    eta_pair_end_end: np.ndarray

    def eta_self(self, kind: str) -> complex:
        return self.eta_self_end if kind == ENDPOINT else self.eta_self_interior

    def eta_pair(self, dk: int, kind: str) -> complex:
        if not 1 <= dk <= self.dk_max:
            raise ValueError(f"dk must be in [1, {self.dk_max}], got {dk}")
        if kind == "ii":
            return complex(self.eta_pair_interior[dk - 1])
        if kind == "ei":
            return complex(self.eta_pair_end_interior[dk - 1])
        if kind == "ee":
            return complex(self.eta_pair_end_end[dk - 1])
        raise ValueError(f"unknown pair class {kind!r}")


def _sinc(x):
    return np.sinc(x / np.pi)


def _self_windows(omega, width):
    """(W_re, W_im)/omega^2 for the ordered triangle over one cell."""
    z = omega * width
    w_re = 0.5 * width * width * _sinc(0.5 * z) ** 2
    small = np.abs(z) < 1e-2
    zs = np.where(small, 1.0, z)
    frac = np.where(small, z / 6.0 - z**3 / 120.0 + z**5 / 5040.0,
                    (zs - np.sin(zs)) / (zs * zs))
    w_im = width * width * frac
    return w_re, w_im


def _self_amplitudes(omega, dt):
    """(A_re, A_im) of the interior and endpoint self rows, at tau = 0."""
    w_re, w_im = zip(_self_windows(omega, dt), _self_windows(omega, 0.5 * dt))
    return np.array(w_re), 1j * np.array(w_im)


def _pair_amplitudes(omega, dt):
    """(A_re, A_im) of the three pair classes, whose rows differ only in tau."""
    inner, half = _sinc(0.5 * omega * dt), _sinc(0.25 * omega * dt)
    amp = dt * dt * np.array([inner * inner, 0.5 * inner * half, 0.25 * half * half])
    return amp, amp


def eta_coefficients(bath: OhmicBath, dt: float, n_steps: int, dk_max: int) -> EtaTable:
    """Build the full coefficient table for a grid of ``n_steps`` steps.

    Interior pair entries depend only on the separation dk, so one entry per
    dk and class covers the whole grid. Raises NumericalError if a
    quadrature residual exceeds ``_ETA_RTOL`` of max|eta|.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not 1 <= dk_max <= n_steps:
        raise ValueError(f"dk_max must satisfy 1 <= dk_max <= n_steps, got {dk_max}")

    # the two self terms on one panel grid, the pairs of every dk on another;
    # a pair of class (ii, ei, ee) at separation dk oscillates with
    # tau = (dk - 0, 0.25, 0.5) dt
    self_eta, self_res = spectral_integrals(bath, dt, np.zeros((2, 1)),
                                            lambda w: _self_amplitudes(w, dt))
    taus = (np.arange(1, dk_max + 1) - np.array([[0.0], [0.25], [0.5]])) * dt
    pair, pair_res = spectral_integrals(bath, (dk_max + 1) * dt, taus,
                                        lambda w: _pair_amplitudes(w, dt))
    scale = max(np.abs(self_eta).max(), np.abs(pair).max())
    residual = max(self_res.max(), pair_res.max())
    if residual > _ETA_RTOL * scale:
        raise NumericalError(f"eta quadrature residual {residual:.3e} above "
                             f"target {_ETA_RTOL * scale:.3e}",
                             residual=residual / scale)

    return EtaTable(dt=dt, n_steps=n_steps, dk_max=dk_max,
                    eta_self_interior=complex(self_eta[0, 0]),
                    eta_self_end=complex(self_eta[1, 0]),
                    eta_pair_interior=pair[0], eta_pair_end_interior=pair[1],
                    eta_pair_end_end=pair[2])


def dump_eta_csv(table: EtaTable, path: str) -> None:
    """Debug dump: one row per coefficient, columns dk, class, re_eta, im_eta."""
    def fmt(x):
        return format(float(x), ".12g")

    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("dk,class,re_eta,im_eta\n")
        fh.write(f"0,{INTERIOR},{fmt(table.eta_self_interior.real)},"
                 f"{fmt(table.eta_self_interior.imag)}\n")
        fh.write(f"0,{ENDPOINT},{fmt(table.eta_self_end.real)},"
                 f"{fmt(table.eta_self_end.imag)}\n")
        for dk in range(1, table.dk_max + 1):
            for kind in _PAIR_CLASSES:
                eta = table.eta_pair(dk, kind)
                fh.write(f"{dk},{kind},{fmt(eta.real)},{fmt(eta.imag)}\n")


def self_factor_table(eta_self: complex) -> np.ndarray:
    """Self factor I0 of one time point over the 4 spin-pair indices p = 2 b+ + b-.

    I0 = exp(-g^2/hbar (s+ - s-)(eta s+ - conj(eta) s-)) with s = 1 - 2b.
    """
    return np.exp(-_G2 / HBAR * (SPIN_PLUS - SPIN_MINUS)
                  * (eta_self * SPIN_PLUS - np.conj(eta_self) * SPIN_MINUS))


def pair_factor_table(eta_pair: complex) -> np.ndarray:
    """Cross factor I_dk as a (4, 4) array indexed [early pair, late pair].

    I_dk = exp(-g^2/hbar (l+ - l-)(eta e+ - conj(eta) e-)) for the early
    spins (e+, e-) and the late spins (l+, l-).
    """
    early = eta_pair * SPIN_PLUS - np.conj(eta_pair) * SPIN_MINUS
    late = SPIN_PLUS - SPIN_MINUS
    return np.exp(-_G2 / HBAR * np.outer(early, late))


def pair_class(earlier: int, later: int, n_final: int) -> str:
    """Coefficient class for the pair (earlier, later) on a path ending at n_final."""
    if earlier == 0 and later == n_final:
        return "ee"
    if earlier == 0 or later == n_final:
        return "ei"
    return "ii"
