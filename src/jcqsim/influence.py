"""Discretized influence-functional coefficients and their factor tables.

Paths are piecewise constant on cells of the time grid: interior points own
full cells [(k-1/2) dt, (k+1/2) dt], while the first and last points own
half cells ([0, dt/2] and [N dt - dt/2, N dt]) matching the half-step
system/bath splitting at the path ends. The coefficients are double time
integrals of the bath response function over the cells,

    eta_{kk'} = Int_{cell k} dt' Int_{cell k'} dt'' gamma(t' - t''),

with the self term integrated over the ordered triangle t'' < t'. With
Q'' = gamma (``bath.response_integral``) both are differences of Q. A pair
over a late cell [a1, a2] and an early cell [b1, b2] is

    Q(a2 - b1) - Q(a2 - b2) - Q(a1 - b1) + Q(a1 - b2),

and a self term over a cell of width L is Q(L) - Q(0) - L Q'(0).

A pair coefficient carries one of three classes depending on which cells it
connects: interior-interior, endpoint-interior or endpoint-endpoint.

The qubit couples to the bath through half the Pauli operator (the standard
gate-charge noise convention, the same normalization under which the
golden-rule dephasing formula used by the Bloch comparison holds), so every
influence exponent carries the squared coupling weight (1/2)^2.

alpha enters every coefficient only through Q's prefactor 2 hbar alpha; the
rest is Q's shape (``bath.integral_shape``) at the cell edges, a function of
(w_c, T, dt) alone. ``eta_coefficients`` keeps that shape for one grid
(w_c, T, dt, dk_max) at a time and applies the prefactor on every call, so
a sweep over alpha evaluates Q once.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .bath import OhmicBath, integral_shape
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
# columns of ``EtaTable.rows``
ETA_COLUMNS = ["dk", "class", "re_eta", "im_eta"]
# (late cell, early cell) of each pair class in units of dt, the late cell
# relative to the late point and the early cell to the early point
_PAIR_CELLS = np.array([[(-0.5, 0.5), (-0.5, 0.5)],
                        [(-0.5, 0.5), (0.0, 0.5)],
                        [(-0.5, 0.0), (0.0, 0.5)]])
# widths of the interior and the endpoint self cell in units of dt
_SELF_WIDTHS = np.array([1.0, 0.5])


@dataclass(frozen=True)
class EtaTable:
    """Influence coefficients for one time grid and one memory span.

    ``eta_pair_*`` arrays are indexed by separation dk = 1 .. dk_max; the
    endpoint-interior entries apply to pairs with exactly one half cell and
    the endpoint-endpoint entries to the (first, last) pair.
    """

    dt: float
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

    def rows(self) -> list[tuple]:
        """One row per coefficient, columns ``ETA_COLUMNS``; the self terms at dk 0."""
        etas = [(0, INTERIOR, self.eta_self_interior), (0, ENDPOINT, self.eta_self_end)]
        etas += [(dk, kind, self.eta_pair(dk, kind))
                 for dk in range(1, self.dk_max + 1) for kind in _PAIR_CLASSES]
        return [(dk, kind, eta.real, eta.imag) for dk, kind, eta in etas]


@functools.lru_cache(maxsize=1)
def _q_shape(omega_c: float, temperature: float, dt: float, dk_max: int) -> np.ndarray:
    """Q / (2 hbar alpha) at 0, the two self widths and every pair edge, read-only.

    The pair edges are the four cell-edge differences a2 - b1, a2 - b2,
    a1 - b1, a1 - b2 of each class and dk, at least dk - 1 >= 0 in units of
    dt, in the order (class, dk, edge). One array of 3 + 12 dk_max values.
    """
    late, early = _PAIR_CELLS[:, 0], _PAIR_CELLS[:, 1]
    edges = late[:, [1, 1, 0, 0]] - early[:, [0, 1, 0, 1]]
    dk = np.arange(1, dk_max + 1)
    pair_times = (dk[:, None] + edges[:, None, :]) * dt
    shape = integral_shape(omega_c, temperature,
                           np.concatenate([[0.0], _SELF_WIDTHS * dt, pair_times.ravel()]))
    shape.flags.writeable = False
    return shape


def eta_coefficients(bath: OhmicBath, dt: float, n_steps: int, dk_max: int) -> EtaTable:
    """Build the full coefficient table for a grid of ``n_steps`` steps.

    Interior pair entries depend only on the separation dk, so one entry per
    dk and class covers the whole grid.
    """
    if not 0.0 < dt < np.inf:
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if not 1 <= dk_max <= n_steps:
        raise ValueError(f"dk_max must satisfy 1 <= dk_max <= n_steps, got {dk_max}")

    widths = _SELF_WIDTHS * dt
    slope = 2j * HBAR * bath.alpha * bath.omega_c  # Q'(0), from the form of Q in bath
    q = 2.0 * HBAR * bath.alpha * _q_shape(bath.omega_c, bath.temperature, dt, dk_max)
    self_eta = q[1:3] - q[0] - widths * slope
    pair = q[3:].reshape(3, dk_max, 4) @ np.array([1.0, -1.0, -1.0, 1.0])

    return EtaTable(dt=dt, dk_max=dk_max, eta_self_interior=complex(self_eta[0]),
                    eta_self_end=complex(self_eta[1]), eta_pair_interior=pair[0],
                    eta_pair_end_interior=pair[1], eta_pair_end_end=pair[2])


def self_factor_table(eta_self) -> np.ndarray:
    """Self factor I0 of one time point over the 4 spin-pair indices p = 2 b+ + b-.

    I0 = exp(-g^2/hbar (s+ - s-)(eta s+ - conj(eta) s-)) with s = 1 - 2b.
    An array of eta gives one table per entry, on a last axis of 4.
    """
    eta = np.asarray(eta_self)[..., None]
    return np.exp(-_G2 / HBAR * (SPIN_PLUS - SPIN_MINUS)
                  * (eta * SPIN_PLUS - np.conj(eta) * SPIN_MINUS))


def pair_factor_table(eta_pair) -> np.ndarray:
    """Cross factor I_dk as a (4, 4) array indexed [early pair, late pair].

    I_dk = exp(-g^2/hbar (l+ - l-)(eta e+ - conj(eta) e-)) for the early
    spins (e+, e-) and the late spins (l+, l-). An array of eta gives one
    table per entry, on two last axes of 4, from one exponential.
    """
    eta = np.asarray(eta_pair)[..., None]
    early = eta * SPIN_PLUS - np.conj(eta) * SPIN_MINUS
    late = SPIN_PLUS - SPIN_MINUS
    return np.exp(-_G2 / HBAR * (early[..., :, None] * late))


def pair_class(earlier: int, later: int, n_final: int) -> str:
    """Coefficient class for the pair (earlier, later) on a path ending at n_final."""
    if earlier == 0 and later == n_final:
        return "ee"
    if earlier == 0 or later == n_final:
        return "ei"
    return "ii"
