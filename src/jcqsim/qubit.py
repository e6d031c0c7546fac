"""Bare two-level system: Hamiltonian, exact short-time propagator U, named states.

Basis convention: index 0 is the sigma_z = +1 state (column vector (1, 0))
and index 1 the sigma_z = -1 state. CSV output labels rows 0/1 in this
order. Effective fields are B_x = E_J and B_z = 4 E_C (1 - 2 n_g); at the
gate-charge sweet spot n_g = 1/2 the Hamiltonian is pure sigma_x. The
propagator U rotates about the axis of ``hamiltonian``; ``itm`` builds its
forward/backward pair tensor. The CLI offers the names of ``INITIAL_STATES``.
"""

from dataclasses import dataclass

import numpy as np

from .units import HBAR

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# Largest hermiticity, trace and negative-eigenvalue errors of a density matrix.
HERM_TOL, TRACE_TOL, EIG_TOL = 1e-12, 1e-10, 1e-8

# "plus" is the equal superposition, with maximal coherences.
INITIAL_STATES = {"plus": 0.5 * np.ones((2, 2), dtype=complex),
                  "zero": np.diag([1.0, 0.0]).astype(complex),
                  "one": np.diag([0.0, 1.0]).astype(complex)}


@dataclass(frozen=True)
class QubitParameters:
    """Charge-qubit energies (ueV) and dimensionless gate charge."""

    e_j: float
    e_c: float
    n_g: float

    def __post_init__(self):
        for name in ("e_j", "e_c", "n_g"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.e_j <= 0.0:
            raise ValueError(f"e_j must be positive, got {self.e_j}")
        if self.e_c <= 0.0:
            raise ValueError(f"e_c must be positive, got {self.e_c}")

    @property
    def b_x(self) -> float:
        return self.e_j

    @property
    def b_z(self) -> float:
        return 4.0 * self.e_c * (1.0 - 2.0 * self.n_g)


def hamiltonian(params: QubitParameters) -> np.ndarray:
    """H_s = -(B_z/2) sigma_z - (B_x/2) sigma_x in ueV."""
    return -0.5 * params.b_z * SIGMA_Z - 0.5 * params.b_x * SIGMA_X


def short_time_propagator(params: QubitParameters, dt: float) -> np.ndarray:
    """Returns U = exp(-i H_s dt / hbar) = cos(theta) - i sin(theta) 2 H_s / |B|, exactly."""
    if dt < 0.0:
        raise ValueError(f"dt must be >= 0, got {dt}")
    b_norm = np.hypot(params.b_x, params.b_z)
    theta = b_norm * dt / (2.0 * HBAR)
    axis = -2.0 * hamiltonian(params) / b_norm
    return np.cos(theta) * np.eye(2, dtype=complex) + 1j * np.sin(theta) * axis


def validate_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Check hermiticity, unit trace and spectrum; returns a complex copy."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"density matrix must be 2x2, got shape {rho.shape}")
    if not np.isfinite(rho).all():
        raise ValueError("density matrix has non-finite entries")
    if np.abs(rho - rho.conj().T).max() > HERM_TOL:
        raise ValueError("density matrix is not hermitian")
    if abs(np.trace(rho).real - 1.0) > TRACE_TOL or abs(np.trace(rho).imag) > TRACE_TOL:
        raise ValueError(f"density matrix trace {np.trace(rho)} is not 1")
    eigs = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    if eigs.min() < -EIG_TOL:
        raise ValueError(f"density matrix has negative eigenvalue {eigs.min()}")
    return rho.copy()


def initial_state(kind: str) -> np.ndarray:
    """A copy of ``INITIAL_STATES[kind]``; ``propagate`` validates any other rho0."""
    if kind not in INITIAL_STATES:
        raise ValueError(f"unknown initial state kind {kind!r}")
    return INITIAL_STATES[kind].copy()
