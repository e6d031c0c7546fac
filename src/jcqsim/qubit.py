"""Bare two-level system: Hamiltonian, exact short-time propagator, initial states.

Basis convention: index 0 is the sigma_z = +1 state (column vector (1, 0))
and index 1 the sigma_z = -1 state. CSV output labels rows 0/1 in this
order. Effective fields are B_x = E_J and B_z = 4 E_C (1 - 2 n_g); at the
gate-charge sweet spot n_g = 1/2 the Hamiltonian is pure sigma_x.
"""

from dataclasses import dataclass

import numpy as np

from .units import HBAR

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@dataclass(frozen=True)
class QubitParameters:
    """Charge-qubit energies (ueV) and dimensionless gate charge."""

    e_j: float
    e_c: float
    n_g: float

    def __post_init__(self):
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


@dataclass(frozen=True)
class PropagatorK:
    """One-step system propagator U and its forward/backward pair tensor.

    ``tensor[p, p']`` maps the spin pair p at step k to p' at step k+1 and
    factorizes as U[b+', b+] conj(U[b-', b-]).
    """

    dt: float
    u: np.ndarray
    tensor: np.ndarray


def hamiltonian(params: QubitParameters) -> np.ndarray:
    """H_s = -(B_z/2) sigma_z - (B_x/2) sigma_x in ueV."""
    return -0.5 * params.b_z * SIGMA_Z - 0.5 * params.b_x * SIGMA_X


def short_time_propagator(params: QubitParameters, dt: float) -> PropagatorK:
    """Exact U = exp(-i H_s dt / hbar) via the analytic 2x2 formula."""
    if dt < 0.0:
        raise ValueError(f"dt must be >= 0, got {dt}")
    b_norm = np.hypot(params.b_x, params.b_z)
    if b_norm == 0.0 or dt == 0.0:
        u = np.eye(2, dtype=complex)
    else:
        theta = b_norm * dt / (2.0 * HBAR)
        axis = (params.b_x * SIGMA_X + params.b_z * SIGMA_Z) / b_norm
        u = np.cos(theta) * np.eye(2, dtype=complex) + 1j * np.sin(theta) * axis
    # tensor[(b+, b-), (c+, c-)] = U[c+, b+] conj(U[c-, b-]). np.kron(u, u.conj()).T
    # holds the same products, but off the sweet spot its vectorized complex
    # multiply rounds some of them differently in the last bit.
    tensor = np.einsum("ik,jl->klij", u, u.conj()).reshape(4, 4)
    return PropagatorK(dt=dt, u=u, tensor=tensor)


def validate_density_matrix(rho: np.ndarray, herm_tol: float = 1e-12,
                            trace_tol: float = 1e-10, eig_tol: float = 1e-8) -> np.ndarray:
    """Check hermiticity, unit trace and spectrum; returns a complex copy."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"density matrix must be 2x2, got shape {rho.shape}")
    if not np.isfinite(rho).all():
        raise ValueError("density matrix has non-finite entries")
    if np.abs(rho - rho.conj().T).max() > herm_tol:
        raise ValueError("density matrix is not hermitian")
    if abs(np.trace(rho).real - 1.0) > trace_tol or abs(np.trace(rho).imag) > trace_tol:
        raise ValueError(f"density matrix trace {np.trace(rho)} is not 1")
    eigs = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    if eigs.min() < -eig_tol:
        raise ValueError(f"density matrix has negative eigenvalue {eigs.min()}")
    return rho.copy()


def initial_state(kind="plus") -> np.ndarray:
    """Initial reduced density matrix.

    ``kind`` is one of "plus" (equal superposition with maximal coherences),
    "zero", "one", or a custom 2x2 matrix which must satisfy the density
    matrix invariants.
    """
    if isinstance(kind, str):
        if kind == "plus":
            return 0.5 * np.ones((2, 2), dtype=complex)
        if kind == "zero":
            return np.diag([1.0, 0.0]).astype(complex)
        if kind == "one":
            return np.diag([0.0, 1.0]).astype(complex)
        raise ValueError(f"unknown initial state kind {kind!r}")
    return validate_density_matrix(kind)
