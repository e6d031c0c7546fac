"""Iterative tensor multiplication of the reduced density matrix.

The propagated object is a window tensor over the last M+1 time points
(M = dk_max, the memory truncation), stored oldest-first. One step folds
the oldest point out and extends by the next one, multiplying in the bare
propagator pair tensor, the departing point's self factor and all pair
factors that end at the new point. Each point's self factor is applied
exactly once, when the point stops being the newest; each pair factor is
applied once, when its later point is added.

Reading out a density matrix at step n applies the terminal corrections
non-destructively: the terminal point's self factor with the endpoint
coefficient, and for every in-window pair ending at n the ratio between
its terminal-class and applied-class coefficients. Keeping M+1 points (one
more than the memory span) makes every such pair available, so the
iteration with dk_max = N reproduces the exact path sum identically.

The first time point uses endpoint-class coefficients as well; the ramp-up
steps that involve it are taken outside the hot kernel.

After the ramp every step is the same linear map A on the folded window
(the M newest points, 4^M entries): ``TransferTensor.dense().T``. The
steady phase therefore jumps from one sample step to the next, L steps at
a time, with precomputed A^L and readout R A^(L-1). Before each jump, the
certificate max_{k<L} |A^k| bounds every window entry the skipped steps
would have produced; only if that bound stays below ``guard`` is the block
jumped, otherwise it is stepped and the guard is checked at each step. A
cost model in the window size and block length steps the blocks where
stepping is cheaper. See ``_kernels.evolve_window``.
"""

from dataclasses import dataclass

import numpy as np

from ._kernels import brute_force_sum, evolve_window, window_step
from .errors import CapacityError, ConfigError, InstabilityError
from .influence import (ENDPOINT, INTERIOR, EtaTable, pair_factor_table,
                        self_factor_table)
from .qubit import PropagatorK, QubitParameters, short_time_propagator, validate_density_matrix

DEFAULT_GUARD = 4.0


@dataclass(frozen=True)
class TransferTensor:
    """Steady one-step factor tensor over M+1 points plus the bare pair tensor.

    ``step`` has shape (4^M, 4): row = the M most recent points
    (oldest-first), column = the next point.
    """

    dk_max: int
    k_tensor: np.ndarray
    step: np.ndarray

    def dense(self) -> np.ndarray:
        """The (4^M, 4^M) window-to-window matrix; zero off the overlap.

        Built by pushing the identity through one ``window_step``: its
        transpose is the map that the steady propagation iterates.
        """
        return window_step(np.eye(4 ** self.dk_max, dtype=complex), self.step).T


@dataclass(frozen=True)
class Trajectory:
    """Sampled reduced density matrices; times in ps, first sample at t = 0."""

    times: np.ndarray
    rhos: np.ndarray

    def __len__(self):
        return len(self.times)

    @property
    def rho00(self):
        return self.rhos[:, 0, 0].real

    @property
    def rho11(self):
        return self.rhos[:, 1, 1].real

    @property
    def re_rho01(self):
        return self.rhos[:, 0, 1].real

    @property
    def im_rho01(self):
        return self.rhos[:, 0, 1].imag

    @property
    def abs_rho01(self):
        return np.abs(self.rhos[:, 0, 1])

    @property
    def trace(self):
        return np.einsum("nii->n", self.rhos)

    @property
    def hermiticity_deviation(self):
        return np.abs(self.rhos[:, 1, 0] - self.rhos[:, 0, 1].conj())


def _on_axes(factor: np.ndarray, axes: tuple, width: int) -> np.ndarray:
    """Reshape a (4,) or (4, 4) factor for broadcasting onto given axes."""
    shape = [1] * width
    for ax in axes:
        shape[ax] = 4
    return factor.reshape(shape)


def _steady_step_tensor(k_tensor: np.ndarray, table: EtaTable) -> np.ndarray:
    m = table.dk_max
    width = m + 1
    g = np.ones((4,) * width, dtype=complex)
    g = g * _on_axes(k_tensor, (m - 1, m), width)
    g = g * _on_axes(self_factor_table(table.eta_self(INTERIOR)), (m - 1,), width)
    for dk in range(1, m + 1):
        g = g * _on_axes(pair_factor_table(table.eta_pair(dk, "ii")), (m - dk, m), width)
    return g.reshape(4 ** m, 4)


def _steady_correction_tensor(table: EtaTable) -> np.ndarray:
    m = table.dk_max
    width = m + 1
    c = np.ones((4,) * width, dtype=complex)
    c = c * _on_axes(self_factor_table(table.eta_self(ENDPOINT)), (m,), width)
    for dk in range(1, m + 1):
        delta = table.eta_pair(dk, "ei") - table.eta_pair(dk, "ii")
        c = c * _on_axes(pair_factor_table(delta), (m - dk, m), width)
    return c.reshape(4 ** m, 4)


def build_transfer_tensor(propagator: PropagatorK, table: EtaTable) -> TransferTensor:
    """Steady-state transfer tensor for memory span table.dk_max."""
    return TransferTensor(dk_max=table.dk_max, k_tensor=propagator.tensor,
                          step=_steady_step_tensor(propagator.tensor, table))


def _ramp_step(state, n, p_lo, k_tensor, table):
    """Generic step n -> n+1 on a growing window; handles the first point's classes."""
    m = table.dk_max
    width = state.ndim
    if width == m + 1:
        state = state.sum(axis=0)
        p_lo += 1
        width -= 1
    new_width = width + 1
    ax_n = width - 1
    self_kind = ENDPOINT if n == 0 else INTERIOR
    fac = _on_axes(k_tensor, (ax_n, new_width - 1), new_width).astype(complex)
    fac = fac * _on_axes(self_factor_table(table.eta_self(self_kind)), (ax_n,), new_width)
    for dk in range(1, min(n + 1, m) + 1):
        earlier = n + 1 - dk
        kind = "ei" if earlier == 0 else "ii"
        fac = fac * _on_axes(pair_factor_table(table.eta_pair(dk, kind)),
                             (earlier - p_lo, new_width - 1), new_width)
    return state[..., None] * fac, p_lo


def _generic_readout(state, n, p_lo, table):
    """Terminal-corrected density matrix from a window spanning p_lo..n."""
    m = table.dk_max
    width = state.ndim
    r = state * _on_axes(self_factor_table(table.eta_self(ENDPOINT)), (width - 1,), width)
    for dk in range(1, min(n, m) + 1):
        earlier = n - dk
        applied = table.eta_pair(dk, "ei" if earlier == 0 else "ii")
        terminal = table.eta_pair(dk, "ee" if earlier == 0 else "ei")
        r = r * _on_axes(pair_factor_table(terminal - applied),
                         (earlier - p_lo, width - 1), width)
    return r.reshape(-1, 4).sum(axis=0).reshape(2, 2)


def propagate(rho0: np.ndarray, transfer: TransferTensor, table: EtaTable,
              n_steps: int, sample_every: int = 1,
              guard: float = DEFAULT_GUARD) -> Trajectory:
    """Evolve rho0 for n_steps of table.dt, sampling every ``sample_every`` steps.

    The t = 0 sample is the initial state itself; the final step is always
    sampled. Raises InstabilityError if any tensor entry exceeds ``guard``.
    """
    if transfer.dk_max != table.dk_max:
        raise ConfigError(f"transfer tensor memory span {transfer.dk_max} does not "
                          f"match table dk_max {table.dk_max}")
    if n_steps < 1:
        raise ConfigError(f"n_steps must be >= 1, got {n_steps}")
    if sample_every < 1:
        raise ConfigError(f"sample_every must be >= 1, got {sample_every}")
    rho0 = validate_density_matrix(rho0)

    m = table.dk_max
    sample_steps = sorted(set(range(sample_every, n_steps + 1, sample_every)) | {n_steps})
    times = [0.0]
    rhos = [rho0.copy()]

    state = rho0.reshape(4).copy()
    p_lo = 0
    ramp_end = min(n_steps, max(1, m))
    for n in range(ramp_end):
        state, p_lo = _ramp_step(state, n, p_lo, transfer.k_tensor, table)
        if np.abs(state).max() > guard:
            raise InstabilityError(f"window tensor exceeded guard {guard} at step {n + 1}",
                                   step=n + 1)
        if n + 1 in sample_steps:
            times.append((n + 1) * table.dt)
            rhos.append(_generic_readout(state, n + 1, p_lo, table))

    if n_steps > ramp_end:
        remaining = np.array([s for s in sample_steps if s > ramp_end], dtype=np.int64)
        correction = _steady_correction_tensor(table)
        samples, bad_step = evolve_window(state.ravel(), transfer.step.ravel(),
                                          correction.ravel(), ramp_end, n_steps,
                                          remaining, guard=guard)
        if bad_step >= 0:
            raise InstabilityError(f"window tensor exceeded guard {guard} at step {bad_step}",
                                   step=int(bad_step))
        for step, vec in zip(remaining, samples):
            times.append(step * table.dt)
            rhos.append(vec.reshape(2, 2))

    return Trajectory(times=np.array(times), rhos=np.array(rhos))


def brute_force_path_sum(rho0: np.ndarray, params: QubitParameters, table: EtaTable,
                         n_steps: int, backend: str | None = None) -> np.ndarray:
    """Exact enumeration of all forward/backward paths; the ITM oracle.

    Cost grows as 4^(N+1); capped at N = 10.
    """
    if n_steps < 1:
        raise ConfigError(f"n_steps must be >= 1, got {n_steps}")
    if n_steps > 10:
        raise CapacityError(f"path enumeration capped at n_steps = 10, got {n_steps}")
    rho0 = validate_density_matrix(rho0)
    propagator = short_time_propagator(params, table.dt)
    span = min(n_steps, table.dk_max)
    f_ii = np.array([pair_factor_table(table.eta_pair(dk, "ii")) for dk in range(1, span + 1)])
    f_ei = np.array([pair_factor_table(table.eta_pair(dk, "ei")) for dk in range(1, span + 1)])
    f_ee = np.array([pair_factor_table(table.eta_pair(dk, "ee")) for dk in range(1, span + 1)])
    if span == 0:  # unreachable given dk_max >= 1, kept for shape safety
        f_ii = f_ei = f_ee = np.zeros((1, 4, 4), dtype=complex)
    vec = brute_force_sum(rho0.reshape(4), propagator.tensor,
                          self_factor_table(table.eta_self(ENDPOINT)),
                          self_factor_table(table.eta_self(INTERIOR)),
                          f_ii, f_ei, f_ee, n_steps, span, backend=backend)
    return vec.reshape(2, 2)
