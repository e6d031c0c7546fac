"""Iterative tensor multiplication of the reduced density matrix.

The propagated object is a window tensor over the last M+1 time points
(M = dk_max, the memory truncation), stored oldest-first. Step n -> n+1
folds the oldest point out once the window holds M+1 points and multiplies
in ``_step_factor(n)``: the bare propagator pair tensor, the departing
point's self factor and all pair factors that end at the new point. Each
point's self factor is applied exactly once, when the point stops being
the newest; each pair factor is applied once, when its later point is
added.

Reading out a density matrix at step n multiplies the window by
``_readout_factor(n)`` non-destructively: the terminal point's self factor
with the endpoint coefficient, and for every in-window pair ending at n
the ratio between its terminal-class and applied-class coefficients.
Keeping M+1 points (one more than the memory span) makes every such pair
available, so the iteration with dk_max = N reproduces the exact path sum
identically.

The first time point uses endpoint-class coefficients. From step n = M on
no factor touches it, so the step factor at n = M is the steady step
tensor (``TransferTensor.step``) and the readout factor at n = M + 1 the
steady readout correction. The first M steps, the ramp, are taken here
one at a time.

After the ramp every step is the same linear map A on the folded window
(the M newest points, 4^M entries): ``TransferTensor.dense().T``. The
steady phase therefore jumps from one sample step to the next, L steps at
a time, with precomputed A^L and readout R A^(L-1). Before each jump, the
certificate max_{k<L} |A^k| bounds every window entry the skipped steps
would have produced; only if that bound stays below ``guard`` is the block
jumped, otherwise it is stepped and the guard is checked at each step. A
cost model in the window size and block length steps the blocks where
stepping is cheaper. See ``_kernels.evolve_window``.

Window tensors have 4^(M+1) entries, so the memory span is capped at
``SPAN_CAP``, the same bound as the path length of the path sum.
"""

from dataclasses import dataclass

import numpy as np

from ._kernels import evolve_window, path_sum, window_step
from .errors import CapacityError, ConfigError, InstabilityError
from .influence import (ENDPOINT, INTERIOR, EtaTable, pair_factor_table,
                        self_factor_table)
from .qubit import PropagatorK, QubitParameters, short_time_propagator, validate_density_matrix

DEFAULT_GUARD = 4.0

# Largest memory span M of a transfer tensor and largest path length N of
# the path sum: a window tensor holds 4^(M + 1) entries, and the path sum
# enumerates 4^(N + 1) paths.
SPAN_CAP = 10


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


def _step_factor(n: int, k_tensor: np.ndarray, table: EtaTable) -> np.ndarray:
    """Factor multiplied in on step n -> n+1, over the points max(0, n+1-M) .. n+1."""
    m = table.dk_max
    lo = max(0, n + 1 - m)
    width = n + 2 - lo
    ax_n = width - 2
    self_kind = ENDPOINT if n == 0 else INTERIOR
    fac = _on_axes(k_tensor, (ax_n, width - 1), width).astype(complex)
    fac = fac * _on_axes(self_factor_table(table.eta_self(self_kind)), (ax_n,), width)
    for dk in range(1, min(n + 1, m) + 1):
        earlier = n + 1 - dk
        kind = "ei" if earlier == 0 else "ii"
        fac = fac * _on_axes(pair_factor_table(table.eta_pair(dk, kind)),
                             (earlier - lo, width - 1), width)
    return fac


def _readout_factor(n: int, table: EtaTable) -> np.ndarray:
    """Terminal correction of the readout at step n, over the points max(0, n-M) .. n."""
    m = table.dk_max
    lo = max(0, n - m)
    width = n + 1 - lo
    c = _on_axes(self_factor_table(table.eta_self(ENDPOINT)), (width - 1,), width)
    for dk in range(1, min(n, m) + 1):
        earlier = n - dk
        applied = table.eta_pair(dk, "ei" if earlier == 0 else "ii")
        terminal = table.eta_pair(dk, "ee" if earlier == 0 else "ei")
        c = c * _on_axes(pair_factor_table(terminal - applied),
                         (earlier - lo, width - 1), width)
    return c


def build_transfer_tensor(propagator: PropagatorK, table: EtaTable) -> TransferTensor:
    """Steady-state transfer tensor for memory span table.dk_max.

    Raises CapacityError above ``SPAN_CAP``, before the tensor is allocated.
    """
    m = table.dk_max
    if m > SPAN_CAP:
        raise CapacityError(f"memory span capped at dk_max = {SPAN_CAP}, got {m}")
    return TransferTensor(dk_max=m, k_tensor=propagator.tensor,
                          step=_step_factor(m, propagator.tensor, table).reshape(4 ** m, 4))


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
    ramp_end = min(n_steps, max(1, m))
    for n in range(ramp_end):
        if state.ndim == m + 1:
            state = state.sum(axis=0)
        state = state[..., None] * _step_factor(n, transfer.k_tensor, table)
        if np.abs(state).max() > guard:
            raise InstabilityError(f"window tensor exceeded guard {guard} at step {n + 1}",
                                   step=n + 1)
        if n + 1 in sample_steps:
            times.append((n + 1) * table.dt)
            readout = state * _readout_factor(n + 1, table)
            rhos.append(readout.reshape(-1, 4).sum(axis=0).reshape(2, 2))

    if n_steps > ramp_end:
        remaining = np.array([s for s in sample_steps if s > ramp_end], dtype=np.int64)
        correction = _readout_factor(m + 1, table)
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
                         n_steps: int) -> np.ndarray:
    """Exact enumeration of all forward/backward paths; the ITM oracle.

    Cost grows as 4^(N+1); capped at N = ``SPAN_CAP``.
    """
    if n_steps < 1:
        raise ConfigError(f"n_steps must be >= 1, got {n_steps}")
    if n_steps > SPAN_CAP:
        raise CapacityError(f"path enumeration capped at n_steps = {SPAN_CAP}, got {n_steps}")
    rho0 = validate_density_matrix(rho0)
    propagator = short_time_propagator(params, table.dt)
    span = min(n_steps, table.dk_max)
    pair_tables = {kind: np.array([pair_factor_table(table.eta_pair(dk, kind))
                                   for dk in range(1, span + 1)])
                   for kind in ("ii", "ei", "ee")}
    vec = path_sum(rho0.reshape(4), propagator.tensor,
                   self_factor_table(table.eta_self(ENDPOINT)),
                   self_factor_table(table.eta_self(INTERIOR)),
                   pair_tables, n_steps, span)
    return vec.reshape(2, 2)
