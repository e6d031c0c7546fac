"""Iterative tensor multiplication of the reduced density matrix.

The propagated object is a window tensor over consecutive time points,
stored flat, row-major, oldest point first. Step n -> n+1 multiplies in
``_step_factor(n)``: the bare propagator pair tensor, the departing
point's self factor and all pair factors that end at the new point. Each
point's self factor is applied exactly once, when the point stops being
the newest; each pair factor is applied once, when its later point is
added. The factor builders return (rows, 4) arrays: the row indexes the
older points, the column the newest.

Reading out a density matrix at step n multiplies the window by
``_readout_factor(n)`` non-destructively: the terminal point's self factor
with the endpoint coefficient, and for every in-window pair ending at n
the ratio between its terminal-class and applied-class coefficients.
Keeping M+1 points (M = dk_max, one more than the memory span) makes
every such pair available, so the iteration with dk_max = N reproduces
the exact path sum identically.

Up to step M, the ramp, the window grows by one point a step. From step M
on the oldest point is folded out (summed) after each step, leaving the
folded window f, q = 4^M entries over the M newest points. The first time
point uses endpoint-class coefficients and from step n = M on no factor
touches it, so the step factor at n = M is the steady step tensor g
(``TransferTensor.step``, shape (q, 4)) and the readout factor at
n = M + 1 the steady readout correction c.

After the ramp every step is the same linear map A on f,
e[j, y] = f[j] g[j, y] folded again: the transpose of
``TransferTensor.dense()``; the readout after the step is R f with
R[y, j] = g[j, y] c[j, y]. A run that samples every L = ``every`` steps
is cut into blocks of L steps and a last, partial one; blocks that start
in the ramp and the partial block are stepped. A full steady block maps
its start window f to P f, P = A^L, with the sample (R A^(L-1)) f. P is
built by pushing the q x q identity through L steps of ``window_step``,
with the certificate B_L = max_{0 <= k < L} |A^k| taken entrywise. Since
|A^k f| <= B_L |f|, a block whose bound (B_L |f|)[j] max_y |g[j, y]|
stays below the guard cannot trip it.

The full steady blocks are swept by doubling, the transfer-tensor view of
Cerrillo and Cao, PRL 112, 110401 (2014): step j appends the rows so far
times P^(2^j) to the table of start windows P^i f, so 2^d blocks take d
products; the squared powers are built once per run, and two batched
products give every block's sample and bound. The first block whose bound
fails or is not finite is stepped, so the guard trips at the same step as
a per-step run would; the sweep resumes after it, its chunks regrown from
the certified prefix. The window after a prefix is one jump from its last
row: squared powers may overflow where the run does not. A chunk of 2^d
blocks holds 2^d rows of q entries and d powers of q^2,
2^d q^2 <= ``SWEEP_BUDGET``: the whole paper run at q = 4, 16 blocks at
q = 256.

``_jump_pays`` prices sweeping and stepping with a cost model in q, L,
the number of full steady blocks and the chunks they fill. It steps every
block at M >= 5, where two blocks overflow a chunk, blocks of up to 3 steps
at M = 4, and runs of fewer than two full steady blocks.

Window tensors have 4^(M+1) entries, so the memory span is capped at
``SPAN_CAP``, the same bound as the path length of the path sum.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConfigError, InstabilityError
from .influence import (ENDPOINT, INTERIOR, EtaTable, pair_class, pair_factor_table,
                        self_factor_table)
from .qubit import PropagatorK, QubitParameters, short_time_propagator, validate_density_matrix

DEFAULT_GUARD = 4.0

# Largest memory span M of a transfer tensor and largest path length N of
# the path sum: a window tensor holds 4^(M + 1) entries, and the path sum
# enumerates 4^(N + 1) paths.
SPAN_CAP = 10

# Largest number of output rows, trajectory samples or response grid points.
ROW_CAP = 2 ** 24

# A certified block's bound must sit this far below the guard, relative,
# to absorb the rounding difference between the jump and the steps.
CERTIFICATE_MARGIN = 1e-12

# Cost model of a run of blocks of L steps on a q-entry folded window, in
# seconds on one BLAS thread. Each numpy round trip costs CALL_OVERHEAD.
# Once per block length, building A^L costs BUILD_PER_ENTRY per matrix
# entry for each of the L steps, and each squared power SQUARE_PER_ENTRY
# per multiply-add. A sweep chunk costs its products and CHUNK_CALLS more
# round trips, and each block JUMP_PER_ENTRY per entry of the q x q
# matrices; one plain step costs STEP_PER_ENTRY per window entry. Every
# block is stepped unless a chunk of two blocks fits SWEEP_BUDGET, q <= 256:
# above that the matrices no longer fit in cache, and the build needs
# several q x q temporaries (16 MB each at q = 4^5).
CALL_OVERHEAD = 8e-6
BUILD_PER_ENTRY = 6e-9
SQUARE_PER_ENTRY = 1.2e-10
CHUNK_CALLS = 12
JUMP_PER_ENTRY = 5e-10
STEP_PER_ENTRY = 2e-8

# A sweep chunk of 2^d blocks, d >= 1, has 2^d q^2 <= SWEEP_BUDGET.
SWEEP_BUDGET = 2 ** 20


def backend_name() -> str:
    return "numpy"


def window_step(f, g2d):
    """One fold-and-multiply step on folded windows stored as the columns of f.

    Entry 4r + y of the result sums f[a q/4 + r] g[a q/4 + r, y] over the
    departing point a: one (4 x 4) @ (4 x columns) product for each r.
    """
    q = g2d.shape[0]
    g_rya = g2d.reshape(4, q // 4, 4).transpose(1, 2, 0)
    f_rac = f.reshape(4, q // 4, -1).transpose(1, 0, 2)
    return np.matmul(g_rya, f_rac).reshape(f.shape)


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
    return fac.reshape(-1, 4)


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
    return c.reshape(-1, 4)


def build_transfer_tensor(propagator: PropagatorK, table: EtaTable) -> TransferTensor:
    """Steady-state transfer tensor for memory span table.dk_max.

    Raises CapacityError above ``SPAN_CAP``, before the tensor is allocated.
    """
    m = table.dk_max
    if m > SPAN_CAP:
        raise CapacityError(f"memory span capped at dk_max = {SPAN_CAP}, got {m}")
    return TransferTensor(dk_max=m, k_tensor=propagator.tensor,
                          step=_step_factor(m, propagator.tensor, table))


def _chunk_blocks(q):
    """Blocks per sweep chunk: the largest 2^d with 2^d q^2 <= SWEEP_BUDGET, d >= 1."""
    return 1 << max(1, (SWEEP_BUDGET // (q * q)).bit_length() - 1)


def _jump_pays(length, q, count):
    """Whether ``count`` >= 2 steady blocks of ``length`` steps are cheaper swept than stepped."""
    if 2 * q * q > SWEEP_BUDGET:
        return False
    chunk = min(count, _chunk_blocks(q))
    depth = (chunk - 1).bit_length()
    build = (length * (CALL_OVERHEAD + q * q * BUILD_PER_ENTRY)
             + max(depth - 1, 0) * (CALL_OVERHEAD + q ** 3 * SQUARE_PER_ENTRY))
    sweep = (-(-count // chunk) * (depth + CHUNK_CALLS) * CALL_OVERHEAD
             + count * q * q * JUMP_PER_ENTRY)
    step = count * length * (CALL_OVERHEAD + q * STEP_PER_ENTRY)
    return build + sweep < step


def _jump_plan(g2d, c2d, length):
    """(R A^(L-1))^T, (max_y|g| B_L)^T and the squared powers [(A^L)^T] for L = ``length``.

    Pushes the identity through L steps. Returns None if a matrix is not
    finite, so the blocks are stepped.
    """
    q = g2d.shape[0]
    power = np.eye(q, dtype=np.complex128)
    bound = np.eye(q)
    with np.errstate(all="ignore"):
        for _ in range(length - 1):
            power = window_step(power, g2d)
            np.maximum(bound, np.abs(power), out=bound)
        sample = (g2d * c2d).T @ power
        power = window_step(power, g2d)
        scaled = np.abs(g2d).max(axis=1)[:, None] * bound
    if not all(np.isfinite(a).all() for a in (sample, power, scaled)):
        return None
    return sample.T, scaled.T, [power.T]


def _sweep(f, squares, k):
    """Rows (P^i f)^T for i = 0..k, from the squared powers squares[j] = (P^(2^j))^T.

    Doubling j fills the next rows with the rows so far times squares[j],
    one product each, so the k + 1 rows take k.bit_length() products.
    """
    rows = np.empty((k + 1, f.size), dtype=np.complex128)
    rows[0] = f
    width = 1
    for square in squares[:k.bit_length()]:
        n = min(width, k + 1 - width)
        np.matmul(rows[:n], square, out=rows[width:width + n])
        width += n
    return rows


def _step_block(f, transfer, table, correction, start, end, guard):
    """Steps start+1..end one at a time; returns (f, readout at end).

    Ramp steps build their factors at their own width and multiply into
    them; steady steps use the transfer tensor and the steady
    ``correction``. Each window is folded when the next step needs it, and
    the last one after its readout, so the folded copy never sits beside
    the readout product. Raises InstabilityError at the first step with a
    window entry above ``guard``.
    """
    m = transfer.dk_max
    for n in range(start + 1, end + 1):
        if n > start + 1:
            f = e2d.reshape(4, -1).sum(axis=0) if n > m else e2d.ravel()
        if n > m:
            e2d = f[:, None] * transfer.step
        else:
            g2d = _step_factor(n - 1, transfer.k_tensor, table)
            e2d = np.multiply(f[:, None], g2d, out=g2d)
        if np.abs(e2d).max() > guard:
            raise InstabilityError(f"window tensor exceeded guard {guard} at step {n}", step=n)
    if end > m:
        readout = (e2d * correction).sum(axis=0)
    else:
        c2d = _readout_factor(end, table)
        readout = np.multiply(e2d, c2d, out=c2d).sum(axis=0)
    return (e2d.reshape(4, -1).sum(axis=0) if end >= m else e2d.ravel()), readout


def evolve_window(rho0v, transfer, table, n_steps, every, guard):
    """Iterate the window from the initial 4-vector ``rho0v`` at step 0.

    Returns the corrected 4-vector readouts at the steps every, 2 every, ...
    and n_steps, one row each. The full steady blocks, those starting at or
    after step M, may be swept; all other blocks are stepped.
    """
    m = transfer.dk_max
    q = 4 ** m
    n_blocks = -(-n_steps // every)
    # the full steady blocks are first .. stop - 1
    first, stop = -(-m // every), n_steps // every
    correction = _readout_factor(m + 1, table) if n_steps > m else None
    plan = None
    if stop - first >= 2 and _jump_pays(every, q, stop - first):
        plan = _jump_plan(transfer.step, correction, every)
    chunk = span = _chunk_blocks(q)
    limit = guard * (1.0 - CERTIFICATE_MARGIN)

    f = rho0v
    samples = np.zeros((n_blocks, 4), dtype=np.complex128)
    i = 0
    while i < n_blocks:
        if plan is not None and first <= i < stop:
            readout, scaled, squares = plan
            k = min(stop - i, span)
            with np.errstate(all="ignore"):
                while len(squares) < (k - 1).bit_length():
                    squares.append(squares[-1] @ squares[-1])
                rows = _sweep(f, squares, k - 1)
                certified = (np.abs(rows) @ scaled).max(axis=1) <= limit
            n = k if certified.all() else int(certified.argmin())
            if n:
                samples[i:i + n] = rows[:n] @ readout
                f = rows[n - 1] @ squares[0]
                i += n
            # after a failed block, the chunks regrow from the certified prefix
            span = min(2 * span, chunk) if n == k else max(n, 1)
            if n == k:
                continue
        f, samples[i] = _step_block(f, transfer, table, correction,
                                    i * every, min(i * every + every, n_steps), guard)
        i += 1
    return samples


def propagate(rho0: np.ndarray, transfer: TransferTensor, table: EtaTable,
              n_steps: int, sample_every: int = 1) -> Trajectory:
    """Evolve rho0 for n_steps of table.dt, sampling every ``sample_every`` steps.

    The t = 0 sample is the initial state itself; the final step is always
    sampled. Raises InstabilityError if any tensor entry exceeds ``DEFAULT_GUARD``,
    and CapacityError, before anything is allocated, above ``ROW_CAP`` samples.
    """
    if transfer.dk_max != table.dk_max:
        raise ConfigError(f"transfer tensor memory span {transfer.dk_max} does not "
                          f"match table dk_max {table.dk_max}")
    if n_steps < 1:
        raise ConfigError(f"n_steps must be >= 1, got {n_steps}")
    if sample_every < 1:
        raise ConfigError(f"sample_every must be >= 1, got {sample_every}")
    rows = -(-n_steps // sample_every) + 1
    if rows > ROW_CAP:
        raise CapacityError(f"trajectory capped at {ROW_CAP} samples, got {rows}")
    rho0 = validate_density_matrix(rho0)

    samples = evolve_window(rho0.reshape(4), transfer, table, n_steps, sample_every,
                            guard=DEFAULT_GUARD)
    steps = np.append(np.arange(0, n_steps, sample_every), n_steps)
    return Trajectory(times=steps * table.dt,
                      rhos=np.concatenate([rho0.reshape(1, 4), samples]).reshape(-1, 2, 2))


def brute_force_path_sum(rho0: np.ndarray, params: QubitParameters, table: EtaTable,
                         n_steps: int) -> np.ndarray:
    """Exact enumeration of all forward/backward paths; the ITM oracle.

    Each path's weight is its initial density-matrix entry times the bare
    propagator chain times every self and pair influence factor, with the
    pair's coefficient class from ``influence.pair_class``. The 4^(N+1)
    paths are enumerated in chunks of 2^18; capped at N = ``SPAN_CAP``.
    """
    if n_steps < 1:
        raise ConfigError(f"n_steps must be >= 1, got {n_steps}")
    if n_steps > SPAN_CAP:
        raise CapacityError(f"path enumeration capped at n_steps = {SPAN_CAP}, got {n_steps}")
    rho0v = validate_density_matrix(rho0).reshape(4)
    k_tensor = short_time_propagator(params, table.dt).tensor
    self_end = self_factor_table(table.eta_self(ENDPOINT))
    self_int = self_factor_table(table.eta_self(INTERIOR))
    n = n_steps
    span = min(n, table.dk_max)
    pair_tables = {kind: np.array([pair_factor_table(table.eta_pair(dk, kind))
                                   for dk in range(1, span + 1)])
                   for kind in ("ii", "ei", "ee")}
    total = 4 ** (n + 1)
    out = np.zeros(4, dtype=np.complex128)
    chunk = 1 << 18
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = np.empty((n + 1, idx.size), dtype=np.int64)
        rem = idx
        for k in range(n + 1):
            digits[k] = rem & 3
            rem = rem >> 2
        w = rho0v[digits[0]].copy()
        for k in range(n):
            w *= k_tensor[digits[k], digits[k + 1]]
        w *= self_end[digits[0]] * self_end[digits[n]]
        for k in range(1, n):
            w *= self_int[digits[k]]
        for dk in range(1, span + 1):
            for e in range(0, n - dk + 1):
                late = e + dk
                w *= pair_tables[pair_class(e, late, n)][dk - 1, digits[e], digits[late]]
        out += (np.bincount(digits[n], weights=w.real, minlength=4)
                + 1j * np.bincount(digits[n], weights=w.imag, minlength=4))
    return out.reshape(2, 2)
