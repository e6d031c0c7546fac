"""Iterative tensor multiplication of the reduced density matrix.

The propagated object is a window tensor over consecutive time points,
stored flat, row-major, oldest point first. Step n -> n+1 multiplies in
``_step_factor(n)``: the bare propagator pair tensor K that
``_pair_tensor`` builds from the one-step U, the departing point's self
factor and all pair factors that end at the new point. Each point's self
factor is applied exactly once, when the point stops being the newest;
each pair factor is applied once, when its later point is added. The
factor builders return (rows, 4) arrays: the row indexes the older
points, the column the newest.

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
touches it, so the step factor at n = M is the steady step tensor g and
the readout factor at n = M + 1 the steady readout correction c. The
oldest point a meets the new point y only in the dk = M pair factor, and
at M = 1 also in K and its self factor, so g factors into two small
tables: g[a q/4 + r, y] = head[a, y] tail[r, y], with head (4, 4) and
tail (q/4, 4) over the other M - 1 points r (``TransferTensor``). The
dense g is only ever built as a temporary.

After the ramp every step is the same linear map A on f:
(A f)[4r + y] = tail[r, y] sum_a head[a, y] f[a q/4 + r] is
``window_step(f)``, one 4 x 4 product and one multiply by tail. The
readout after the step is R f with R[y, j] = g[j, y] c[j, y]. A run that
samples every L = ``every`` steps is cut into blocks of L steps and a
last, partial one.

A has four slow modes, the reduced density matrix's own one-step map; the
others decay within a few dozen steps (the transfer-tensor picture of
Cerrillo and Cao, PRL 112, 110401 (2014)). Before step 1 of a run that
reaches the steady map, ``_slow_modes`` finds an orthonormal basis X of
them and, if the run walks a block, their coordinates P. X^H A X holds
A's largest eigenvalues: if it is not finite or its spectral radius
exceeds ``SLOW_RADIUS``, A grows without bound and the run is refused
with InstabilityError at step M + 1.
Steps are taken one at a time through the ramp and the transient: a ramp
step is read out at a sample before it is folded, a steady one as R f
before the step. At every step from M to 2M, at n = M + 2^k and at
block boundaries, the run checks whether the window f lies in span X;
from there f = X y and no step is taken one at a time. At the paper point
the window settles by step 2M; a run that never settles pays about
M + log2(n) extra checks, each about the cost of a step. Pushing X through
c = ceil(L/2) steps gives H_j = P A^j X and S_j = R A^(j-1) X for j <= c.
A longer block L = c + b chains them. A^c X = X H_c + E with the fast
part E = (I - X P) A^c X, and P A = H_1 P, so P annihilates A^b E and
H_L = H_b H_c holds exactly. S_L = S_b H_c holds only up to R A^(b-1) E,
which is as small as X's invariance residual |A X - X P A X| (1e-14).
The same push gives H_j and S_j for the two partial blocks, from the
walk's start to the next sample and the last one.
``_sweep`` lists the block start windows y_{i+1} = H_L y_i by doubling,
and each sample is S_L y_i. At M = 1 the window has q = 4 entries and
lies in span X, so the walk starts right after the ramp. Every step is
taken one at a time if the iteration does not converge or the transient
does not settle. A non-finite sample raises InstabilityError at its step.

Window tensors have 4^(M+1) entries, so the memory span is capped at
``SPAN_CAP``, the same bound as the path length of the path sum.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConfigError, InstabilityError
from .influence import (ENDPOINT, INTERIOR, EtaTable, pair_class, pair_factor_table,
                        self_factor_table)
from .qubit import QubitParameters, short_time_propagator, validate_density_matrix

# Largest memory span M of a transfer tensor and largest path length N of
# the path sum: a window tensor holds 4^(M + 1) entries, and the path sum
# enumerates 4^(N + 1) paths.
SPAN_CAP = 10

# Largest number of output rows, trajectory samples or response grid points.
ROW_CAP = 2 ** 24

# The slow basis has converged, and the transient settled, once A X, or the
# window, lies in span X to this relative norm.
SLOW_TOL = 1e-14
# Orthogonal iterations before the slow basis is given up.
SLOW_ITERATIONS = 100
# Largest spectral radius of the steady map; above it a run is refused.
SLOW_RADIUS = 1.0 + 1e-12


def backend_name() -> str:
    return "numpy"


def window_step(f, transfer):
    """One steady step A on folded windows stored as the columns of f.

    Each window, as a (4, q/4) matrix over (a, r), gives its transpose @ head,
    and the (r, y) rows of that take one multiply by tail. The result is
    Fortran-ordered, so that its windows lie contiguous for the next step.
    """
    if transfer.dk_max == 1:
        return transfer.head.T @ f
    tail = transfer.tail
    windows = np.ascontiguousarray(f.T).reshape(-1, 4, tail.shape[0])
    out = np.matmul(windows.transpose(0, 2, 1), transfer.head)
    out *= tail
    return out.reshape(f.shape[::-1]).T


@dataclass(frozen=True)
class TransferTensor:
    """The steady step tensor g[a q/4 + r, y] = head[a, y] tail[r, y] plus the bare pair tensor."""

    dk_max: int
    k_tensor: np.ndarray
    head: np.ndarray
    tail: np.ndarray

    @property
    def step(self) -> np.ndarray:
        """The dense (q, 4) step tensor g, built anew on each access."""
        return (self.head[:, None, :] * self.tail[None, :, :]).reshape(-1, 4)


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


def _pair_tensor(u: np.ndarray) -> np.ndarray:
    """K[(b+, b-), (c+, c-)] = U[c+, b+] conj(U[c-, b-]) over spin pairs p = 2 b+ + b-."""
    # np.kron(u, u.conj()).T holds the same products, but off the sweet spot its
    # vectorized complex multiply rounds some of them differently in the last bit.
    return np.einsum("ik,jl->klij", u, u.conj()).reshape(4, 4)


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


def _steady_factors(k_tensor: np.ndarray, table: EtaTable):
    """(head, tail): the factors of ``_step_factor(M)`` on the oldest point and on the others.

    The product head[a, y] tail[r, y] takes them in ``_step_factor``'s order;
    at M = 1 tail is the empty product.
    """
    m = table.dk_max
    kernel = k_tensor * self_factor_table(table.eta_self(INTERIOR))[:, None]
    head = pair_factor_table(table.eta_pair(m, "ii"))
    if m == 1:
        return kernel * head, np.ones((1, 4), dtype=complex)
    tail = _on_axes(kernel, (m - 2, m - 1), m)
    for dk in range(1, m):
        tail = tail * _on_axes(pair_factor_table(table.eta_pair(dk, "ii")), (m - 1 - dk, m - 1), m)
    return head, tail.reshape(-1, 4)


@np.errstate(over="ignore", invalid="ignore")
def build_transfer_tensor(u: np.ndarray, table: EtaTable) -> TransferTensor:
    """Steady-state transfer tensor for memory span table.dk_max and one-step U.

    Raises CapacityError above ``SPAN_CAP``, before the tables are allocated;
    ``propagate`` refuses the map of overflowing factors, without a warning here.
    """
    m = table.dk_max
    if m > SPAN_CAP:
        raise CapacityError(f"memory span capped at dk_max = {SPAN_CAP}, got {m}")
    k_tensor = _pair_tensor(u)
    head, tail = _steady_factors(k_tensor, table)
    return TransferTensor(dk_max=m, k_tensor=k_tensor, head=head, tail=tail)


def _adjoint_window_step(e, transfer):
    """``window_step``'s adjoint: entry a q/4 + r sums conj(head[a, y] tail[r, y]) e[4r + y] over y."""
    if transfer.dk_max == 1:
        return transfer.head.conj() @ e
    tail = transfer.tail
    windows = np.ascontiguousarray(e.T).reshape(-1, tail.shape[0], 4) * tail.conj()
    out = np.matmul(transfer.head.conj(), windows.transpose(0, 2, 1))
    return out.reshape(e.shape[::-1]).T


def _coordinates(x, p, z):
    """Coordinates p z of z on span X, and whether z lies in span X to ``SLOW_TOL``."""
    y = p @ z
    return y, np.linalg.norm(z - x @ y) <= SLOW_TOL * np.linalg.norm(z)


def _slow_modes(transfer, walks):
    """(X, P): an orthonormal (q, 4) basis X of A's slow modes and their coordinates P.

    Orthogonal iteration from the first four columns of the identity until
    A X lies in span X; if the run ``walks`` a block, W takes as many steps
    with A^H and P = (W^H X)^-1 W^H, so X P projects along the fast modes.
    Where A^H collapses those columns (a diagonal U maps them to zero),
    W^H X is singular or ill-conditioned, and W takes its steps again from
    X. None after ``SLOW_ITERATIONS``, or if the run walks no block.
    Raises InstabilityError at step M + 1, the first steady step, if
    X^H A X is not finite or its spectral radius exceeds ``SLOW_RADIUS``.
    """
    step = transfer.dk_max + 1
    x = w = np.eye(4 ** transfer.dk_max, 4, dtype=np.complex128)
    with np.errstate(all="ignore"):
        for iterations in range(SLOW_ITERATIONS):
            z = window_step(x, transfer)
            h, settled = _coordinates(x, x.conj().T, z)
            if not np.isfinite(h).all():
                raise InstabilityError(f"steady map is not finite at step {step}", step=step)
            if settled:
                radius = np.abs(np.linalg.eigvals(h)).max()
                if radius > SLOW_RADIUS:
                    raise InstabilityError(f"steady map grows, spectral radius "
                                           f"{radius:.12g}, at step {step}", step=step)
                if not walks:
                    return None
                # solving with a condition number above 1e8 loses half the digits of P
                if np.linalg.cond(w.conj().T @ x) > 1e8:
                    w = x
                    for _ in range(iterations):
                        w = np.linalg.qr(_adjoint_window_step(w, transfer))[0]
                return x, np.linalg.solve(w.conj().T @ x, w.conj().T)
            x = np.linalg.qr(z)[0]
            if walks:
                w = np.linalg.qr(_adjoint_window_step(w, transfer))[0]
    return None


def _block_map(x, p, transfer, readout, lengths):
    """{L: (H_L, S_L)} with H_L = P A^L X and S_L = R A^(L-1) X, for each L in ``lengths``.

    X is pushed through c = ceil(max(lengths) / 2) steps only, and the maps
    for j <= c are read off its powers. A longer L = c + b chains them:
    H_L = H_b H_c exactly, as P A = H_1 P annihilates the fast part of
    A^c X, and S_L = S_b H_c up to X's invariance residual, which R does
    not annihilate.
    """
    half = -(-max(lengths) // 2)
    needed = {length if length <= half else length - half for length in lengths} | {half}
    maps, power = {}, x
    for length in range(1, half + 1):
        pushed = window_step(power, transfer)
        if length in needed:
            maps[length] = p @ pushed, readout @ power
        power = pushed
    h_half = maps[half][0]
    return {length: maps[length] if length <= half else
            tuple(block @ h_half for block in maps[length - half]) for length in lengths}


def _sweep(f, power, k):
    """Rows (H^i f)^T for i = 0..k, from power = H^T.

    Doubling j fills the next rows with the rows so far times (H^(2^j))^T,
    then squares it, so the k + 1 rows take k.bit_length() products.
    """
    rows = np.empty((k + 1, f.size), dtype=np.complex128)
    rows[0] = f
    width = 1
    while width <= k:
        n = min(width, k + 1 - width)
        np.matmul(rows[:n], power, out=rows[width:width + n])
        width += n
        if width <= k:
            power = power @ power
    return rows


def _step(f, n, transfer, table):
    """Step n on the folded window f.

    A steady step returns the next folded window. A ramp step builds its
    factor at its own width and returns the (rows, 4) product, before its fold.
    """
    if n > transfer.dk_max:
        return window_step(f, transfer)
    g2d = _step_factor(n - 1, transfer.k_tensor, table)
    return np.multiply(f[:, None], g2d, out=g2d)


@np.errstate(over="ignore", invalid="ignore")
def evolve_window(rho0v, transfer, table, n_steps, every):
    """Iterate the window from the initial 4-vector ``rho0v`` at step 0.

    Returns the corrected 4-vector readouts at the steps every, 2 every, ...
    and n_steps, one row each. Steps are taken one at a time, a ramp step
    read out at a sample before it is folded and a steady one as R f before
    the step, until the window settles on the slow modes: the run checks at
    each step from M to 2M, at n = M + 2^k and at block boundaries. Every
    later step, partial blocks included, is walked.
    Raises InstabilityError from ``_slow_modes``, or at a non-finite sample.
    """
    m = transfer.dk_max
    n_blocks, full = -(-n_steps // every), n_steps // every
    # the first block that starts at or after step M; the run walks if it is full
    first = -(-m // every)
    readout = modes = None
    if n_steps > m:
        # R[y, j] = g[j, y] c[j, y] reads the window out before a steady step
        readout = _readout_factor(m + 1, table)
        readout = np.multiply(readout, transfer.step, out=readout).T
        modes = _slow_modes(transfer, first < full)

    f = rho0v
    samples = np.empty((n_blocks, 4), dtype=np.complex128)
    for n in range(1, n_steps + 1):
        sampled = n % every == 0 or n == n_steps
        if n > m:
            if sampled:
                samples[(n - 1) // every] = readout @ f
            f = _step(f, n, transfer, table)
        else:
            e2d = _step(f, n, transfer, table)
            if sampled:
                c2d = _readout_factor(n, table)
                samples[(n - 1) // every] = np.multiply(e2d, c2d, out=c2d).sum(axis=0)
                del c2d  # released before the next step's factor is built
            f = e2d.reshape(4, -1).sum(axis=0) if n == m else e2d.ravel()
            del e2d  # the last ramp product is not held through the steady steps
        # settled? at each step to 2M, where the paper point settles, then at
        # n - M = 2^k and at block boundaries: a run that never settles checks
        # about M + log2(n) + n / every times
        late = n - m
        if (modes is not None and 0 <= late and n < full * every
                and (late <= m or late & (late - 1) == 0 or n % every == 0)):
            x, p = modes
            y, settled = _coordinates(x, p, f)
            if settled:
                # the partial block up to the next sample, the full blocks, the last partial one
                head, tail, i = -n % every, n_steps % every, -(-n // every)
                maps = _block_map(x, p, transfer, readout, {every, head, tail} - {0})
                if head:
                    h, sample = maps[head]
                    samples[i - 1], y = sample @ y, h @ y
                h, sample = maps[every]
                rows = _sweep(y, h.T, full - i)
                samples[i:full] = rows[:-1] @ sample.T
                if tail:
                    samples[full] = maps[tail][1] @ rows[-1]
                break
    if not np.isfinite(samples).all():
        finite = np.isfinite(samples).all(axis=1)
        step = min(int(finite.argmin() + 1) * every, n_steps)
        raise InstabilityError(f"non-finite density matrix at step {step}", step=step)
    return samples


def check_row_cap(n_steps: int, sample_every: int) -> None:
    """Raises CapacityError above ``ROW_CAP`` samples: t = 0, every ``sample_every``, n_steps."""
    rows = -(-n_steps // sample_every) + 1
    if rows > ROW_CAP:
        raise CapacityError(f"trajectory capped at {ROW_CAP} samples, got {rows}")


def propagate(rho0: np.ndarray, transfer: TransferTensor, table: EtaTable,
              n_steps: int, sample_every: int = 1) -> Trajectory:
    """Evolve rho0 for n_steps of table.dt, sampling every ``sample_every`` steps.

    The t = 0 sample is the initial state itself; the final step is always
    sampled. Raises InstabilityError before step 1 if the steady map grows,
    or at the first non-finite sample, and CapacityError above ``ROW_CAP``
    samples before anything is allocated.
    """
    if transfer.dk_max != table.dk_max:
        raise ConfigError(f"transfer tensor memory span {transfer.dk_max} does not "
                          f"match table dk_max {table.dk_max}")
    if n_steps < 1:
        raise ConfigError(f"n_steps must be >= 1, got {n_steps}")
    if sample_every < 1:
        raise ConfigError(f"sample_every must be >= 1, got {sample_every}")
    check_row_cap(n_steps, sample_every)
    rho0 = validate_density_matrix(rho0)

    samples = evolve_window(rho0.reshape(4), transfer, table, n_steps, sample_every)
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
    k_tensor = _pair_tensor(short_time_propagator(params, table.dt))
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
