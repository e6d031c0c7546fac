"""Iterative tensor multiplication of the reduced density matrix.

The propagated object is a window f over the M = dk_max most recent time
points, q = 4^M entries stored flat, row-major, oldest point first. Step n
adds point n and sums out the departing point n - M. It multiplies in one
(4, 4) factor per window point against the new point, which
``_step_factors(n)`` returns oldest first: point n - dk takes the dk pair
factor, and the newest point n - 1 also carries the bare propagator pair
tensor K (``_pair_tensor``, from the one-step U) and its own self factor.
So each point's self factor is applied once, when it stops being the
newest, and each pair factor once, when its later point is added. The
step is g[a q/4 + r, y] = head[a, y] tail[r, y], with head (4, 4) the
departing point a's factor and tail (q/4, 4) the product over the other
M - 1 points r (``_tables``): ``window_step`` takes one 4 x 4 product and
one multiply by tail.

The window starts at full width, with rho0 on the newest point, point 0.
The M - 1 points before it are phantoms: they hold index 0 only, and all
their factors are ones, so the first M steps, the ramp, are ordinary
steps, and the window is zero wherever a phantom digit is not. Point 0
takes endpoint-class coefficients; from step M + 1 on no factor touches
it, so every later step has the same tables, the steady head and tail of
``TransferTensor``. Every step's factors are read off the pair and self
factor tables that ``build_transfer_tensor`` evaluates once per run.

A sample at step n is R_n f, read from the window before step n. R_n is
step n's tables as ``_step_factors(n, ends=True)`` builds them for a path
that ends at n: every pair ending at n takes its terminal class, and the
new point its endpoint self factor. Each factor is the exponential of a
term linear in eta, so this is step n's factor times the ratio between
the terminal-class and applied-class factors. Keeping M points before the
new one makes every such pair available, so the iteration with
dk_max = N reproduces the exact path sum identically. The steady R is
built once per run as a dense (4, q) array; a sampled ramp step takes
step n on its terminal tables and sums the result over r, with no R_n.

Past the ramp every step is the same linear map A on f,
(A f)[4r + y] = tail[r, y] sum_a head[a, y] f[a q/4 + r]. A has four
slow modes, the reduced density matrix's own one-step map; the others
decay within a few dozen steps (the transfer-tensor picture of Cerrillo
and Cao, PRL 112, 110401 (2014)). Before step 1 of a run that reaches
the steady map, ``_slow_modes`` finds an orthonormal basis X of them by
orthogonal iteration, with a QR once every M steps. X^H A X holds A's
largest eigenvalues: if it is not finite or its spectral radius exceeds
``SLOW_RADIUS``, A grows without bound and the run is refused with
InstabilityError at step M + 1.

Steps are taken one at a time through the ramp and the transient, each
read out at a sample as R_n f before the step. At every step from M to
2M, at n = M + 2^k and at block boundaries, the run checks whether the
window f lies in span X; from there f = X y, with y = X^H f, and no step
is taken one at a time. At the paper point the window settles by step
2M; a run that never settles pays about M + log2(n) extra checks, each
about the cost of a step. A run that samples every L = ``every`` steps
is cut into blocks of L steps and a last, partial one. Pushing X through
c = ceil(L/2) steps gives H_j = X^H A^j X and S_j = R A^(j-1) X for
j <= c. A longer block L = c + b chains them, H_L = H_b H_c and
S_L = S_b H_c: both hold up to X's fast part, |A X - X X^H A X|, which
the iteration leaves at the rounding floor (below 1e-15 at the paper
point). The same push gives H_j and S_j for the two partial blocks, from
the walk's start to the next sample and the last one. ``_sweep`` reads
every sample S_L H_L^i y off a two-level grid of powers of H_L, in place
into the trajectory's rows; so does every other sample. At M = 1
the window has q = 4 entries and lies in span X = I, so the walk starts
right after the ramp. Every step is taken one at a time if the iteration
does not converge, if the transient does not settle, or if the run has no
full block past step M. A non-finite sample raises InstabilityError at
its step.

The readout R has 4^(M+1) entries, so the memory span is capped at
``SPAN_CAP``, the same bound as the path length of the path sum.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import CapacityError, ConfigError, InstabilityError
from .influence import (ENDPOINT, INTERIOR, EtaTable, pair_class, pair_factor_table,
                        self_factor_table)
from .qubit import QubitParameters, short_time_propagator, validate_density_matrix

# Largest memory span M of a transfer tensor and largest path length N of
# the path sum: the readout R holds 4^(M + 1) entries, and the path sum
# enumerates 4^(N + 1) paths.
SPAN_CAP = 10

# Largest number of output rows, trajectory samples or response grid points.
ROW_CAP = 2 ** 24

# The slow basis has converged, and the transient settled, once A^M X, or
# the window, lies in span X to this relative norm.
SLOW_TOL = 1e-14
# Steps of the orthogonal iteration before the slow basis is given up.
SLOW_ITERATIONS = 100
# Largest spectral radius of the steady map; above it a run is refused.
SLOW_RADIUS = 1.0 + 1e-12


def backend_name() -> str:
    return "numpy"


def window_step(f, head, tail):
    """One step with the tables (head, tail) on windows stored as the columns of f.

    Each window, as a (4, q/4) matrix over (a, r), gives its transpose @ head,
    and the (r, y) rows of that take one multiply by tail. The result is
    Fortran-ordered, so that its windows lie contiguous for the next step.
    At M = 1 tail is ones and the step is one 4 x 4 product.
    """
    if tail.shape[0] == 1:
        return head.T @ f
    windows = np.ascontiguousarray(f.T).reshape(-1, 4, tail.shape[0])
    out = np.matmul(windows.transpose(0, 2, 1), head)
    out *= tail
    return out.reshape(f.shape[::-1]).T


@dataclass(frozen=True)
class TransferTensor:
    """A run's factor tables, the bare pair tensor K and the steady step tables.

    ``pair_tables[c, dk - 1]`` is the dk pair factor of class c = 0, 1, 2
    ("ii", "ei", "ee"), and ``self_tables`` holds the interior and the
    endpoint self factor: every step's factors are read off them. The
    steady step is g[a q/4 + r, y] = head[a, y] tail[r, y].
    """

    dk_max: int
    k_tensor: np.ndarray
    pair_tables: np.ndarray
    self_tables: np.ndarray
    head: np.ndarray
    tail: np.ndarray


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


def _step_factors(n: int, transfer: TransferTensor, ends: bool = False) -> list:
    """Step n's (4, 4) factors on the window points n - M .. n - 1, oldest first.

    Point n - dk takes the dk pair factor with the new point n, class "ei"
    if it is point 0, or ones if it is a phantom. The newest point also
    carries K and its self factor: the endpoint one at n = 1. A path that
    ``ends`` at n gives those pairs their terminal classes, "ee" and "ei",
    and the new point its endpoint self factor. A pair's class index counts
    its endpoints, point 0 and the end n; the tables are the transfer tensor's.
    """
    pairs, selfs = transfer.pair_tables, transfer.self_tables
    factors = [pairs[(n == dk) + ends, dk - 1] if n >= dk else np.ones((4, 4))
               for dk in range(transfer.dk_max, 0, -1)]
    kernel = transfer.k_tensor * selfs[int(n == 1)][:, None]
    if ends:
        kernel = kernel * selfs[1]
    factors[-1] = kernel * factors[-1]
    return factors


def _tables(factors):
    """(head, tail): the oldest point's factor, and the (q/4, 4) product of the others'.

    tail[r, y] multiplies in the factors from the newest point back; at
    M = 1 it is the empty product, a (1, 4) row of ones.
    """
    tail = np.ones((1, 4), dtype=complex)
    for factor in factors[:0:-1]:
        tail = (tail * factor[:, None, :]).reshape(-1, 4)
    return factors[0], tail


def _readout(n: int, transfer: TransferTensor) -> np.ndarray:
    """R_n, (4, q): a sample at step n is R_n f, from the window f before step n."""
    head, tail = _tables(_step_factors(n, transfer, ends=True))
    return (head[:, None, :] * tail).reshape(-1, 4).T


@np.errstate(over="ignore", invalid="ignore")
def build_transfer_tensor(u: np.ndarray, table: EtaTable) -> TransferTensor:
    """Steady-state transfer tensor for memory span table.dk_max and one-step U.

    Every pair factor table of the run, 3 M of them, comes from one
    exponential, and the two self tables beside them. Raises CapacityError
    above ``SPAN_CAP``, before the tables are allocated; ``propagate``
    refuses the map of overflowing factors, without a warning here.
    """
    m = table.dk_max
    if m > SPAN_CAP:
        raise CapacityError(f"memory span capped at dk_max = {SPAN_CAP}, got {m}")
    pairs = np.stack([table.eta_pair_interior, table.eta_pair_end_interior,
                      table.eta_pair_end_end])
    selfs = [table.eta_self(INTERIOR), table.eta_self(ENDPOINT)]
    ramp = TransferTensor(dk_max=m, k_tensor=_pair_tensor(u),
                          pair_tables=pair_factor_table(pairs),
                          self_tables=self_factor_table(selfs), head=None, tail=None)
    head, tail = _tables(_step_factors(m + 1, ramp))
    return replace(ramp, head=head, tail=tail)


def _coordinates(x, xh, z):
    """Coordinates X^H z of z on span X, and whether z lies in span X to ``SLOW_TOL``."""
    y = xh @ z
    # in place: beside the caller's X^H, a second (q, 4) temporary would raise the deep-span peak
    residual = x @ y
    np.subtract(z, residual, out=residual)
    return y, np.linalg.norm(residual) <= SLOW_TOL * np.linalg.norm(z)


def _slow_modes(transfer):
    """An orthonormal (q, 4) basis X of A's slow modes, or None after ``SLOW_ITERATIONS`` steps.

    Orthogonal iteration from the first four columns of the identity, with
    M = dk_max steps of A between QRs: A's fast part acts like a nilpotent
    of index M, so a check made after fewer steps almost never passes. Each
    chunk pushes X through M steps and stops once A^M X lies in span X.
    X^H is taken where it is used, not held over the chunk's pushes, which
    at deep spans would add a (q, 4) array to the peak.
    At M = 1 the window is the whole slow subspace and X = I takes no QR.
    Raises InstabilityError at step M + 1, the first steady step, if
    X^H A^M X is not finite, or if the spectral radius of X^H A X, from
    the chunk that converged, exceeds ``SLOW_RADIUS``.
    """
    m, tables = transfer.dk_max, (transfer.head, transfer.tail)
    x = np.eye(4 ** m, 4, dtype=np.complex128)
    with np.errstate(all="ignore"):
        for _ in range(SLOW_ITERATIONS // m):
            z = window_step(x, *tables)
            h = x.conj().T @ z
            for _ in range(m - 1):
                z = window_step(z, *tables)
            y, settled = _coordinates(x, x.conj().T, z)
            if not np.isfinite(y).all():
                raise InstabilityError(f"steady map is not finite at step {m + 1}", step=m + 1)
            if settled:
                radius = np.abs(np.linalg.eigvals(h)).max()
                if radius > SLOW_RADIUS:
                    raise InstabilityError(f"steady map grows, spectral radius "
                                           f"{radius:.12g}, at step {m + 1}", step=m + 1)
                return x
            x = np.linalg.qr(z)[0]
    return None


def _block_map(x, xh, transfer, readout, lengths):
    """{L: (H_L, S_L)} with H_L = X^H A^L X and S_L = R A^(L-1) X, for each L in ``lengths``.

    X is pushed through c = ceil(max(lengths) / 2) steps only, and the maps
    for j <= c are read off its powers. A longer L = c + b chains them,
    H_L = H_b H_c and S_L = S_b H_c. Both hold up to X's fast part, the
    part of A X outside span X, which is at the rounding floor once
    ``_slow_modes`` has converged.
    """
    half = -(-max(lengths) // 2)
    needed = {length if length <= half else length - half for length in lengths} | {half}
    maps, power = {}, x
    for length in range(1, half + 1):
        pushed = window_step(power, transfer.head, transfer.tail)
        if length in needed:
            maps[length] = xh @ pushed, readout @ power
        power = pushed
    h_half = maps[half][0]
    return {length: maps[length] if length <= half else
            tuple(block @ h_half for block in maps[length - half]) for length in lengths}


def _grid_width(k):
    """Width w of ``_sweep``'s grid for k samples: a power of 2 near sqrt(k + 1)."""
    return 1 << ((k + 1).bit_length() // 2)


def _sweep(rows, y, h, sample, k):
    """H^k y, after writing the rows S H^i y, i < k, to ``rows``; H is the block map, S its readout.

    A two-level grid i = a w + b, w = ``_grid_width(k)``. The powers H^b,
    b < w, are built by doubling on a (w, 4, 4) stack, which leaves H^w;
    the block starts (H^w)^a y by doubling rows, each fill one product with
    the rows so far; then one (a, 4) x (4, 4 w) product against the stacked
    S H^b writes every sample in place. Its a w rows run up to w rows past
    k, so the C-contiguous ``rows`` holds at least k + w.
    """
    width = _grid_width(k)
    powers = np.empty((width, 4, 4), dtype=np.complex128)
    powers[0] = np.eye(4)
    power, filled = h, 1
    while filled < width:
        np.matmul(powers[:filled], power, out=powers[filled:2 * filled])
        power = power @ power
        filled *= 2
    starts = np.empty((k // width + 1, 4), dtype=np.complex128)
    starts[0] = y
    power, filled = power.T, 1
    while filled < len(starts):
        n = min(filled, len(starts) - filled)
        np.matmul(starts[:n], power, out=starts[filled:filled + n])
        filled += n
        if filled < len(starts):
            power = power @ power
    np.matmul(starts, (sample @ powers).transpose(2, 0, 1).reshape(4, -1),
              out=rows[:len(starts) * width].reshape(len(starts), -1))
    return powers[k % width] @ starts[k // width]


def _step(f, n, transfer):
    """Step n on the window f: with the steady tables past the ramp, else with step n's own."""
    if n > transfer.dk_max:
        return window_step(f, transfer.head, transfer.tail)
    return window_step(f, *_tables(_step_factors(n, transfer)))


@np.errstate(over="ignore", invalid="ignore")
def evolve_window(rho0v, transfer, n_steps, every):
    """Iterate the window from the initial 4-vector ``rho0v`` at step 0.

    Returns the trajectory's rows: rho0v in row 0, then the corrected
    4-vector readouts at the steps every, 2 every, ... and n_steps, one row
    each, all written in place into one buffer. The window starts at full
    width with rho0v on its newest point and phantoms before it, so ramp
    and steady steps alike go through ``_step``, each read out at a sample
    as R_n f before the step, until the window settles on the slow modes:
    the run checks at each step from M to 2M, at n = M + 2^k and at block
    boundaries. Every later step, partial blocks included, is walked.
    Raises InstabilityError from ``_slow_modes``, or at a non-finite sample.
    """
    m = transfer.dk_max
    n_blocks, full = -(-n_steps // every), n_steps // every
    # the first block that starts at or after step M; the run walks only if it is full
    first = -(-m // every)
    readout = x = None
    if n_steps > m:
        readout = _readout(m + 1, transfer)
        x = _slow_modes(transfer)
    # X^H once for the run's settle checks and block maps
    xh = None if x is None else x.conj().T

    # the slack rows past the last one take the overhang of _sweep's grid
    rows = np.empty((n_blocks + 1 + _grid_width(n_blocks), 4), dtype=np.complex128)
    rows[0] = rho0v
    # the M - 1 phantom points before point 0 hold index 0 only
    f = np.zeros(4 ** m, dtype=np.complex128)
    f[:4] = rho0v
    for n in range(1, n_steps + 1):
        if n % every == 0 or n == n_steps:
            if n > m:
                rows[-(-n // every)] = readout @ f
            else:
                # R_n f without R_n: step n on the tables of a path that ends at n, summed over r
                ends = _tables(_step_factors(n, transfer, ends=True))
                rows[-(-n // every)] = window_step(f, *ends).reshape(-1, 4).sum(axis=0)
        f = _step(f, n, transfer)
        # settled? at each step to 2M, where the paper point settles, then at
        # n - M = 2^k and at block boundaries: a run that never settles checks
        # about M + log2(n) + n / every times
        late = n - m
        if (x is not None and first < full and 0 <= late and n < full * every
                and (late <= m or late & (late - 1) == 0 or n % every == 0)):
            y, settled = _coordinates(x, xh, f)
            if settled:
                # the partial block up to the next sample, the full blocks, the last partial one
                head, tail, i = -n % every, n_steps % every, -(-n // every)
                maps = _block_map(x, xh, transfer, readout, {every, head, tail} - {0})
                if head:
                    h, sample = maps[head]
                    rows[i], y = sample @ y, h @ y
                y = _sweep(rows[i + 1:], y, *maps[every], full - i)
                if tail:
                    rows[full + 1] = maps[tail][1] @ y
                break
    rows = rows[:n_blocks + 1]
    if not np.isfinite(rows).all():
        finite = np.isfinite(rows).all(axis=1)
        step = min(int(finite.argmin()) * every, n_steps)
        raise InstabilityError(f"non-finite density matrix at step {step}", step=step)
    return rows


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

    rows = evolve_window(rho0.reshape(4), transfer, n_steps, sample_every)
    steps = np.append(np.arange(0, n_steps, sample_every), n_steps)
    return Trajectory(times=steps * table.dt, rhos=rows.reshape(-1, 2, 2))


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
