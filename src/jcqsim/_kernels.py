"""Hot numeric kernels: steady window propagation and the exact path sum.

State layout: the window tensor over M+1 consecutive time points is stored
flat, row-major, oldest point first. Viewed as (4^M, 4) the row indexes the
M older points and the column the newest; viewed as (4, 4^M) the first axis
is the oldest point alone. Summing out that first axis leaves the folded
window f, q = 4^M entries over the M newest points.

One steady step multiplies f into the step tensor g, e[j, y] = f[j] g[j, y],
and folds the result again. On f that is a fixed linear map A, the
transpose of ``TransferTensor.dense()``; the readout after the step is
R f with R[y, j] = g[j, y] c[j, y] for the readout correction c.

Between two sample steps L apart, ``evolve_window`` therefore jumps:
f <- A^L f, with the sample (R A^(L-1)) f. The powers are built by pushing
the q x q identity through L steps of the same fold-and-multiply step
(4 q^2 work a step, no q^3 products), together with the certificate
B_L = max_{0 <= k < L} |A^k| taken entrywise. Since |A^k f| <= B_L |f|, a
block whose bound (B_L |f|)[j] max_y |g[j, y]| stays below the guard cannot
trip it at any of its steps. A block whose bound does not hold, or whose
powers are not finite, is stepped one step at a time, so the guard trips
at the same step as a per-step run would.

Jumping pays only where the products, and building them, cost less than
the steps they replace. ``_jump_pays`` prices both with a cost model in q,
the block length L and the number of blocks of that length. It steps every
block at M >= 5, blocks of up to 3 steps at M = 4, single steps at M = 3,
and a first or last block whose length occurs only once.

The exact path sum is numba-jitted when numba is importable, with a
vectorized numpy fallback. Set ``JCQSIM_DISABLE_NUMBA=1`` to force numpy.
"""

import os
from collections import Counter

import numpy as np

_DISABLE = os.environ.get("JCQSIM_DISABLE_NUMBA", "").strip().lower() in {"1", "true", "yes"}

try:
    if _DISABLE:
        raise ImportError("numba disabled by JCQSIM_DISABLE_NUMBA")
    from numba import njit

    NUMBA_ENABLED = True
except ImportError:
    NUMBA_ENABLED = False

# A certified block's bound must sit this far below the guard, relative,
# to absorb the rounding difference between the jump and the steps.
CERTIFICATE_MARGIN = 1e-12

# Cost model of a block of L steps on a q-entry folded window, in seconds
# on one BLAS thread. Each numpy round trip costs CALL_OVERHEAD. Building
# the powers costs BUILD_PER_ENTRY per matrix entry for each of the L
# steps, once per block length; one jump costs JUMP_PER_ENTRY per entry of
# the q x q matrices; one plain step costs STEP_PER_ENTRY per window entry.
# Above JUMP_MAX_WINDOW entries every block is stepped: the matrices no
# longer fit in cache, and the build needs several q x q temporaries
# (16 MB each at q = 4^5).
CALL_OVERHEAD = 8e-6
BUILD_PER_ENTRY = 6e-9
JUMP_PER_ENTRY = 5e-10
STEP_PER_ENTRY = 2e-8
JUMP_MAX_WINDOW = 4 ** 4


def backend_name() -> str:
    return "numba" if NUMBA_ENABLED else "numpy"


def window_step(f, g2d):
    """One fold-and-multiply step on folded windows stored as the columns of f.

    Entry 4r + y of the result sums f[a q/4 + r] g[a q/4 + r, y] over the
    departing point a: one (4 x 4) @ (4 x columns) product for each r.
    """
    q = g2d.shape[0]
    g_rya = g2d.reshape(4, q // 4, 4).transpose(1, 2, 0)
    f_rac = f.reshape(4, q // 4, -1).transpose(1, 0, 2)
    return np.matmul(g_rya, f_rac).reshape(f.shape)


def _jump_pays(length, q, count):
    """Whether ``count`` blocks of ``length`` steps are cheaper jumped than stepped."""
    if q > JUMP_MAX_WINDOW:
        return False
    build = length * (CALL_OVERHEAD + q * q * BUILD_PER_ENTRY)
    jump = build + count * (CALL_OVERHEAD + q * q * JUMP_PER_ENTRY)
    step = count * length * (CALL_OVERHEAD + q * STEP_PER_ENTRY)
    return jump < step


def _jump_blocks(g2d, c2d, lengths):
    """Per block length L: the stacked jump [R A^(L-1); A^L] and the bound max_y|g| B_L.

    One pass pushes the identity through max(lengths) steps and snapshots
    each length on the way. Lengths whose matrices are not finite are left
    out, so their blocks are stepped.
    """
    if not lengths:
        return {}
    q = g2d.shape[0]
    readout = (g2d * c2d).T
    g_max = np.abs(g2d).max(axis=1)[:, None]
    power = np.eye(q, dtype=np.complex128)
    bound = np.eye(q)
    blocks = {}
    with np.errstate(all="ignore"):
        for k in range(1, max(lengths) + 1):
            before = power
            power = window_step(power, g2d)
            if k in lengths:
                jump = np.vstack([readout @ before, power])
                scaled = g_max * bound
                if np.isfinite(jump).all() and np.isfinite(scaled).all():
                    blocks[k] = jump, scaled
            np.maximum(bound, np.abs(power), out=bound)
    return blocks


def evolve_window(e_flat, g_flat, c_flat, n_start, n_steps, sample_steps,
                  guard: float = 4.0):
    """Iterate the window tensor from ``n_start`` to ``n_steps``.

    ``e_flat`` is the flat (M+1)-point tensor after step ``n_start``;
    ``g_flat`` the steady one-step factor tensor and ``c_flat`` the steady
    readout correction, both flat over M+1 points. Corrected 4-vector
    readouts are recorded at each step in ``sample_steps`` (sorted, all
    > n_start). Returns (samples, bad_step): bad_step is -1 or the step at
    which the explosion guard tripped.
    """
    q = np.size(g_flat) // 4
    g2d = np.asarray(g_flat, dtype=np.complex128).reshape(q, 4)
    c2d = np.asarray(c_flat, dtype=np.complex128).reshape(q, 4)
    f = np.asarray(e_flat, dtype=np.complex128).reshape(4, q).sum(axis=0)
    ends = [int(s) for s in sample_steps]
    if (ends[-1] if ends else n_start) < n_steps:
        ends.append(int(n_steps))  # steps past the last sample still face the guard
    starts = [int(n_start)] + ends[:-1]
    counts = Counter(end - start for start, end in zip(starts, ends))
    blocks = _jump_blocks(g2d, c2d, {length for length, count in counts.items()
                                     if _jump_pays(length, q, count)})
    limit = guard * (1.0 - CERTIFICATE_MARGIN)

    samples = np.zeros((len(ends), 4), dtype=np.complex128)
    for i, (start, end) in enumerate(zip(starts, ends)):
        block = blocks.get(end - start)
        if block is not None:
            jump, scaled = block
            if (scaled @ np.abs(f)).max() <= limit:
                out = jump @ f
                samples[i], f = out[:4], out[4:]
                continue
        f, samples[i], bad_step = _step_block(f, g2d, c2d, start, end, guard)
        if bad_step >= 0:
            return samples[:len(sample_steps)], bad_step
    return samples[:len(sample_steps)], -1


def _step_block(f, g2d, c2d, start, end, guard):
    """Steps start+1..end one at a time; returns (f, readout at end, bad_step)."""
    q = g2d.shape[0]
    for n in range(start + 1, end + 1):
        e2d = f[:, None] * g2d
        if np.abs(e2d).max() > guard:
            return f, 0.0, n
        f = e2d.reshape(4, q).sum(axis=0)
    return f, (e2d * c2d).sum(axis=0), -1


def _brute_np(rho0v, k_tensor, self_end, self_int, f_ii, f_ei, f_ee, n, dk_max):
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
        for dk in range(1, min(n, dk_max) + 1):
            for e in range(0, n - dk + 1):
                late = e + dk
                if e == 0 and late == n:
                    fac = f_ee
                elif e == 0 or late == n:
                    fac = f_ei
                else:
                    fac = f_ii
                w *= fac[dk - 1, digits[e], digits[late]]
        out += (np.bincount(digits[n], weights=w.real, minlength=4)
                + 1j * np.bincount(digits[n], weights=w.imag, minlength=4))
    return out


if NUMBA_ENABLED:

    @njit(cache=True)
    def _brute_nb(rho0v, k_tensor, self_end, self_int, f_ii, f_ei, f_ee, n, dk_max):
        out = np.zeros(4, dtype=np.complex128)
        digits = np.empty(n + 1, dtype=np.int64)
        total = 4 ** (n + 1)
        span = min(n, dk_max)
        for idx in range(total):
            rem = idx
            for k in range(n + 1):
                digits[k] = rem & 3
                rem >>= 2
            w = rho0v[digits[0]]
            for k in range(n):
                w *= k_tensor[digits[k], digits[k + 1]]
            w *= self_end[digits[0]] * self_end[digits[n]]
            for k in range(1, n):
                w *= self_int[digits[k]]
            for dk in range(1, span + 1):
                for e in range(0, n - dk + 1):
                    late = e + dk
                    if e == 0 and late == n:
                        w *= f_ee[dk - 1, digits[e], digits[late]]
                    elif e == 0 or late == n:
                        w *= f_ei[dk - 1, digits[e], digits[late]]
                    else:
                        w *= f_ii[dk - 1, digits[e], digits[late]]
            out[digits[n]] += w
        return out


def _resolve_backend(backend: str | None) -> bool:
    if backend is None:
        return NUMBA_ENABLED
    if backend == "numba":
        if not NUMBA_ENABLED:
            raise RuntimeError("numba backend requested but unavailable or disabled")
        return True
    if backend == "numpy":
        return False
    raise ValueError(f"unknown backend {backend!r}")


def brute_force_sum(rho0v, k_tensor, self_end, self_int, f_ii, f_ei, f_ee,
                    n_steps: int, dk_max: int, backend: str | None = None):
    """Sum over all 4^(N+1) forward/backward paths; returns the final 4-vector."""
    args = (np.ascontiguousarray(rho0v, dtype=np.complex128),
            np.ascontiguousarray(k_tensor, dtype=np.complex128),
            np.ascontiguousarray(self_end, dtype=np.complex128),
            np.ascontiguousarray(self_int, dtype=np.complex128),
            np.ascontiguousarray(f_ii, dtype=np.complex128),
            np.ascontiguousarray(f_ei, dtype=np.complex128),
            np.ascontiguousarray(f_ee, dtype=np.complex128),
            int(n_steps), int(dk_max))
    fn = _brute_nb if _resolve_backend(backend) else _brute_np
    return fn(*args)
