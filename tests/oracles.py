"""Independent reference implementations used only by the tests.

``analytic_gamma`` evaluates the package's closed form of the response
function with mpmath's trigamma, so it checks the implementation;
``trapezoid_gamma`` integrates the frequency-domain definition, so it
checks the formula. The influence coefficients are reduced to
one-dimensional time-domain integrals of gamma against the geometric
overlap kernel of the two integration cells, avoiding the package's route
through the double integral Q. These are slow, so their results are cached.
``projected_fit_tau`` finds the least-squares decay time by bisection, with
none of the fit's iteration. ``step_factor`` and ``readout_factor`` build
each ITM step's factor densely at the window's own width, with no phantom
points and no factored tables, for ``per_step_evolve_window``;
``pure_dephasing_coherence`` is the closed form of a run with a diagonal U.
"""

from functools import cache

import mpmath as mp
import numpy as np

from jcqsim.bath import OhmicBath
from jcqsim.influence import (ENDPOINT, INTERIOR, pair_factor_table,
                              self_factor_table)
from jcqsim.units import HBAR


def analytic_gamma(bath: OhmicBath, t: float, ctx=mp) -> complex:
    """Closed form of the response function via the complex trigamma function.

    ``ctx`` is the mpmath context of the trigamma: ``mp`` by default, or
    ``mp.fp`` for double precision where many thousands of values are needed.
    """
    a = 1.0 / bath.omega_c
    b = 0.5 * bath.beta * HBAR
    z = a - 1j * t
    val = 1.0 / z**2 + complex(ctx.polygamma(1, 1.0 + z / (2.0 * b))) / (2.0 * b * b)
    re = 2.0 * HBAR * bath.alpha * val.real
    im = -4.0 * HBAR * bath.alpha * a * t / (a * a + t * t) ** 2
    return complex(re, im)


def trapezoid_gamma(bath: OhmicBath, t: float, n_points: int = 10**6) -> complex:
    """Naive trapezoid rule on [0, 50 w_c] with n_points nodes."""
    b = 0.5 * bath.beta * HBAR
    w = np.linspace(0.0, 50.0 * bath.omega_c, n_points)
    x = b * w
    xcothx = np.where(x < 1e-4, 1.0 + x * x / 3.0, np.where(x == 0.0, 1.0, x) / np.tanh(np.maximum(x, 1e-300)))
    re = np.trapezoid((2.0 * HBAR * bath.alpha / b) * np.exp(-w / bath.omega_c) * xcothx * np.cos(w * t), w)
    im = np.trapezoid(-2.0 * HBAR * bath.alpha * w * np.exp(-w / bath.omega_c) * np.sin(w * t), w)
    return complex(re, im)


def _cells(dt: float, dk: int, kind: str):
    """(late cell, early cell) bounds for a pair at separation dk.

    Endpoint cells are the half cells at the path ends: the early endpoint
    owns [0, dt/2] and the late endpoint [N dt - dt/2, N dt]. Positions are
    fixed by the separation alone since gamma is stationary.
    """
    if kind == "ii":
        late = (dk - 0.5) * dt, (dk + 0.5) * dt
        early = -0.5 * dt, 0.5 * dt
    elif kind == "ei":
        # early point at the 0 endpoint (half cell); identical kernel to the
        # late-endpoint case by stationarity
        late = (dk - 0.5) * dt, (dk + 0.5) * dt
        early = 0.0, 0.5 * dt
    elif kind == "ee":
        late = dk * dt - 0.5 * dt, dk * dt
        early = 0.0, 0.5 * dt
    else:
        raise ValueError(kind)
    return late, early


def _overlap_kernel(tau, late, early):
    """Length of the set {(t', t'') in late x early : t' - t'' = tau}."""
    lo = np.maximum(late[0], early[0] + tau)
    hi = np.minimum(late[1], early[1] + tau)
    return np.maximum(hi - lo, 0.0)


def _graded_edges(lo: float, hi: float, kinks, fine: float = 0.04, coarse: float = 0.4):
    """Panel edges on [lo, hi] including kinks, fine below |tau| ~ 2 ps."""
    edges = set(np.clip(list(kinks) + [lo, hi], lo, hi))
    pts = sorted(edges)
    out = []
    for a, b in zip(pts[:-1], pts[1:]):
        width = fine if min(abs(a), abs(b)) < 2.0 else coarse
        n = max(1, int(np.ceil((b - a) / width)))
        out.append(np.linspace(a, b, n + 1)[:-1])
    out.append(np.array([pts[-1]]))
    return np.concatenate(out)


def _gl_quad(fn, edges: np.ndarray, n_nodes: int = 16) -> complex:
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    half = 0.5 * np.diff(edges)
    mid = edges[:-1] + half
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    values = np.array([fn(t) for t in nodes])
    return complex(np.sum(weights * values))


@cache
def eta_self_time_domain(bath: OhmicBath, width: float) -> complex:
    """Ordered double integral over one cell: Int_0^L (L - tau) gamma(tau) dtau."""
    edges = _graded_edges(0.0, width, [0.0, width])
    return _gl_quad(lambda tau: (width - tau) * analytic_gamma(bath, tau), edges)


@cache
def eta_pair_time_domain(bath: OhmicBath, dt: float, dk: int, kind: str) -> complex:
    """Double cell integral of gamma reduced against the overlap kernel."""
    late, early = _cells(dt, dk, kind)
    lo, hi = late[0] - early[1], late[1] - early[0]
    kinks = [late[0] - early[1], late[0] - early[0], late[1] - early[1], late[1] - early[0]]
    if lo < 0:
        raise ValueError("cells must be time ordered")

    def integrand(tau):
        return _overlap_kernel(tau, late, early) * analytic_gamma(bath, tau)

    return _gl_quad(integrand, _graded_edges(lo, hi, kinks))


def eta_pair_trapezoid_2d(bath: OhmicBath, dt: float, dk: int, n_grid: int = 2000) -> complex:
    """Literal 2-D tensor trapezoid over two interior cells at separation dk.

    Uses the translation invariance of gamma to collapse the n x n weight
    matrix onto the 2n - 1 distinct time differences. gamma is evaluated in
    double precision: the grid's own error is many orders larger.
    """
    late, early = _cells(dt, dk, "ii")
    grid_late = np.linspace(late[0], late[1], n_grid)
    grid_early = np.linspace(early[0], early[1], n_grid)
    h = grid_late[1] - grid_late[0]
    w1d = np.full(n_grid, h)
    w1d[0] = w1d[-1] = 0.5 * h
    # weight of difference index m = i - j + (n-1): sum_i w_i w_{i-m'}
    collapsed = np.convolve(w1d, w1d)
    taus = (grid_late[0] - grid_early[-1]) + h * np.arange(2 * n_grid - 1)
    gammas = np.array([analytic_gamma(bath, tau, mp.fp) for tau in taus])
    return complex(np.sum(collapsed * gammas))


def monolithic_influence(path_plus, path_minus, table) -> complex:
    """Influence functional as one double-sum exponential (no factorization)."""
    from jcqsim.influence import COUPLING_WEIGHT, pair_class

    n = len(path_plus) - 1
    g2 = COUPLING_WEIGHT**2
    phase = 0.0 + 0.0j
    for k in range(n + 1):
        kind = "endpoint" if k in (0, n) else "interior"
        eta = table.eta_self(kind)
        phase += (path_plus[k] - path_minus[k]) * (eta * path_plus[k]
                                                   - np.conj(eta) * path_minus[k])
    for dk in range(1, min(n, table.dk_max) + 1):
        for e in range(0, n - dk + 1):
            eta = table.eta_pair(dk, pair_class(e, e + dk, n))
            phase += (path_plus[e + dk] - path_minus[e + dk]) * (
                eta * path_plus[e] - np.conj(eta) * path_minus[e])
    return np.exp(-g2 / HBAR * phase)


def _on_axes(factor: np.ndarray, axes: tuple, width: int) -> np.ndarray:
    """Reshape a (4,) or (4, 4) factor for broadcasting onto given axes."""
    shape = [1] * width
    for ax in axes:
        shape[ax] = 4
    return factor.reshape(shape)


def step_factor(n: int, k_tensor: np.ndarray, table) -> np.ndarray:
    """Factor multiplied in on step n -> n+1, over the points max(0, n+1-M) .. n+1, as (rows, 4)."""
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


def readout_factor(n: int, table) -> np.ndarray:
    """Terminal correction of the readout at step n, over the points max(0, n-M) .. n, as (rows, 4)."""
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


def per_step_evolve_window(rho0v, transfer, table, n_steps, every):
    """Window iteration one step at a time from step 0: evolve_window's rows, from ``table``.

    The window grows by one point a step; once it holds M + 1 points each
    step first folds out the oldest. Each step multiplies in the dense
    ``step_factor``, the same at every step past M, and reads out with
    ``readout_factor`` at the sample steps every, 2 every, ... and n_steps,
    rows 1, 2, ...; row 0 is rho0v. Only the bare pair tensor K is taken
    from ``transfer``.
    """
    m = transfer.dk_max
    steady_step = step_factor(m, transfer.k_tensor, table)
    sample_steps = [0, *range(every, n_steps, every), n_steps]
    state = np.array(rho0v, dtype=complex)
    samples = np.zeros((len(sample_steps), 4), dtype=complex)
    samples[0] = state
    si = 1
    for n in range(1, sample_steps[-1] + 1):
        if n > m:
            state = state.reshape(4, -1).sum(axis=0)
            g2d = steady_step
        else:
            g2d = step_factor(n - 1, transfer.k_tensor, table)
        e2d = state[:, None] * g2d
        state = e2d.ravel()
        if n == sample_steps[si]:
            samples[si] = (e2d * readout_factor(min(n, m + 1), table)).sum(axis=0)
            si += 1
    return samples


def pure_dephasing_coherence(table, phi: float, steps) -> np.ndarray:
    """rho01 at each step n of ``steps`` from rho0 = plus under U = diag(e^(i phi), e^(-i phi)).

    No path flips a spin, so rho01(n) = (1/2) e^(2 i phi n) exp(-Phi_M(n) / hbar),
    with the coupling weight's 4 g^2 = 1. Phi_M(n) sums Re eta along the
    path: the two endpoint self terms, n - 1 interior ones, and for each
    dk <= min(M, n) the ee pair if dk = n, else two ei pairs and n - dk - 1
    ii pairs.
    """
    steps = np.asarray(steps)
    phase = (2.0 * table.eta_self_end.real
             + (steps - 1) * table.eta_self_interior.real)
    for dk in range(1, table.dk_max + 1):
        pairs = np.where(steps == dk, table.eta_pair(dk, "ee").real,
                         2.0 * table.eta_pair(dk, "ei").real
                         + (steps - dk - 1) * table.eta_pair(dk, "ii").real)
        phase = phase + np.where(steps >= dk, pairs, 0.0)
    return 0.5 * np.exp(2j * phi * steps) * np.exp(-phase / HBAR)


def _projected_slope(t, y, tau):
    """Half the tau-derivative of min over (c_inf, c0) of |c_inf + (c0 - c_inf) e^(-t/tau) - y|^2.

    The two amplitudes are linear, so they are solved for each tau from the
    2 x 2 normal equations; by the envelope theorem the derivative is then
    r . d(model)/dtau. All in long double, so that the sign is right closer
    to the root than double rounding allows.
    """
    t, y, tau = np.asarray(t, np.longdouble), np.asarray(y, np.longdouble), np.longdouble(tau)
    decay = np.exp(-t / tau)
    rise = 1.0 - decay
    a, b, d = rise @ rise, rise @ decay, decay @ decay
    u, v = rise @ y, decay @ y
    det = a * d - b * b
    c_inf, c0 = (u * d - v * b) / det, (a * v - b * u) / det
    residual = c_inf * rise + c0 * decay - y
    return residual @ ((c0 - c_inf) * decay * t / (tau * tau))


def projected_fit_tau(t, y, lo: float, hi: float) -> float:
    """Decay time of the least-squares exponential fit to (t, y), by bisection.

    Halves [lo, hi], which must bracket one sign change of the projected
    residual's derivative, until no double lies between its ends.
    """
    slope_lo = _projected_slope(t, y, lo)
    if slope_lo * _projected_slope(t, y, hi) >= 0.0:
        raise ValueError(f"[{lo}, {hi}] does not bracket a minimum")
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        slope_mid = _projected_slope(t, y, mid)
        if (slope_mid < 0.0) == (slope_lo < 0.0):
            lo, slope_lo = mid, slope_mid
        else:
            hi = mid
