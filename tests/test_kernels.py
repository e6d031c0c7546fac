"""The window kernel, ramp, transient and slow-mode walk, against a per-step reference."""

import dataclasses
import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from jcqsim import itm
from jcqsim.analysis import fit_decay, step_count
from jcqsim import (InstabilityError, OhmicBath, QubitParameters, build_transfer_tensor,
                    eta_coefficients, initial_state, propagate, short_time_propagator)
from jcqsim.influence import (COUPLING_WEIGHT, ENDPOINT, INTERIOR, EtaTable, pair_factor_table,
                              self_factor_table)
from jcqsim.units import HBAR
from oracles import (per_step_evolve_window, pure_dephasing_coherence, readout_factor,
                     step_factor)

DT = 12.707
N_STEPS = 5003  # a multiple of neither 7 nor 64
# Growth rate per step of the coherence self factor in the growing runs,
# and a run length whose last 64-step block is full.
GROWTH = 8e-4
N_GROWING = 78 * 64
# the paper's run: 3 us in steps of DT
N_PAPER = step_count(3.0e6, DT)
# tau2 of the paper's run from the 4 x 4 slow map's coherence eigenvalue
SLOW_MAP_TAU2_US = {5: 0.998808, 6: 1.006883}
# steps past the ramp after which the paper point's window lies on the slow modes
TRANSIENT = 64
# phase of the diagonal one-step propagator of the pure-dephasing runs
PHI = 0.3


@pytest.fixture(scope="module")
def steady(paper_bath, paper_qubit):
    """(transfer, table) at the paper point for a given memory span, over N_STEPS."""

    @functools.cache
    def build(dk_max):
        table = eta_coefficients(paper_bath, DT, N_STEPS, dk_max)
        return build_transfer_tensor(short_time_propagator(paper_qubit, DT), table), table

    return build


@pytest.fixture(scope="module")
def growing(paper_qubit, steady):
    """(transfer, table) as ``steady`` with coherences that gain GROWTH a step.

    The steady map's spectral radius is about 1 + GROWTH, so every run that
    takes a steady step is refused.
    """

    @functools.cache
    def build(dk_max):
        _, table = steady(dk_max)
        shift = GROWTH * HBAR / (4 * COUPLING_WEIGHT**2)
        table = dataclasses.replace(table, eta_self_interior=table.eta_self_interior - shift)
        return build_transfer_tensor(short_time_propagator(paper_qubit, DT), table), table

    return build


@pytest.fixture
def stepped(monkeypatch):
    """n of every step n the kernel took one at a time, ramp steps included."""
    steps = []
    step = itm._step

    def spy_step(f, n, transfer):
        steps.append(n)
        return step(f, n, transfer)

    monkeypatch.setattr(itm, "_step", spy_step)
    return steps


def per_step_propagate(monkeypatch, rho0, transfer, table, n_steps, sample_every):
    def reference(rho0v, transfer, n_steps, every):
        return per_step_evolve_window(rho0v, transfer, table, n_steps, every)

    with monkeypatch.context() as patch:
        patch.setattr(itm, "evolve_window", reference)
        return propagate(rho0, transfer, table, n_steps, sample_every=sample_every)


def amplifying_table(dk_max, eta_self_interior):
    # a negative real self term makes every step grow the window
    zeros = np.zeros(dk_max, dtype=complex)
    return EtaTable(dt=DT, dk_max=dk_max,
                    eta_self_interior=complex(eta_self_interior, 0.0),
                    eta_self_end=complex(0.0, 0.0), eta_pair_interior=zeros,
                    eta_pair_end_interior=zeros, eta_pair_end_end=zeros)


def test_backend_name():
    assert itm.backend_name() == "numpy"


@pytest.mark.parametrize("dk_max", [1, 2, 3, 4, 5, 6])
def test_window_step_matches_dense_step(steady, dk_max):
    # the factored step against the oracle's dense steady step tensor g, on
    # one window and on C- and Fortran-ordered blocks of windows
    transfer, table = steady(dk_max)
    step = step_factor(dk_max, transfer.k_tensor, table)
    tables = transfer.head, transfer.tail
    rng = np.random.default_rng(dk_max)
    windows = rng.normal(size=(4 ** dk_max, 3)) + 1j * rng.normal(size=(4 ** dk_max, 3))
    reference = np.stack([(f[:, None] * step).reshape(4, -1).sum(axis=0)
                          for f in windows.T], axis=1)
    bound = 1e-14 * np.abs(reference).max()
    assert np.abs(itm.window_step(windows[:, 0], *tables) - reference[:, 0]).max() <= bound
    for block in (windows, np.asfortranarray(windows)):
        assert np.abs(itm.window_step(block, *tables) - reference).max() <= bound


@pytest.mark.parametrize("temperature, n_g", [(30.0, 0.5), (100.0, 0.45)])
@pytest.mark.parametrize("dk_max", [1, 2, 3, 4, 5, 6])
def test_step_tables_match_dense_factors(dk_max, temperature, n_g):
    # step n's tables and R_n, expanded on the full window and cut to the rows
    # whose phantom digits are 0, against the oracle's dense factors at the
    # window's own width, through the ramp and at the first steady step
    bath = OhmicBath(alpha=5e-6, omega_c=5.0, temperature=temperature)
    qubit = QubitParameters(e_j=51.8, e_c=122.0, n_g=n_g)
    table = eta_coefficients(bath, DT, N_STEPS, dk_max)
    transfer = build_transfer_tensor(short_time_propagator(qubit, DT), table)
    for n in range(1, dk_max + 2):
        head, tail = itm._tables(itm._step_factors(n, transfer))
        real = 4 ** min(n, dk_max)
        step = (head[:, None, :] * tail).reshape(-1, 4)[:real]
        reference = step_factor(n - 1, transfer.k_tensor, table)
        assert np.abs(step - reference).max() <= 1e-15 * np.abs(reference).max()
        readout = itm._readout(n, transfer).T[:real]
        reference = reference * readout_factor(n, table)
        assert np.abs(readout - reference).max() <= 1e-15 * np.abs(reference).max()
    np.testing.assert_array_equal(head, transfer.head)
    np.testing.assert_array_equal(tail, transfer.tail)


@pytest.mark.parametrize("n_g", [0.5, 0.45])
@pytest.mark.parametrize("dk_max", [1, 2, 3, 4, 5])
def test_factor_tables_built_once_are_the_scalar_tables(dk_max, n_g):
    # the run's 3 M pair tables come from one exponential: bit for bit the
    # table of each coefficient on its own
    qubit = QubitParameters(e_j=51.8, e_c=122.0, n_g=n_g)
    table = eta_coefficients(OhmicBath(alpha=5e-6, omega_c=5.0, temperature=30.0),
                             DT, N_STEPS, dk_max)
    transfer = build_transfer_tensor(short_time_propagator(qubit, DT), table)
    assert transfer.pair_tables.shape == (3, dk_max, 4, 4)
    for c, kind in enumerate(("ii", "ei", "ee")):
        for dk in range(1, dk_max + 1):
            np.testing.assert_array_equal(transfer.pair_tables[c, dk - 1],
                                          pair_factor_table(table.eta_pair(dk, kind)))
    for j, kind in enumerate((INTERIOR, ENDPOINT)):
        np.testing.assert_array_equal(transfer.self_tables[j],
                                      self_factor_table(table.eta_self(kind)))


@pytest.mark.parametrize("dk_max", [2, 3, 4, 6])
def test_ramp_windows_vanish_off_the_phantom_index(monkeypatch, steady, dk_max):
    # before step n <= M the M - n oldest points are phantoms: the window is
    # exactly 0 wherever one of their digits is not 0
    windows = {}
    step = itm._step

    def spy_step(f, n, transfer):
        windows[n] = f.copy()
        return step(f, n, transfer)

    monkeypatch.setattr(itm, "_step", spy_step)
    transfer, table = steady(dk_max)
    propagate(initial_state("zero"), transfer, table, 40, sample_every=1)
    for n in range(1, dk_max + 1):
        by_phantoms = windows[n].reshape(4 ** (dk_max - n), 4 ** n)
        assert not by_phantoms[1:].any() and by_phantoms[0].any()


@pytest.mark.parametrize("every, n_steps", [
    pytest.param(1, N_STEPS, id="1"),
    # blocks inside the ramp at dk_max 4 and 5
    pytest.param(3, N_STEPS, id="3"),
    pytest.param(7, N_STEPS, id="7"),
    pytest.param(64, N_STEPS, id="64"),
    # the last block is full and walked with the others
    pytest.param(64, N_GROWING, id="64-full-last"),
    # one block, stepped from step 0
    pytest.param(N_STEPS + 1, N_STEPS, id="one-block"),
])
@pytest.mark.parametrize("dk_max", [1, 2, 3, 4, 5])
def test_jump_route_matches_per_step(monkeypatch, stepped, steady, dk_max, every, n_steps):
    transfer, table = steady(dk_max)
    rho0 = initial_state("zero")
    reference = per_step_propagate(monkeypatch, rho0, transfer, table, n_steps,
                                   sample_every=every)
    walks = []
    block_map = itm._block_map

    def spy_block_map(*args):
        walks.append(len(stepped))
        return block_map(*args)

    monkeypatch.setattr(itm, "_block_map", spy_block_map)
    traj = propagate(rho0, transfer, table, n_steps, sample_every=every)
    np.testing.assert_array_equal(traj.times, reference.times)
    assert np.abs(traj.rhos - reference.rhos).max() <= 1e-11
    if every > n_steps:
        assert walks == [] and stepped == list(range(1, n_steps + 1))
        return
    # the walk starts once, after steps 1..k within TRANSIENT steps of the
    # ramp, and no step is taken after it; at dk_max 1 it starts at step M
    k = len(stepped)
    assert stepped == list(range(1, k + 1)) and k < dk_max + TRANSIENT
    assert walks == [k]
    if dk_max == 1:
        assert stepped == [1]


@pytest.mark.parametrize("dk_max", [2, 3, 4, 5, 6])
def test_paper_walk_starts_when_the_window_settles(stepped, steady, dk_max):
    # the window is checked at every step from M to 2M, and at the paper
    # point it settles on the slow modes by step 2M, long before the first sample
    transfer, table = steady(dk_max)
    propagate(initial_state("zero"), transfer, table, N_STEPS, sample_every=64)
    assert stepped == list(range(1, len(stepped) + 1))
    assert dk_max < len(stepped) <= 2 * dk_max


@pytest.mark.parametrize("dk_max, every, bound", [
    pytest.param(1, 64, 1e-11, id="1"),
    pytest.param(2, 64, 1e-11, id="2"),
    pytest.param(4, 64, 1e-11, id="4"),
    # 33,727 blocks: the walk's rounding grows with their number
    pytest.param(2, 7, 3e-11, id="2-every7"),
    pytest.param(4, 7, 3e-11, id="4-every7"),
])
def test_paper_run_walk_matches_per_step(paper_bath, paper_qubit, dk_max, every, bound):
    # the walk over the paper's full 236,090-step run
    table = eta_coefficients(paper_bath, DT, N_PAPER, dk_max)
    transfer = build_transfer_tensor(short_time_propagator(paper_qubit, DT), table)
    rho0v = initial_state("zero").reshape(4)
    samples = itm.evolve_window(rho0v, transfer, N_PAPER, every)
    reference = per_step_evolve_window(rho0v, transfer, table, N_PAPER, every)
    assert np.abs(samples - reference).max() <= bound
    if every == 64 and dk_max > 1:
        # one sample a step walks 64 times the blocks: checked at the reference's steps
        steps = np.append(np.arange(0, N_PAPER, every), N_PAPER)
        samples = itm.evolve_window(rho0v, transfer, N_PAPER, 1)[steps]
        assert np.abs(samples - reference).max() <= 1e-10


@pytest.mark.parametrize("dk_max", [1, 2, 3, 4])
def test_growing_map_is_refused_before_the_run(stepped, growing, dk_max):
    # a slow modulus of about 1.0008 is refused at the first steady step,
    # before any step is taken one at a time or walked
    transfer, table = growing(dk_max)
    with pytest.raises(InstabilityError, match="spectral radius 1.0007") as info:
        propagate(initial_state("zero"), transfer, table, N_GROWING, sample_every=64)
    assert info.value.step == dk_max + 1
    assert stepped == []


@pytest.mark.parametrize("every, n_steps", [
    pytest.param(7, 1000, id="7"),
    pytest.param(64, 1000, id="64"),
    # a run too short to walk a block takes a steady step all the same
    pytest.param(5, 5, id="5-steps"),
])
@pytest.mark.parametrize("dk_max", [1, 2, 3])
def test_amplifying_run_trips_at_reference_step(stepped, paper_qubit, dk_max, every, n_steps):
    # the reference step is the first steady one, M + 1
    table = amplifying_table(dk_max, -10.0)
    transfer = build_transfer_tensor(short_time_propagator(paper_qubit, DT), table)
    with pytest.raises(InstabilityError) as info:
        propagate(initial_state("plus"), transfer, table, n_steps, sample_every=every)
    assert info.value.step == dk_max + 1
    assert stepped == []


def test_non_finite_steady_map_is_refused(paper_qubit):
    # a violently amplifying step, and one with an infinite entry, are
    # refused at step M + 1 = 2; neither warns
    table = amplifying_table(1, -40000.0)
    transfer = build_transfer_tensor(short_time_propagator(paper_qubit, DT), table)
    infinite = dataclasses.replace(transfer, head=transfer.head.copy())
    infinite.head[0, 0] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (transfer, infinite):
            with pytest.raises(InstabilityError) as info:
                itm._slow_modes(bad)
            assert info.value.step == 2


@pytest.mark.parametrize("dk_max", [1, 2])
def test_non_finite_sample_raises_at_its_step(monkeypatch, paper_qubit, dk_max):
    # without slow modes every step is taken; an amplifying map then
    # overflows, and the first non-finite sample is reported without a warning
    monkeypatch.setattr(itm, "SLOW_ITERATIONS", 0)
    table = amplifying_table(dk_max, -1000.0)
    transfer = build_transfer_tensor(short_time_propagator(paper_qubit, DT), table)
    rho0v = initial_state("plus").reshape(4)
    with np.errstate(all="ignore"):
        reference = per_step_evolve_window(rho0v, transfer, table, 1000, 7)
    first = int(np.isfinite(reference).all(axis=1).argmin())
    assert first > 1
    with warnings.catch_warnings(), pytest.raises(InstabilityError) as info:
        warnings.simplefilter("error")
        itm.evolve_window(rho0v, transfer, 1000, 7)
    assert info.value.step == 7 * first


def test_slow_basis_at_memory_span_1_is_identity(steady):
    # at q = 4 the slow subspace is the whole window: no QR, and X = I
    transfer, _ = steady(1)
    np.testing.assert_array_equal(itm._slow_modes(transfer), np.eye(4))


@pytest.mark.parametrize("dk_max", [2, 3, 4, 5])
def test_slow_modes_span_the_steady_map(steady, dk_max):
    # A X = X H to rounding, with X orthonormal and H = X^H A X, so the walk
    # in X's own coordinates drops only X's fast part, at the rounding floor
    transfer, _ = steady(dk_max)
    x = itm._slow_modes(transfer)
    ax = itm.window_step(x, transfer.head, transfer.tail)
    h = x.conj().T @ ax
    assert np.abs(ax - x @ h).max() <= 1e-14
    np.testing.assert_allclose(x.conj().T @ x, np.eye(4), atol=1e-14)
    radii = np.sort(np.abs(np.linalg.eigvals(h)))
    assert radii[-1] == pytest.approx(1.0, abs=1e-12)
    assert radii[0] > 0.9999


@pytest.mark.parametrize("dk_max", [1, 2, 3, 4, 5, 6, 7, 8])
def test_slow_modes_take_a_qr_per_memory_span(monkeypatch, steady, dk_max):
    # A's fast part dies out within about M steps, so at the paper point the
    # iteration converges after a few chunks of M steps, each ended by one QR
    qrs = []
    qr = np.linalg.qr

    def spy_qr(a):
        qrs.append(a.shape)
        return qr(a)

    monkeypatch.setattr(np.linalg, "qr", spy_qr)
    transfer, _ = steady(dk_max)
    assert itm._slow_modes(transfer) is not None
    assert len(qrs) <= (3 if dk_max > 1 else 0)


@pytest.mark.parametrize("dk_max", [2, 3, 4])
def test_walk_waits_for_the_transient(monkeypatch, paper_qubit, dk_max):
    # at strong coupling the fast modes show in the samples: walked from the
    # first step past the ramp, these samples would be off by up to 5e-9
    bath = OhmicBath(alpha=1e-3, omega_c=5.0, temperature=30.0)
    table = eta_coefficients(bath, 2.0, 300, dk_max)
    transfer = build_transfer_tensor(short_time_propagator(paper_qubit, 2.0), table)
    rho0 = initial_state("plus")
    reference = per_step_propagate(monkeypatch, rho0, transfer, table, 300, sample_every=1)
    traj = propagate(rho0, transfer, table, 300, sample_every=1)
    assert np.abs(traj.rhos - reference.rhos).max() <= 1e-11


@pytest.mark.parametrize("alpha, dt, dk_max, temperature, walked", [
    pytest.param(0.2, 2.0, 4, 30.0, True, id="alpha0.2-dt2"),
    pytest.param(10.0, 1.0, 3, 300.0, True, id="alpha10-dt1"),
    # the window settles on the slow modes a few steps past the ramp
    pytest.param(10.0, 5.0, 3, 300.0, True, id="alpha10-dt5"),
])
def test_strong_coupling_maps_are_never_refused(monkeypatch, stepped, paper_qubit, alpha, dt,
                                                dk_max, temperature, walked):
    bath = OhmicBath(alpha=alpha, omega_c=5.0, temperature=temperature)
    table = eta_coefficients(bath, dt, 2000, dk_max)
    transfer = build_transfer_tensor(short_time_propagator(paper_qubit, dt), table)
    rho0 = initial_state("zero")
    reference = per_step_propagate(monkeypatch, rho0, transfer, table, 2000, sample_every=7)
    traj = propagate(rho0, transfer, table, 2000, sample_every=7)
    assert np.abs(traj.rhos - reference.rhos).max() <= 1e-11
    # walked runs step only the ramp and the transient
    if walked:
        assert stepped == list(range(1, len(stepped) + 1))
        assert len(stepped) < dk_max + TRANSIENT
    else:
        assert stepped == list(range(1, 2001))


def test_unsettled_run_checks_the_window_sparsely(monkeypatch, paper_qubit):
    # a window that never settles is checked at each step from M to 2M, at
    # n - M = 2^k and at block boundaries, not at every step of a long block;
    # the spy reports every window unsettled, and lets the slow basis converge
    checked = []
    coordinates = itm._coordinates

    def spy_coordinates(x, xh, z):
        y, settled = coordinates(x, xh, z)
        if z.ndim == 1:
            checked.append(z.size)
            settled = False
        return y, settled

    monkeypatch.setattr(itm, "_coordinates", spy_coordinates)
    bath = OhmicBath(alpha=10.0, omega_c=5.0, temperature=300.0)
    table = eta_coefficients(bath, 5.0, 2000, 3)
    transfer = build_transfer_tensor(short_time_propagator(paper_qubit, 5.0), table)
    propagate(initial_state("zero"), transfer, table, 2000, sample_every=1000)
    # steps 3-6, 3 + 4, 3 + 8, ..., 3 + 1024 and 1000
    assert len(checked) == 4 + 9 + 1


@pytest.mark.parametrize("dk_max", [2, 3, 4, 6])
def test_pure_dephasing_run_walks(stepped, paper_bath, dk_max):
    # a diagonal U keeps the window on the slow modes, so the walk starts
    # at step M, right after the ramp
    qubit = QubitParameters(e_j=1e-300, e_c=122.0, n_g=0.5)
    table = eta_coefficients(paper_bath, DT, 20000, dk_max)
    transfer = build_transfer_tensor(short_time_propagator(qubit, DT), table)
    rho0v = initial_state("plus").reshape(4)
    samples = itm.evolve_window(rho0v, transfer, 20000, 7)
    assert stepped == list(range(1, dk_max + 1))
    reference = per_step_evolve_window(rho0v, transfer, table, 20000, 7)
    assert np.abs(samples - reference).max() <= 1e-11


def pure_dephasing_deviation(temperature, dk_max, n_steps, every):
    """Largest deviation of a run from rho0 = plus under a diagonal U from its closed form."""
    bath = OhmicBath(alpha=5e-6, omega_c=5.0, temperature=temperature)
    table = eta_coefficients(bath, DT, n_steps, dk_max)
    transfer = build_transfer_tensor(np.diag(np.exp([1j * PHI, -1j * PHI])), table)
    traj = propagate(initial_state("plus"), transfer, table, n_steps, sample_every=every)
    steps = np.append(np.arange(0, n_steps, every), n_steps)
    coherence = pure_dephasing_coherence(table, PHI, steps)
    expected = np.stack([np.full(len(steps), 0.5), coherence, coherence.conj(),
                         np.full(len(steps), 0.5)], axis=1).reshape(-1, 2, 2)
    return np.abs(traj.rhos[1:] - expected[1:]).max()


@pytest.mark.parametrize("n_steps, every", [
    pytest.param(20000, 1, id="20000-every1"),
    pytest.param(20000, 7, id="20000-every7"),
    pytest.param(N_PAPER, 64, id="paper-every64"),
])
@pytest.mark.parametrize("temperature", [30.0, 100.0])
@pytest.mark.parametrize("dk_max", [1, 2, 3, 4, 6])
def test_pure_dephasing_matches_closed_form(dk_max, temperature, n_steps, every):
    # no path flips a spin under a diagonal U, so rho01 has a closed form at
    # every step: a check of the ramp, the walk and the sampling that shares
    # nothing with the kernel but the eta table
    assert pure_dephasing_deviation(temperature, dk_max, n_steps, every) <= 1e-10


@pytest.mark.parametrize("n_steps", [2, 3, 4, 5, 6, 7, 8])
def test_pure_dephasing_full_memory_matches_closed_form(n_steps):
    # at dk_max = N every step is a ramp step and the sum covers every pair
    assert pure_dephasing_deviation(30.0, n_steps, n_steps, 1) <= 1e-14


class CountedMatrix(np.ndarray):
    """A power of the block map that counts the matrix products it takes part in.

    A product of two such powers is a squaring and yields another counted
    power; a product with anything else is a product with windows.
    """

    window_products = 0
    squarings = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        result = getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)
        if ufunc is not np.matmul:
            return result
        if all(isinstance(x, CountedMatrix) for x in inputs):
            CountedMatrix.squarings += 1
            return result.view(CountedMatrix)
        CountedMatrix.window_products += 1
        return result


@pytest.mark.parametrize("dk_max", [1, 2, 4])
def test_block_maps_chain_half_blocks(steady, dk_max):
    # H_L and S_L chained from a push through ceil(L / 2) steps match the
    # maps read off a push through all L steps
    transfer, _ = steady(dk_max)
    x = itm._slow_modes(transfer)
    readout = itm._readout(dk_max + 1, transfer)
    lengths = {64, 63, 40, 33, 5, 1}
    maps = itm._block_map(x, x.conj().T, transfer, readout, lengths)
    assert maps.keys() == lengths
    power = x
    for length in range(1, 65):
        pushed = itm.window_step(power, transfer.head, transfer.tail)
        if length in lengths:
            h, sample = maps[length]
            assert np.abs(h - x.conj().T @ pushed).max() <= 1e-13
            assert np.abs(sample - readout @ power).max() <= 1e-13
        power = pushed


@pytest.mark.parametrize("top", ["0", "1", "2^d-1", "2^d", "2^d+1"])
@pytest.mark.parametrize("dk_max", [1, 4])
def test_sweep_matches_repeated_jumps(steady, dk_max, top):
    # k = 63, 64 and 65 sit on either side of a doubling of both grid levels
    k = {"0": 0, "1": 1, "2^d-1": 63, "2^d": 64, "2^d+1": 65}[top]
    transfer, _ = steady(dk_max)
    readout = itm._readout(dk_max + 1, transfer)
    x = itm._slow_modes(transfer)
    h, sample = itm._block_map(x, x.conj().T, transfer, readout, {64})[64]
    y = np.random.default_rng(k).normal(size=4) * 0.1 + 0j
    # the grid's overhang writes past row k
    rows = np.full((k + itm._grid_width(k), 4), np.nan, dtype=complex)
    last = itm._sweep(rows, y, h, sample, k)
    samples = rows[:k]
    starts = [y]
    for _ in range(k):
        starts.append(h @ starts[-1])
    assert samples.shape == (k, 4)
    expected = np.array(starts[:k]).reshape(-1, 4) @ sample.T
    np.testing.assert_allclose(samples, expected, rtol=0, atol=1e-13)
    np.testing.assert_allclose(last, starts[k], rtol=0, atol=1e-13)


def test_steady_sweep_memory(steady):
    # q = 256: the walk holds (q, 4) blocks and 4 x 4 powers and peaks at
    # 0.12 MiB; a doubling sweep of 256 x 256 powers takes 4.67 MiB
    transfer, table = steady(4)
    rho0 = initial_state("zero")
    propagate(rho0, transfer, table, N_STEPS, sample_every=64)
    tracemalloc.start()
    try:
        propagate(rho0, transfer, table, N_STEPS, sample_every=64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.175 * 2**20


def test_trajectory_is_written_in_place(steady):
    # every sample goes straight into the rows that become Trajectory.rhos:
    # no second trajectory-sized array, samples or sweep grid, is held
    transfer, table = steady(1)
    rho0 = initial_state("zero")
    propagate(rho0, transfer, table, 2000, sample_every=1)
    tracemalloc.start()
    try:
        traj = propagate(rho0, transfer, table, 20000, sample_every=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * traj.rhos.nbytes


@pytest.fixture
def counted(monkeypatch):
    """Makes the kernel's block maps H_j CountedMatrix and resets the counts."""
    block_map = itm._block_map

    def spy_block_map(*args):
        return {length: (h.view(CountedMatrix), sample)
                for length, (h, sample) in block_map(*args).items()}

    monkeypatch.setattr(itm, "_block_map", spy_block_map)
    CountedMatrix.window_products = CountedMatrix.squarings = 0
    return CountedMatrix


def test_paper_run_sweeps_in_log_products(counted, paper_bath, paper_qubit):
    # every product on the walk takes a power of the block map: 3,687 blocks
    # on a grid of w = 64 powers H^b and 58 block starts, each level built by
    # doubling, 6 products and squarings for one and 6 and 5 for the other
    table = eta_coefficients(paper_bath, DT, N_PAPER, 1)
    transfer = build_transfer_tensor(short_time_propagator(paper_qubit, DT), table)
    traj = propagate(initial_state("zero"), transfer, table, N_PAPER, sample_every=64)
    assert len(traj) == 3690
    depth = math.ceil(math.log2(len(traj)))
    assert 1 <= counted.window_products <= depth + 1
    assert counted.squarings < depth


def test_squared_powers_built_once(counted, steady):
    # the walk starts at step 8 at dk_max 4: one product for the partial
    # block to step 64, then 77 full 64-step blocks on a grid of w = 8 powers
    # H_L^b and 10 block starts: 3 products and squarings build the powers
    # and H_L^8, 4 products and 3 squarings (H_L^16 .. H_L^64) the starts
    transfer, table = steady(4)
    propagate(initial_state("zero"), transfer, table, N_STEPS, sample_every=64)
    assert counted.squarings == 6
    assert counted.window_products == 8


@pytest.mark.parametrize("dk_max", [5, 6])
def test_deep_memory_paper_run(paper_bath, paper_qubit, dk_max):
    # the paper's full run at memory spans the doubling sweep could not reach
    table = eta_coefficients(paper_bath, DT, N_PAPER, dk_max)
    transfer = build_transfer_tensor(short_time_propagator(paper_qubit, DT), table)
    traj = propagate(initial_state("zero"), transfer, table, N_PAPER, sample_every=64)
    tau = fit_decay(traj, "im_rho01").tau
    assert tau == pytest.approx(SLOW_MAP_TAU2_US[dk_max], rel=1e-4)
