"""The window kernel, ramp and steady blocks, against a per-step reference."""

import dataclasses
import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from jcqsim import itm
from jcqsim.analysis import step_count
from jcqsim import (InstabilityError, build_transfer_tensor, eta_coefficients,
                    initial_state, propagate, short_time_propagator)
from jcqsim.influence import COUPLING_WEIGHT, EtaTable
from jcqsim.units import HBAR
from oracles import per_step_evolve_window

DT = 12.707
N_STEPS = 5003  # a multiple of neither 7 nor 64
# Growth rate per step of the coherence self factor in the growing runs,
# and their length: the last block is a full 64-step one.
GROWTH = 8e-4
N_GROWING = 78 * 64
# the paper's run: 3 us in steps of DT
N_PAPER = step_count(3.0e6, DT)


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

    At the paper point the first ramp step holds the largest entry of the
    run; here the entries grow past it and peak inside the last 64-step
    block, so a guard at that peak trips in a steady block.
    """

    @functools.cache
    def build(dk_max):
        _, table = steady(dk_max)
        shift = GROWTH * HBAR / (4 * COUPLING_WEIGHT**2)
        table = dataclasses.replace(table, eta_self_interior=table.eta_self_interior - shift)
        return build_transfer_tensor(short_time_propagator(paper_qubit, DT), table), table

    return build


@pytest.fixture
def routes(monkeypatch):
    """Block lengths the kernel built jumps for, and the lengths of steady blocks it stepped."""
    built, stepped = [], []
    build, step = itm._jump_plan, itm._step_block

    def spy_build(g2d, c2d, length):
        plan = build(g2d, c2d, length)
        if plan is not None:
            built.append(length)
        return plan

    def spy_step(f, transfer, table, correction, start, end, guard):
        if start >= transfer.dk_max:
            stepped.append(end - start)
        return step(f, transfer, table, correction, start, end, guard)

    monkeypatch.setattr(itm, "_jump_plan", spy_build)
    monkeypatch.setattr(itm, "_step_block", spy_step)
    return built, stepped


def per_step_propagate(monkeypatch, *args, **kwargs):
    with monkeypatch.context() as patch:
        patch.setattr(itm, "evolve_window", per_step_evolve_window)
        return propagate(*args, **kwargs)


def kernel_inputs(monkeypatch, transfer, table, sample_every, n_steps=N_STEPS):
    """The arguments propagate hands to evolve_window for the zero state."""
    calls = []

    def record(*args, **kwargs):
        calls.append(args)
        return per_step_evolve_window(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(itm, "evolve_window", record)
        propagate(initial_state("zero"), transfer, table, n_steps, sample_every=sample_every)
    return calls[0]


def amplifying_table(dk_max, eta_self_interior):
    # a negative real self term makes every step grow the window
    zeros = np.zeros(dk_max, dtype=complex)
    return EtaTable(dt=DT, dk_max=dk_max,
                    eta_self_interior=complex(eta_self_interior, 0.0),
                    eta_self_end=complex(0.0, 0.0), eta_pair_interior=zeros,
                    eta_pair_end_interior=zeros, eta_pair_end_end=zeros)


def test_backend_name():
    assert itm.backend_name() == "numpy"


@pytest.mark.parametrize("every, n_steps", [
    pytest.param(1, N_STEPS, id="1"),
    pytest.param(7, N_STEPS, id="7"),
    pytest.param(64, N_STEPS, id="64"),
    # the last block is full and swept with the others
    pytest.param(64, N_GROWING, id="64-full-last"),
    # one block, stepped from step 0
    pytest.param(N_STEPS + 1, N_STEPS, id="one-block"),
])
@pytest.mark.parametrize("dk_max", [1, 2, 3, 4])
def test_jump_route_matches_per_step(monkeypatch, routes, steady, dk_max, every, n_steps):
    transfer, table = steady(dk_max)
    rho0 = initial_state("zero")
    reference = per_step_propagate(monkeypatch, rho0, transfer, table, n_steps,
                                   sample_every=every)
    traj = propagate(rho0, transfer, table, n_steps, sample_every=every)
    np.testing.assert_array_equal(traj.times, reference.times)
    assert np.abs(traj.rhos - reference.rhos).max() <= 1e-11
    built, stepped = routes
    if every > n_steps:
        # the one block starts in the ramp
        assert built == stepped == []
    elif every > 1:
        assert every in built
        # of the steady blocks only a partial last one is stepped
        assert stepped == ([n_steps % every] if n_steps % every else [])
    # at the default guard no physical block falls back to stepping
    assert not set(built) & set(stepped)


@pytest.mark.parametrize("dk_max", [1, 2, 3, 4])
def test_failed_certificate_steps_block(monkeypatch, routes, growing, dk_max):
    args = kernel_inputs(monkeypatch, *growing(dk_max), sample_every=64, n_steps=N_GROWING)
    peak = []
    per_step_evolve_window(*args, peak=peak)
    guard = peak[0] * (1 + 1e-9)
    expected = per_step_evolve_window(*args, guard=guard)
    samples = itm.evolve_window(*args, guard=guard)
    assert np.abs(samples - expected).max() <= 1e-11
    built, stepped = routes
    assert 64 in built and 64 in stepped


def test_certificate_decides_per_block(monkeypatch, routes, steady):
    # between the true peak and the largest block bound: some blocks jump, some step
    args = kernel_inputs(monkeypatch, *steady(2), sample_every=64)
    peak = []
    per_step_evolve_window(*args, peak=peak)
    guard = 2.0 * peak[0]
    swept = []
    sweep = itm._sweep

    def spy_sweep(f, squares, k):
        swept.append(k + 1)
        return sweep(f, squares, k)

    monkeypatch.setattr(itm, "_sweep", spy_sweep)
    expected = per_step_evolve_window(*args, guard=guard)
    samples = itm.evolve_window(*args, guard=guard)
    assert np.abs(samples - expected).max() <= 1e-11
    _, stepped = routes
    full_blocks = N_STEPS // 64 - 1  # the first block starts in the ramp, the last is shorter
    assert 0 < stepped.count(64) < full_blocks
    # after each failed block the chunks regrow from the certified prefix, so
    # the rows swept stay within a few times the blocks, not one chunk a failure
    assert sum(swept) <= 3 * full_blocks


@pytest.mark.parametrize("dk_max", [1, 2, 3, 4])
def test_guard_just_below_peak_trips_at_reference_step(monkeypatch, growing, dk_max):
    args = kernel_inputs(monkeypatch, *growing(dk_max), sample_every=64, n_steps=N_GROWING)
    peak = []
    per_step_evolve_window(*args, peak=peak)
    guard = peak[0] * (1 - 1e-9)
    with pytest.raises(InstabilityError) as expected:
        per_step_evolve_window(*args, guard=guard)
    with pytest.raises(InstabilityError) as got:
        itm.evolve_window(*args, guard=guard)
    assert got.value.step == expected.value.step > N_GROWING - 64


@pytest.mark.parametrize("every", [7, 64])
@pytest.mark.parametrize("dk_max", [1, 2, 3])
def test_amplifying_run_trips_at_reference_step(monkeypatch, routes, paper_qubit,
                                                dk_max, every):
    table = amplifying_table(dk_max, -10.0)
    transfer = build_transfer_tensor(short_time_propagator(paper_qubit, DT), table)
    rho0 = initial_state("plus")
    with pytest.raises(InstabilityError) as expected:
        per_step_propagate(monkeypatch, rho0, transfer, table, 1000, sample_every=every)
    with pytest.raises(InstabilityError) as got:
        propagate(rho0, transfer, table, 1000, sample_every=every)
    assert got.value.step == expected.value.step > every
    built, _ = routes
    assert every in built


def test_non_finite_powers_are_stepped(paper_qubit):
    # the powers of a violently amplifying step overflow within the block
    table = amplifying_table(1, -40000.0)
    transfer = build_transfer_tensor(short_time_propagator(paper_qubit, DT), table)
    correction = np.ones_like(transfer.step)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert itm._jump_plan(transfer.step, correction, 1) is not None
        assert itm._jump_plan(transfer.step, correction, 100) is None


class CountedMatrix(np.ndarray):
    """A power of the steady map that counts the matrix products it takes part in.

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


@pytest.mark.parametrize("top", ["0", "1", "2^d-1", "2^d", "2^d+1"])
@pytest.mark.parametrize("dk_max", [1, 4])
def test_sweep_matches_repeated_jumps(steady, dk_max, top):
    # a full chunk of 2^d blocks sweeps the rows 0 .. 2^d - 1
    full = itm._chunk_blocks(4 ** dk_max) - 1
    k = {"0": 0, "1": 1, "2^d-1": full, "2^d": full + 1, "2^d+1": full + 2}[top]
    transfer, table = steady(dk_max)
    correction = itm._readout_factor(dk_max + 1, table)
    _, _, squares = itm._jump_plan(transfer.step, correction, 64)
    while len(squares) < k.bit_length():
        squares.append(squares[-1] @ squares[-1])
    f = np.random.default_rng(k).normal(size=4 ** dk_max) * 0.1 + 0j
    rows = itm._sweep(f, squares, k)
    expected = [f]
    for _ in range(k):
        expected.append(expected[-1] @ squares[0])
    assert rows.shape == (k + 1, f.size)
    assert np.abs(rows - np.array(expected)).max() <= 1e-13


@pytest.mark.parametrize("dk_max", [1, 2])
def test_certificate_fails_inside_chunk(monkeypatch, growing, dk_max):
    # the 76 steady blocks fit one chunk, and the guard sits just above the
    # peak of the last block: the sweep certifies a prefix of the chunk (at
    # dk_max 3 the bound is too loose to certify the first block, and at 4 a
    # chunk holds 16 blocks)
    assert itm._chunk_blocks(4 ** dk_max) > N_GROWING // 64
    args = kernel_inputs(monkeypatch, *growing(dk_max), sample_every=64, n_steps=N_GROWING)
    peak = []
    per_step_evolve_window(*args, peak=peak)
    guard = peak[0] * (1 + 1e-9)
    stepped = []
    step = itm._step_block

    def spy_step(f, transfer, table, correction, start, end, guard):
        if start >= transfer.dk_max:
            stepped.append(start)
        return step(f, transfer, table, correction, start, end, guard)

    monkeypatch.setattr(itm, "_step_block", spy_step)
    expected = per_step_evolve_window(*args, guard=guard)
    samples = itm.evolve_window(*args, guard=guard)
    assert np.abs(samples - expected).max() <= 1e-11
    assert stepped and min(stepped) > 64


def test_steady_sweep_memory(steady):
    # q = 256: chunks of 16 blocks, four squared powers of 1 MiB each; the
    # per-jump route before the sweep peaked at 4.56 MiB here
    transfer, table = steady(4)
    rho0 = initial_state("zero")
    propagate(rho0, transfer, table, N_STEPS, sample_every=64)
    tracemalloc.start()
    try:
        propagate(rho0, transfer, table, N_STEPS, sample_every=64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5.5 * 2**20


@pytest.fixture
def counted(monkeypatch):
    """Makes the kernel's powers of the steady map CountedMatrix and resets the counts."""
    build = itm._jump_plan

    def spy_build(g2d, c2d, length):
        plan = build(g2d, c2d, length)
        if plan is None:
            return None
        readout, scaled, powers = plan
        return readout, scaled, [power.view(CountedMatrix) for power in powers]

    monkeypatch.setattr(itm, "_jump_plan", spy_build)
    CountedMatrix.window_products = CountedMatrix.squarings = 0
    return CountedMatrix


def test_paper_run_sweeps_in_log_products(counted, paper_bath, paper_qubit):
    # every product on the steady path takes a power of the steady map
    table = eta_coefficients(paper_bath, DT, N_PAPER, 1)
    transfer = build_transfer_tensor(short_time_propagator(paper_qubit, DT), table)
    traj = propagate(initial_state("zero"), transfer, table, N_PAPER, sample_every=64)
    assert len(traj) == 3690
    depth = math.ceil(math.log2(len(traj)))
    assert 1 <= counted.window_products <= depth + 1
    assert counted.squarings < depth


def test_squared_powers_built_once(counted, steady):
    # 77 steady 64-step blocks in chunks of 16 at dk_max 4: P^2, P^4 and P^8
    transfer, table = steady(4)
    propagate(initial_state("zero"), transfer, table, N_STEPS, sample_every=64)
    assert itm._chunk_blocks(4 ** 4) == 16
    assert counted.squarings == 3
    assert counted.window_products == 5 * (4 + 1)
