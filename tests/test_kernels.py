"""The steady window kernel against a per-step reference."""

import functools
import warnings

import numpy as np
import pytest

from jcqsim import _kernels, itm
from jcqsim import (InstabilityError, build_transfer_tensor, eta_coefficients,
                    initial_state, propagate, short_time_propagator)
from jcqsim.influence import EtaTable
from oracles import per_step_evolve_window

DT = 12.707
N_STEPS = 5003  # a multiple of neither 7 nor 64


@pytest.fixture(scope="module")
def steady(paper_bath, paper_qubit):
    """(transfer, table) at the paper point for a given memory span, over N_STEPS."""

    @functools.cache
    def build(dk_max):
        table = eta_coefficients(paper_bath, DT, N_STEPS, dk_max)
        return build_transfer_tensor(short_time_propagator(paper_qubit, DT), table), table

    return build


@pytest.fixture
def routes(monkeypatch):
    """Block lengths the kernel built jumps for, and the lengths of blocks it stepped."""
    built, stepped = [], []
    build, step = _kernels._jump_blocks, _kernels._step_block

    def spy_build(g2d, c2d, lengths):
        blocks = build(g2d, c2d, lengths)
        built.extend(blocks)
        return blocks

    def spy_step(f, g2d, c2d, start, end, guard):
        stepped.append(end - start)
        return step(f, g2d, c2d, start, end, guard)

    monkeypatch.setattr(_kernels, "_jump_blocks", spy_build)
    monkeypatch.setattr(_kernels, "_step_block", spy_step)
    return built, stepped


def per_step_propagate(monkeypatch, *args, **kwargs):
    with monkeypatch.context() as patch:
        patch.setattr(itm, "evolve_window", per_step_evolve_window)
        return propagate(*args, **kwargs)


def kernel_inputs(monkeypatch, transfer, table, sample_every):
    """The arguments propagate hands to evolve_window for the zero state."""
    calls = []

    def record(*args, **kwargs):
        calls.append(args)
        return per_step_evolve_window(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(itm, "evolve_window", record)
        propagate(initial_state("zero"), transfer, table, N_STEPS, sample_every=sample_every)
    return calls[0]


def amplifying_table(dk_max, eta_self_interior):
    # a negative real self term makes every step grow the window
    zeros = np.zeros(dk_max, dtype=complex)
    return EtaTable(dt=DT, n_steps=1000, dk_max=dk_max,
                    eta_self_interior=complex(eta_self_interior, 0.0),
                    eta_self_end=complex(0.0, 0.0), eta_pair_interior=zeros,
                    eta_pair_end_interior=zeros, eta_pair_end_end=zeros)


def test_backend_name():
    assert _kernels.backend_name() == "numpy"


@pytest.mark.parametrize("every", [1, 7, 64])
@pytest.mark.parametrize("dk_max", [1, 2, 3, 4])
def test_jump_route_matches_per_step(monkeypatch, routes, steady, dk_max, every):
    transfer, table = steady(dk_max)
    rho0 = initial_state("zero")
    reference = per_step_propagate(monkeypatch, rho0, transfer, table, N_STEPS,
                                   sample_every=every)
    traj = propagate(rho0, transfer, table, N_STEPS, sample_every=every)
    np.testing.assert_array_equal(traj.times, reference.times)
    assert np.abs(traj.rhos - reference.rhos).max() <= 1e-11
    built, stepped = routes
    if every > 1:
        assert every in built
    # at the default guard no physical block falls back to stepping
    assert not set(built) & set(stepped)


@pytest.mark.parametrize("dk_max", [1, 2, 3, 4])
def test_failed_certificate_steps_block(monkeypatch, routes, steady, dk_max):
    args = kernel_inputs(monkeypatch, *steady(dk_max), sample_every=64)
    peak = []
    per_step_evolve_window(*args, peak=peak)
    guard = peak[0] * (1 + 1e-9)
    expected, expected_bad = per_step_evolve_window(*args, guard=guard)
    samples, bad_step = _kernels.evolve_window(*args, guard=guard)
    assert bad_step == expected_bad == -1
    assert np.abs(samples - expected).max() <= 1e-11
    built, stepped = routes
    assert 64 in built and 64 in stepped


def test_certificate_decides_per_block(monkeypatch, routes, steady):
    # between the true peak and the largest block bound: some blocks jump, some step
    args = kernel_inputs(monkeypatch, *steady(2), sample_every=64)
    peak = []
    per_step_evolve_window(*args, peak=peak)
    guard = 2.0 * peak[0]
    expected, _ = per_step_evolve_window(*args, guard=guard)
    samples, bad_step = _kernels.evolve_window(*args, guard=guard)
    assert bad_step == -1
    assert np.abs(samples - expected).max() <= 1e-11
    _, stepped = routes
    full_blocks = N_STEPS // 64 - 1  # the first and the last block are shorter
    assert 0 < stepped.count(64) < full_blocks


@pytest.mark.parametrize("dk_max", [1, 2, 3, 4])
def test_guard_just_below_peak_trips_at_reference_step(monkeypatch, steady, dk_max):
    args = kernel_inputs(monkeypatch, *steady(dk_max), sample_every=64)
    peak = []
    per_step_evolve_window(*args, peak=peak)
    guard = peak[0] * (1 - 1e-9)
    _, expected_bad = per_step_evolve_window(*args, guard=guard)
    _, bad_step = _kernels.evolve_window(*args, guard=guard)
    assert bad_step == expected_bad > 0


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
        assert _kernels._jump_blocks(transfer.step, correction, {1, 100}).keys() == {1}
