import tracemalloc
import warnings

import numpy as np
import pytest

from jcqsim import itm
from jcqsim import (CapacityError, ConfigError, HBAR, InstabilityError, OhmicBath,
                    brute_force_path_sum, build_transfer_tensor, eta_coefficients,
                    initial_state, propagate, short_time_propagator)
from jcqsim.influence import EtaTable
from oracles import monolithic_influence, per_step_evolve_window

DT = 12.707


@pytest.fixture(scope="module")
def free_table():
    return eta_coefficients(OhmicBath(alpha=0.0, omega_c=5.0, temperature=30.0), DT, 2000, 1)


@pytest.fixture(scope="module")
def free_transfer(paper_qubit, free_table):
    return build_transfer_tensor(short_time_propagator(paper_qubit, DT), free_table)


class TestTransferTensor:

    def test_free_dense_equals_bare_propagator(self, paper_qubit, free_table):
        prop = short_time_propagator(paper_qubit, DT)
        transfer = build_transfer_tensor(prop, free_table)
        np.testing.assert_array_equal(transfer.dense(), prop.tensor)

    def test_dense_overlap_structure(self, paper_bath, paper_qubit):
        table = eta_coefficients(paper_bath, DT, 4, 2)
        transfer = build_transfer_tensor(short_time_propagator(paper_qubit, DT), table)
        dense = transfer.dense()
        assert dense.shape == (16, 16)
        for row in range(16):
            allowed = {(row % 4) * 4 + y for y in range(4)}
            for col in range(16):
                if col not in allowed:
                    assert dense[row, col] == 0.0

    def test_memory_span_mismatch_rejected(self, paper_bath, paper_qubit):
        t1 = eta_coefficients(paper_bath, DT, 8, 1)
        t2 = eta_coefficients(paper_bath, DT, 8, 2)
        transfer = build_transfer_tensor(short_time_propagator(paper_qubit, DT), t1)
        with pytest.raises(ConfigError):
            propagate(initial_state("zero"), transfer, t2, 4)


class TestFreeDynamics:

    def test_plus_state_stationary(self, free_transfer, free_table):
        traj = propagate(initial_state("plus"), free_transfer, free_table, 200,
                         sample_every=10)
        for rho in traj.rhos:
            np.testing.assert_allclose(rho, 0.5 * np.ones((2, 2)), atol=1e-12)

    def test_zero_state_rabi(self, paper_qubit, free_transfer, free_table):
        omega0 = paper_qubit.b_x / HBAR
        traj = propagate(initial_state("zero"), free_transfer, free_table, 1000,
                         sample_every=1)
        expected = 0.5 * (1.0 + np.cos(omega0 * traj.times))
        np.testing.assert_allclose(traj.rho00, expected, atol=1e-8)


class TestOracleEquivalence:

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    @pytest.mark.parametrize("kind", ["zero", "plus"])
    def test_full_memory_matches_path_sum(self, paper_bath, paper_qubit, n, kind):
        table = eta_coefficients(paper_bath, DT, n, n)
        transfer = build_transfer_tensor(short_time_propagator(paper_qubit, DT), table)
        rho0 = initial_state(kind)
        traj = propagate(rho0, transfer, table, n, sample_every=n)
        exact = brute_force_path_sum(rho0, paper_qubit, table, n)
        assert np.abs(traj.rhos[-1] - exact).max() < 1e-10

    @pytest.mark.parametrize("dk_max", [1, 2, 3])
    def test_truncated_memory_matches_truncated_path_sum(self, paper_bath, paper_qubit,
                                                         dk_max):
        # same truncated influence on both routes, N = 6
        table = eta_coefficients(paper_bath, DT, 6, dk_max)
        transfer = build_transfer_tensor(short_time_propagator(paper_qubit, DT), table)
        rho0 = initial_state("zero")
        traj = propagate(rho0, transfer, table, 6, sample_every=6)
        exact = brute_force_path_sum(rho0, paper_qubit, table, 6)
        assert np.abs(traj.rhos[-1] - exact).max() < 1e-12

    def test_intermediate_samples_match_path_sum(self, paper_bath, paper_qubit):
        # every sampled step of one run agrees with a fresh enumeration
        table = eta_coefficients(paper_bath, DT, 5, 2)
        transfer = build_transfer_tensor(short_time_propagator(paper_qubit, DT), table)
        rho0 = initial_state("zero")
        traj = propagate(rho0, transfer, table, 5, sample_every=1)
        for i, n in enumerate(range(1, 6)):
            exact = brute_force_path_sum(rho0, paper_qubit, table, n)
            assert np.abs(traj.rhos[i + 1] - exact).max() < 1e-12

    def test_free_case_equals_unitary(self, paper_qubit, free_table):
        rho0 = initial_state("zero")
        exact = brute_force_path_sum(rho0, paper_qubit, free_table, 1)
        u = short_time_propagator(paper_qubit, DT).u
        np.testing.assert_allclose(exact, u @ rho0 @ u.conj().T, atol=1e-14)

    def test_path_sum_hermitian(self, paper_bath, paper_qubit):
        table = eta_coefficients(paper_bath, DT, 4, 4)
        rho = brute_force_path_sum(initial_state("zero"), paper_qubit, table, 4)
        assert np.abs(rho - rho.conj().T).max() < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_path_sum_matches_assembled_definition(self, paper_bath, paper_qubit, n):
        # literal sum over paths: K chain times the unfactorized influence functional
        from itertools import product

        table = eta_coefficients(paper_bath, DT, n, n)
        u = short_time_propagator(paper_qubit, DT).u
        rho0 = initial_state("plus")
        spins = (0, 1)  # basis indices; spin value s = 1 - 2b
        expected = np.zeros((2, 2), dtype=complex)
        for fwd in product(spins, repeat=n + 1):
            for bwd in product(spins, repeat=n + 1):
                weight = rho0[fwd[0], bwd[0]]
                for k in range(n):
                    weight *= u[fwd[k + 1], fwd[k]] * np.conj(u[bwd[k + 1], bwd[k]])
                weight *= monolithic_influence([1 - 2 * b for b in fwd],
                                               [1 - 2 * b for b in bwd], table)
                expected[fwd[n], bwd[n]] += weight
        rho = brute_force_path_sum(rho0, paper_qubit, table, n)
        np.testing.assert_allclose(rho, expected, atol=1e-13)


class TestConservation:

    def test_trace_and_hermiticity_medium_run(self, paper_bath, paper_qubit):
        table = eta_coefficients(paper_bath, DT, 5000, 1)
        transfer = build_transfer_tensor(short_time_propagator(paper_qubit, DT), table)
        traj = propagate(initial_state("zero"), transfer, table, 5000, sample_every=50)
        assert np.abs(traj.trace - 1.0).max() < 1e-12
        assert traj.hermiticity_deviation.max() < 1e-12

    def test_memory_convergence_monotone(self, paper_bath, paper_qubit):
        results = {}
        for dk_max in (1, 2, 4, 8):
            table = eta_coefficients(paper_bath, DT, 8, dk_max)
            transfer = build_transfer_tensor(short_time_propagator(paper_qubit, DT), table)
            traj = propagate(initial_state("zero"), transfer, table, 8, sample_every=8)
            results[dk_max] = traj.rhos[-1]
        d12 = np.abs(results[1] - results[2]).max()
        d24 = np.abs(results[2] - results[4]).max()
        assert d24 < d12

    def test_alpha_continuity(self, paper_qubit, free_transfer, free_table):
        reference = propagate(initial_state("zero"), free_transfer, free_table, 100,
                              sample_every=100).rhos[-1]
        deviations = []
        for alpha in (1e-8, 1e-9, 1e-10):
            bath = OhmicBath(alpha=alpha, omega_c=5.0, temperature=30.0)
            table = eta_coefficients(bath, DT, 100, 1)
            transfer = build_transfer_tensor(short_time_propagator(paper_qubit, DT), table)
            traj = propagate(initial_state("zero"), transfer, table, 100, sample_every=100)
            deviations.append(np.abs(traj.rhos[-1] - reference).max())
        assert deviations[0] / deviations[1] == pytest.approx(10.0, rel=0.05)
        assert deviations[1] / deviations[2] == pytest.approx(10.0, rel=0.05)


class TestGuardsAndErrors:

    def test_capacity_cap(self, paper_bath, paper_qubit):
        table = eta_coefficients(paper_bath, DT, 11, 1)
        with pytest.raises(CapacityError):
            brute_force_path_sum(initial_state("zero"), paper_qubit, table, 11)

    def test_memory_span_cap(self, paper_bath, paper_qubit):
        # a span of 11 would need tensors of 4^12 complex entries (256 MiB); the cap
        # raises before any of them is allocated
        table = eta_coefficients(paper_bath, DT, 20, itm.SPAN_CAP + 1)
        prop = short_time_propagator(paper_qubit, DT)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                build_transfer_tensor(prop, table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_explosion_guard_reports_step(self, monkeypatch, paper_qubit):
        # an amplifying self term (negative real part) blows the window up
        bad = EtaTable(dt=DT, n_steps=1000, dk_max=1,
                       eta_self_interior=complex(-40000.0, 0.0),
                       eta_self_end=complex(0.0, 0.0),
                       eta_pair_interior=np.zeros(1, dtype=complex),
                       eta_pair_end_interior=np.zeros(1, dtype=complex),
                       eta_pair_end_end=np.zeros(1, dtype=complex))
        transfer = build_transfer_tensor(short_time_propagator(paper_qubit, DT), bad)
        with monkeypatch.context() as patch:
            patch.setattr(itm, "evolve_window", per_step_evolve_window)
            with pytest.raises(InstabilityError) as expected:
                propagate(initial_state("plus"), transfer, bad, 1000, sample_every=100)
        # the overflowing block powers are discarded without a RuntimeWarning
        with warnings.catch_warnings(), pytest.raises(InstabilityError) as info:
            warnings.simplefilter("error")
            propagate(initial_state("plus"), transfer, bad, 1000, sample_every=100)
        assert info.value.step == expected.value.step

    def test_bad_arguments(self, paper_qubit, free_transfer, free_table):
        with pytest.raises(ConfigError):
            propagate(initial_state("zero"), free_transfer, free_table, 0)
        with pytest.raises(ConfigError):
            propagate(initial_state("zero"), free_transfer, free_table, 10, sample_every=0)

    def test_trajectory_time_axis(self, free_transfer, free_table):
        traj = propagate(initial_state("zero"), free_transfer, free_table, 100,
                         sample_every=32)
        assert traj.times[0] == 0.0
        assert np.all(np.diff(traj.times) > 0)
        assert traj.times[-1] == pytest.approx(100 * DT)
        # sampled at 32, 64, 96 plus the forced final step
        assert len(traj) == 5


def test_dense_transfer_consistent_with_step_tensor(paper_bath, paper_qubit):
    # dense maps window (p_k, p_{k+1}) -> (p_{k+1}, p_{k+2}) by contracting the
    # oldest point against the step factors
    table = eta_coefficients(paper_bath, DT, 4, 2)
    transfer = build_transfer_tensor(short_time_propagator(paper_qubit, DT), table)
    rng = np.random.default_rng(3)
    window = rng.normal(size=16) + 1j * rng.normal(size=16)
    via_dense = window @ transfer.dense()
    via_step = np.einsum("ab,aby->by", window.reshape(4, 4),
                         transfer.step.reshape(4, 4, 4)).ravel()
    np.testing.assert_allclose(via_dense, via_step, atol=1e-12)
