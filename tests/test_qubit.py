import numpy as np
import pytest

from jcqsim import (HBAR, QubitParameters, hamiltonian, initial_state,
                    short_time_propagator, validate_density_matrix)
from jcqsim.itm import _pair_tensor
from jcqsim.qubit import SIGMA_X, SIGMA_Z


def test_effective_fields():
    params = QubitParameters(e_j=51.8, e_c=122.0, n_g=0.5)
    assert params.b_x == 51.8
    assert params.b_z == 0.0
    assert QubitParameters(e_j=51.8, e_c=122.0, n_g=0.0).b_z == 488.0


def test_parameter_validation():
    with pytest.raises(ValueError):
        QubitParameters(e_j=0.0, e_c=122.0, n_g=0.5)
    with pytest.raises(ValueError):
        QubitParameters(e_j=51.8, e_c=-1.0, n_g=0.5)


@pytest.mark.parametrize("field", ["e_j", "e_c", "n_g"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_parameters_nonfinite_rejected(field, value):
    params = {"e_j": 51.8, "e_c": 122.0, "n_g": 0.5, field: value}
    with pytest.raises(ValueError, match="finite"):
        QubitParameters(**params)


def test_hamiltonian_at_sweet_spot():
    h = hamiltonian(QubitParameters(e_j=51.8, e_c=122.0, n_g=0.5))
    np.testing.assert_allclose(h, -25.9 * SIGMA_X, atol=1e-14)


def test_hamiltonian_general():
    h = hamiltonian(QubitParameters(e_j=10.0, e_c=122.0, n_g=0.0))
    np.testing.assert_allclose(h, -244.0 * SIGMA_Z - 5.0 * SIGMA_X, atol=1e-12)


class TestPropagator:

    def test_zero_step_is_identity(self):
        u = short_time_propagator(QubitParameters(51.8, 122.0, 0.5), 0.0)
        np.testing.assert_allclose(u, np.eye(2), atol=1e-15)
        expected = np.array([[1 if p == q else 0 for q in range(4)] for p in range(4)])
        np.testing.assert_allclose(_pair_tensor(u), expected, atol=1e-15)

    def test_rotation_angle_at_paper_values(self):
        # theta = E_J dt / (2 hbar)
        u = short_time_propagator(QubitParameters(51.8, 122.0, 0.5), 12.707)
        theta = 51.8 * 12.707 / (2.0 * HBAR)
        assert theta == pytest.approx(0.50001, abs=2e-5)
        np.testing.assert_allclose(
            u, np.cos(theta) * np.eye(2) + 1j * np.sin(theta) * SIGMA_X, atol=1e-14)

    def test_unitarity_random_parameters(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            params = QubitParameters(e_j=rng.uniform(1, 200), e_c=rng.uniform(1, 200),
                                     n_g=rng.uniform(-1, 2))
            u = short_time_propagator(params, rng.uniform(0, 50))
            np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-14)

    def test_composition(self):
        params = QubitParameters(e_j=51.8, e_c=122.0, n_g=0.3)
        u1 = short_time_propagator(params, 12.707)
        u2 = short_time_propagator(params, 25.414)
        np.testing.assert_allclose(u1 @ u1, u2, atol=1e-12)

    def test_pair_tensor_factorization(self):
        rng = np.random.default_rng(11)
        params = QubitParameters(e_j=77.0, e_c=13.0, n_g=0.1)
        u = short_time_propagator(params, 3.3)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        direct = u @ rho @ u.conj().T
        via_tensor = (rho.reshape(4) @ _pair_tensor(u)).reshape(2, 2)
        np.testing.assert_allclose(via_tensor, direct, atol=1e-14)

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            short_time_propagator(QubitParameters(51.8, 122.0, 0.5), -1.0)


class TestInitialStates:

    def test_plus(self):
        np.testing.assert_allclose(initial_state("plus"), 0.5 * np.ones((2, 2)), atol=0)

    def test_zero_and_one(self):
        np.testing.assert_allclose(initial_state("zero"), np.diag([1.0, 0.0]), atol=0)
        np.testing.assert_allclose(initial_state("one"), np.diag([0.0, 1.0]), atol=0)

    def test_named_states_are_copies(self):
        initial_state("zero")[0, 0] = 0.0
        assert initial_state("zero")[0, 0] == 1.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            initial_state("minus")

    def test_custom_matrix_accepted(self):
        rho = np.array([[0.75, 0.1 + 0.2j], [0.1 - 0.2j, 0.25]])
        np.testing.assert_allclose(validate_density_matrix(rho), rho)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            validate_density_matrix(np.array([[0.5, 0.5], [0.2, 0.5]]))

    def test_wrong_trace_rejected(self):
        with pytest.raises(ValueError):
            validate_density_matrix(np.diag([0.9, 0.0]))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError):
            validate_density_matrix(np.array([[1.2, 0.0], [0.0, -0.2]]))

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            validate_density_matrix(np.eye(3) / 3.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            validate_density_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_plus_state_stationary_under_free_evolution():
    params = QubitParameters(e_j=51.8, e_c=122.0, n_g=0.5)
    rho = initial_state("plus")
    for dt in (1.0, 12.707, 100.0):
        u = short_time_propagator(params, dt)
        np.testing.assert_allclose(u @ rho @ u.conj().T, rho, atol=1e-12)


def test_zero_state_free_rabi_formula():
    params = QubitParameters(e_j=51.8, e_c=122.0, n_g=0.5)
    omega0 = params.b_x / HBAR
    dt = 2.5
    u = short_time_propagator(params, dt)
    rho = initial_state("zero")
    for n in range(1, 21):
        rho = u @ rho @ u.conj().T
        assert rho[0, 0].real == pytest.approx(0.5 * (1.0 + np.cos(omega0 * n * dt)),
                                               abs=1e-10)
