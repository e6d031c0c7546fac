"""Shared fixtures: the published working point and the expensive runs."""

import numpy as np
import pytest

from jcqsim import (OhmicBath, QubitParameters, build_transfer_tensor,
                    eta_coefficients, initial_state, propagate,
                    short_time_propagator)

PAPER_DT = 12.707
PAPER_T_MAX = 3.0e6
PAPER_SAMPLE_EVERY = 64
PAPER_TAU2_BLOCH_US = 1.61966
PAPER_TAU2_ITM_US = 1.05299


@pytest.fixture(scope="session")
def paper_bath():
    return OhmicBath(alpha=5e-6, omega_c=5.0, temperature=30.0)


@pytest.fixture(scope="session")
def cache_baths():
    """Baths in an order that reuses and replaces the alpha-free bath shape (w_c, T).

    The paper's shape at a second alpha, a new temperature, a new cutoff,
    alpha = 0, then the paper's shape again at a nonzero alpha.
    """
    return [OhmicBath(alpha=alpha, omega_c=omega_c, temperature=temperature)
            for alpha, omega_c, temperature in [
                (5e-6, 5.0, 30.0), (4.2e-6, 5.0, 30.0), (5e-6, 5.0, 100.0),
                (5e-6, 0.5, 30.0), (0.0, 5.0, 30.0), (4.2e-6, 5.0, 30.0)]]


@pytest.fixture(scope="session")
def paper_qubit():
    return QubitParameters(e_j=51.8, e_c=122.0, n_g=0.5)


@pytest.fixture(scope="session")
def paper_steps():
    return int(np.floor(PAPER_T_MAX / PAPER_DT + 1e-9))


@pytest.fixture(scope="session")
def paper_table(paper_bath, paper_steps):
    return eta_coefficients(paper_bath, PAPER_DT, paper_steps, 1)


@pytest.fixture(scope="session")
def paper_transfer(paper_qubit, paper_table):
    return build_transfer_tensor(short_time_propagator(paper_qubit, PAPER_DT), paper_table)


@pytest.fixture(scope="session")
def paper_trajectory(paper_transfer, paper_table, paper_steps):
    """Full 3 us evolution of the oscillating initial state at paper defaults."""
    return propagate(initial_state("zero"), paper_transfer, paper_table,
                     paper_steps, sample_every=PAPER_SAMPLE_EVERY)


@pytest.fixture(scope="session")
def doubled_alpha_trajectory(paper_qubit, paper_steps):
    bath = OhmicBath(alpha=1e-5, omega_c=5.0, temperature=30.0)
    table = eta_coefficients(bath, PAPER_DT, paper_steps, 1)
    transfer = build_transfer_tensor(short_time_propagator(paper_qubit, PAPER_DT), table)
    return propagate(initial_state("zero"), transfer, table, paper_steps,
                     sample_every=PAPER_SAMPLE_EVERY)
