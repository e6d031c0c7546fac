"""Non-Markovian decoherence of a Josephson charge qubit.

Quasiadiabatic path-integral propagation by iterative tensor multiplication
for a two-level system coupled to an Ohmic bath, plus the golden-rule Bloch
baseline and decay-time extraction.
"""

from ._kernels import backend_name
from .analysis import (ComparisonReport, DecayFit, bloch_decoherence_time,
                       compare, fit_decay)
from .bath import (OhmicBath, memory_time, power_spectrum, response_function,
                   spectral_density)
from .errors import (CapacityError, ConfigError, InstabilityError, NoDecayError,
                     NumericalError, SaturationError, SimulationError)
from .influence import (COUPLING_WEIGHT, EtaTable, dump_eta_csv, eta_coefficients,
                        pair_factor_table, self_factor_table)
from .itm import (TransferTensor, Trajectory, brute_force_path_sum,
                  build_transfer_tensor, propagate)
from .qubit import (PropagatorK, QubitParameters, hamiltonian, initial_state,
                    short_time_propagator, validate_density_matrix)
from .units import HBAR, K_B, thermal_beta

__version__ = "0.1.0"
