"""Internal unit system and physical constants.

Everything in the simulator is expressed in a single fixed unit system:
energies in microelectronvolts (ueV), times in picoseconds (ps),
temperatures in millikelvin (mK) and angular frequencies in 1/ps. In these
units all parameters of the charge-qubit problem are order-1 to order-100
numbers, so no exponential ever under- or overflows.

Constants are hardcoded at CODATA-2018 values and are not configurable.
"""

HBAR = 658.2119569  # ueV ps      (6.582119569e-16 eV s)
K_B = 0.08617333262  # ueV / mK   (8.617333262e-5 eV/K)


def thermal_beta(temperature_mk: float) -> float:
    """Inverse thermal energy 1/(k_B T) in 1/ueV for a temperature in mK."""
    if temperature_mk <= 0.0:
        raise ValueError(f"temperature must be positive, got {temperature_mk} mK")
    return 1.0 / (K_B * temperature_mk)
