"""Exception hierarchy separating configuration, numerics and capacity failures.

The CLI maps these onto process exit codes: configuration problems exit
with 2, numerical failures with 3 and I/O errors with 4.
"""


class SimulationError(Exception):
    """Base class for all simulator failures."""


class ConfigError(SimulationError):
    """Invalid configuration value or violated operation precondition."""


class CapacityError(ConfigError):
    """Path enumeration or memory span requested beyond the supported size."""


class NumericalError(SimulationError):
    """A numerical routine failed to reach its accuracy target."""


class InstabilityError(NumericalError):
    """The steady map grows (raised before step 1) or a sample is not finite."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


class NoDecayError(SimulationError):
    """The fitted trajectory does not decay on the available window."""


class SaturationError(SimulationError):
    """A threshold search ran off the end of its fixed grid."""
