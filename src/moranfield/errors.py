"""Exception types shared across the toolkit."""


class SimulationError(Exception):
    """Base class for all toolkit errors."""


class DomainError(SimulationError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DimensionError(SimulationError, ValueError):
    """Array shapes or strategy counts do not agree."""


class ConfigurationError(SimulationError, ValueError):
    """A run input refused before any work; the command line exits 2 on it and its subclasses."""


class FitnessDegenerateError(SimulationError, ArithmeticError):
    """Mean fitness is not positive, so birth probabilities are undefined."""


class CapacityError(ConfigurationError):
    """An ensemble size above the exact solver's cap."""


class InvalidWitnessError(SimulationError, ValueError):
    """A dual witness violates its certified Lipschitz bound."""


class StiffnessError(SimulationError, RuntimeError):
    """An RK4 step needed a correction above rounding scale for one sample."""

    def __init__(self, sample: int, detail: str, label: str = "sample"):
        super().__init__(f"{label} {sample}: {detail}")
        self.sample, self.detail = sample, detail


class RegimeError(ConfigurationError):
    """Scaling exponents outside the convergent regime."""


class ResolutionError(SimulationError, ValueError):
    """Time quadrature is too coarse for the requested estimate."""
