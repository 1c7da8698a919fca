"""Exception types shared across the toolkit."""


class SimulationError(Exception):
    """Base class for all toolkit errors."""


class DomainError(SimulationError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DimensionError(SimulationError, ValueError):
    """Array shapes or strategy counts do not agree."""


class ConfigurationError(SimulationError, ValueError):
    """Inconsistent run configuration (schedule/state mismatch, bad config file)."""


class FitnessDegenerateError(SimulationError, ArithmeticError):
    """Mean fitness is not positive, so birth probabilities are undefined."""


class CapacityError(SimulationError, ValueError):
    """Problem size exceeds the exact solver's cap."""


class InvalidWitnessError(SimulationError, ValueError):
    """A dual witness violates its certified Lipschitz bound."""


class StiffnessError(SimulationError, RuntimeError):
    """Step-size halving cascade fell below the minimum step."""


class RegimeError(SimulationError, ValueError):
    """Scaling exponents violate the required convergence regime."""


class ResolutionError(SimulationError, ValueError):
    """Time quadrature is too coarse for the requested estimate."""
