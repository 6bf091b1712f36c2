"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the function."""


class ValidationError(ValueError):
    """Quantum numbers or configuration values are inconsistent."""


class DivergenceError(ArithmeticError):
    """The requested expectation value or integral does not exist."""
