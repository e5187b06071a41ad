"""Exception types shared across the package, and the count check that raises one."""

import numbers


class ConfigurationError(ValueError):
    """Invalid construction parameters or incompatible shapes."""


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation (e.g. zero vector)."""


class RankDeficiencyError(ValueError):
    """Matrix does not have the numerical rank an operation requires."""

    def __init__(self, message, numerical_rank=None):
        super().__init__(message)
        self.numerical_rank = numerical_rank


class NumericalError(RuntimeError):
    """A numerical routine failed or produced non-finite output."""


class DivergenceError(RuntimeError):
    """An integrated flow blew up; carries the time of blowup."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


def check_count(name: str, value) -> None:
    """Raise unless ``value`` is an integer of at least 1; a bool is not a count."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ConfigurationError(f"{name} must be an integer of at least 1, got {value!r}")
