"""Exception types shared across the package, and the boundary coercers that raise them.

The arguments of exported callables pass through these coercers where they
enter: a count, a real number within an interval, a finite array of a given
shape, or an instance of a type. What a coercer rejects is a
``ConfigurationError``.
"""

import math
import numbers

import numpy as np


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


# every error the package raises on purpose; the RuntimeErrors are numerical failures
ERRORS = (ConfigurationError, DomainError, RankDeficiencyError, NumericalError, DivergenceError)


def check_count(name: str, value) -> None:
    """Raise unless ``value`` is an integer of at least 1; a bool is not a count."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ConfigurationError(f"{name} must be an integer of at least 1, got {value!r}")


def check_real(name: str, value, low=-math.inf, high=math.inf, *, low_open=False,
               high_open=False) -> float:
    """``value`` as a finite float from ``low`` to ``high``, each end included unless open.

    A bool, a string or None is not a real number.
    """
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value) or not (low < value if low_open else low <= value)
            or not (value < high if high_open else value <= high)):
        interval = (f"{'(' if low_open or low == -math.inf else '['}{low:g}, "
                    f"{high:g}{')' if high_open or high == math.inf else ']'}")
        raise ConfigurationError(
            f"{name} must be a finite real number in {interval}, got {value!r}")
    return float(value)


def check_array(name: str, value, shape: tuple, finite: bool = True,
                increasing: bool = False) -> np.ndarray:
    """``value`` as a non-empty float array of ``shape``, with finite entries if ``finite``.

    ``shape`` holds an int for an axis of fixed length and a label for a free
    one; axes that share a label have equal lengths, so ("n", "n") is a square.
    ``increasing`` asks for sample times: strictly increasing from a
    nonnegative first entry.
    """
    try:
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        array = None
    lengths = {}
    if array is None or array.ndim != len(shape) or array.size == 0 or any(
            lengths.setdefault(want, got) != got if isinstance(want, str) else want != got
            for want, got in zip(shape, array.shape)):
        text = ", ".join(map(str, shape)) + ("," if len(shape) == 1 else "")
        got = repr(value) if array is None else f"shape {array.shape}"
        raise ConfigurationError(f"{name} must be a non-empty array of shape ({text}), got {got}")
    if finite and not np.isfinite(array).all():
        raise ConfigurationError(f"{name} entries must be finite")
    if increasing and (array[0] < 0 or np.any(np.diff(array) <= 0)):
        raise ConfigurationError(f"{name} must be nonnegative and strictly increasing")
    return array


def check_instance(name: str, value, cls: type):
    """``value`` itself, when it is a ``cls``."""
    if not isinstance(value, cls):
        raise ConfigurationError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")
    return value
