"""Exception types shared across the package, and the number checks that raise one."""

import numpy as np


class InputError(ValueError):
    """Rejected input: non-finite values, empty data, bad parameters."""


class LabelingError(InputError):
    """A value fell outside every bin (bins were built from different data)."""


class ModelError(RuntimeError):
    """Invalid histogram model state (e.g. a cell with non-positive volume)."""


def require_integer(name: str, value) -> None:
    """Refuse anything but a Python or NumPy integer, bools included: a
    fractional size, seed, count or threshold would be truncated, rounded
    or break the code that reads it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InputError(f"{name} must be an integer, got {value!r}")


def require_real(name: str, value) -> None:
    """Refuse anything but a Python or NumPy real number, bools included:
    ``True`` would silently mean 1.0, and a string or None fail deep in a
    comparison."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise InputError(f"{name} must be a real number, got {value!r}")
