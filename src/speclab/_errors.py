"""Error types shared across the package, and the input checks the families
share: an integer (a size, a half-integer's twice), a threshold a in [0, 1),
a z-side width b in (0, 1] and a finite value (an exact-comparison threshold,
an angle).  The last three take only a real number (`_real`): a bool, a
string or None is refused, not compared or read as 0 or 1."""

import math

import numpy as np


class ContractError(ValueError):
    """An input violates a documented precondition."""


class ComputationError(RuntimeError):
    """A numerical routine could not produce a trustworthy result."""


def integer(name: str, n) -> int:
    """n as an int: a Python or numpy integer, not a bool.  A float is
    refused even when it is whole (8.0), as a truncation would silently
    change the value asked for."""
    if type(n) is int:  # the common case first: a bool's type is bool
        return n
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ContractError(f"{name} must be an integer, got {n!r}")
    return int(n)


def integer_at_least(name: str, n, least: int) -> int:
    """n as an int (see `integer`), and >= least."""
    n = integer(name, n)
    if n < least:
        raise ContractError(f"{name} must be >= {least}, got {n}")
    return n


def _real(name: str, x) -> None:
    """Refuses what is not a Python or numpy integer or float; a bool or
    np.bool_ is refused, as `integer` refuses it for a size."""
    if isinstance(x, bool) or not isinstance(x, (int, float, np.integer, np.floating)):
        raise ContractError(f"{name} must be a real number, got {x!r}")


def threshold(name: str, a) -> None:
    """Refuses a threshold outside [0, 1), nan included."""
    _real(name, a)
    if not 0.0 <= a < 1.0:
        raise ContractError(f"{name} must lie in [0, 1), got {a}")


def width(name: str, b) -> None:
    """Refuses a z-side width outside (0, 1], nan included."""
    _real(name, b)
    if not 0.0 < b <= 1.0:
        raise ContractError(f"{name} must lie in (0, 1], got {b}")


def finite(name: str, x) -> None:
    """Refuses nan and +-inf: a threshold has no exact rational value then,
    and an angle no rotation."""
    _real(name, x)
    if not math.isfinite(x):
        raise ContractError(f"{name} must be finite, got {x}")
