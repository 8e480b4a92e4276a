"""Error types shared across the package, and the input checks the families
share: an integer size, a threshold a in [0, 1), a z-side width b in (0, 1]
and a finite exact-comparison threshold."""

import math

import numpy as np


class ContractError(ValueError):
    """An input violates a documented precondition."""


class ComputationError(RuntimeError):
    """A numerical routine could not produce a trustworthy result."""


def integer_at_least(name: str, n, least: int) -> int:
    """n as an int: a Python or numpy integer, not a bool, and >= least.
    A float is refused even when it is whole (8.0), as a truncation would
    silently change the size asked for."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ContractError(f"{name} must be an integer, got {n!r}")
    if n < least:
        raise ContractError(f"{name} must be >= {least}, got {n}")
    return int(n)


def threshold(name: str, a) -> None:
    """Refuses a threshold outside [0, 1), nan included."""
    if not 0.0 <= a < 1.0:
        raise ContractError(f"{name} must lie in [0, 1), got {a}")


def width(name: str, b) -> None:
    """Refuses a z-side width outside (0, 1], nan included."""
    if not 0.0 < b <= 1.0:
        raise ContractError(f"{name} must lie in (0, 1], got {b}")


def finite(name: str, x) -> None:
    """Refuses nan and +-inf, which have no exact rational value."""
    if not math.isfinite(x):
        raise ContractError(f"{name} must be finite, got {x}")
