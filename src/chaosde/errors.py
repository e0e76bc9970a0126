"""Exception hierarchy shared across the library and the one dense memory
budget rule."""

import math

#: dense storage cap (number of float64 entries per array)
MEMORY_BUDGET_ENTRIES = 1 << 27


class ChaosdeError(Exception):
    """Base class for all library errors."""


class InvalidDimensionError(ChaosdeError):
    """Construction parameters violate a dimensional precondition."""


class SpaceMismatchError(ChaosdeError):
    """Two objects built over different discretizations were combined."""


class UnsupportedOrderError(ChaosdeError):
    """Requested chaos order exceeds the supported cap."""


class OutOfRangeError(ChaosdeError):
    """A time or parameter lies outside its admissible interval."""


class BlowupError(ChaosdeError):
    """The solver produced a non-finite state."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class MemoryBudgetError(ChaosdeError):
    """A dense tensor allocation would exceed the configured cap."""


def check_budget(shape: tuple):
    """Raise MemoryBudgetError when a dense array of this shape would hold
    more than MEMORY_BUDGET_ENTRIES entries."""
    entries = math.prod(shape)
    if entries > MEMORY_BUDGET_ENTRIES:
        raise MemoryBudgetError(f"dense array of shape {shape} holds {entries} entries, "
                                f"over the budget of {MEMORY_BUDGET_ENTRIES}")


class ConfigError(ChaosdeError):
    """Invalid or inconsistent run configuration."""


class DegenerateLawError(ChaosdeError):
    """Samples are (numerically) constant; no density estimate possible."""
