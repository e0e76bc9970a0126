"""Exception hierarchy shared across the library, the one dense memory
budget rule and the base of the read-only records."""

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


class FrozenRecord:
    """Base of the package's read-only records.

    A record lists its fields in `__slots__`, in the order of its own
    __init__'s parameters, and passes their values in that order to this
    __init__; a trailing "__dict__" slot leaves room for cached values.
    Assigning or deleting an attribute afterwards raises AttributeError.
    `_field_values` gives the fields' values in that order, and a record
    pickles as a new call of its class on them.  The records are written
    out rather than declared as frozen dataclasses, whose generated
    methods cost about 1 ms per record at every start-up.
    """

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is read-only")

    def _field_values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__ if name != "__dict__")

    def __reduce__(self):
        return type(self), self._field_values()
