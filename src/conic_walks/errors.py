"""Exception types shared across the package, and the integer check raising one."""

import operator


class DomainError(ValueError):
    """An argument violates a formula hypothesis or a type invariant."""


class NumericError(RuntimeError):
    """A numerical routine failed on its input (rank-deficient geometry)."""


class DegenerateInputError(NumericError):
    """Input geometry is rank-deficient beyond tolerance."""


class SamplingError(RuntimeError):
    """Random sampling exceeded its retry budget."""


def as_index(value, what: str) -> int:
    """``value`` as an exact integer; a non-integer raises DomainError."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {value!r}") from None


def as_indices(values, what: str) -> tuple[int, ...]:
    """``values`` as a tuple of exact integers; the first non-integer raises
    DomainError as :func:`as_index` words it."""
    values = tuple(values)
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        for value in values:
            as_index(value, what)
        raise
