"""Exception types shared across the package, and the integer checks raising one."""

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


def as_seed(value) -> int:
    """``value`` as a seed, an exact integer in [0, 2^64), the Philox key
    word it sets; anything else raises DomainError rather than alias
    another seed."""
    seed = as_index(value, "seed")
    if not 0 <= seed < 1 << 64:
        raise DomainError(f"seed must be in [0, 2**64), got {seed}")
    return seed


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
