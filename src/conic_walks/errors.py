"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument violates a formula hypothesis or a type invariant."""


class NumericError(RuntimeError):
    """A numerical routine failed (NNLS did not converge, rank-deficient input)."""


class DegenerateInputError(NumericError):
    """Input geometry is rank-deficient beyond tolerance."""


class SamplingError(RuntimeError):
    """Random sampling exceeded its retry budget."""
