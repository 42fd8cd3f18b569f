"""Exception types shared across the package, and the integer check that raises one."""

import numpy as np


class CoverplanError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(CoverplanError):
    """A numeric argument is outside its documented range."""


class InfiniteMassError(InvalidParameterError):
    """An event density whose mass on a grid's cells is not finite."""


def positive_int(value, name: str) -> int:
    """``value`` as an int; a bool, a non-integer or one below 1 is an InvalidParameterError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise InvalidParameterError(f"{name} must be a positive integer, got {value}")
    return int(value)


class GeometryError(CoverplanError):
    """A polygon or mission space violates a structural invariant."""


class EmptyCandidateSetError(CoverplanError):
    """No feasible candidate position exists for the requested spacing."""


class DegenerateCandidateError(CoverplanError):
    """No candidate position covers event mass, so curvature ratios are undefined."""


class InstanceTooLargeError(CoverplanError):
    """Exhaustive search was requested for more subsets than the configured cap."""

    def __init__(self, subset_count: int, cap: int):
        self.subset_count = subset_count
        self.cap = cap
        super().__init__(
            f"exhaustive search over {subset_count} subsets exceeds the cap of {cap}"
        )


class ScenarioError(CoverplanError):
    """A scenario file is malformed or violates a validation rule."""

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        if field:
            message = f"{field}: {message}"
        super().__init__(message)
