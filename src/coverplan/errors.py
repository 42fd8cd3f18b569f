"""Exception types shared across the package."""


class CoverplanError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(CoverplanError):
    """A numeric argument is outside its documented range."""


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
