"""Exception types shared across the package, and the numeric envelope whose checks raise them."""

import math
import sys
from typing import NamedTuple

import numpy as np


class CoverplanError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(CoverplanError):
    """A numeric argument is outside its documented range."""


class InfiniteMassError(InvalidParameterError):
    """An event density whose mass on a grid's cells is not finite."""


class Bound(NamedTuple):
    """A row of the envelope.  A float ``low`` takes values as floats, which must be finite."""

    low: float
    high: float
    protects: str  # the arithmetic that stays finite, or the array numpy can index
    open_low: bool = False  # whether ``low`` itself lies outside
    says: str = "must be {side}, got {shown}"  # how a value outside reads after its name


_HUGE = 1e150  # the product of two such numbers, 1e300, is still a float
_INTP = np.iinfo(np.intp).max

# Every bound the package puts on a number, by the name its checks look it up under.
ENVELOPE = {
    "number": Bound(-math.inf, math.inf, "float arithmetic on any other number read from a file"),
    "coordinate": Bound(-_HUGE, _HUGE, "squares and cross products of coordinate differences"),
    "length": Bound(0.0, math.inf, "divisions by a spacing, sigma or radius", open_low=True),
    "density": Bound(0.0, math.inf, "cell weights, density times cell area"),
    "decay": Bound(0.0, _HUGE, "the detection exponent, decay times distance"),
    "cell area": Bound(0.0, math.inf, "cell weights", says="gives an infinite cell area"),
    "event mass": Bound(0.0, math.inf, "coverage, gains and curvatures", says="is not finite"),
    "decay times mass": Bound(0.0, _HUGE, "the square of refine's gradient norm"),
    "curvature": Bound(-1e-12, 1.0 + 1e-12, "the greedy guarantees, up to rounding"),
    "team size": Bound(1, 2**31 - 1, "the curvature bounds, which take it as a float"),
    "count": Bound(1, math.inf, "at least one iteration or trial"),
    "seed": Bound(0, math.inf, "numpy's seed sequence, which takes no negative seed"),
    "axis points": Bound(0, _INTP - 1, "numpy's index of one axis of a grid or lattice",
                         says="puts {value:g} points on an axis, more than numpy can index"),
    "points": Bound(0, _INTP // 16, "numpy's index of the bytes of all (x, y) points",
                    says="puts {value:g} points in all, more than numpy can index"),
}


def shown(value, text=str) -> str:
    """``text(value)`` for a message, bounded where an int is too long to print.

    Such an int reads by its sign and length, and a value holding one by its type.
    """
    try:
        return text(value)
    except ValueError:  # an int past Python's limit on the digits it prints
        held = f"integer of more than {sys.get_int_max_str_digits()} digits"
        if isinstance(value, int):
            return f"{'a negative' if value < 0 else 'an'} {held}"
        return f"a {type(value).__name__} holding an {held}"


def check(row: str, value, name: str = "", error: type = InvalidParameterError):
    """``value`` when it, or each entry of a non-empty array of floats, lies within ``row``.

    Otherwise raises ``error`` on the value, or on the array's least or
    greatest entry (a nan, when it holds one), worded as the row says.
    """
    bound = ENVELOPE[row]
    scalar = isinstance(value, (int, float, np.number))
    for end in (value,) if scalar else (np.min(value), np.max(value)):
        if isinstance(bound.low, float) and not abs(end) <= sys.float_info.max:
            side = "finite"  # also an int past the float range
        elif end < bound.low or (bound.open_low and end == bound.low):
            side = f"{'>' if bound.open_low else '>='} {bound.low!r}"
        elif end > bound.high:
            side = f"<= {bound.high!r}"
        else:
            continue
        message = bound.says.format(side=side, value=end, shown=shown(end))
        raise error(f"{name} {message}" if name else message)
    return value


def positive_int(value, row: str, name: str | None = None) -> int:
    """``value`` as an int within the envelope's ``row``, named ``name`` or the row's name."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidParameterError(f"{name or row} must be a positive integer, got {shown(value)}")
    return int(check(row, value, name or row))


class GeometryError(CoverplanError):
    """A polygon or mission space violates a structural invariant."""


class EmptyCandidateSetError(CoverplanError):
    """No feasible candidate position exists for the requested spacing."""


class DegenerateCandidateError(CoverplanError):
    """No candidate covers event mass: curvature ratios are undefined, or greedy places no agent."""


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
