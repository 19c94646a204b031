"""Exception types shared across the package."""


class SphertransError(Exception):
    """Base class for all library errors."""


class NotPSDError(SphertransError):
    """Matrix has an eigenvalue below the negativity clip threshold."""


class InvalidParameterError(SphertransError):
    """A parameter outside its admissible range."""


class InvalidPError(InvalidParameterError):
    """Schatten exponent must satisfy p >= 1."""


class DimensionMismatchError(SphertransError):
    """Operands act on different spaces."""


class OutOfRangeError(SphertransError):
    """A quantity the computation needs overflows float64."""
