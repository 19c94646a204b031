"""Exception types shared across the package."""


class SphertransError(Exception):
    """Base class for all library errors."""


class NotPSDError(SphertransError):
    """Matrix has an eigenvalue below the negativity clip threshold."""


class InvalidPError(SphertransError):
    """Schatten exponent must satisfy p >= 1."""


class InvalidParameterError(SphertransError):
    """Interpolation parameter outside its admissible interval."""


class DimensionMismatchError(SphertransError):
    """Operands act on different spaces."""


class OutOfRangeError(SphertransError):
    """A quantity the computation needs overflows float64."""
