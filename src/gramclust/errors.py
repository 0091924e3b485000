"""Exception types raised across the package."""


class GramClustError(Exception):
    """Base class for all package-specific errors."""


class NonFiniteInputError(GramClustError):
    """Input matrix contains NaN or infinite entries."""


class AllColumnsConstantError(GramClustError):
    """Every feature column has (numerically) zero variance."""


class DimensionMismatchError(GramClustError):
    """Array shapes are inconsistent."""


class SingleClusterError(GramClustError):
    """A between-cluster quantity was requested for a single cluster."""


class KOutOfRangeError(GramClustError):
    """Requested cluster count is outside [1, N]."""


class EmptyClusterError(GramClustError):
    """A mixture component has no assigned objects."""


class LengthMismatchError(GramClustError):
    """Two label vectors have different lengths."""


class ObjectIdMismatchError(GramClustError):
    """Two label files do not cover the same object ids."""


class AllFitsDegenerateError(GramClustError):
    """Every candidate K produced a degenerate fit, as on 2 objects, where
    no cluster has more than 2 members."""


class DataError(GramClustError):
    """Malformed input data file (parse failures carry a line number)."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class ConfigError(GramClustError):
    """Invalid run configuration."""
