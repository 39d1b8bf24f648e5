"""Exception types shared across the package.

The CLI maps these onto process exit codes (see cli.EXIT_*), so new error
conditions should reuse one of the existing categories where possible.
"""


class StressWatchError(Exception):
    """Base class for all package errors."""


class ParseError(StressWatchError):
    """Malformed input file. Carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ShapeError(StressWatchError):
    """Dimension mismatch between data and a network or feature matrix."""


class InsufficientDataError(StressWatchError):
    """Not enough samples/intervals to compute the requested quantity, or
    input data that cannot be used at all (e.g. non-finite feature values)."""


class ActivationOverflowError(InsufficientDataError):
    """A layer's weighted sum is not finite for some input row, although
    every input is. Carries the first such row (0-based) and the layer."""

    def __init__(self, row: int, layer: int):
        self.row = row
        self.layer = layer
        super().__init__(f"row {row}: the weighted sum into layer {layer} is not finite")


class EmptySeriesError(InsufficientDataError):
    """Peak detection produced no usable beat intervals."""


class ConfigError(StressWatchError):
    """Unknown platform/scenario name or an invalid configuration document."""


class CalibrationError(ConfigError):
    """Calibration constants are internally inconsistent."""


class DivergenceError(StressWatchError):
    """Training produced a non-finite loss. Carries the offending epoch."""

    def __init__(self, message: str, epoch: int):
        self.epoch = epoch
        super().__init__(message)


class FixedPointRangeError(StressWatchError):
    """Value cannot be represented in the active fixed-point format. Carries
    the flat index of the first such value when known."""

    def __init__(self, message: str, index: int | None = None):
        self.index = index
        super().__init__(message)
