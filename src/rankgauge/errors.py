"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: InputError -> 2,
OptimizationError -> 3, UsageError -> 4.
"""


class RankgaugeError(Exception):
    """Base class for all package errors."""


class UsageError(RankgaugeError):
    """Invalid arguments or preconditions (dims mismatch, bad cut, ...)."""


class InputError(RankgaugeError):
    """Malformed external input (JSON files, schema violations)."""


class OptimizationError(RankgaugeError):
    """Every optimization trial failed; no value can be reported."""


class SingularParameterError(RankgaugeError):
    """Parameter vector maps to a degenerate state (zero factor block or
    vanishing product sum); the caller is expected to reinitialize. An
    evaluation of a stack of parameter vectors sets `lanes`, the boolean
    mask of its singular ones."""

    def __init__(self, message: str, lanes=None):
        super().__init__(message)
        self.lanes = lanes
