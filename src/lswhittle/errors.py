"""Exception taxonomy shared across the package.

Each class carries the CLI exit code it maps to, so raising the right type
matters more than the message text.
"""


class LswhittleError(Exception):
    """Base class for package-specific errors."""

    exit_code = 2


class ConfigError(LswhittleError):
    """Malformed configuration input (unknown keys, bad values, missing files)."""


class InfeasibleParameterError(LswhittleError):
    """Parameter vector violates the model's feasibility constraints."""

    exit_code = 3


class PlanError(LswhittleError):
    """Invalid block segmentation plan (divisibility, sizes, empty grids)."""

    exit_code = 4


class NotPositiveDefiniteError(LswhittleError):
    """A matrix that must be symmetric positive definite is not."""

    exit_code = 3
