"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: usage problems exit 2, data
validation problems exit 3, numerical/sampling failures exit 4.
"""


class DpGibbsError(Exception):
    """Base class for all package errors."""


class ConfigurationError(DpGibbsError):
    """A run was requested with an inconsistent or unsupported configuration."""


class ValidationError(DpGibbsError):
    """Input data violates a documented contract (bounds, shapes, schema)."""


class NumericalError(DpGibbsError):
    """A numerical routine failed to reach its accuracy or stability target.

    Carries a ``diagnostics`` dict describing the offending parameters or state.
    """

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class SamplingError(NumericalError):
    """A random-variate routine could not produce a draw."""


class StuckChainError(SamplingError):
    """A rejection-sampling update exhausted its retry budget; nothing else raises it."""
