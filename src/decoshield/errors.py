"""Exception types shared across the package."""


class ArgumentError(ValueError):
    """Bad argument (shape mismatch, non-finite entries, invalid range)."""


class DecouplingViolationError(RuntimeError):
    """A precondition requiring the decoupling condition was not met."""

    def __init__(self, message, zero_mode_norm=None):
        super().__init__(message)
        self.zero_mode_norm = zero_mode_norm


class TuneSearchError(RuntimeError):
    """Amplitude root search failed; carries the scan trace for diagnosis."""

    def __init__(self, message, scan=None):
        super().__init__(message)
        self.scan = scan if scan is not None else []


class NumericError(RuntimeError):
    """Quadrature or integration did not converge; carries diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class ResourceError(RuntimeError):
    """Requested problem size exceeds the desk-scale guard."""


class ConfigError(ValueError):
    """Invalid experiment configuration; names the offending field path."""

    def __init__(self, field_path, message):
        super().__init__(f"{field_path}: {message}")
        self.field_path = field_path
