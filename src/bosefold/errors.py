"""Exception hierarchy shared across the package."""


class BosefoldError(Exception):
    """Base class for all package-specific errors."""


class ModelError(BosefoldError):
    """Invalid chain size, parameter, or site range in a coupling builder."""


class ValidationError(BosefoldError):
    """An input violates a structural invariant (Hermiticity, norm, ...)."""


class ConfigError(BosefoldError):
    """Bad scenario configuration; carries the offending line when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
