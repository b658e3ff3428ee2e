"""Exception types shared across the package."""


class FlexlinkError(Exception):
    """Base of the package's own errors; front ends print them as one line."""


class ModelError(FlexlinkError, ValueError):
    """Raised when a scenario, association or coupling model is inconsistent."""


class DomainError(FlexlinkError, ValueError):
    """Raised when an operation is evaluated outside its mathematical domain."""


class ConfigError(FlexlinkError, ValueError):
    """Raised for invalid configuration files or CLI arguments."""


class InfeasibleError(FlexlinkError, RuntimeError):
    """Raised when a precondition on feasibility (e.g. utility > 1) fails."""
