"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """Malformed or dimensionally inconsistent input."""


class NotStronglyStableError(ValueError):
    """System matrix fails the stability prerequisite."""


class ProjectionFailureError(RuntimeError):
    """Inner projection solver hit its iteration cap while still moving."""


class UnsupportedDimensionError(ValueError):
    """Operation only implemented for low-dimensional inputs."""


class InvalidStateError(RuntimeError):
    """Object is not in the state required by the requested operation."""


class ConfigError(ValueError):
    """Experiment configuration is missing, malformed, or inconsistent."""
