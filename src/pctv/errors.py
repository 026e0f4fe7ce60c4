"""Exception types shared across the package."""


class PCTVError(Exception):
    """Base class for all package errors."""


class DivergentKernelError(PCTVError):
    """The radial moment integral of a kernel profile does not stabilize."""


class EnvelopeError(PCTVError):
    """Rejection sampling envelope is violated or hopelessly inefficient."""


class UnsupportedConfigurationError(PCTVError):
    """Inputs are outside the supported configuration of an operation."""


class ConfigError(PCTVError):
    """An experiment configuration fails schema validation.

    The message carries a JSON-pointer style path to the offending field.
    """
