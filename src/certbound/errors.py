"""Exception types shared across the package."""


class CertboundError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(CertboundError, ValueError):
    """A parameter is outside its documented domain."""


class ResourceLimitError(CertboundError):
    """An instance exceeds the configured desk-scale resource caps."""


# Central resource caps.  Distributions are held densely in memory, so these
# keep a single instance below a few hundred MB.
MAX_QUBITS = 20
MAX_OUTCOMES = 10**6
# Largest sample size a tester takes, and most calibration runs, Monte-Carlo
# trials or ensemble instances one call draws.
MAX_DRAWS = 1 << 20
