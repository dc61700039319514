"""Exception hierarchy shared across the package."""


class SpecproxError(Exception):
    """Base class for all errors raised by this package.

    A failure the run loop detects names where it happened: the iteration
    ``k``, the ``seed`` of the failing run, its ``mode`` and the ``block``
    index.  Elsewhere these are None.
    """

    k = seed = mode = block = None


class ConformabilityError(SpecproxError):
    """Block shapes of two parameter vectors do not match."""


class InvalidInputError(SpecproxError):
    """Non-finite or otherwise malformed numeric input."""


class InvalidSpecError(SpecproxError):
    """Constraint specification is inconsistent with the block it is attached to."""


class InvalidConfigError(SpecproxError):
    """Algorithm or experiment parameter out of its admissible range."""


class BoundaryError(SpecproxError):
    """Point too close to the boundary of the reference-function domain."""


class NumericalError(SpecproxError):
    """An iterative routine failed to reach its tolerance."""


class ConfigError(SpecproxError):
    """Malformed experiment configuration file."""
