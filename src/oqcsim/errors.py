"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: schema/parse problems
exit 2, physics-domain problems exit 3, resource caps exit 4.
"""


class OqcsimError(Exception):
    """Base class for all package errors."""


class ConfigurationError(OqcsimError, ValueError):
    """Bad enum values and malformed options (an unknown plot kind, ...)."""


class DomainError(OqcsimError, ValueError):
    """Inputs outside the physical domain of a formula (R = 0, n < 1, ...)."""


class ValidationError(OqcsimError, ValueError):
    """Structurally parseable input that violates an invariant."""


class ParseError(OqcsimError, ValueError):
    """Input that does not parse against the documented schema."""


class RegistryLookupError(OqcsimError, KeyError):
    """Unknown species, host, or level name."""


class ResourceLimitError(OqcsimError, RuntimeError):
    """Request exceeds a hard cap (e.g. Hilbert-space dimension)."""
