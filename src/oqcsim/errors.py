"""Exception types shared across the package, and the readers of input documents.

The CLI maps these onto its exit-code contract: schema/parse problems
exit 2, physics-domain problems exit 3, resource caps exit 4.  read_json
alone reads a JSON document from a file, and the readers below it alone
turn config and registry values into numbers and names.
"""
import json
import math
from pathlib import Path


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

    __str__ = Exception.__str__         # the message itself, not KeyError's repr of it


class ResourceLimitError(OqcsimError, RuntimeError):
    """Request exceeds a hard cap (e.g. Hilbert-space dimension)."""


def read_json(path):
    """The JSON document in the file at path.

    Text that is not UTF-8, a syntax error, an integer too long to convert
    and nesting too deep to decode are ParseErrors that name the path; an
    OSError (a missing file, a directory) propagates.
    """
    data = Path(path).read_bytes()
    try:
        return json.loads(data.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: {exc}") from None


REQUIRED = object()     # the default of a key that must be given


def require(cond: bool, msg: str, error=ValidationError):
    if not cond:
        raise error(msg)


def known_keys(section, allowed: set[str], where: str):
    """ParseError unless section is a JSON object with only allowed keys."""
    require(isinstance(section, dict), f"{where} must be a JSON object", ParseError)
    unknown = set(section) - allowed
    require(not unknown, f"{where}: unknown fields {sorted(unknown)}", ParseError)


def finite(value, where: str, kind=float):
    """value as kind (float or int); ParseError unless it is a finite JSON
    number, and for int, one without a fractional part."""
    require(isinstance(value, (int, float)) and not isinstance(value, bool),
            f"{where} must be a number, got {value!r}", ParseError)
    try:
        ok = math.isfinite(value)
    except OverflowError:              # an integer beyond double precision
        ok = False
    require(ok, f"{where} must be finite, got {value!r}", ParseError)
    require(kind is float or value == int(value), f"{where} must be an integer, got {value!r}",
            ParseError)
    return kind(value)


def _value(sec: dict, key: str, where: str, default):
    """sec[key], or the default when it is null or absent."""
    if sec.get(key) is None:
        require(default is not REQUIRED, f"{where}.{key} is required", ParseError)
        return default
    return sec[key]


def number(sec: dict, key: str, where: str, default=REQUIRED, kind=float):
    """sec[key] as a finite number (finite); the default may be None."""
    value = _value(sec, key, where, default)
    return None if value is None else finite(value, f"{where}.{key}", kind)


def string(sec: dict, key: str, where: str, default=REQUIRED):
    """sec[key] as a string; the default may be None."""
    value = _value(sec, key, where, default)
    require(value is None or isinstance(value, str),
            f"{where}.{key} must be a string, got {value!r}", ParseError)
    return value


def flag(sec: dict, key: str, where: str) -> bool:
    """sec[key] as a JSON boolean; null or absent is false."""
    value = sec.get(key)
    require(value is None or isinstance(value, bool),
            f"{where}.{key} must be true or false, got {value!r}", ParseError)
    return bool(value)


def subsection(sec: dict, key: str, allowed: set[str], where: str) -> dict:
    """sec[key] as a JSON object with only allowed keys (known_keys, whose
    messages name it where); null or absent is empty."""
    value = _value(sec, key, where, {})
    known_keys(value, allowed, where)
    return value


def entries(sec: dict, key: str, where: str) -> list:
    """sec[key] as a JSON list; null or absent is empty."""
    value = _value(sec, key, where, [])
    require(isinstance(value, list), f"{where}.{key} must be a list", ParseError)
    return value
