"""Structured errors shared across the engine.

Mathematical obstructions (exit code 1 in the CLI) are kept distinct from
input and configuration problems (exit code 2).
"""

from __future__ import annotations


class SweedlerError(Exception):
    """Base class for all library errors."""


class InputError(SweedlerError):
    """Malformed input document or literal."""


def json_array(value, field: str) -> list:
    """``value`` if it is a JSON array; a string is not split into letters."""
    if not isinstance(value, list):
        raise InputError(f"{field} must be a JSON array, not {type(value).__name__}")
    return value


class ConfigurationError(SweedlerError):
    """Incompatible specs wired together (e.g. mismatched convolution source)."""


class MathError(SweedlerError):
    """A mathematical obstruction, not a usage bug."""


class GrouplikeNotInvertible(MathError):
    """A grouplike element has no inverse in the target algebra."""

    def __init__(self, grouplike, value=None):
        self.grouplike = grouplike
        self.value = value
        detail = f" (value {value})" if value is not None else ""
        super().__init__(f"grouplike element {grouplike} is not invertible{detail}")


class FiltrationNotExhaustive(MathError):
    """A key never enters the filtration: the sweep settles nothing more."""

    def __init__(self, key):
        self.key = key
        super().__init__(f"key {key} never enters the filtration")


class RuleNotFound(SweedlerError):
    """A character rule set does not cover a generator."""

    def __init__(self, generator):
        self.generator = generator
        super().__init__(f"no character rule for generator {generator!r}")


class UnsupportedError(SweedlerError):
    """A construction outside the implemented scope was requested."""
