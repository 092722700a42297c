"""Exception types shared across the package, each with a stable machine-readable code, the array limits and input checks."""

from __future__ import annotations

from numbers import Integral

MAX_DENSE_ENTRIES = 1 << 27  # entries of the largest input-sized dense array built (1 GiB of int64)
INT_EXACT = 2**63  # int64 holds every integer below this


class EngineError(Exception):
    """Base error; `code` is a stable kebab-case identifier for scripting."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


class ValidationError(EngineError):
    """Bad inputs or violated preconditions (CLI exit code 1)."""


class ComputationError(EngineError):
    """Resource limits or numeric failures during computation (CLI exit code 2)."""


def check_dense(name: str, entries: int):
    """Refuse a dense array of more than `MAX_DENSE_ENTRIES` entries before it is allocated."""
    if entries > MAX_DENSE_ENTRIES:
        raise ValidationError(
            "bound-exceeded", f"{name} would hold {entries:,} entries, above MAX_DENSE_ENTRIES = {MAX_DENSE_ENTRIES:,}"
        )


def check_int(value, name: str) -> int:
    """`value` as an int: an integer, or a string of one, as JSON object keys are; anything else is refused as bad-spec."""
    if isinstance(value, Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise ValidationError("bad-spec", f"{name} must be an integer, got {value!r}")
