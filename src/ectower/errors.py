"""Exception types shared across the package, and how their messages quote input."""


def quote(value, limit=40):
    """repr(value); past limit characters, the repr of the first limit and the length.

    A string is cut by its own characters, anything else by its repr, so a
    refusal of a long input stays short.
    """
    text = value if isinstance(value, str) else repr(value)
    if len(text) <= limit:
        return repr(value)
    return "%r... (%d characters)" % (text[:limit], len(text))


class EctowerError(Exception):
    """Base class for all package errors."""


class MixedFields(EctowerError):
    """Operands belong to different fields."""


class DivisionByZero(EctowerError):
    """Inversion of zero, or a zero denominator."""


class BoundExceeded(EctowerError):
    """A configured desk-scale cap would be exceeded."""


class PointNotOnCurve(EctowerError):
    """A point does not satisfy its curve equation."""


class NonIntegralModel(EctowerError):
    """Clearing denominators would overflow the configured cap."""


class LevelOutOfRange(EctowerError):
    """Tower level outside 1..N."""


class RamifiedCharacteristic(EctowerError):
    """The field characteristic divides the degree of the map."""


class IncompleteTorsion(EctowerError):
    """The field does not contain the full torsion subgroup required."""


class BaseMismatch(EctowerError):
    """Towers do not share a base variety or truncation level."""


class NotNecessaryFirst(EctowerError):
    """Witness search requires the torsion-difference necessity test to pass."""


class ZeroVector(EctowerError):
    """Separation level is undefined for the zero vector."""


class TorsionBasePoint(EctowerError):
    """The workflow requires a non-torsion base point."""


class UnsupportedField(EctowerError):
    """The operation is not defined over this kind of field."""


class SchemaError(EctowerError):
    """Malformed or unexpected JSON input."""
