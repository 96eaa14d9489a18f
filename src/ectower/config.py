"""Desk-scale caps. Everything in the package is exact; the caps only bound search spaces."""

from dataclasses import dataclass


@dataclass(frozen=True)
class Caps:
    # largest finite field size p**k that may be constructed or enumerated
    field_size: int = 10_000_000
    # largest |coefficient| accepted after clearing denominators of a curve over Q
    integral_model: int = 10**40
    # largest chain level i for which (Z/i!)^2g quotients are materialized
    chain_level: int = 20


DEFAULT_CAPS = Caps()
