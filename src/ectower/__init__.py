"""Exact-arithmetic towers of covers of elliptic curves.

Build truncated towers of twisted-multiplication covers over a base curve or
product of curves, compute their deck-transformation groups over certified
finite-field realizations, decide tower isomorphism over Q through torsion
certificates, and model the matching factorial chain of lattice quotients.
"""

from .config import Caps, DEFAULT_CAPS
from .fields import QQ, ExtField, FieldElement, PrimeField, Rational, find_irreducible
from .groups import FiniteAbelianGroup
from .curves import EllipticCurve, Point, ProductPoint, ProductVariety
from .torsion import (
    MAZUR_ORDERS,
    NonTorsionCertificate,
    TorsionCertificate,
    order_ff,
    torsion_subgroup_Q,
    torsion_test_Q,
)
from .towers import (
    CompositeMap,
    Tower,
    TwistedMulMap,
    deck_group,
    fiber,
    full_torsion_field,
    rational_fiber,
)
from .iso import (
    NonIsoCertificate,
    TowerIsoWitness,
    classify_family,
    necessity_test,
    verify_witness,
    witness_search,
)
from .chain import LatticeGroup, chain_subgroup, match_deck, quotient, refine, separates

__version__ = "0.1.0"

__all__ = [
    "Caps",
    "DEFAULT_CAPS",
    "QQ",
    "ExtField",
    "FieldElement",
    "PrimeField",
    "Rational",
    "find_irreducible",
    "FiniteAbelianGroup",
    "EllipticCurve",
    "Point",
    "ProductPoint",
    "ProductVariety",
    "MAZUR_ORDERS",
    "NonTorsionCertificate",
    "TorsionCertificate",
    "order_ff",
    "torsion_subgroup_Q",
    "torsion_test_Q",
    "CompositeMap",
    "Tower",
    "TwistedMulMap",
    "deck_group",
    "fiber",
    "full_torsion_field",
    "rational_fiber",
    "NonIsoCertificate",
    "TowerIsoWitness",
    "classify_family",
    "necessity_test",
    "verify_witness",
    "witness_search",
    "LatticeGroup",
    "chain_subgroup",
    "match_deck",
    "quotient",
    "refine",
    "separates",
    "__version__",
]
