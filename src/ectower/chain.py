"""Finite-level model of the factorial subgroup chain in Z^(2g).

The ambient lattice stands in for the profinite fundamental group of a
g-dimensional abelian group variety through its finite quotients only: the
level-i subgroup is i! * Z^(2g), its quotient is (Z/i!)^(2g), and the
quotients assemble into a compatible inverse system.  No profinite element
type exists anywhere; every statement here is about finite quotients.
"""

import itertools
import math

from .config import DEFAULT_CAPS, Record
from .errors import BoundExceeded, ZeroVector
from .groups import FiniteAbelianGroup
from .towers import deck_invariant_factors, full_torsion_field


class LatticeGroup(Record):
    """Z^(2g), the finite-quotient stand-in for the fundamental group."""

    __slots__ = ("rank",)

    def __init__(self, rank):
        if rank < 2 or rank % 2 != 0:
            raise ValueError("rank must be a positive even integer 2g")
        Record.__init__(self, rank)

    @property
    def dimension(self):
        return self.rank // 2


class ChainSubgroup(Record):
    """The subgroup i! * Z^(2g), identified by its scalar."""

    __slots__ = ("lattice", "level")

    @property
    def scalar(self):
        return math.factorial(self.level)

    @property
    def index(self):
        return self.scalar**self.lattice.rank

    def contains(self, vector):
        return all(v % self.scalar == 0 for v in vector)


class QuotientGroup(Record):
    """(Z/i!)^(2g) with reduction maps onto the lower levels."""

    __slots__ = ("lattice", "level", "group")

    @property
    def modulus(self):
        return math.factorial(self.level)

    @property
    def order(self):
        return self.modulus**self.lattice.rank

    def reduce(self, vector):
        return tuple(v % self.modulus for v in vector)

    def project(self, vector, lower_level):
        """The compatible surjection onto (Z/lower!)^(2g)."""
        if not 1 <= lower_level <= self.level:
            raise ValueError("projection target must be a lower level")
        m = math.factorial(lower_level)
        return tuple(v % m for v in self.reduce(vector))

    def elements(self, caps=DEFAULT_CAPS):
        if self.order > caps.field_size:
            raise BoundExceeded("quotient of order %d too large to enumerate" % self.order)
        return itertools.product(range(self.modulus), repeat=self.lattice.rank)


def chain_subgroup(lattice, i, caps=DEFAULT_CAPS):
    if i < 1 or i > caps.chain_level:
        raise BoundExceeded("chain level %d outside 1..%d" % (i, caps.chain_level))
    return ChainSubgroup(lattice, i)


def quotient(lattice, i, caps=DEFAULT_CAPS):
    """(Z/i!)^(2g) in invariant-factor form."""
    if i < 1 or i > caps.chain_level:
        raise BoundExceeded("chain level %d outside 1..%d" % (i, caps.chain_level))
    m = math.factorial(i)
    group = FiniteAbelianGroup([m] * lattice.rank)
    return QuotientGroup(lattice, i, group)


def refine(levels):
    """Smallest j with j! * Z^(2g) inside every i! * Z^(2g) of the collection.

    Since i! divides j! exactly when j >= i, this is the maximum level; the
    divisibility characterization is what the tests verify.
    """
    levels = list(levels)
    if not levels:
        raise ValueError("refine needs a nonempty collection of levels")
    if any(i < 1 for i in levels):
        raise ValueError("levels must be >= 1")
    return max(levels)


def separates(vector, bound):
    """Smallest i with the vector outside i! * Z^(2g).

    For a nonzero vector with coordinates bounded by B this is at most
    B + 1, certifying at finite level that the chain has trivial
    intersection.
    """
    vector = tuple(int(v) for v in vector)
    if all(v == 0 for v in vector):
        raise ZeroVector("the zero vector lies in every chain subgroup")
    if any(abs(v) > bound for v in vector):
        raise ValueError("a coordinate exceeds the stated bound")
    i = 1
    while True:
        m = math.factorial(i)
        if any(v % m != 0 for v in vector):
            if i > bound + 1:
                raise ArithmeticError("separation exceeded the guaranteed bound")
            return i
        i += 1


def match_deck(tower, i, field=None, caps=DEFAULT_CAPS):
    """Compare the deck group of the level-i composite cover with (Z/i!)^(2g).

    The deck group's invariant factors are computed over the given
    finite-field realization, or over an automatically found full-i!-torsion
    field, with no generators; IncompleteTorsion propagates rather than ever
    producing a false positive.  The basis that finds the field is kept
    with it and also proves the deck group.
    """
    lattice = LatticeGroup(2 * tower.variety.dimension)
    composite = tower.compose_to_base(i)
    if field is None:
        field = full_torsion_field(tower.variety, composite.m, caps)
    deck = deck_invariant_factors(composite, field, caps)
    return deck == quotient(lattice, i, caps).group.invariant_factors
