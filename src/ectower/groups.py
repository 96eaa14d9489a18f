"""Finite abelian groups in invariant-factor form, with generator witnesses.

The structure algorithms here work on explicit element lists together with
the group operations passed in as functions, so they serve both full point
groups of curves over finite fields (rank at most 2) and torsion kernels of
covering maps (full rank handled factor by factor, then recombined).
"""

import math


def divisors(n):
    """Sorted list of positive divisors."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def factorize(n, limit=None):
    """Trial-division factorization as {prime: exponent}.

    With a limit, trial division stops above it: a cofactor with no prime
    factor up to the limit is then returned as one key, prime or not, and
    exceeds the limit.
    """
    out = {}
    d = 2
    while d * d <= n and (limit is None or d <= limit):
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class FiniteAbelianGroup:
    """Z/d1 x ... x Z/dr with d1 | d2 | ... | dr, all di > 1.

    The trivial group has an empty factor tuple.  Generators, when present,
    must be parallel to the given factors (ValueError otherwise); those of
    unit factors are dropped with them.  They are witnesses in whatever
    ambient group the object describes (curve points, product points, ...).
    """

    __slots__ = ("invariant_factors", "generators")

    def __init__(self, invariant_factors, generators=None):
        raw = tuple(int(d) for d in invariant_factors)
        factors = tuple(d for d in raw if d != 1)
        for d in factors:
            if d < 1:
                raise ValueError("invariant factors must be positive")
        for a, b in zip(factors, factors[1:]):
            if b % a != 0:
                raise ValueError("invariant factors must form a divisibility chain")
        if generators is not None:
            generators = tuple(generators)
            if len(generators) != len(raw):
                raise ValueError("generators must be parallel to the invariant factors")
            generators = tuple(g for d, g in zip(raw, generators) if d != 1)
        object.__setattr__(self, "invariant_factors", factors)
        object.__setattr__(self, "generators", generators)

    def __setattr__(self, name, value):
        raise AttributeError("FiniteAbelianGroup is immutable")

    @classmethod
    def trivial(cls):
        return cls(())

    @property
    def order(self):
        return math.prod(self.invariant_factors)

    @property
    def is_trivial(self):
        return not self.invariant_factors

    def describe(self, rank=None):
        """Render like '(Z/2)^2' or 'Z/2 x Z/6'; pad with unit factors up to rank."""
        factors = list(self.invariant_factors)
        if rank is not None and len(factors) < rank:
            factors = [1] * (rank - len(factors)) + factors
        if not factors:
            return "trivial"
        parts = []
        i = 0
        while i < len(factors):
            j = i
            while j < len(factors) and factors[j] == factors[i]:
                j += 1
            count = j - i
            if count == 1:
                parts.append("Z/%d" % factors[i])
            else:
                parts.append("(Z/%d)^%d" % (factors[i], count))
            i = j
        return " x ".join(parts)

    def __eq__(self, other):
        if not isinstance(other, FiniteAbelianGroup):
            return NotImplemented
        return self.invariant_factors == other.invariant_factors

    def __hash__(self):
        return hash(self.invariant_factors)

    def __repr__(self):
        return "FiniteAbelianGroup(%r)" % (self.invariant_factors,)


def scale(n, x, add, neg, identity):
    """n*x by double-and-add using the supplied group operations."""
    if n < 0:
        return scale(-n, neg(x), add, neg, identity)
    acc = identity
    base = x
    while n:
        if n & 1:
            acc = add(acc, base)
        base = add(base, base)
        n >>= 1
    return acc


def element_orders(elements, add, identity):
    """Exact order of every element of a finite group, as {element: order}.

    The input must be the complete element list.  For the first element x
    whose order is still unknown, the walk x, 2x, ... up to the identity
    gives d = ord(x) and ord(k*x) = d / gcd(k, d) for every multiple walked.
    Each walk reaches the generators of a cyclic subgroup no earlier walk
    reached, so the total number of additions is O(|G| log log |G|).
    """
    n = len(elements)
    orders = {}
    for x in elements:
        if x in orders:
            continue
        multiples = [x]
        while multiples[-1] != identity:
            if len(multiples) >= n:
                raise ArithmeticError("element order does not divide the group order")
            multiples.append(add(multiples[-1], x))
        d = len(multiples)
        if n % d != 0:
            raise ArithmeticError("element order does not divide the group order")
        for k, y in enumerate(multiples, 1):
            orders[y] = d // math.gcd(k, d)
    return orders


def structure_rank2(elements, add, neg, identity):
    """Invariant factors and generators of an abelian group of rank <= 2.

    The input must be the complete element list of the group.  Point groups
    of elliptic curves over finite fields and their torsion kernels are
    Z/d1 x Z/d2 with d1 | d2, which this exploits: the exponent is the
    largest element order, and a complement generator is found by scanning
    for an element of order d1 meeting the exponent's cyclic subgroup only
    in the identity.
    """
    n = len(elements)
    if n == 1:
        return FiniteAbelianGroup.trivial()
    orders = element_orders(elements, add, identity)
    g2 = max(elements, key=lambda x: (orders[x], _stable_key(x)))
    d2 = orders[g2]
    if d2 == n:
        return FiniteAbelianGroup((n,), (g2,))
    if n % d2 != 0:
        raise ArithmeticError("exponent does not divide the group order")
    d1 = n // d2
    if d2 % d1 != 0:
        raise ArithmeticError("group is not of rank <= 2")
    cyclic = set()
    acc = identity
    for _ in range(d2):
        cyclic.add(acc)
        acc = add(acc, g2)
    for g1 in sorted(elements, key=_stable_key):
        if orders[g1] != d1:
            continue
        acc = add(identity, g1)
        independent = True
        for _ in range(d1 - 1):
            if acc in cyclic:
                independent = False
                break
            acc = add(acc, g1)
        if independent:
            return FiniteAbelianGroup((d1, d2), (g1, g2))
    raise ArithmeticError("no complement generator found")  # rank > 2 input


def _stable_key(x):
    key = getattr(x, "sort_key", None)
    if key is not None:
        return key()
    return repr(x)


def combine_structures(parts, add, neg, identity):
    """Structure of a direct product from per-factor structures.

    Each part is a FiniteAbelianGroup whose generators (required unless the
    part is trivial) already live in the common ambient group.  Every cyclic
    summand is split into prime-power summands, whose generators are then
    recombined across coprime orders by summation.
    """
    primary = []  # (prime, exponent, generator)
    for part in parts:
        gens = part.generators or ()
        if part.invariant_factors and not gens:
            raise ValueError("non-trivial parts need generator witnesses")
        for d, g in zip(part.invariant_factors, gens):
            for p, e in factorize(d).items():
                q = p**e
                primary.append((p, e, scale(d // q, g, add, neg, identity)))
    by_prime = {}
    for p, e, g in primary:
        by_prime.setdefault(p, []).append((e, g))
    for lst in by_prime.values():
        lst.sort(key=lambda t: (-t[0], _stable_key(t[1])))
    depth = max((len(v) for v in by_prime.values()), default=0)
    factors, gens = [], []
    for level in range(depth):
        f = 1
        g = identity
        for p, lst in sorted(by_prime.items()):
            if level < len(lst):
                e, gen = lst[level]
                f *= p**e
                g = add(g, gen)
        factors.append(f)
        gens.append(g)
    factors.reverse()
    gens.reverse()
    return FiniteAbelianGroup(tuple(factors), tuple(gens))
