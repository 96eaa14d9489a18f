"""E(K)'s torsion structure from seeded draws, and the deck generators read off a basis of E[m].

A curve over a finite field K has E(K) = Z/d1 x Z/d2 with d1 | d2.
torsion_structure finds d1 and a basis of E[d1] = E(K)[d1] once per curve,
Sylow part by Sylow part; every E[m] inside E(K) is then read off it
(towers._basis).  torsion_generators and scanned_generators turn a basis of
E[m], or E(K) itself, into structure_rank2's canonical generators.
towers imports this module on first use, so a process that builds no basis
never compiles it.
"""

import itertools
import math
import random

from .groups import factorize

# x-coordinates torsion_structure draws before it leaves the curve to towers._kernel
BASIS_DRAWS = 64


def torsion_structure(curve, order):
    """(d1, P, Q) with E(K) = Z/d1 x Z/(order/d1) and raw P, Q spanning E[d1]; None undecided.

    order is #E(K).  E[q] lies in E(K) only when q | #K - 1 (Weil pairing)
    and q^2 | #E(K), so every other Sylow part is cyclic and adds nothing
    to d1.  For each remaining q, seeded draws (x at random, y by
    Tonelli-Shanks) give q-primary points ((order/q^v)R, v = v_q(order)),
    which _SylowPart builds into P_q, Q_q with E(K)[q^oo] = <P_q> + <Q_q>
    = Z/q^a x Z/q^b, b <= a.  Then d1 is the product of the q^b, and
    P = sum q^(a-b) P_q, Q = sum Q_q span E[d1].  Gives None when
    BASIS_DRAWS draws leave some Sylow part uncertified.
    """
    K = curve.field
    mul = curve._scalar_mul_raw
    parts = [
        _SylowPart(curve, q, v)
        for q, v in sorted(factorize(order).items())
        if v > 1 and (K.size - 1) % q == 0
    ]
    rng = random.Random(0)
    a, b = curve.a.value, curve.b.value
    pending, draws = parts, 0
    while pending:
        if draws == BASIS_DRAWS:
            return None
        draws += 1
        x = K._random(rng)
        y = K._sqrt(K._add(K._mul(K._add(K._mul(x, x), a), x), b))
        if y is None:
            continue
        for part in pending:
            part.offer(mul(order // part.q**part.v, (x, y)))
        pending = [part for part in pending if part.a + part.b < part.v]
    d1, P, Q = 1, None, None
    for part in parts:
        if part.b:  # a cyclic part adds nothing to E[d1]
            part.certify()
            d1 *= part.q**part.b
            P = curve._add_raw(P, part.powers[part.a - part.b])
            Q = curve._add_raw(Q, part.Q)
    return d1, P, Q


class _SylowPart:
    """<P> + <Q> = Z/q^a x Z/q^b inside E(K)[q^oo] = Z/q^v, grown by offer until a + b = v.

    P, kept with its multiples P, qP, ..., q^a P = O, always has the largest
    order met so far, q^a.  A point T of order q^t <= q^a is reduced against
    it: take s least with q^s T = xP.  Then q^s | x, as
    ord(xP) = q^(a - v_q(x)) is ord(q^s T) = q^(t-s), so
    v_q(x) = s + a - t >= s, and T' = T - (x/q^s)P has order q^s.
    q^(s-1)T' is outside <P>, since q^(s-1)T is, so <T'> meets <P> only in
    O, and T' becomes Q when s > b.  x is a discrete log in <P>, found digit
    by digit in base q (Pohlig and Hellman, IEEE Trans. IT 24, 1978), each
    digit by baby-step giant-step in the order-q group of q^(a-1)P.
    """

    __slots__ = ("curve", "q", "v", "powers", "a", "Q", "b", "baby", "giant", "steps")

    def __init__(self, curve, q, v):
        self.curve, self.q, self.v = curve, q, v
        self.powers = self.Q = self.baby = None
        self.a = self.b = 0

    def offer(self, T):
        """Grow <P> + <Q> with the q-primary point T, where T enlarges it."""
        q, curve = self.q, self.curve
        chain = [T]  # T, qT, ..., O; t <= v unless the group law is wrong
        while chain[-1] is not None:
            if len(chain) > self.v:
                raise ArithmeticError(
                    "%d^%d does not kill a point of %d-power order" % (q, self.v, q)
                )
            chain.append(curve._scalar_mul_raw(q, chain[-1]))
        t = len(chain) - 1
        if t > self.a:
            self.powers, self.a, self.Q, self.b, self.baby = chain, t, None, 0, None
            return
        s, x = t, 0  # q^s T = xP
        while s > self.b:
            y = self.log(chain[s - 1], t - s + 1)
            if y is None:
                break
            s, x = s - 1, y
        if s > self.b:
            if x % q**s:
                raise ArithmeticError("a %d-power point outside the larger cyclic part" % q)
            R = curve._scalar_mul_raw(x // q**s, self.powers[0])
            self.Q = curve._add_raw(T, curve._neg_raw(R))
            self.b = s

    def _digit(self, R):
        """d < q with R = d q^(a-1) P, or None when R is outside that group of order q.

        Baby-step giant-step: the steps j q^(a-1) P, j < r with r^2 >= q, are
        built on first use for each P.
        """
        curve = self.curve
        if self.baby is None:
            u, r = self.powers[self.a - 1], math.isqrt(self.q - 1) + 1
            self.baby, acc = {}, None
            for j in range(r):
                self.baby[acc] = j
                acc = curve._add_raw(acc, u)
            self.giant, self.steps = curve._neg_raw(acc), -(-self.q // r)
        r = len(self.baby)
        for i in range(self.steps):
            j = self.baby.get(R)
            if j is not None:
                return i * r + j
            R = curve._add_raw(R, self.giant)
        return None

    def log(self, U, j):
        """x with xP = U, U of order dividing q^j <= q^a, or None when U is outside <P>."""
        q, a, curve = self.q, self.a, self.curve
        x = 0
        for i in range(a - j, a):
            if U is None:
                break
            d = self._digit(curve._scalar_mul_raw(q ** (a - 1 - i), U))
            if d is None:
                return None
            if d:
                U = curve._add_raw(U, curve._neg_raw(curve._scalar_mul_raw(d, self.powers[i])))
                x += d * q**i
        return x

    def certify(self):
        """Check ord(Q) = q^b and q^(b-1)Q outside <q^(a-1)P>, for b > 0.

        ord(P) = q^a is the length of its chain in offer.  With a + b = v,
        <P> + <Q> is then the whole Sylow part.
        """
        u = self.curve._scalar_mul_raw(self.q ** (self.b - 1), self.Q)
        if self.curve._scalar_mul_raw(self.q, u) is not None or self._digit(u) is not None:
            raise ArithmeticError(
                "sampled %d-parts do not span the Sylow %d-subgroup" % (self.q, self.q)
            )


def multiples(curve, u, q):
    """{O, u, 2u, ..., (q-1)u} on raw values."""
    out = {None}
    acc = None
    for _ in range(q - 1):
        acc = curve._add_raw(acc, u)
        out.add(acc)
    return out


def torsion_generators(curve, m, P, Q):
    """structure_rank2's generators (g1, g2) of E[m] = {aP + bQ}, as Points.

    ord(aP + bQ) = m / gcd(a, b, m), so aP + bQ has order m exactly when
    (a, b) is nonzero mod every prime q | m, and two such elements generate
    E[m] exactly when their determinant is a unit mod m: when their
    reductions lie on different lines of F_q^2 for every q.  One pass over
    the m^2 grid keeps g2, the largest element of order m, and the smallest
    element of order m on each tuple of lines; g1 is the smallest of those
    whose lines all differ from g2's.  Raw pairs compare as Point.sort_key
    orders affine points.  The pass walks rows a <= m/2 only: for 0 < a < m - a,
    -(aP + bQ) = (m - a)P + (m - b)Q lies on the same lines, so negating a
    row offers row m - a, and every grid element is offered exactly once.
    """
    primes = sorted(factorize(m))
    r = math.prod(primes)
    classes = list(itertools.product(*[range(q + 1) for q in primes]))
    index = {c: i for i, c in enumerate(classes)}

    def line_class(a, b):
        # the line through (a, b) mod q is (1 : b/a), or (0 : 1) = q when a = 0
        lines = []
        for q in primes:
            a_q, b_q = a % q, b % q
            if not a_q and not b_q:
                return None
            lines.append(b_q * pow(a_q, -1, q) % q if a_q else q)
        return index[tuple(lines)]

    table = [[line_class(a, b) for b in range(r)] for a in range(r)]
    add, neg = curve._add_raw, curve._neg_raw
    smallest = [None] * len(classes)
    g2 = g2_class = None
    row = None  # aP
    for a in range(m // 2 + 1):
        row_classes = table[a % r]
        mirrored = 0 < a < m - a
        R = row  # aP + bQ
        for b in range(m):
            c = row_classes[b % r]
            if c is not None:
                if g2 is None or R > g2:
                    g2, g2_class = R, c
                if smallest[c] is None or R < smallest[c]:
                    smallest[c] = R
                if mirrored:
                    S = neg(R)
                    if S > g2:
                        g2, g2_class = S, c
                    if S < smallest[c]:
                        smallest[c] = S
            if b < m - 1:
                R = add(R, Q)
        row = add(row, P)
    g1 = min(
        s
        for c, s in zip(classes, smallest)
        if s is not None and all(x != y for x, y in zip(c, classes[g2_class]))
    )
    return curve._box(g1), curve._box(g2)


def scanned_generators(curve, m):
    """torsion_generators' (g1, g2) for a curve whose E[m] lies in E(K), with no grid.

    g2 is the largest point of order m and g1 the smallest whose line mod
    every q | m differs from g2's: (m/q)g1 outside <(m/q)g2>, since (m/q)
    maps aP + bQ to the point of E[q] on the line (a : b) mod q.  So a walk
    of E(K) in sort order from the top finds g2, one from the bottom g1,
    and where E[m] is most of E(K) each stops after a few points.  x runs
    through K's values, each y by Tonelli-Shanks where K's square test
    passes.  -R has R's order and lines, so each x offers only its root
    that comes first in the walk.
    Where E[m] is all of E(K), almost every point has mR = O, so the images
    (m/q)R are read off S = (m/r)R, r the product of the q, with few
    additions past the mR = rS that every point needs.
    """
    K, a, b = curve.field, curve.a.value, curve.b.value
    p, ext = K.characteristic, K.base is not None
    k = K.degree if ext else 1
    mul, primes = curve._scalar_mul_raw, sorted(factorize(m))
    r = math.prod(primes)

    def walk(top):
        digits = range(p)[:: -1 if top else 1]
        for x in itertools.product(digits, repeat=k) if ext else digits:
            rhs = K._add(K._mul(K._add(K._mul(x, x), a), x), b)
            if K._is_square(rhs):
                y = K._sqrt(rhs)
                yield x, (max if top else min)(y, K._neg(y))

    def order_m(R):
        # R's images (m/q)R = (r/q)S in E[q] when R has order m, else None
        S = mul(m // r, R)
        if mul(r, S) is None:
            images = [mul(r // q, S) for q in primes]
            if None not in images:
                return images

    g2 = next(R for R in walk(True) if order_m(R))
    lines = [multiples(curve, u, q) for u, q in zip(order_m(g2), primes)]
    g1 = next(
        R for R in walk(False)
        if (images := order_m(R)) and all(u not in w for u, w in zip(images, lines))
    )
    return curve._box(g1), curve._box(g2)
