"""Independent oracles used to cross-check the package.

Everything here is deliberately self-contained: plain tuples for points,
fractions.Fraction for coordinates, plain-int polynomial arithmetic for
F_{p^k}, and naive search everywhere.  None of it imports the package under
test, so agreement between the two paths is a real check and not a tautology.

Points are None (infinity) or (Fraction x, Fraction y) on y^2 = x^3 + ax + b.
"""

import itertools
import math
from fractions import Fraction


def on_curve(a, b, P):
    if P is None:
        return True
    x, y = P
    return y * y == x * x * x + a * x + b


def o_neg(P):
    if P is None:
        return None
    return (P[0], -P[1])


def o_add(a, b, P, Q):
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if y1 != y2 or y1 == 0:
            return None
        lam = (3 * x1 * x1 + a) / (2 * y1)
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam - x1 - x2
    y3 = lam * (x1 - x3) - y1
    return (x3, y3)


def boxed_add(curve, P, Q):
    """P + Q on a curve's own points by the affine formula in boxed field elements.

    The reference for the curve's raw-value group law: every step is an
    operator on the package's field elements, and the result is built with
    the points' own type, so no raw value or raw method is involved.
    """
    if P.is_infinity:
        return Q
    if Q.is_infinity:
        return P
    if P.x == Q.x:
        if P.y != Q.y or not P.y:
            return curve.identity()
        lam = (3 * P.x * P.x + curve.a) / (2 * P.y)
    else:
        lam = (Q.y - P.y) / (Q.x - P.x)
    x3 = lam * lam - P.x - Q.x
    y3 = lam * (P.x - x3) - P.y
    return type(P)(x3, y3)


def mazur_walk(curve, P):
    """(order, evidence) of the Mazur walk, by adding P to itself up to twelve times.

    The reference for the walk from division values: the first m <= 12 with
    m*P = O, skipping 11, or None; evidence is (m, m*P) for every Mazur order
    m passed before.  It works on any variety and on points off the curve.
    """
    evidence = []
    acc = curve.identity()
    for m in range(1, 13):
        acc = curve._add_unchecked(acc, P)
        if m == 11:
            continue
        if acc.is_infinity:
            return m, evidence
        evidence.append((m, acc))
    return None, evidence


def o_mul(a, b, n, P):
    if n < 0:
        return o_mul(a, b, -n, o_neg(P))
    acc = None
    for _ in range(n):
        acc = o_add(a, b, acc, P)
    return acc


def o_order(a, b, P, cap=200):
    """Order of P if at most cap, else None (treated as infinite at desk scale)."""
    acc = P
    for n in range(1, cap + 1):
        if acc is None:
            return n
        acc = o_add(a, b, acc, P)
    return None


def nagell_lutz_torsion(a, b):
    """Full rational torsion of y^2 = x^3 + ax + b with integer a, b.

    Candidates are integral points with y = 0 or y^2 | 16*(4a^3 + 27b^2);
    each candidate is confirmed by checking that some multiple m*P with
    m in {1..10, 12} is the identity (Mazur).  Returns a set of oracle points
    including None for the identity.
    """
    assert isinstance(a, int) and isinstance(b, int)
    bound = 16 * abs(4 * a**3 + 27 * b**2)
    assert bound != 0
    ys = {0}
    y = 1
    while y * y <= bound:
        if bound % (y * y) == 0:
            ys.add(y)
        y += 1
    torsion = {None}
    for y in sorted(ys):
        for x in range(-_cube_bound(a, b, y), _cube_bound(a, b, y) + 1):
            if x**3 + a * x + b == y * y:
                for yy in ({0} if y == 0 else {y, -y}):
                    P = (Fraction(x), Fraction(yy))
                    if _is_torsion(a, b, P):
                        torsion.add(P)
    return torsion


def _cube_bound(a, b, y):
    # an integer root has |x|^3 <= |y^2 - b| + |a||x|, hence x^2 <= |y^2 - b| + |a|
    import math

    return math.isqrt(abs(y * y - b) + abs(a)) + 1


def _is_torsion(a, b, P):
    for m in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12):
        if o_mul(a, b, m, P) is None:
            return True
    return False


def brute_force_witness_exists(torsion_points, diffs, add, neg, scalar):
    """Exhaustive search for translation sequences with t0 = identity.

    diffs[i-1] is the level-i difference d_i; a sequence (t_1..t_N) over the
    torsion points is a witness when t_{i-1} = i*t_i + (i-1)*d_i holds for
    every i with t_0 = identity.  Group operations are supplied by the caller
    so this stays independent of how points are represented.
    """
    N = len(diffs)
    identity = scalar(0, torsion_points[0])
    for seq in itertools.product(torsion_points, repeat=N):
        ts = (identity,) + seq
        ok = True
        for i in range(1, N + 1):
            lhs = ts[i - 1]
            rhs = add(scalar(i, ts[i]), scalar(i - 1, diffs[i - 1]))
            if lhs != rhs:
                ok = False
                break
        if ok:
            return True
    return False


def fp_point_count(p, a, b):
    """#E(F_p) for y^2 = x^3 + ax + b, by a double loop over all (x, y)."""
    return 1 + sum(
        1 for x in range(p) for y in range(p) if (y * y - x**3 - a * x - b) % p == 0
    )


def divisor_scan_order(x, add, identity, group_order):
    """Order of x as the least divisor d of the group order with d*x = identity.

    Each candidate multiple is formed by double-and-add with the supplied
    addition, so this shares no logic with a walk along x, 2x, 3x, ...
    """
    for d in range(1, group_order + 1):
        if group_order % d == 0 and _double_and_add(d, x, add, identity) == identity:
            return d
    raise ArithmeticError("element order does not divide the group order")


def _double_and_add(n, x, add, identity):
    acc = identity
    while n:
        if n & 1:
            acc = add(acc, x)
        x = add(x, x)
        n >>= 1
    return acc


def unrolled_t0(V, diffs, t_last):
    """t_0 from the closed form N!*t_N + sum (i-1)!*(i-1)*d_i.

    The closed form of the level recurrence, evaluated with the variety's
    own scalar_mul and add, so it shares no loop with back substitution.
    """
    N = len(diffs)
    acc = V.scalar_mul(math.factorial(N), t_last)
    for i in range(1, N + 1):
        acc = V.add(acc, V.scalar_mul(math.factorial(i - 1) * (i - 1), diffs[i - 1]))
    return acc


def exhaustive_fiber(f, z, K):
    """Preimages of z under f: y -> m*y + c over the field K, sorted.

    A whole-variety scan: the map's variety, constant and target are
    realized over K through the objects' own constructors and embeddings,
    every point of the realized variety (a product's full enumeration, not
    factor by factor) goes through the checked group law, and the hits are
    sorted.
    """

    def point(V, P):
        return V.assemble(
            [q if q.is_infinity else type(q)(K.element(q.x), K.element(q.y)) for q in V.split(P)]
        )

    V = f.variety
    VK = V.from_factors([type(c)(K, K.element(c.a), K.element(c.b)) for c in V.factors])
    c, target = point(V, f.c), point(V, z)
    hits = [
        y
        for y in VK.enumerate_points()
        if VK.add(VK.scalar_mul(f.multiplier, y), c) == target
    ]
    return sorted(hits, key=lambda P: P.sort_key())


# F_{p^k} as plain-int polynomial arithmetic: elements are coefficient tuples,
# constant term first, reduced modulo the monic modulus f by long division and
# inverted by the extended Euclidean algorithm.


def poly_trim(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_mul(f, g, p):
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return poly_trim(out)


def poly_mod(f, m, p):
    """Remainder of f modulo the monic polynomial m."""
    r = list(f)
    dm = len(m) - 1
    while len(r) - 1 >= dm and poly_trim(r):
        lead = r[-1] % p
        shift = len(r) - 1 - dm
        if lead:
            for i in range(dm + 1):
                r[shift + i] = (r[shift + i] - lead * m[i]) % p
        r.pop()
    return poly_trim(r)


def _poly_sub(f, g, p):
    n = max(len(f), len(g))
    out = [0] * n
    for i in range(n):
        a = f[i] if i < len(f) else 0
        b = g[i] if i < len(g) else 0
        out[i] = (a - b) % p
    return poly_trim(out)


def _poly_divmod(f, g, p):
    r = list(f)
    dg = len(g) - 1
    ginv = pow(g[-1], p - 2, p)
    q = [0] * max(len(f) - dg, 0)
    while len(r) - 1 >= dg and poly_trim(r):
        lead = r[-1] * ginv % p
        shift = len(r) - 1 - dg
        if lead:
            q[shift] = lead
            for i in range(dg + 1):
                r[shift + i] = (r[shift + i] - lead * g[i]) % p
        r.pop()
    return poly_trim(q), poly_trim(r)


def _poly_inverse(a, m, p):
    """s with s*a = 1 mod m over F_p[x], or None when gcd(a, m) != 1.

    The extended Euclidean algorithm, carrying only the cofactor of a.
    """
    r0, r1 = poly_trim(a), poly_trim(m)
    s0, s1 = (1,), ()
    while r1:
        q, r = _poly_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_sub(s0, poly_mul(q, s1, p), p)
    if len(r0) != 1:
        return None
    inv = pow(r0[0], p - 2, p)
    return tuple(c * inv % p for c in s0)


def fq_add(a, b, p):
    return tuple((x + y) % p for x, y in zip(a, b))


def fq_sub(a, b, p):
    return tuple((x - y) % p for x, y in zip(a, b))


def fq_neg(a, p):
    return tuple((p - x) % p for x in a)


def _fq_pad(c, f):
    k = len(f) - 1
    return tuple(c) + (0,) * (k - len(c))


def fq_mul(a, b, f, p):
    """a*b in F_p[x]/(f), as a tuple of length deg f."""
    return _fq_pad(poly_mod(poly_mul(a, b, p), f, p), f)


def fq_inv(a, f, p):
    """The inverse of a nonzero a in F_p[x]/(f) with f irreducible."""
    s = _poly_inverse(a, f, p)
    if s is None:
        raise ZeroDivisionError("not invertible modulo f")
    return _fq_pad(poly_mod(s, f, p), f)


def fq_pow(a, n, f, p):
    """a^n in F_p[x]/(f): n multiplications from 1, through the inverse for n < 0."""
    if n < 0:
        return fq_pow(fq_inv(a, f, p), -n, f, p)
    acc = _fq_pad(poly_mod((1,), f, p), f)
    for _ in range(n):
        acc = fq_mul(acc, a, f, p)
    return acc


def fq_point_add(a, P, Q, f, p):
    """P + Q on y^2 = x^3 + a*x + b over F_p[x]/(f), by the affine formula in fq_* arithmetic.

    Points are None (infinity) or (x, y) coefficient tuples of length deg f,
    and a is one too; F_p itself is f = (0, 1), with 1-tuples.
    """
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2:
        if y1 != y2 or not any(y1):
            return None
        three, two = _fq_pad((3 % p,), f), _fq_pad((2 % p,), f)
        num = fq_add(fq_mul(three, fq_mul(x1, x1, f, p), f, p), a, p)
        lam = fq_mul(num, fq_inv(fq_mul(two, y1, f, p), f, p), f, p)
    else:
        lam = fq_mul(fq_sub(y2, y1, p), fq_inv(fq_sub(x2, x1, p), f, p), f, p)
    x3 = fq_sub(fq_sub(fq_mul(lam, lam, f, p), x1, p), x2, p)
    y3 = fq_sub(fq_mul(lam, fq_sub(x1, x3, p), f, p), y1, p)
    return (x3, y3)


def fq_points(a, b, f, p):
    """Every point of y^2 = x^3 + a*x + b over F_p[x]/(f): None, then (x, y) ascending.

    a and b are coefficient tuples of length deg f; F_p itself is f = (0, 1).
    A table of squares in fq_* arithmetic, and every x looked up in it.
    """
    values = sorted(itertools.product(range(p), repeat=len(f) - 1))
    roots = {}
    for y in values:
        roots.setdefault(fq_mul(y, y, f, p), []).append(y)
    points = [None]
    for x in values:
        rhs = fq_add(fq_mul(fq_add(fq_mul(x, x, f, p), a, p), x, f, p), b, p)
        points.extend((x, y) for y in sorted(roots.get(rhs, ())))
    return points


def find_certificates(obj, path="$"):
    """Every dict holding a string "certificate", with its JSON path.

    The plain recursion: it formats a path for every node and descends into
    every value, scalars included.
    """
    found = []
    if isinstance(obj, dict):
        if "certificate" in obj and isinstance(obj["certificate"], str):
            found.append((path, obj))
        for key in sorted(obj):
            found.extend(find_certificates(obj[key], "%s.%s" % (path, key)))
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            found.extend(find_certificates(item, "%s[%d]" % (path, i)))
    return found
