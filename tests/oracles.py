"""Independent oracles used to cross-check the package.

Everything here is deliberately self-contained: plain tuples for points,
fractions.Fraction for coordinates, and naive search everywhere.  None of it
imports the package under test, so agreement between the two paths is a real
check and not a tautology.

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
