"""The affine group law over F_{p^3} and F_{p^4} on plain ints, for ExtField._chord_tangent.

An ExtField of degree other than 2 imports this module when it is built, so
a process that meets only F_p and F_{p^2} never compiles it.
"""

from .fields import Field


def chord_tangent_3_4(K, a, P, Q):
    """K._chord_tangent for k = 3 and 4; the generic law for k = 1 and k >= 5."""
    k = K.degree
    p = K.base.p
    x1, y1 = P
    x2, y2 = Q
    if k == 3:
        (r0, r1, r2), (s0, s1, s2) = K._rows
        (_, f1, f2), (_, g1, g2), (_, h1, h2) = K._frobenius_rows
        (x10, x11, x12), (y10, y11, y12), (x20, x21, x22) = x1, y1, x2
        if x1 == x2:
            if y1 != y2 or not (y10 or y11 or y12):
                return None
            c3, c4 = 2 * x11 * x12, x12 * x12
            n0 = 3 * (x10 * x10 + c3 * r0 + c4 * s0) + a[0]
            n1 = 3 * (2 * x10 * x11 + c3 * r1 + c4 * s1) + a[1]
            n2 = 3 * (2 * x10 * x12 + x11 * x11 + c3 * r2 + c4 * s2) + a[2]
            d0, d1, d2 = 2 * y10, 2 * y11, 2 * y12
        else:
            y20, y21, y22 = y2
            n0, n1, n2 = y20 - y10, y21 - y11, y22 - y12
            d0, d1, d2 = x20 - x10, x21 - x11, x22 - x12
        # u = w^p and w = u d, from w = d: u = d^p, then d^(p + p^2),
        # and the last w is N, of which only the constant term w0 is formed
        w0, w1, w2 = d0, d1, d2
        for i in 0, 1:
            u0, u1, u2 = w0 + f1 * w1 + f2 * w2, g1 * w1 + g2 * w2, h1 * w1 + h2 * w2
            c3, c4 = u1 * d2 + u2 * d1, u2 * d2
            w0 = (u0 * d0 + c3 * r0 + c4 * s0) % p
            if not i:
                w1 = (u0 * d1 + u1 * d0 + c3 * r1 + c4 * s1) % p
                w2 = (u0 * d2 + u1 * d1 + u2 * d0 + c3 * r2 + c4 * s2) % p
        t = pow(w0, p - 2, p)
        # the slope n u / N
        c3, c4 = n1 * u2 + n2 * u1, n2 * u2
        l0 = (n0 * u0 + c3 * r0 + c4 * s0) * t % p
        l1 = (n0 * u1 + n1 * u0 + c3 * r1 + c4 * s1) * t % p
        l2 = (n0 * u2 + n1 * u1 + n2 * u0 + c3 * r2 + c4 * s2) * t % p
        c3, c4 = 2 * l1 * l2, l2 * l2
        x30 = (l0 * l0 + c3 * r0 + c4 * s0 - x10 - x20) % p
        x31 = (2 * l0 * l1 + c3 * r1 + c4 * s1 - x11 - x21) % p
        x32 = (2 * l0 * l2 + l1 * l1 + c3 * r2 + c4 * s2 - x12 - x22) % p
        e0, e1, e2 = x10 - x30, x11 - x31, x12 - x32
        c3, c4 = l1 * e2 + l2 * e1, l2 * e2
        return (
            (x30, x31, x32),
            (
                (l0 * e0 + c3 * r0 + c4 * s0 - y10) % p,
                (l0 * e1 + l1 * e0 + c3 * r1 + c4 * s1 - y11) % p,
                (l0 * e2 + l1 * e1 + l2 * e0 + c3 * r2 + c4 * s2 - y12) % p,
            ),
        )
    if k != 4:
        return Field._chord_tangent(K, a, P, Q)
    (r0, r1, r2, r3), (s0, s1, s2, s3), (t0, t1, t2, t3) = K._rows
    (_, f1, f2, f3), (_, g1, g2, g3), (_, h1, h2, h3), (_, q1, q2, q3) = K._frobenius_rows
    (x10, x11, x12, x13), (y10, y11, y12, y13), (x20, x21, x22, x23) = x1, y1, x2
    if x1 == x2:
        if y1 != y2 or not (y10 or y11 or y12 or y13):
            return None
        c4, c5, c6 = 2 * x11 * x13 + x12 * x12, 2 * x12 * x13, x13 * x13
        n0 = 3 * (x10 * x10 + c4 * r0 + c5 * s0 + c6 * t0) + a[0]
        n1 = 3 * (2 * x10 * x11 + c4 * r1 + c5 * s1 + c6 * t1) + a[1]
        n2 = 3 * (2 * x10 * x12 + x11 * x11 + c4 * r2 + c5 * s2 + c6 * t2) + a[2]
        n3 = 3 * (2 * (x10 * x13 + x11 * x12) + c4 * r3 + c5 * s3 + c6 * t3) + a[3]
        d0, d1, d2, d3 = 2 * y10, 2 * y11, 2 * y12, 2 * y13
    else:
        y20, y21, y22, y23 = y2
        n0, n1, n2, n3 = y20 - y10, y21 - y11, y22 - y12, y23 - y13
        d0, d1, d2, d3 = x20 - x10, x21 - x11, x22 - x12, x23 - x13
    # u = w^p and w = u d, from w = d: u = d^p, d^(p + p^2), d^(p + p^2 + p^3),
    # and the last w is N, of which only the constant term w0 is formed
    w0, w1, w2, w3 = d0, d1, d2, d3
    for i in 0, 1, 2:
        u0 = w0 + f1 * w1 + f2 * w2 + f3 * w3
        u1, u2 = g1 * w1 + g2 * w2 + g3 * w3, h1 * w1 + h2 * w2 + h3 * w3
        u3 = q1 * w1 + q2 * w2 + q3 * w3
        c4, c5, c6 = u1 * d3 + u2 * d2 + u3 * d1, u2 * d3 + u3 * d2, u3 * d3
        w0 = (u0 * d0 + c4 * r0 + c5 * s0 + c6 * t0) % p
        if i < 2:
            w1 = (u0 * d1 + u1 * d0 + c4 * r1 + c5 * s1 + c6 * t1) % p
            w2 = (u0 * d2 + u1 * d1 + u2 * d0 + c4 * r2 + c5 * s2 + c6 * t2) % p
            w3 = (u0 * d3 + u1 * d2 + u2 * d1 + u3 * d0 + c4 * r3 + c5 * s3 + c6 * t3) % p
    t = pow(w0, p - 2, p)
    # the slope n u / N
    c4, c5, c6 = n1 * u3 + n2 * u2 + n3 * u1, n2 * u3 + n3 * u2, n3 * u3
    l0 = (n0 * u0 + c4 * r0 + c5 * s0 + c6 * t0) * t % p
    l1 = (n0 * u1 + n1 * u0 + c4 * r1 + c5 * s1 + c6 * t1) * t % p
    l2 = (n0 * u2 + n1 * u1 + n2 * u0 + c4 * r2 + c5 * s2 + c6 * t2) * t % p
    l3 = (n0 * u3 + n1 * u2 + n2 * u1 + n3 * u0 + c4 * r3 + c5 * s3 + c6 * t3) * t % p
    c4, c5, c6 = 2 * l1 * l3 + l2 * l2, 2 * l2 * l3, l3 * l3
    x30 = (l0 * l0 + c4 * r0 + c5 * s0 + c6 * t0 - x10 - x20) % p
    x31 = (2 * l0 * l1 + c4 * r1 + c5 * s1 + c6 * t1 - x11 - x21) % p
    x32 = (2 * l0 * l2 + l1 * l1 + c4 * r2 + c5 * s2 + c6 * t2 - x12 - x22) % p
    x33 = (2 * (l0 * l3 + l1 * l2) + c4 * r3 + c5 * s3 + c6 * t3 - x13 - x23) % p
    e0, e1, e2, e3 = x10 - x30, x11 - x31, x12 - x32, x13 - x33
    c4, c5, c6 = l1 * e3 + l2 * e2 + l3 * e1, l2 * e3 + l3 * e2, l3 * e3
    return (
        (x30, x31, x32, x33),
        (
            (l0 * e0 + c4 * r0 + c5 * s0 + c6 * t0 - y10) % p,
            (l0 * e1 + l1 * e0 + c4 * r1 + c5 * s1 + c6 * t1 - y11) % p,
            (l0 * e2 + l1 * e1 + l2 * e0 + c4 * r2 + c5 * s2 + c6 * t2 - y12) % p,
            (l0 * e3 + l1 * e2 + l2 * e1 + l3 * e0 + c4 * r3 + c5 * s3 + c6 * t3 - y13) % p,
        ),
    )
