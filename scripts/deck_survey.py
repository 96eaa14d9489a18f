#!/usr/bin/env python3
"""Survey deck groups of the tower over y^2 = x^3 + 1 / F_5, levels 1..4.

For each level the script finds the smallest extension field carrying the
full torsion of the level map and of the composite map down to the base,
prints both deck groups, and checks the composite one against the matching
factorial lattice quotient; a mismatch stops the survey with exit code 1.  A
level whose torsion field lies beyond the caps stops it with exit code 3 and
the reason on stderr.  --field-cap N raises or lowers the finite-field size
cap to N, as the CLI's flag of that name does:

    python3 scripts/deck_survey.py --p 201599 --levels 8 --field-cap 100000000000
"""

import argparse
import sys
import time

from ectower import (
    Caps,
    EllipticCurve,
    FiniteAbelianGroup,
    LatticeGroup,
    Point,
    PrimeField,
    Tower,
    full_torsion_field,
    quotient,
)
from ectower.errors import BoundExceeded, IncompleteTorsion
from ectower.towers import deck_invariant_factors

# level, step deck, its field, composite deck, its field, match
COLUMNS = "%-6s %-14s %-*s %-14s %-*s %-8s"


def field_width(p, cap):
    """The field columns' width: 12, or the longest label F_p^k with p^k within the cap.

    Every field the survey finds has such a label, so the columns line up;
    tables whose labels fit in 12 characters keep their bytes.
    """
    k = 1
    while p ** (k + 1) <= cap:
        k += 1
    return max(12, len("F_%d^%d" % (p, k) if k > 1 else "F_%d" % p))


def line(width, level, step, step_field, comp, comp_field, match):
    """One table line, the field columns width characters wide."""
    return COLUMNS % (level, step, width, step_field, comp, width, comp_field, match)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--levels", type=int, default=4)
    parser.add_argument("--p", type=int, default=5)
    parser.add_argument("--field-cap", type=int, default=None, help="finite field size cap")
    args = parser.parse_args()
    if args.field_cap is not None and args.field_cap < 2:
        parser.error("--field-cap must be at least 2")
    caps = Caps() if args.field_cap is None else Caps(field_size=args.field_cap)

    field = PrimeField(args.p, caps)
    curve = EllipticCurve(field, 0, 1)
    O = Point.infinity()
    pts = [P for P in curve.enumerate_points(caps) if not P.is_infinity]
    tower = Tower(curve, O, [O] + [pts[i % len(pts)] for i in range(args.levels)])
    lattice = LatticeGroup(2)

    print("base: y^2 = x^3 + 1 over F_%d, tower N = %d" % (args.p, args.levels))
    width = field_width(args.p, caps.field_size)
    header = line(width, "level", "step deck", "field", "composite", "field", "match")
    print(header)
    print("-" * len(header))
    for i in range(1, args.levels + 1):
        start = time.perf_counter()
        try:
            step_field = full_torsion_field(curve, i, caps)
            step = FiniteAbelianGroup(
                deck_invariant_factors(tower.level_map(i), field=step_field, caps=caps)
            )
            composite = tower.compose_to_base(i)
            comp_field = full_torsion_field(curve, composite.m, caps)
            comp = FiniteAbelianGroup(deck_invariant_factors(composite, field=comp_field, caps=caps))
            expected = quotient(lattice, i, caps).group
        except (BoundExceeded, IncompleteTorsion) as exc:
            print("level %d refused: %s" % (i, exc), file=sys.stderr)
            sys.exit(3)
        elapsed = time.perf_counter() - start
        agrees = comp.invariant_factors == expected.invariant_factors
        row = line(width, i, step.describe(2), repr(step_field), comp.describe(2),
                   repr(comp_field), agrees)
        print("%s (%.2fs)" % (row, elapsed))
        if not agrees:
            print("level %d: deck group differs from (Z/%d!)^2" % (i, i), file=sys.stderr)
            sys.exit(1)


if __name__ == "__main__":
    main()
