"""The finite-field commands tower-build and chain-check, imported by cli.main.

A handler takes the job, its integer options and the caps, returns (report,
exit code), and imports what it runs: no Q arithmetic, no certificate module.
"""

import math
import random
import sys

from .errors import BoundExceeded, SchemaError


def tower_build(payload, opts, caps):
    from . import serialize
    from .towers import deck_group, full_torsion_field
    tower = serialize.parse_tower(payload["tower"], caps)
    if opts["N"] is not None:
        if opts["N"] > tower.N:
            raise SchemaError("cannot truncate to N=%d, tower has N=%d" % (opts["N"], tower.N))
        tower = tower.truncate(opts["N"])
    want_deck = payload.get("deck", False)
    if not isinstance(want_deck, bool):
        raise SchemaError("'deck' must be a boolean")
    if want_deck and not tower.variety.field.is_finite:
        raise SchemaError(
            "deck groups are computed over finite-field realizations; the base is over Q"
        )
    rank = 2 * tower.variety.dimension
    levels = []
    for i in range(1, tower.N + 1):
        composite = tower.compose_to_base(i)
        row = {"i": i, "n": i, "e": serialize.point_to_json(tower.points[i]),
               "composite": {"m": composite.m, "c": serialize.point_to_json(composite.c)}}
        if want_deck:
            step_field = full_torsion_field(tower.variety, i, caps)
            step = deck_group(tower.level_map(i), step_field, caps)
            comp_field = full_torsion_field(tower.variety, composite.m, caps)
            comp = deck_group(composite, comp_field, caps)
            row["step_deck"] = serialize.group_to_json(step, step_field, rank)
            row["deck"] = serialize.group_to_json(comp, comp_field, rank)
        levels.append(row)
    return {"tower": serialize.tower_to_json(tower), "levels": levels}, 0


def chain_check(payload, opts, caps):
    from . import serialize
    from .chain import LatticeGroup, match_deck, quotient, refine, separates
    g, max_level = opts["g"], opts["max_level"]
    # the last order printed, m**e, is under 10**limit where e*(bits of m) <= 3*limit, and
    # over it where e*(bits of m, less 1) >= 4*limit; only in between is m**e formed
    top, limit = min(max_level, caps.chain_level), sys.get_int_max_str_digits()
    m, e = math.factorial(top), 2 * g
    if limit and e * m.bit_length() > 3 * limit and (
            e * (m.bit_length() - 1) >= 4 * limit or m**e >= 10**limit):
        raise BoundExceeded("the level-%d quotient has order (%d!)^%d, more digits than "
                            "Python prints (%d)" % (top, top, e, limit))
    bound = opts.get("bound", 20)
    lattice = LatticeGroup(2 * g)
    tower = None
    explicit_field = None
    if "tower" in payload:
        tower = serialize.parse_tower(payload["tower"], caps)
        if tower.variety.dimension != g:
            raise SchemaError("the tower base has dimension %d, job says g=%d"
                              % (tower.variety.dimension, g))
        if "field" in payload:
            explicit_field = serialize.parse_field(payload["field"], caps)
    elif "field" in payload:
        raise SchemaError("'field' is only meaningful together with 'tower'")
    rng = random.Random(opts["seed"])
    rows = []
    for i in range(1, max_level + 1):
        q = quotient(lattice, i, caps)
        row = {"i": i, "factorial": q.modulus, "order": q.order,
               "invariant_factors": list(q.group.invariant_factors),
               "display": q.group.describe(lattice.rank)}
        if tower is not None and i <= tower.N:
            row["match_deck"] = match_deck(tower, i, explicit_field, caps)
        rows.append(row)
    refine_checks = []
    pool = range(1, max(max_level, 2) + 1)
    for _ in range(5):
        k = rng.randint(1, min(3, len(pool)))
        levels = sorted(rng.sample(pool, k))
        refine_checks.append({"levels": levels, "refined": refine(levels)})
    separation_checks = []
    for _ in range(5):
        vec = [rng.randint(-bound, bound) for _ in range(lattice.rank)]
        if all(v == 0 for v in vec):
            vec[0] = 1
        separation_checks.append({"gamma": vec, "level": separates(vec, bound)})
    report = {"g": g, "max_level": max_level, "levels": rows, "refine_checks": refine_checks,
              "separation_checks": separation_checks, "bound": bound}
    if tower is not None:
        report["tower"] = serialize.tower_to_json(tower)
    return report, 0
