import math
import random

import pytest

from ectower.curves import EllipticCurve, Point
from ectower.errors import BaseMismatch, NotNecessaryFirst
from ectower.fields import QQ
import ectower.iso as iso
from ectower.iso import (
    NonIsoCertificate,
    TowerIsoWitness,
    back_substitute,
    classify_family,
    necessity_test,
    verify_witness,
    witness_search,
)
from ectower.serialize import certificate_to_json
from ectower.torsion import torsion_subgroup_Q, torsion_test_Q
from ectower.towers import Tower

from oracles import brute_force_witness_exists, unrolled_t0

E1 = EllipticCurve(QQ, 0, 1)  # torsion Z/6
EMX = EllipticCurve(QQ, -1, 0)  # torsion (Z/2)^2
E17 = EllipticCurve(QQ, 0, 17)  # trivial torsion, (-2, 3) non-torsion
O = Point.infinity()


def qpt(x, y):
    return Point(QQ.element(x), QQ.element(y))


def make_tower(curve, points):
    return Tower(curve, O, [O] + list(points))


def translated_tower(curve, base_tower, diffs):
    # e'_i = e_i - d_i so that e_i - e'_i = d_i
    pts = [
        curve.sub(base_tower.points[i + 1], d) for i, d in enumerate(diffs)
    ]
    return make_tower(curve, pts)


def test_equal_towers_pass_necessity():
    t = make_tower(E17, [qpt(-2, 3)] * 3)
    assert necessity_test(t, t) is None


def test_non_torsion_difference_certified_at_level_one():
    P = qpt(-2, 3)
    a = make_tower(E17, [O] * 4)
    b = make_tower(E17, [E17.scalar_mul(i, P) for i in range(1, 5)])
    cert = necessity_test(a, b)
    assert isinstance(cert, NonIsoCertificate)
    assert cert.level == 1
    assert cert.verify()


def test_torsion_shift_passes_necessity():
    two_torsion = qpt(-1, 0)  # order 2 on E1
    base = make_tower(E1, [qpt(2, 3), qpt(0, 1), qpt(2, 3)])
    shifted = make_tower(
        E1, [E1.add(P, two_torsion) for P in base.points[1:]]
    )
    assert necessity_test(base, shifted) is None


def test_base_mismatch():
    a = make_tower(E1, [O, O])
    b = make_tower(E17, [O, O])
    with pytest.raises(BaseMismatch):
        necessity_test(a, b)
    with pytest.raises(BaseMismatch):
        necessity_test(a, make_tower(E1, [O]))


def test_witness_requires_necessity():
    a = make_tower(E17, [O] * 2)
    b = make_tower(E17, [qpt(-2, 3)] * 2)
    with pytest.raises(NotNecessaryFirst):
        witness_search(a, b)


def test_identity_witness():
    t = make_tower(E1, [qpt(2, 3), qpt(0, 1)])
    w = witness_search(t, t)
    assert w is not None
    assert all(p.is_infinity for p in w.translations)
    assert verify_witness(t, t, w).ok


def test_unrolled_formula_matches_direct_recurrence():
    # mandated validation: the closed form for t_0 equals iterating
    # t_{i-1} = i*t_i + (i-1)*d_i from any torsion t_N and any torsion d_i
    torsion = torsion_subgroup_Q(E1).points
    rng = random.Random(7)
    for _ in range(40):
        N = rng.randint(1, 5)
        diffs = [rng.choice(torsion) for _ in range(N)]
        t_last = rng.choice(torsion)
        ts = back_substitute(E1, diffs, t_last)
        assert ts[0] == unrolled_t0(E1, diffs, t_last)
        for i in range(1, N + 1):
            assert ts[i - 1] == E1.add(
                E1.scalar_mul(i, ts[i]), E1.scalar_mul(i - 1, diffs[i - 1])
            )


def _solvable_diffs(curve, torsion, rng, N):
    """Random torsion differences engineered so a witness exists.

    Choosing d_2 to absorb the rest of the closed-form sum forces
    N!*t_N = -sum to be solvable by the chosen t_N.
    """
    t_last = rng.choice(torsion)
    diffs = [rng.choice(torsion) for _ in range(N)]
    acc = curve.scalar_mul(math.factorial(N), t_last)
    for i in range(1, N + 1):
        if i == 2:
            continue
        acc = curve.add(
            acc, curve.scalar_mul(math.factorial(i - 1) * (i - 1), diffs[i - 1])
        )
    diffs[1] = curve.negate(acc)  # coefficient of d_2 in the sum is 1
    return diffs


def test_witness_roundtrip_construction():
    torsion = torsion_subgroup_Q(E1).points
    rng = random.Random(11)
    for _ in range(15):
        N = rng.randint(2, 5)
        diffs = _solvable_diffs(E1, torsion, rng, N)
        base_pts = [E1.scalar_mul(k, qpt(2, 3)) for k in range(1, N + 1)]
        a = make_tower(E1, base_pts)
        b = translated_tower(E1, a, diffs)
        assert necessity_test(a, b) is None  # torsion-built pairs always pass
        w = witness_search(a, b)
        assert w is not None
        report = verify_witness(a, b, w)
        assert report.ok, report.failures


def test_no_witness_adversarial_on_klein_four():
    # on (Z/2)^2 torsion the closed-form sum reduces to d_2, so any
    # non-trivial d_2 kills every candidate t_N
    torsion = torsion_subgroup_Q(EMX).points
    d2 = qpt(0, 0)
    diffs = [O, d2, torsion[1], torsion[2]]
    a = make_tower(EMX, [qpt(0, 0), qpt(1, 0), qpt(0, 0), qpt(-1, 0)])
    b = translated_tower(EMX, a, diffs)
    assert necessity_test(a, b) is None
    assert witness_search(a, b) is None


def test_witness_solver_agrees_with_brute_force():
    torsion = torsion_subgroup_Q(EMX).points
    rng = random.Random(23)
    agree_solvable = agree_unsolvable = 0
    for _ in range(30):
        N = rng.randint(1, 4)
        diffs = [rng.choice(torsion) for _ in range(N)]
        a = make_tower(EMX, [rng.choice(torsion) for _ in range(N)])
        b = translated_tower(EMX, a, diffs)
        w = witness_search(a, b)
        brute = brute_force_witness_exists(
            list(torsion),
            diffs,
            add=EMX.add,
            neg=EMX.negate,
            scalar=lambda n, P: EMX.scalar_mul(n, P),
        )
        assert (w is not None) == brute
        if brute:
            agree_solvable += 1
            assert verify_witness(a, b, w).ok
        else:
            agree_unsolvable += 1
    assert agree_solvable and agree_unsolvable


def test_verify_witness_rejects_perturbation():
    torsion = torsion_subgroup_Q(EMX).points
    rng = random.Random(5)
    diffs = _solvable_diffs(EMX, torsion, rng, 4)
    a = make_tower(EMX, [qpt(0, 0)] * 4)
    b = translated_tower(EMX, a, diffs)
    w = witness_search(a, b)
    assert w is not None and verify_witness(a, b, w).ok
    # perturb one interior translation by a non-trivial torsion point
    for level in (1, 2, 3):
        for delta in torsion[1:]:
            ts = list(w.translations)
            before = ts[level]
            ts[level] = EMX.add(ts[level], delta)
            if ts[level] == before:
                continue
            tampered = TowerIsoWitness(a, b, tuple(ts), w.certificates)
            report = verify_witness(a, b, tampered)
            assert not report.ok
            assert report.first_failing_level is not None


def test_all_zero_witness_on_non_torsion_difference_fails():
    a = make_tower(E17, [O] * 3)
    b = make_tower(E17, [qpt(-2, 3)] * 3)
    w = TowerIsoWitness(
        a,
        b,
        tuple([O] * 4),
        tuple(torsion_test_Q(E17, O) for _ in range(4)),
    )
    assert not verify_witness(a, b, w).ok


def test_classify_family_singletons():
    P = qpt(-2, 3)
    towers = [
        make_tower(E17, [E17.scalar_mul(m, P)] * 4) for m in range(1, 6)
    ]
    result = classify_family(towers)
    assert len(result.verdicts) == 10
    assert result.all_non_isomorphic
    assert result.classes == tuple((i,) for i in range(5))
    for verdict in result.verdicts.values():
        assert verdict.status == "non_iso"
        assert verdict.certificate.level == 1
        assert verdict.certificate.verify()


def test_classify_family_merges_duplicates():
    t = make_tower(E1, [qpt(2, 3)] * 3)
    result = classify_family([t, t, make_tower(E1, [qpt(0, 1)] * 3)])
    assert (0, 1) in result.classes
    assert result.verdicts[(0, 1)].status == "iso"
    assert all(p.is_infinity for p in result.verdicts[(0, 1)].certificate.translations)


def test_classify_family_mixed():
    P = qpt(-2, 3)
    a = make_tower(E17, [P] * 3)
    b = make_tower(E17, [P] * 3)
    c = make_tower(E17, [E17.scalar_mul(2, P)] * 3)
    result = classify_family([a, b, c])
    assert result.verdicts[(0, 1)].status == "iso"
    assert result.verdicts[(0, 2)].status == "non_iso"
    assert result.verdicts[(1, 2)].status == "non_iso"
    assert result.classes == ((0, 1), (2,))


def test_classify_family_decides_each_distinct_difference_once(monkeypatch):
    # the corollary family at count 11: 55 pairs, but every difference at
    # every level is one of the 10 points (m - m')*P with m < m'
    P = qpt(-2, 3)
    towers = [make_tower(E17, [E17.scalar_mul(m, P)] * 6) for m in range(1, 12)]
    decided = []

    def counted(V, Q):
        decided.append(Q)
        return torsion_test_Q(V, Q)

    monkeypatch.setattr(iso, "torsion_test_Q", counted)
    result = classify_family(towers)
    assert len(result.verdicts) == 55
    assert len(decided) == len(set(decided)) == 10
    # the same certificates, byte for byte, as deciding every pair afresh
    decided.clear()
    for (i, j), verdict in result.verdicts.items():
        fresh = necessity_test(towers[i], towers[j])
        assert certificate_to_json(verdict.certificate) == certificate_to_json(fresh)
    assert len(decided) == 55


def test_classify_family_finds_the_rational_torsion_points_once(monkeypatch):
    # 8 towers on y^2 = x^3 - x with 2-torsion level points: every difference
    # is torsion, so all 28 pairs reach the witness search; a pair is iso
    # exactly when its level-2 points agree (6*t_N = O = target = d_2)
    T = [O, qpt(0, 0), qpt(1, 0), qpt(-1, 0)]
    towers = [make_tower(EMX, [T[m % 4], T[m // 4], T[(m + 1) % 4]]) for m in range(8)]
    fresh = {}
    for i in range(8):
        for j in range(i + 1, 8):
            assert necessity_test(towers[i], towers[j]) is None
            fresh[(i, j)] = witness_search(towers[i], towers[j])
    subgroups = []

    def counted(curve, caps):
        subgroups.append(curve)
        return torsion_subgroup_Q(curve, caps)

    monkeypatch.setattr("ectower.torsion.torsion_subgroup_Q", counted)
    result = classify_family(towers)
    assert subgroups == [EMX]
    assert len(result.verdicts) == 28
    for (i, j), verdict in result.verdicts.items():
        assert verdict.status == ("iso" if i // 4 == j // 4 else "undetermined")
        if verdict.status == "iso":
            assert certificate_to_json(verdict.certificate) == certificate_to_json(fresh[(i, j)])
        else:
            assert fresh[(i, j)] is None
    assert result.classes == ((0, 1, 2, 3), (4, 5, 6, 7))
