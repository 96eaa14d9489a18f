"""Deciding isomorphism of truncated towers over Q.

Two towers over the same base with sequences e and e' can only be isomorphic
over the base field when every difference e_i - e'_i is torsion; the first
non-torsion difference is a certified obstruction.  When all differences are
torsion, an isomorphism is sought in translation form f_i(x) = x + t_i with
t_0 = O: the levels must satisfy

    t_{i-1} = i*t_i + (i-1)*(e_i - e'_i)      for i = 1..N,

which unrolls to t_0 = N!*t_N + sum_i (i-1)!*(i-1)*(e_i - e'_i).  Solving
N!*t_N = -sum over the rational torsion subgroup and back-substituting gives
a witness whenever one exists inside that subgroup.  Torsion differences
with no such solution are reported as undetermined rather than isomorphic:
the necessity direction is proved, the converse is not claimed.
"""

import math
from dataclasses import dataclass

from .config import DEFAULT_CAPS
from .errors import BaseMismatch, NotNecessaryFirst
from .torsion import (
    NonTorsionCertificate,
    TorsionCertificate,
    rational_torsion_points,
    torsion_test_Q,
)


@dataclass(frozen=True)
class NonIsoCertificate:
    """A level whose difference e_i - e'_i is certified non-torsion."""

    tower_a: object
    tower_b: object
    level: int
    difference: object
    non_torsion: NonTorsionCertificate

    def verify(self):
        A, B = self.tower_a, self.tower_b
        if A.variety != B.variety or A.N != B.N:
            return False
        if not 1 <= self.level <= A.N:
            return False
        V = A.variety
        diff = V.sub(A.points[self.level], B.points[self.level])
        if diff != self.difference:
            return False
        if self.non_torsion.variety != V or self.non_torsion.point != diff:
            return False
        return self.non_torsion.verify()


@dataclass(frozen=True)
class TowerIsoWitness:
    """Translations t_0 = O, t_1, ..., t_N satisfying the level recurrence.

    Each translation carries its torsion certificate; the witness re-verifies
    by replaying the recurrence and by checking the covering-map commutation
    f_{i-1} o twist(i, e_i) = twist(i, e'_i) o f_i pointwise.
    """

    tower_a: object
    tower_b: object
    translations: tuple  # points t_0..t_N
    certificates: tuple  # parallel TorsionCertificates


@dataclass(frozen=True)
class WitnessReport:
    ok: bool
    failures: tuple = ()
    first_failing_level: int = None


def _require_comparable(A, B):
    if A.variety != B.variety:
        raise BaseMismatch("towers have different base varieties")
    if A.o != B.o:
        raise BaseMismatch("towers have different base points")
    if A.N != B.N:
        raise BaseMismatch("towers have different truncation levels")
    if A.variety.field.characteristic != 0:
        raise BaseMismatch("tower isomorphism testing is defined over Q")


def necessity_test(A, B):
    """First non-torsion difference as a NonIsoCertificate, or None when all pass."""
    _require_comparable(A, B)
    V = A.variety
    for i in range(1, A.N + 1):
        diff = V.sub(A.points[i], B.points[i])
        cert = torsion_test_Q(V, diff)
        if isinstance(cert, NonTorsionCertificate):
            return NonIsoCertificate(A, B, i, diff, cert)
    return None


def back_substitute(V, diffs, t_last):
    """The full translation sequence t_0..t_N determined by t_N."""
    N = len(diffs)
    ts = [None] * (N + 1)
    ts[N] = t_last
    for i in range(N, 0, -1):
        ts[i - 1] = V.add(V.scalar_mul(i, ts[i]), V.scalar_mul(i - 1, diffs[i - 1]))
    return ts


def witness_search(A, B, caps=DEFAULT_CAPS):
    """A TowerIsoWitness inside the rational torsion subgroup, or None.

    Every solution of the recurrence is determined by its top translation,
    so scanning t_N over the rational torsion subgroup for
    N!*t_N = -(sum (i-1)!*(i-1)*d_i) is exhaustive.
    """
    _require_comparable(A, B)
    V = A.variety
    N = A.N
    diffs = [V.sub(A.points[i], B.points[i]) for i in range(1, N + 1)]
    for d in diffs:
        if isinstance(torsion_test_Q(V, d), NonTorsionCertificate):
            raise NotNecessaryFirst("a difference is non-torsion; run necessity_test")
    target = V.identity()
    for i in range(1, N + 1):
        target = V.sub(
            target, V.scalar_mul(math.factorial(i - 1) * (i - 1), diffs[i - 1])
        )
    torsion = rational_torsion_points(V, caps)
    n_fact = math.factorial(N)
    for t_last in torsion:
        if V.scalar_mul(n_fact, t_last) != target:
            continue
        ts = back_substitute(V, diffs, t_last)
        if not ts[0].is_infinity:
            raise ArithmeticError("back substitution did not close at t_0 = O")
        certs = []
        for t in ts:
            cert = torsion_test_Q(V, t)
            if not isinstance(cert, TorsionCertificate):
                raise ArithmeticError("translation escaped the torsion subgroup")
            certs.append(cert)
        return TowerIsoWitness(A, B, tuple(ts), tuple(certs))
    return None


def verify_witness(A, B, witness):
    """Replay a witness: recurrence, torsion certificates, and commutation.

    Never raises; any failure is reported with the first failing level.
    """
    failures = []
    first_level = None

    def fail(level, message):
        nonlocal first_level
        failures.append(message)
        if level is not None and first_level is None:
            first_level = level

    if A.variety != B.variety or A.N != B.N or A.o != B.o:
        fail(None, "tower shapes do not match")
        return WitnessReport(False, tuple(failures), None)
    V = A.variety
    N = A.N
    ts = witness.translations
    if len(ts) != N + 1 or len(witness.certificates) != N + 1:
        fail(None, "translation sequence has the wrong length")
        return WitnessReport(False, tuple(failures), None)
    if not all(V.contains(t) for t in ts):
        fail(None, "a translation is not on the base variety")
        return WitnessReport(False, tuple(failures), None)
    if not ts[0].is_infinity:
        fail(0, "t_0 is not the identity")
    for i, (t, cert) in enumerate(zip(ts, witness.certificates)):
        if cert.variety != V or cert.point != t or not cert.verify():
            fail(i, "torsion certificate at level %d does not re-verify" % i)
    for i in range(1, N + 1):
        d = V.sub(A.points[i], B.points[i])
        recurrence_ok = ts[i - 1] == V.add(
            V.scalar_mul(i, ts[i]), V.scalar_mul(i - 1, d)
        )
        pointwise_ok = _commutation_holds(V, A.points[i], B.points[i], ts[i - 1], ts[i], i)
        if recurrence_ok != pointwise_ok:
            fail(i, "recurrence and pointwise commutation disagree at level %d" % i)
        elif not recurrence_ok:
            fail(i, "recurrence fails at level %d" % i)
    ok = not failures
    return WitnessReport(ok, tuple(failures), first_level)


def _commutation_holds(V, e_a, e_b, t_prev, t_cur, i):
    """Check f_{i-1}(twist_i(y; e_a)) == twist_i(f_i(y); e_b) on sample points."""
    samples = [V.identity(), e_a, e_b, t_cur, V.add(e_a, e_b)]
    seen = []
    for y in samples:
        if y not in seen:
            seen.append(y)
    for y in seen:
        lhs = V.add(
            V.sub(V.scalar_mul(i, y), V.scalar_mul(i - 1, e_a)), t_prev
        )
        f_y = V.add(y, t_cur)
        rhs = V.sub(V.scalar_mul(i, f_y), V.scalar_mul(i - 1, e_b))
        if lhs != rhs:
            return False
    return True


@dataclass(frozen=True)
class PairVerdict:
    status: str  # "iso" | "non_iso" | "undetermined"
    certificate: object = None  # NonIsoCertificate or TowerIsoWitness or None


@dataclass(frozen=True)
class FamilyClassification:
    verdicts: dict  # (i, j) with i < j -> PairVerdict
    classes: tuple  # sorted tuples of tower indices, certified-iso edges only

    @property
    def all_non_isomorphic(self):
        return all(v.status == "non_iso" for v in self.verdicts.values())


def classify_family(towers, caps=DEFAULT_CAPS):
    """Pairwise classification with certificates; classes from iso edges only."""
    towers = list(towers)
    if not towers:
        return FamilyClassification({}, ())
    for t in towers[1:]:
        _require_comparable(towers[0], t)
    verdicts = {}
    parent = list(range(len(towers)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(towers)):
        for j in range(i + 1, len(towers)):
            cert = necessity_test(towers[i], towers[j])
            if cert is not None:
                verdicts[(i, j)] = PairVerdict("non_iso", cert)
                continue
            witness = witness_search(towers[i], towers[j], caps)
            if witness is not None and verify_witness(towers[i], towers[j], witness).ok:
                verdicts[(i, j)] = PairVerdict("iso", witness)
                parent[find(i)] = find(j)
            else:
                verdicts[(i, j)] = PairVerdict("undetermined", None)
    groups = {}
    for i in range(len(towers)):
        groups.setdefault(find(i), []).append(i)
    classes = tuple(sorted(tuple(sorted(v)) for v in groups.values()))
    return FamilyClassification(verdicts, classes)
