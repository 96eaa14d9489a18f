"""Seeded job lists for the three benchmark workloads, with their checks.

A job makes one call into the program: ``ectower.cli.main(argv)`` in-process,
or ``ectower.towers.fiber`` for the fibers workload.  Its check raises
``JobFailed`` when the result is not the one the inputs were built to give.
Inputs are made with the benchmark's own small arithmetic (point lists over
F_p and F_{p^k}, ``fractions.Fraction`` points over Q), so the program sees
only the generated jobs.
"""

import contextlib
import hashlib
import io
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

# the program is called through its modules, so the traced run's wrappers apply
from ectower import cli, towers
from ectower.curves import EllipticCurve, Point, ProductPoint, ProductVariety
from ectower.fields import PrimeField

DIGESTS = Path(__file__).with_name("digests.json")
# report digests are recorded for this seed only
DEFAULT_SEED = 0

INF = {"inf": True}


class JobFailed(Exception):
    """The program returned, but not the result the job was built to give."""


@dataclass
class Job:
    name: str
    call: Callable[[], object]  # the timed call into the program
    check: Callable[[object], None]  # raises JobFailed; runs untimed
    output: Optional[Path] = None  # report file the call writes
    after: Optional[str] = None  # run only if this job passed in the same pass
    is_verify: bool = False
    # the one known failure: the exception type this job raises today; it
    # still counts as failed, but any other raise makes the run incorrect
    expected_raise: Optional[type] = None


# --- inputs from the benchmark's own arithmetic ------------------------------


def fp_points(p, a, b):
    """All points of y^2 = x^3 + a*x + b over F_p; None is the identity."""
    return [None] + [
        (x, y) for x in range(p) for y in range(p) if (y * y - x**3 - a * x - b) % p == 0
    ]


def field_points(K, a, b):
    """All points of y^2 = x^3 + a*x + b over a prime or extension field K.

    Extension elements are coefficient tuples modulo K.modulus, constant term
    first, as the program stores them.
    """
    if isinstance(K, PrimeField):
        return fp_points(K.p, a, b)
    p, k, mod = K.base.p, K.degree, K.modulus

    def mul(u, v):
        prod = [0] * (2 * k - 1)
        for i, ui in enumerate(u):
            for j, vj in enumerate(v):
                prod[i + j] += ui * vj
        for d in range(2 * k - 2, k - 1, -1):
            c = prod[d] % p
            for j in range(k + 1):
                prod[d - k + j] -= c * mod[j]
        return tuple(c % p for c in prod[:k])

    elements = list(itertools.product(range(p), repeat=k))
    roots = {}
    for y in elements:
        roots.setdefault(mul(y, y), []).append(y)
    points = [None]
    for x in elements:
        cube = mul(mul(x, x), x)
        rhs = tuple((cube[i] + a * x[i] + (b if i == 0 else 0)) % p for i in range(k))
        points.extend((x, y) for y in roots.get(rhs, ()))
    return points


def point_json(P):
    """A point over F_p or Q (residues or Fractions) in the CLI's JSON form."""
    return INF if P is None else {"x": str(P[0]), "y": str(P[1])}


def q_add(P, Q, a):
    """Chord-tangent addition over Q with Fractions; None is the identity."""
    if P is None:
        return Q
    if Q is None:
        return P
    if P[0] == Q[0]:
        if P[1] != Q[1] or P[1] == 0:
            return None
        lam = (3 * P[0] * P[0] + a) / (2 * P[1])
    else:
        lam = (Q[1] - P[1]) / (Q[0] - P[0])
    x3 = lam * lam - P[0] - Q[0]
    return (x3, lam * (P[0] - x3) - P[1])


def q_mul(m, P, a):
    acc = None
    for _ in range(m):
        acc = q_add(acc, P, a)
    return acc


def curve_json(field, a, b):
    return {"curve": {"field": field, "a": str(a), "b": str(b)}}


def fp(p):
    return {"field": "Fp", "p": str(p)}


Q_FIELD = {"field": "Q"}


def tower_json(base, o, e):
    return {"base": base, "o": o, "e": [o] + e, "N": len(e)}


def invariants(d, rank):
    """Invariant factors of (Z/d)^rank as the program prints them."""
    return [d] * rank if d > 1 else []


# --- CLI jobs -------------------------------------------------------------------


def _expect(cond, message):
    if not cond:
        raise JobFailed(message)


def cli_job(workdir, name, command, payload_or_input, code, check_report,
            extra=(), after=None, digests=None):
    """One ``ectower <command>`` call whose report goes to a file.

    ``payload_or_input`` is either a job object, written to a job file now,
    or the path of an earlier job's report (for ``verify``).
    """
    if isinstance(payload_or_input, Path):
        job_path = payload_or_input
    else:
        job_path = workdir / (name + ".job.json")
        job_path.write_text(json.dumps(payload_or_input, sort_keys=True))
    output = workdir / (name + ".report.json")
    argv = [command, "--input", str(job_path), "--output", str(output), *extra]
    digest = (digests or {}).get(name)

    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(exit_code):
        _expect(exit_code == code, "exit code %r, expected %d" % (exit_code, code))
        blob = output.read_bytes()
        check_report(json.loads(blob))
        if digest is not None:
            _expect(hashlib.sha256(blob).hexdigest() == digest,
                    "report bytes differ from the recorded digest")

    return Job(name, call, check, output=output, after=after, is_verify=command == "verify")


def verify_job(workdir, source, digests, certificates=None):
    """``verify`` of the report written by job ``source``."""

    def check_report(report):
        _expect(report["ok"] is True, "verify reports a failed certificate")
        _expect(report["verified"] == report["certificates"], "not every certificate verified")
        if certificates is not None:
            _expect(report["certificates"] == certificates,
                    "%d certificates, expected %d" % (report["certificates"], certificates))

    return cli_job(workdir, "verify-" + source.name, "verify", source.output, 0,
                   check_report, after=source.name, digests=digests)


# --- deck --------------------------------------------------------------------------


def tower_build_job(workdir, name, base, e, curves, digests=None):
    """tower-build with deck groups; steps must be (i, i) and composites (i!, i!) per curve."""
    o = {"coords": [INF] * curves} if curves > 1 else INF
    payload = {"tower": tower_json(base, o, e), "deck": True}

    def check_report(report):
        levels = report["levels"]
        _expect(len(levels) == len(e), "wrong number of levels")
        for row in levels:
            i = row["i"]
            _expect(row["step_deck"]["invariant_factors"] == invariants(i, 2 * curves),
                    "step deck group at level %d" % i)
            _expect(row["deck"]["invariant_factors"] == invariants(math.factorial(i), 2 * curves),
                    "composite deck group at level %d" % i)

    return cli_job(workdir, name, "tower-build", payload, 0, check_report, digests=digests)


def chain_check_job(workdir, name, base, e, seed, digests=None):
    payload = {"g": 1, "max_level": len(e), "tower": tower_json(base, INF, e), "seed": seed}

    def check_report(report):
        for row in report["levels"]:
            i = row["i"]
            _expect(row.get("match_deck") is True, "match_deck false at level %d" % i)
            _expect(row["invariant_factors"] == invariants(math.factorial(i), 2),
                    "quotient at level %d" % i)

    return cli_job(workdir, name, "chain-check", payload, 0, check_report, digests=digests)


def refusal_job(workdir, name, base, e, field_cap, digests=None):
    """A tower whose full-torsion search must stop at the field cap with exit 3."""
    payload = {"tower": tower_json(base, INF, e), "deck": True}

    def check_report(report):
        _expect(report.get("kind") == "BoundExceeded", "refusal kind %r" % report.get("kind"))

    return cli_job(workdir, name, "tower-build", payload, 3, check_report,
                   extra=("--field-cap", str(field_cap)), digests=digests)


def deck_jobs(rng, workdir, digests):
    e5 = fp_points(5, 0, 1)
    e5b = fp_points(5, 0, 2)
    e7 = fp_points(7, 0, 1)
    base5 = curve_json(fp(5), 0, 1)
    tower4 = [point_json(rng.choice(e5)) for _ in range(4)]
    product = {"product": [base5, curve_json(fp(5), 0, 2)]}
    tower3 = [
        {"coords": [point_json(rng.choice(e5)), point_json(rng.choice(e5b))]}
        for _ in range(3)
    ]
    refuse = [point_json(rng.choice(e7)) for _ in range(4)]
    return [
        tower_build_job(workdir, "tower-build-g1-N4", base5, tower4, 1, digests),
        tower_build_job(workdir, "tower-build-g2-N3", product, tower3, 2, digests),
        chain_check_job(workdir, "chain-check-g1-L4", base5, tower4,
                        rng.randrange(2**31), digests),
        refusal_job(workdir, "refusal-F7-N4", curve_json(fp(7), 0, 1), refuse, 3000, digests),
    ]


# --- fibers ------------------------------------------------------------------------


def fiber_job(name, variety, K, n, centre, y):
    """fiber(f, f(y), field=K) for f = [n] twisted at centre; n^(2g) points containing y."""
    f = towers.TwistedMulMap(n, centre, variety)
    size = n ** (2 * variety.dimension)

    def call():
        realized = towers.realize_map(f, K)
        z = realized(y)
        return realized, z, towers.fiber(f, z, field=K)

    def check(outcome):
        realized, z, points = outcome
        _expect(len(points) == size, "%d fiber points, expected %d" % (len(points), size))
        _expect(len(set(points)) == size, "fiber has repeated points")
        _expect(y in points, "fiber misses the preimage it was built from")
        _expect(all(realized(P) == z for P in points), "a fiber point does not map to z")

    return Job(name, call, check)


def _point(K, P):
    """The program's point for an (x, y) pair from field_points."""
    if P is None:
        return Point.infinity()
    x, y = P
    if isinstance(x, tuple):
        x, y = list(x), list(y)
    return Point(K.element(x), K.element(y))


def fiber_jobs(rng, genera):
    """Fibers of [n] twisted at every base point, for each g in ``genera``.

    The cost of a fiber depends on its centre.  So the centres of each
    factor run through all of its base points in seeded order, the first
    half with n = 2 and the rest with n = 3.  The seed then moves the
    pairing of centres and the preimages y, but hardly the work of a pass.
    """
    F5 = PrimeField(5)
    coefficients = [(0, 1), (0, 2)]  # E5: y^2 = x^3 + 1, E5B: y^2 = x^3 + 2
    jobs = []
    for g in genera:
        curves = [EllipticCurve(F5, a, b) for a, b in coefficients[:g]]
        variety = curves[0] if g == 1 else ProductVariety(curves)
        centres = list(zip(*[rng.sample(pts, len(pts))
                             for pts in (fp_points(5, a, b) for a, b in coefficients[:g])]))
        half = len(centres) // 2
        for n, chosen in ((2, centres[:half]), (3, centres[half:])):
            K = towers.full_torsion_field(variety, n)
            ext_pts = [field_points(K, a, b) for a, b in coefficients[:g]]
            for j, centre in enumerate(chosen):
                centre = [_point(F5, c) for c in centre]
                y = [_point(K, rng.choice(pts)) for pts in ext_pts]
                if g > 1:
                    centre, y = ProductPoint(centre), ProductPoint(y)
                else:
                    centre, y = centre[0], y[0]
                jobs.append(fiber_job("fiber-g%d-n%d-%d" % (g, n, j), variety, K, n, centre, y))
    return jobs


# --- family ------------------------------------------------------------------------

E17_POINT = (Fraction(-2), Fraction(3))  # non-torsion on y^2 = x^3 + 17
# the 2-torsion of y^2 = x^3 - x as bit vectors: addition is XOR
EMX_TORSION = {0: None, 1: (Fraction(0), Fraction(0)), 2: (Fraction(1), Fraction(0)),
               3: (Fraction(-1), Fraction(0))}


def corollary_job(workdir, name, count, N, digests=None):
    payload = {
        "curve": curve_json(Q_FIELD, 0, 17),
        "point": point_json(E17_POINT),
        "count": count,
    }
    pairs = count * (count - 1) // 2

    def check_report(report):
        _expect(len(report["pairs"]) == pairs, "wrong number of pairs")
        _expect(all(p["status"] == "non_iso" for p in report["pairs"]), "a pair is not non_iso")
        _expect(report["all_non_isomorphic"] is True, "family not pairwise distinct")
        _expect(report["classes"] == [[i] for i in range(count)], "wrong classes")
        _expect(report["base_point_certificate"]["certificate"] == "non_torsion",
                "base point not certified non-torsion")

    job = cli_job(workdir, name, "corollary-demo", payload, 0, check_report,
                  extra=("--N", str(N)), digests=digests)
    # the base point certificate, one non_iso per pair, and its inner non_torsion
    return job, 1 + 2 * pairs


def iso_job(workdir, name, towers, status, level=None, digests=None):
    code = 1 if status == "non_iso" else 0

    def check_report(report):
        _expect(report["status"] == status, "status %r, expected %r" % (report["status"], status))
        cert = report["certificate"]
        if status == "iso":
            _expect(cert["certificate"] == "tower_iso", "iso without a witness")
        elif status == "non_iso":
            _expect(cert["certificate"] == "non_iso", "non_iso without a certificate")
            _expect(cert["level"] == level, "non_iso at level %r, expected %d" % (cert["level"], level))
        else:
            _expect(cert is None, "undetermined pair carries a certificate")

    return cli_job(workdir, name, "iso", {"towers": towers}, code, check_report, digests=digests)


def emx_pair(rng, N, shift):
    """Towers on y^2 = x^3 - x whose torsion differences admit a witness.

    Built as in the recurrence t_{i-1} = i*t_i + (i-1)*d_i: the level-2
    difference absorbs the rest of the sum.  A nonzero ``shift`` then moves
    e'_2 by a 2-torsion point, which leaves every difference torsion but
    removes every witness.
    """
    t_top = rng.randrange(4)
    diffs = [rng.randrange(4) for _ in range(N)]
    acc = t_top if math.factorial(N) % 2 else 0
    for i in range(1, N + 1):
        if i != 2 and (math.factorial(i - 1) * (i - 1)) % 2:
            acc ^= diffs[i - 1]
    diffs[1] = acc  # -acc == acc in (Z/2)^2
    a = [rng.randrange(4) for _ in range(N)]
    b = [ai ^ di for ai, di in zip(a, diffs)]
    b[1] ^= shift
    base = curve_json(Q_FIELD, -1, 0)
    return [
        tower_json(base, INF, [point_json(EMX_TORSION[v]) for v in side]) for side in (a, b)
    ]


def e17_pair(rng, N):
    """Towers e_i = a_i*P and e'_i = b_i*P on y^2 = x^3 + 17 that first differ at a seeded level."""
    level = rng.randint(1, N)
    a = [rng.randint(1, 3) for _ in range(N)]
    b = [a[i] if i < level - 1 else rng.randint(1, 3) for i in range(N)]
    if b[level - 1] == a[level - 1]:
        b[level - 1] = a[level - 1] % 3 + 1
    base = curve_json(Q_FIELD, 0, 17)
    towers = [
        tower_json(base, INF, [point_json(q_mul(m, E17_POINT, 0)) for m in side])
        for side in (a, b)
    ]
    return towers, level


# count 12 raises ValueError today: its heights pass the interpreter's
# int-to-str digit limit in serialize.element_to_json, uncaught by cli.main
CRASHING_COUNT = 12


def family_jobs(rng, workdir, digests):
    jobs = []
    for count in (4, 6, 8, 10, 11, CRASHING_COUNT):
        demo, certificates = corollary_job(workdir, "corollary-demo-%d" % count, count, 6, digests)
        if count == CRASHING_COUNT:
            demo.expected_raise = ValueError
        jobs += [demo, verify_job(workdir, demo, digests, certificates)]
    for j in range(3):
        iso = iso_job(workdir, "iso-emx-%d" % j, emx_pair(rng, 4, 0), "iso", digests=digests)
        jobs += [iso, verify_job(workdir, iso, digests, 1)]
        shifted = emx_pair(rng, 4, rng.randint(1, 3))
        jobs.append(iso_job(workdir, "undetermined-emx-%d" % j, shifted, "undetermined",
                            digests=digests))
        towers, level = e17_pair(rng, 4)
        non_iso = iso_job(workdir, "non-iso-e17-%d" % j, towers, "non_iso", level, digests)
        jobs += [non_iso, verify_job(workdir, non_iso, digests, 2)]
    return jobs


# --- workloads -----------------------------------------------------------------------


def load_digests(workload, seed):
    if seed != DEFAULT_SEED or not DIGESTS.is_file():
        return {}
    return json.loads(DIGESTS.read_text()).get(workload, {})


def build(workload, rng, workdir, seed):
    """The fixed job list of a workload, its input files written under workdir."""
    workdir.mkdir(parents=True, exist_ok=True)
    digests = load_digests(workload, seed)
    if workload == "deck":
        return deck_jobs(rng, workdir, digests)
    if workload == "fibers":
        return fiber_jobs(rng, (1, 2))
    if workload == "family":
        return family_jobs(rng, workdir, digests)
    raise ValueError("unknown workload %r" % workload)
