"""The certificate commands iso, corollary-demo, torsion and verify, imported by cli.main.

A handler takes the job, its integer options and the caps, returns (report,
exit code), and imports what it runs.
"""

from .errors import SchemaError, TorsionBasePoint


def iso(payload, opts, caps):
    from . import serialize
    from .iso import classify_family
    A, B = serialize.parse_tower_pair(payload["towers"], "iso job", caps)
    if opts["N"] is not None:
        if opts["N"] > min(A.N, B.N):
            raise SchemaError("cannot truncate to N=%d" % opts["N"])
        A, B = A.truncate(opts["N"]), B.truncate(opts["N"])
    # the certificate holds A and B themselves: one subtree each, and one
    # text per distinct Q value
    memo = {}
    report = {"towers": [serialize._shared(serialize.tower_to_json, T, memo) for T in (A, B)]}
    verdict = classify_family([A, B], caps).verdicts[(0, 1)]
    cert = verdict.certificate
    report["status"] = verdict.status
    report["certificate"] = None if cert is None else serialize.certificate_to_json(cert, memo)
    return report, 1 if verdict.status == "non_iso" else 0


def corollary_demo(payload, opts, caps):
    from . import serialize
    from .iso import classify_family
    from .torsion import TorsionCertificate, torsion_test_Q
    from .towers import Tower
    V = serialize.parse_variety(payload["curve"], caps)
    if V.field.is_finite:
        raise SchemaError(
            "the non-torsion hypothesis is unsatisfiable over a finite field; use Q"
        )
    P = serialize.parse_point(V, payload["point"])
    count = opts["count"]
    N = opts["N"] if opts["N"] is not None else 6
    base_cert = torsion_test_Q(V, P)
    if isinstance(base_cert, TorsionCertificate):
        raise TorsionBasePoint(
            "the base point has finite order %d; the family needs a non-torsion point"
            % base_cert.order
        )
    towers = []
    for m in range(1, count + 1):
        e_m = V.scalar_mul(m, P)
        towers.append(Tower(V, V.identity(), [V.identity()] + [e_m] * N))
    result = classify_family(towers, caps)
    pairs = []
    # one subtree per tower and per distinct difference's certificate, and
    # one text per distinct Q value
    memo = {}
    for (i, j), verdict in sorted(result.verdicts.items()):
        entry = {"a": i + 1, "b": j + 1, "status": verdict.status}
        if verdict.certificate is not None:
            entry["certificate"] = serialize.certificate_to_json(verdict.certificate, memo)
        pairs.append(entry)
    report = {
        "curve": serialize.variety_to_json(V, memo),
        "point": serialize.point_to_json(P, memo),
        "count": count,
        "N": N,
        "base_point_certificate": serialize.certificate_to_json(base_cert, memo),
        "pairs": pairs,
        "classes": [list(c) for c in result.classes],
        "all_non_isomorphic": result.all_non_isomorphic,
    }
    return report, 0 if result.all_non_isomorphic else 1


def torsion(payload, opts, caps):
    from . import serialize
    from .torsion import TorsionCertificate, torsion_subgroup_Q, torsion_test_Q
    V = serialize.parse_variety(payload["curve"], caps)
    if V.field.is_finite:
        raise SchemaError("torsion certification is defined over Q")
    if "point" in payload:
        P = serialize.parse_point(V, payload["point"])
        cert = torsion_test_Q(V, P)
        report = {"mode": "test", "curve": serialize.variety_to_json(V),
                  "point": serialize.point_to_json(P),
                  "certificate": serialize.certificate_to_json(cert)}
        return report, 0 if isinstance(cert, TorsionCertificate) else 1
    if V.factors != (V,):  # a product, even of one curve
        raise SchemaError("subgroup enumeration expects a single curve")
    sub = torsion_subgroup_Q(V, caps)
    report = {
        "mode": "subgroup",
        "curve": serialize.variety_to_json(V),
        "points": [
            {
                "point": serialize.point_to_json(P),
                "certificate": serialize.certificate_to_json(cert),
            }
            for P, cert in zip(sub.points, sub.certificates)
        ],
        "invariant_factors": list(sub.group.invariant_factors),
        "group": sub.group.describe(),
    }
    return report, 0


def verify(payload, opts, caps):
    from . import serialize
    found = serialize.find_certificates(payload)
    if not found:
        raise SchemaError("no certificate objects found in the input")
    results = []
    failures = 0
    memo = serialize.VerifyMemo()
    for path, obj in found:
        ok, kind, reason = serialize.verify_certificate(obj, caps, memo)
        entry = {"path": path, "kind": kind, "ok": ok}
        if not ok:
            entry["reason"] = reason
            failures += 1
        results.append(entry)
    report = {"certificates": len(found), "verified": len(found) - failures, "results": results,
              "ok": failures == 0}
    return report, 0 if failures == 0 else 1
