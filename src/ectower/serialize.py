"""JSON wire formats: fields, curves, points, towers, and certificates.

Schemas are strict: unknown keys are rejected so that a job file with a typo
fails loudly instead of being half-read.  Large integers travel as decimal
strings ("p": "5", rationals "n/d"); extension-field data are small and stay
as integer lists, constant term first.

Every certificate kind serialized here re-verifies from its own JSON alone:
parsing rebuilds the objects and verify_certificate replays the arithmetic.
"""

from .config import DEFAULT_CAPS
from .errors import EctowerError, SchemaError
from .fields import QQ, ExtField, PrimeField, Rational
from .curves import EllipticCurve, Point, ProductPoint, ProductVariety
from .torsion import NonTorsionCertificate, TorsionCertificate
from .towers import Tower
from .iso import NonIsoCertificate, TowerIsoWitness, verify_witness


def _require_keys(obj, where, required, optional=()):
    if not isinstance(obj, dict):
        raise SchemaError("%s: expected an object" % where)
    for key in required:
        if key not in obj:
            raise SchemaError("%s: missing key %r" % (where, key))
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise SchemaError("%s: unknown keys %s" % (where, sorted(unknown)))


def _int_field(obj, where, key):
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise SchemaError("%s: %r must be an integer or decimal string" % (where, key))
    try:
        return int(v)
    except ValueError:
        raise SchemaError("%s: %r is not an integer" % (where, v)) from None


# --- fields ----------------------------------------------------------------


def field_to_json(field):
    if field == QQ:
        return {"field": "Q"}
    if isinstance(field, PrimeField):
        return {"field": "Fp", "p": str(field.p)}
    if isinstance(field, ExtField):
        return {
            "field": "Fpk",
            "p": str(field.base.p),
            "k": field.degree,
            "modulus": list(field.modulus),
        }
    raise SchemaError("unknown field object %r" % (field,))


def parse_field(obj, caps=DEFAULT_CAPS):
    if not isinstance(obj, dict) or "field" not in obj:
        raise SchemaError("field descriptor must be an object with a 'field' tag")
    tag = obj["field"]
    if tag == "Q":
        _require_keys(obj, "field", ("field",))
        return QQ
    if tag == "Fp":
        _require_keys(obj, "field", ("field", "p"))
        try:
            return PrimeField(_int_field(obj, "field", "p"), caps=caps)
        except ValueError as exc:
            raise SchemaError("field: %s" % exc) from None
    if tag == "Fpk":
        _require_keys(obj, "field", ("field", "p", "k"), optional=("modulus",))
        p = _int_field(obj, "field", "p")
        k = obj["k"]
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise SchemaError("field: 'k' must be a positive integer")
        modulus = obj.get("modulus")
        if modulus is not None and (
            not isinstance(modulus, list)
            or not all(isinstance(c, int) and not isinstance(c, bool) for c in modulus)
        ):
            raise SchemaError("field: 'modulus' must be a list of integers")
        try:
            return ExtField(PrimeField(p, caps=caps), k, modulus, caps=caps)
        except ValueError as exc:
            raise SchemaError("field: %s" % exc) from None
    raise SchemaError("unknown field tag %r" % (tag,))


def element_to_json(x):
    if x.field == QQ:
        return str(x.value)
    if isinstance(x.field, PrimeField):
        return str(x.value)
    return list(x.value)


def parse_element(field, obj, where="element"):
    try:
        if field == QQ:
            if isinstance(obj, str):
                return field.element(Rational.parse(obj))
            if isinstance(obj, int) and not isinstance(obj, bool):
                return field.element(obj)
            raise SchemaError("%s: rationals are strings like '2/3'" % where)
        if isinstance(field, PrimeField):
            return field.element(_int_field({"v": obj}, where, "v"))
        if isinstance(obj, list):
            return field.element(obj)
        raise SchemaError("%s: extension elements are coefficient lists" % where)
    except (ValueError, TypeError) as exc:
        raise SchemaError("%s: %s" % (where, exc)) from None


# --- varieties and points ---------------------------------------------------


def variety_to_json(V):
    if isinstance(V, ProductVariety):
        return {"product": [variety_to_json(c) for c in V.factors]}
    return {
        "curve": {
            "field": field_to_json(V.field),
            "a": element_to_json(V.a),
            "b": element_to_json(V.b),
        }
    }


def parse_variety(obj, caps=DEFAULT_CAPS):
    if not isinstance(obj, dict):
        raise SchemaError("variety descriptor must be an object")
    if "product" in obj:
        _require_keys(obj, "variety", ("product",))
        factors = obj["product"]
        if not isinstance(factors, list) or not factors:
            raise SchemaError("product: needs a nonempty list of curves")
        try:
            return ProductVariety([parse_variety(c, caps) for c in factors])
        except ValueError as exc:
            raise SchemaError("product: %s" % exc) from None
    if "curve" in obj:
        _require_keys(obj, "variety", ("curve",))
        body = obj["curve"]
        _require_keys(body, "curve", ("field", "a", "b"))
        field = parse_field(body["field"], caps)
        a = parse_element(field, body["a"], "curve.a")
        b = parse_element(field, body["b"], "curve.b")
        try:
            return EllipticCurve(field, a, b)
        except ValueError as exc:
            raise SchemaError("curve: %s" % exc) from None
    raise SchemaError("variety descriptor needs 'curve' or 'product'")


def point_to_json(P):
    if isinstance(P, ProductPoint):
        return {"coords": [point_to_json(c) for c in P.coords]}
    if P.is_infinity:
        return {"inf": True}
    return {"x": element_to_json(P.x), "y": element_to_json(P.y)}


def parse_point(V, obj, where="point"):
    if not isinstance(obj, dict):
        raise SchemaError("%s: expected an object" % where)
    if obj.get("inf") is True:
        _require_keys(obj, where, ("inf",))
        return V.identity()
    if isinstance(V, ProductVariety):
        _require_keys(obj, where, ("coords",))
        coords = obj["coords"]
        if not isinstance(coords, list) or len(coords) != len(V.factors):
            raise SchemaError("%s: needs one coordinate per factor" % where)
        return ProductPoint(
            [
                parse_point(c, q, "%s[%d]" % (where, j))
                for j, (c, q) in enumerate(zip(V.factors, coords))
            ]
        )
    _require_keys(obj, where, ("x", "y"))
    return Point(
        parse_element(V.field, obj["x"], where + ".x"),
        parse_element(V.field, obj["y"], where + ".y"),
    )


# --- towers ------------------------------------------------------------------


def tower_to_json(T):
    return {
        "base": variety_to_json(T.variety),
        "o": point_to_json(T.o),
        "e": [point_to_json(P) for P in T.points],
        "N": T.N,
    }


def parse_tower(obj, caps=DEFAULT_CAPS):
    _require_keys(obj, "tower", ("base", "o", "e", "N"))
    V = parse_variety(obj["base"], caps)
    o = parse_point(V, obj["o"], "o")
    e_list = obj["e"]
    if not isinstance(e_list, list) or not e_list:
        raise SchemaError("tower: 'e' must be a nonempty list of points")
    points = [parse_point(V, p, "e[%d]" % i) for i, p in enumerate(e_list)]
    if not isinstance(obj["N"], int) or obj["N"] != len(points) - 1:
        raise SchemaError("tower: 'N' must equal len(e) - 1")
    try:
        return Tower(V, o, points)
    except ValueError as exc:
        raise SchemaError("tower: %s" % exc) from None


# --- groups -------------------------------------------------------------------


def group_to_json(group, field=None, rank=None):
    out = {
        "invariant_factors": list(group.invariant_factors),
        "generators": [point_to_json(g) for g in (group.generators or ())],
        "display": group.describe(rank),
    }
    if field is not None:
        out["field"] = field_to_json(field)
    return out


# --- certificates --------------------------------------------------------------


def torsion_certificate_to_json(cert):
    return {
        "certificate": "torsion",
        "variety": variety_to_json(cert.variety),
        "point": point_to_json(cert.point),
        "order": cert.order,
    }


def non_torsion_certificate_to_json(cert):
    out = {
        "certificate": "non_torsion",
        "variety": variety_to_json(cert.variety),
        "point": point_to_json(cert.point),
        "evidence": [
            {"m": m, "multiple": point_to_json(mult)} for m, mult in cert.evidence
        ],
    }
    # the wire format names the tracked factor of products only
    if cert.factor is not None and isinstance(cert.variety, ProductVariety):
        out["factor"] = cert.factor
    return out


def non_iso_certificate_to_json(cert):
    return {
        "certificate": "non_iso",
        "towers": [tower_to_json(cert.tower_a), tower_to_json(cert.tower_b)],
        "level": cert.level,
        "difference": point_to_json(cert.difference),
        "non_torsion": non_torsion_certificate_to_json(cert.non_torsion),
    }


def witness_to_json(witness):
    return {
        "certificate": "tower_iso",
        "towers": [tower_to_json(witness.tower_a), tower_to_json(witness.tower_b)],
        "translations": [
            {"point": point_to_json(t), "order": c.order}
            for t, c in zip(witness.translations, witness.certificates)
        ],
    }


def certificate_to_json(cert):
    if isinstance(cert, TorsionCertificate):
        return torsion_certificate_to_json(cert)
    if isinstance(cert, NonTorsionCertificate):
        return non_torsion_certificate_to_json(cert)
    if isinstance(cert, NonIsoCertificate):
        return non_iso_certificate_to_json(cert)
    if isinstance(cert, TowerIsoWitness):
        return witness_to_json(cert)
    raise SchemaError("unknown certificate object %r" % (cert,))


def parse_torsion_certificate(obj, caps=DEFAULT_CAPS):
    _require_keys(obj, "torsion certificate", ("certificate", "variety", "point", "order"))
    V = parse_variety(obj["variety"], caps)
    P = parse_point(V, obj["point"])
    if not isinstance(obj["order"], int) or obj["order"] < 1:
        raise SchemaError("torsion certificate: order must be a positive integer")
    return TorsionCertificate(V, P, obj["order"])


def parse_non_torsion_certificate(obj, caps=DEFAULT_CAPS):
    _require_keys(
        obj,
        "non-torsion certificate",
        ("certificate", "variety", "point", "evidence"),
        optional=("factor",),
    )
    V = parse_variety(obj["variety"], caps)
    P = parse_point(V, obj["point"])
    factor = obj.get("factor")
    if factor is not None and (
        not isinstance(factor, int)
        or not isinstance(V, ProductVariety)
        or not 0 <= factor < len(V.factors)
    ):
        raise SchemaError("non-torsion certificate: bad factor index")
    tracked = V.factors[factor] if factor is not None else V
    if not isinstance(obj["evidence"], list):
        raise SchemaError("non-torsion certificate: evidence must be a list")
    evidence = []
    for entry in obj["evidence"]:
        _require_keys(entry, "evidence entry", ("m", "multiple"))
        if not isinstance(entry["m"], int):
            raise SchemaError("evidence entry: m must be an integer")
        evidence.append((entry["m"], parse_point(tracked, entry["multiple"])))
    return NonTorsionCertificate(V, P, tuple(evidence), factor=factor)


def parse_non_iso_certificate(obj, caps=DEFAULT_CAPS):
    _require_keys(
        obj,
        "non-iso certificate",
        ("certificate", "towers", "level", "difference", "non_torsion"),
    )
    if not isinstance(obj["towers"], list) or len(obj["towers"]) != 2:
        raise SchemaError("non-iso certificate: 'towers' must hold two towers")
    A = parse_tower(obj["towers"][0], caps)
    B = parse_tower(obj["towers"][1], caps)
    if not isinstance(obj["level"], int):
        raise SchemaError("non-iso certificate: level must be an integer")
    diff = parse_point(A.variety, obj["difference"], "difference")
    inner = parse_non_torsion_certificate(obj["non_torsion"], caps)
    return NonIsoCertificate(A, B, obj["level"], diff, inner)


def parse_witness(obj, caps=DEFAULT_CAPS):
    _require_keys(obj, "tower-iso witness", ("certificate", "towers", "translations"))
    if not isinstance(obj["towers"], list) or len(obj["towers"]) != 2:
        raise SchemaError("tower-iso witness: 'towers' must hold two towers")
    A = parse_tower(obj["towers"][0], caps)
    B = parse_tower(obj["towers"][1], caps)
    if not isinstance(obj["translations"], list):
        raise SchemaError("tower-iso witness: translations must be a list")
    points, certs = [], []
    for entry in obj["translations"]:
        _require_keys(entry, "translation", ("point", "order"))
        t = parse_point(A.variety, entry["point"], "translation")
        if not isinstance(entry["order"], int) or entry["order"] < 1:
            raise SchemaError("translation: order must be a positive integer")
        points.append(t)
        certs.append(TorsionCertificate(A.variety, t, entry["order"]))
    return TowerIsoWitness(A, B, tuple(points), tuple(certs))


def verify_certificate(obj, caps=DEFAULT_CAPS):
    """Re-run the arithmetic of one serialized certificate.

    Returns (ok, kind, reason); reason is None when the certificate holds.
    """
    if not isinstance(obj, dict) or "certificate" not in obj:
        return False, None, "not a certificate object"
    kind = obj["certificate"]
    try:
        if kind == "torsion":
            ok = parse_torsion_certificate(obj, caps).verify()
            return ok, kind, None if ok else "torsion replay failed"
        if kind == "non_torsion":
            cert = parse_non_torsion_certificate(obj, caps)
            ok = cert.verify()
            return ok, kind, None if ok else "non-torsion replay failed"
        if kind == "non_iso":
            cert = parse_non_iso_certificate(obj, caps)
            ok = cert.verify()
            return ok, kind, None if ok else "non-iso replay failed"
        if kind == "tower_iso":
            witness = parse_witness(obj, caps)
            report = verify_witness(witness.tower_a, witness.tower_b, witness)
            return report.ok, kind, None if report.ok else "; ".join(report.failures)
        return False, kind, "unknown certificate kind"
    except SchemaError as exc:
        return False, kind, "schema: %s" % exc
    except (EctowerError, ValueError) as exc:
        # tampered data may break curve membership or even curve construction
        return False, kind, "%s: %s" % (type(exc).__name__, exc)


def find_certificates(obj, path="$"):
    """All embedded certificate objects in a report, with their JSON paths."""
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
