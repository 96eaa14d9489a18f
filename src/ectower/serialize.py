"""JSON wire formats: fields, curves, points, towers, and certificates.

Schemas are strict: unknown keys are rejected so that a job file with a typo
fails loudly instead of being half-read.  Large integers travel as decimal
strings ("p": "5", rationals "n/d"); extension-field data are small and stay
as integer lists, constant term first.

Every certificate kind serialized here re-verifies from its own JSON alone:
parsing rebuilds the objects and verify_certificate replays the arithmetic.
The certificate modules, torsion and iso, are imported where a certificate
is written, parsed or verified, and Q (rationals) where a rational field or
value is parsed, so fields, curves and towers alone load none of them.
"""

import functools
import marshal
from operator import methodcaller

from .config import DEFAULT_CAPS
from .errors import EctowerError, SchemaError, quote
from .fields import ExtField, PrimeField, parse_decimal
from .curves import EllipticCurve, Point, ProductPoint, ProductVariety
from .towers import Tower


def _require_keys(obj, where, required, optional=()):
    if not isinstance(obj, dict):
        raise SchemaError("%s: expected an object" % where)
    for key in required:
        if key not in obj:
            raise SchemaError("%s: missing key %r" % (where, key))
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise SchemaError("%s: unknown keys %s" % (where, sorted(unknown)))


def _require_int(value, message, minimum=None):
    """value if it is a JSON integer of at least minimum, else a SchemaError(message).

    JSON integers parse to exact ints; true and false parse to bools, which
    Python counts as integers but this refuses.
    """
    if type(value) is not int or (minimum is not None and value < minimum):
        raise SchemaError(message)
    return value


def _int_or_decimal(value, where, key):
    if not isinstance(value, str):
        return _require_int(value, "%s: %r must be an integer or decimal string" % (where, key))
    try:
        return parse_decimal(value)
    except ValueError as exc:
        raise SchemaError("%s: %s" % (where, exc)) from None


def _int_list(obj, message):
    if not isinstance(obj, list):
        raise SchemaError(message)
    return [_require_int(c, message) for c in obj]


# --- fields ----------------------------------------------------------------


def field_to_json(field):
    if not field.is_finite:
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
        from .rationals import QQ
        _require_keys(obj, "field", ("field",))
        return QQ
    if tag == "Fp":
        _require_keys(obj, "field", ("field", "p"))
        try:
            return PrimeField(_int_or_decimal(obj["p"], "field", "p"), caps=caps)
        except ValueError as exc:
            raise SchemaError("field: %s" % exc) from None
    if tag == "Fpk":
        _require_keys(obj, "field", ("field", "p", "k"), optional=("modulus",))
        p = _int_or_decimal(obj["p"], "field", "p")
        k = _require_int(obj["k"], "field: 'k' must be a positive integer", 1)
        modulus = obj.get("modulus")
        if modulus is not None:
            modulus = _int_list(modulus, "field: 'modulus' must be a list of integers")
        try:
            return ExtField(PrimeField(p, caps=caps), k, modulus, caps=caps)
        except ValueError as exc:
            raise SchemaError("field: %s" % exc) from None
    raise SchemaError("unknown field tag %s" % quote(tag))


def element_to_json(x, memo=None):
    """x's JSON; memo, a per-report dict, prints each distinct value once.

    A report repeats rationals: a family's towers share e_m, and each
    difference's certificate repeats the multiples of the others.  The
    texts are keyed on the value, a Rational or an F_p int; equal ones print
    alike, so they may share a key.
    """
    if isinstance(x.field, ExtField):
        return list(x.value)
    if memo is None:
        return str(x.value)
    text = memo.get(x.value)
    if text is None:
        text = memo[x.value] = str(x.value)
    return text


def parse_element(field, obj, where="element", memo=None):
    try:
        if not field.is_finite:
            if isinstance(obj, str):
                return field.parse(obj) if memo is None else memo.rational(obj)
            return field.element(
                _require_int(obj, "%s: rationals are strings like '2/3'" % where)
            )
        if isinstance(field, PrimeField):
            return field.element(_int_or_decimal(obj, where, "v"))
        return field.element(
            _int_list(obj, "%s: extension elements are integer coefficient lists" % where)
        )
    except (ValueError, TypeError) as exc:
        raise SchemaError("%s: %s" % (where, exc)) from None


# --- varieties and points ---------------------------------------------------


def variety_to_json(V, memo=None):
    if isinstance(V, ProductVariety):
        return {"product": [variety_to_json(c, memo) for c in V.factors]}
    return {
        "curve": {
            "field": field_to_json(V.field),
            "a": element_to_json(V.a, memo),
            "b": element_to_json(V.b, memo),
        }
    }


def parse_variety(obj, caps=DEFAULT_CAPS, memo=None):
    if not isinstance(obj, dict):
        raise SchemaError("variety descriptor must be an object")
    if "product" in obj:
        _require_keys(obj, "variety", ("product",))
        factors = obj["product"]
        if not isinstance(factors, list) or not factors:
            raise SchemaError("product: needs a nonempty list of curves")
        try:
            return ProductVariety([parse_variety(c, caps, memo) for c in factors])
        except ValueError as exc:
            raise SchemaError("product: %s" % exc) from None
    if "curve" in obj:
        _require_keys(obj, "variety", ("curve",))
        body = obj["curve"]
        _require_keys(body, "curve", ("field", "a", "b"))
        field = parse_field(body["field"], caps)
        a = parse_element(field, body["a"], "curve.a", memo)
        b = parse_element(field, body["b"], "curve.b", memo)
        try:
            return EllipticCurve(field, a, b)
        except ValueError as exc:
            raise SchemaError("curve: %s" % exc) from None
    raise SchemaError("variety descriptor needs 'curve' or 'product'")


def point_to_json(P, memo=None):
    if isinstance(P, ProductPoint):
        return {"coords": [point_to_json(c, memo) for c in P.coords]}
    if P.is_infinity:
        return {"inf": True}
    return {"x": element_to_json(P.x, memo), "y": element_to_json(P.y, memo)}


def parse_point(V, obj, where="point", memo=None):
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
                parse_point(c, q, "%s[%d]" % (where, j), memo)
                for j, (c, q) in enumerate(zip(V.factors, coords))
            ]
        )
    _require_keys(obj, where, ("x", "y"))
    return Point(
        parse_element(V.field, obj["x"], where + ".x", memo),
        parse_element(V.field, obj["y"], where + ".y", memo),
    )


# --- towers ------------------------------------------------------------------


def tower_to_json(T, memo=None):
    return {
        "base": variety_to_json(T.variety, memo),
        "o": point_to_json(T.o, memo),
        "e": [point_to_json(P, memo) for P in T.points],
        "N": T.N,
    }


def parse_tower(obj, caps=DEFAULT_CAPS, memo=None):
    _require_keys(obj, "tower", ("base", "o", "e", "N"))
    V = parse_variety(obj["base"], caps, memo)
    o = parse_point(V, obj["o"], "o", memo)
    e_list = obj["e"]
    if not isinstance(e_list, list) or not e_list:
        raise SchemaError("tower: 'e' must be a nonempty list of points")
    points = [parse_point(V, p, "e[%d]" % i, memo) for i, p in enumerate(e_list)]
    message = "tower: 'N' must equal len(e) - 1"
    if _require_int(obj["N"], message) != len(points) - 1:
        raise SchemaError(message)
    try:
        return Tower(V, o, points)
    except ValueError as exc:
        raise SchemaError("tower: %s" % exc) from None


def parse_tower_pair(obj, where, caps=DEFAULT_CAPS, memo=None):
    if not isinstance(obj, list) or len(obj) != 2:
        raise SchemaError("%s: 'towers' must hold two towers" % where)
    return _parse(parse_tower, obj[0], caps, memo), _parse(parse_tower, obj[1], caps, memo)


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


def torsion_certificate_to_json(cert, memo=None):
    return {
        "certificate": "torsion",
        "variety": variety_to_json(cert.variety, memo),
        "point": point_to_json(cert.point, memo),
        "order": cert.order,
    }


def non_torsion_certificate_to_json(cert, memo=None):
    out = {
        "certificate": "non_torsion",
        "variety": variety_to_json(cert.variety, memo),
        "point": point_to_json(cert.point, memo),
        "evidence": [
            {"m": m, "multiple": point_to_json(mult, memo)} for m, mult in cert.evidence
        ],
    }
    # the wire format names the tracked factor of products only
    if cert.factor is not None and isinstance(cert.variety, ProductVariety):
        out["factor"] = cert.factor
    return out


def _shared(to_json, value, memo):
    """to_json(value, memo), once per value object when memo, a per-report dict, is given.

    A report repeats objects: classify_family hands out one Tower per member
    and one NonTorsionCertificate per distinct difference.  Entries are keyed
    on identity and keep the value, so its id stays valid; the report then
    holds one JSON subtree per shared value, which nothing mutates.  The
    same dict holds element_to_json's texts, keyed on the Rational itself.
    """
    if memo is None:
        return to_json(value)
    key = (to_json, id(value))
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = (value, to_json(value, memo))
    return hit[1]


def non_iso_certificate_to_json(cert, memo=None):
    return {
        "certificate": "non_iso",
        "towers": [
            _shared(tower_to_json, cert.tower_a, memo),
            _shared(tower_to_json, cert.tower_b, memo),
        ],
        "level": cert.level,
        "difference": point_to_json(cert.difference, memo),
        "non_torsion": _shared(non_torsion_certificate_to_json, cert.non_torsion, memo),
    }


def witness_to_json(witness, memo=None):
    return {
        "certificate": "tower_iso",
        "towers": [
            _shared(tower_to_json, witness.tower_a, memo),
            _shared(tower_to_json, witness.tower_b, memo),
        ],
        "translations": [
            {"point": point_to_json(t, memo), "order": c.order}
            for t, c in zip(witness.translations, witness.certificates)
        ],
    }


def certificate_to_json(cert, memo=None):
    """The certificate's JSON.

    memo, a dict kept for one report, shares the certificate's towers and
    inner certificate with the rest of that report (see _shared), and each
    Q value's text (see element_to_json).
    """
    from .torsion import NonTorsionCertificate, TorsionCertificate
    if isinstance(cert, TorsionCertificate):
        return torsion_certificate_to_json(cert, memo)
    if isinstance(cert, NonTorsionCertificate):
        return non_torsion_certificate_to_json(cert, memo)
    from .iso import NonIsoCertificate, TowerIsoWitness
    if isinstance(cert, NonIsoCertificate):
        return non_iso_certificate_to_json(cert, memo)
    if isinstance(cert, TowerIsoWitness):
        return witness_to_json(cert, memo)
    raise SchemaError("unknown certificate object %r" % (cert,))


def parse_torsion_certificate(obj, caps=DEFAULT_CAPS, memo=None):
    from .torsion import TorsionCertificate
    _require_keys(obj, "torsion certificate", ("certificate", "variety", "point", "order"))
    V = parse_variety(obj["variety"], caps, memo)
    P = parse_point(V, obj["point"], "point", memo)
    order = _require_int(
        obj["order"], "torsion certificate: order must be a positive integer", 1
    )
    return TorsionCertificate(V, P, order)


def parse_non_torsion_certificate(obj, caps=DEFAULT_CAPS, memo=None):
    from .torsion import NonTorsionCertificate
    _require_keys(
        obj,
        "non-torsion certificate",
        ("certificate", "variety", "point", "evidence"),
        optional=("factor",),
    )
    V = parse_variety(obj["variety"], caps, memo)
    P = parse_point(V, obj["point"], "point", memo)
    factor = obj.get("factor")
    if factor is not None:
        bad = "non-torsion certificate: bad factor index"
        if not isinstance(V, ProductVariety) or _require_int(factor, bad, 0) >= len(V.factors):
            raise SchemaError(bad)
    tracked = V.factors[factor] if factor is not None else V
    if not isinstance(obj["evidence"], list):
        raise SchemaError("non-torsion certificate: evidence must be a list")
    evidence = []
    for entry in obj["evidence"]:
        _require_keys(entry, "evidence entry", ("m", "multiple"))
        m = _require_int(entry["m"], "evidence entry: m must be an integer")
        evidence.append((m, parse_point(tracked, entry["multiple"], "point", memo)))
    return NonTorsionCertificate(V, P, tuple(evidence), factor)


def parse_non_iso_certificate(obj, caps=DEFAULT_CAPS, memo=None):
    from .iso import NonIsoCertificate
    _require_keys(
        obj,
        "non-iso certificate",
        ("certificate", "towers", "level", "difference", "non_torsion"),
    )
    A, B = parse_tower_pair(obj["towers"], "non-iso certificate", caps, memo)
    level = _require_int(obj["level"], "non-iso certificate: level must be an integer")
    diff = parse_point(A.variety, obj["difference"], "difference", memo)
    inner = _parse(parse_non_torsion_certificate, obj["non_torsion"], caps, memo)
    return NonIsoCertificate(A, B, level, diff, inner)


def parse_witness(obj, caps=DEFAULT_CAPS, memo=None):
    from .iso import TowerIsoWitness
    from .torsion import TorsionCertificate
    _require_keys(obj, "tower-iso witness", ("certificate", "towers", "translations"))
    A, B = parse_tower_pair(obj["towers"], "tower-iso witness", caps, memo)
    if not isinstance(obj["translations"], list):
        raise SchemaError("tower-iso witness: translations must be a list")
    points, certs = [], []
    for entry in obj["translations"]:
        _require_keys(entry, "translation", ("point", "order"))
        t = parse_point(A.variety, entry["point"], "translation", memo)
        order = _require_int(
            entry["order"], "translation: order must be a positive integer", 1
        )
        points.append(t)
        certs.append(TorsionCertificate(A.variety, t, order))
    return TowerIsoWitness(A, B, tuple(points), tuple(certs))


class VerifyMemo:
    """The parses and replay verdicts of one verify run over a JSON document.

    A report repeats towers and certificates: each non_iso pair of a
    corollary-demo report holds two of the family's towers and a non_torsion
    certificate that the report also lists on its own.  Through one memo a
    distinct subtree is parsed once, and a distinct certificate is replayed
    once.  A subtree is looked up by identity first, then by exact content:
    the parser, the caps and its marshal bytes, never its position.  Equal
    bytes load back to equal content with the same types.  Format 2 writes
    no back-references, so the bytes do not depend on which strings happen
    to be shared elsewhere; a subtree that differs only in key order
    misses, at the cost of one parse.  The inner non_torsion of a non_iso
    is the very object find_certificates lists on its own, so it is keyed
    once.  A certificate is looked up by identity alone: parses through the
    memo hand out one object per content, so its multi-KB rationals are
    never hashed.  Below the subtrees, rational(text) parses each distinct
    Q coordinate string once.  A parse or replay that raises keeps nothing.
    """

    def __init__(self):
        from .rationals import QQ
        self._by_id = {}
        self._parsed = {}
        self._verdicts = {}
        self.rational = functools.cache(QQ.parse)

    def parse(self, parse, obj, caps):
        ident = (parse, caps, id(obj))
        hit = self._by_id.get(ident)
        if hit is not None:
            return hit[1]
        try:
            text = marshal.dumps(obj, 2)
        except ValueError:
            # not plain data, or nested past marshal's depth: no key
            return parse(obj, caps, self)
        key = (parse, caps, text)
        if key not in self._parsed:
            self._parsed[key] = parse(obj, caps, self)
        value = self._parsed[key]
        # obj is kept with its value, so its id names no other object
        self._by_id[ident] = (obj, value)
        return value

    def replay(self, cert):
        hit = self._verdicts.get(id(cert))
        if hit is not None:
            return hit[1]
        ok = cert.verify()
        # cert is kept with its verdict, so its id names no other object
        self._verdicts[id(cert)] = (cert, ok)
        return ok


def _parse(parse, obj, caps, memo):
    """parse(obj, caps), through memo when there is one."""
    return parse(obj, caps) if memo is None else memo.parse(parse, obj, caps)


def verify_certificate(obj, caps=DEFAULT_CAPS, memo=None):
    """Re-run the arithmetic of one serialized certificate.

    Returns (ok, kind, reason); reason is None when the certificate holds.
    memo, a VerifyMemo, shares parses and replays with the other
    certificates of one run; the verdict is the same with or without it.
    """
    if not isinstance(obj, dict) or "certificate" not in obj:
        return False, None, "not a certificate object"
    kind = obj["certificate"]
    replay = methodcaller("verify") if memo is None else memo.replay
    try:
        if kind == "torsion":
            ok = replay(_parse(parse_torsion_certificate, obj, caps, memo))
            return ok, kind, None if ok else "torsion replay failed"
        if kind == "non_torsion":
            ok = replay(_parse(parse_non_torsion_certificate, obj, caps, memo))
            return ok, kind, None if ok else "non-torsion replay failed"
        if kind == "non_iso":
            ok = parse_non_iso_certificate(obj, caps, memo).verify(replay)
            return ok, kind, None if ok else "non-iso replay failed"
        if kind == "tower_iso":
            from .iso import verify_witness
            witness = parse_witness(obj, caps, memo)
            report = verify_witness(witness.tower_a, witness.tower_b, witness)
            return report.ok, kind, None if report.ok else "; ".join(report.failures)
        return False, kind, "unknown certificate kind"
    except SchemaError as exc:
        return False, kind, "schema: %s" % exc
    except (EctowerError, ValueError, TypeError, IndexError, ArithmeticError) as exc:
        # tampered data may break curve membership, curve construction or
        # the replay itself; every such failure is a refusal with a reason
        return False, kind, "%s: %s" % (type(exc).__name__, exc)


def find_certificates(obj):
    """All embedded certificate objects in a report, with their JSON paths.

    Depth first, dict keys in sorted order.  Only dicts and lists are
    visited, so point coordinates and other scalars never are, and a path
    is spelled out only for a node that holds a certificate.
    """
    found = []
    if isinstance(obj, (dict, list)):
        _find_certificates(obj, None, found)
    return [(_json_path(trail), node) for trail, node in found]


def _find_certificates(node, trail, found):
    """Append (trail, node) for each certificate at or below a dict or list node."""
    if isinstance(node, dict):
        if isinstance(node.get("certificate"), str):
            found.append((trail, node))
        for key in sorted(node):
            child = node[key]
            if isinstance(child, (dict, list)):
                _find_certificates(child, (trail, ".%s", key), found)
    else:
        for i, child in enumerate(node):
            if isinstance(child, (dict, list)):
                _find_certificates(child, (trail, "[%d]", i), found)


def _json_path(trail):
    """The path, like $.a[0].b, of a trail of (parent, format, step) links."""
    steps = []
    while trail is not None:
        trail, form, step = trail
        steps.append(form % step)
    return "$" + "".join(reversed(steps))
