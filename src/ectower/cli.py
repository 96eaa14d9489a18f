"""Command-line front end: JSON jobs in, deterministic reports out.

Subcommands: tower-build, iso, corollary-demo, chain-check, torsion, verify.
Exit codes: 0 success, 1 certified negative result, 2 input error,
3 cap exceeded.  Identical jobs (including the seed) produce byte-identical
reports; all sampling is driven by the mandatory seed, which defaults to 0.
Each command imports the modules it runs when it runs, so loading this
module loads only config and errors.
"""

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import random
import sys

from .config import DEFAULT_CAPS
from .errors import (
    BaseMismatch,
    BoundExceeded,
    IncompleteTorsion,
    MixedFields,
    NonIntegralModel,
    PointNotOnCurve,
    RamifiedCharacteristic,
    SchemaError,
    TorsionBasePoint,
    UnsupportedField,
    ZeroVector,
)

INPUT_ERROR_KINDS = (
    SchemaError,
    PointNotOnCurve,
    BaseMismatch,
    MixedFields,
    NonIntegralModel,
    UnsupportedField,
    TorsionBasePoint,
    RamifiedCharacteristic,
    IncompleteTorsion,
    ZeroVector,
)


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        payload = _load_input(args)
        caps = _caps_from(args)
        opts = _job_options(args, payload)
        handler = _HANDLERS[args.command]
        report, code = handler(payload, opts, caps)
    except BoundExceeded as exc:
        _emit({"error": str(exc), "kind": "BoundExceeded"}, args)
        return 3
    except INPUT_ERROR_KINDS as exc:
        _emit({"error": str(exc), "kind": type(exc).__name__}, args)
        return 2
    except (json.JSONDecodeError, OSError) as exc:
        _emit({"error": str(exc), "kind": "input"}, args)
        return 2
    report["command"] = args.command
    report["seed"] = opts["seed"]
    _emit(report, args)
    return code


@functools.cache
def _build_parser():
    """The CLI's parser, built at the first main call and kept: parse_args keeps no state."""
    parser = argparse.ArgumentParser(
        prog="ectower",
        description="towers of covers of elliptic curves, with certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--input", required=True, help="job JSON file")
        p.add_argument("--output", help="also write the JSON report here")
        p.add_argument("--N", type=int, default=None, help="truncation level")
        p.add_argument("--seed", type=int, default=None, help="sampling seed (default 0)")
        p.add_argument("--field-cap", type=int, default=None, help="finite field size cap")
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--text", action="store_true", help="human-readable output (default)")
        fmt.add_argument("--json", action="store_true", help="JSON to stdout")
    return parser


def _load_input(args):
    with open(args.input, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except RecursionError:
            raise SchemaError("job input is nested too deeply") from None
        except json.JSONDecodeError:
            raise
        except ValueError as exc:
            # not UTF-8, or an integer literal past the int-from-str digit limit
            raise SchemaError("job input cannot be read: %s" % exc) from None
    if not isinstance(data, dict):
        raise SchemaError("job input must be a JSON object")
    return data


def _caps_from(args):
    if args.field_cap is not None:
        if args.field_cap < 2:
            raise SchemaError("--field-cap must be at least 2")
        return dataclasses.replace(DEFAULT_CAPS, field_size=args.field_cap)
    return DEFAULT_CAPS


# command: (required job keys, optional job keys); every job may also carry
# "command", "seed" and "N"
_JOB_KEYS = {
    "tower-build": (("tower",), ("deck",)),
    "iso": (("towers",), ()),
    "corollary-demo": (("curve", "point", "count"), ()),
    "chain-check": (("g", "max_level"), ("tower", "field", "bound")),
    "torsion": (("curve",), ("point",)),
}

# integer knob: its least value, None for no bound
_KNOB_MINIMUM = {"seed": None, "N": 0, "count": 1, "g": 1, "max_level": 0, "bound": 1}
_KNOB_RANGE = {None: "an", 0: "a non-negative", 1: "a positive"}


def _job_options(args, payload):
    """The job's integer knobs, command-line flags first, each read once."""
    from . import serialize
    if args.command == "verify":
        # verify consumes arbitrary report files, not job specs
        return {"seed": args.seed if args.seed is not None else 0, "N": args.N}
    if payload.get("command", args.command) != args.command:
        raise SchemaError(
            "job file says command %r but %r was invoked"
            % (payload["command"], args.command)
        )
    required, optional = _JOB_KEYS[args.command]
    serialize._require_keys(
        payload, "%s job" % args.command, required, optional + ("command", "seed", "N")
    )
    opts = {key: payload[key] for key in _KNOB_MINIMUM if key in payload}
    opts["seed"] = args.seed if args.seed is not None else opts.get("seed", 0)
    opts["N"] = args.N if args.N is not None else opts.get("N")
    for key, value in opts.items():
        if key != "N" or value is not None:  # N null, like no N, truncates nothing
            minimum = _KNOB_MINIMUM[key]
            message = "%r must be %s integer" % (key, _KNOB_RANGE[minimum])
            serialize._require_int(value, message, minimum)
    return opts


# --- tower-build ---------------------------------------------------------------


def _cmd_tower_build(payload, opts, caps):
    from . import serialize
    from .fields import QQ
    from .towers import deck_group, full_torsion_field
    tower = serialize.parse_tower(payload["tower"], caps)
    if opts["N"] is not None:
        if opts["N"] > tower.N:
            raise SchemaError("cannot truncate to N=%d, tower has N=%d" % (opts["N"], tower.N))
        tower = tower.truncate(opts["N"])
    want_deck = payload.get("deck", False)
    if not isinstance(want_deck, bool):
        raise SchemaError("'deck' must be a boolean")
    if want_deck and tower.variety.field == QQ:
        raise SchemaError(
            "deck groups are computed over finite-field realizations; the base is over Q"
        )
    rank = 2 * tower.variety.dimension
    levels = []
    for i in range(1, tower.N + 1):
        composite = tower.compose_to_base(i)
        row = {
            "i": i,
            "n": i,
            "e": serialize.point_to_json(tower.points[i]),
            "composite": {
                "m": composite.m,
                "c": serialize.point_to_json(composite.c),
            },
        }
        if want_deck:
            step_field = full_torsion_field(tower.variety, i, caps)
            step = deck_group(tower.level_map(i), step_field, caps)
            comp_field = full_torsion_field(tower.variety, composite.m, caps)
            comp = deck_group(composite, comp_field, caps)
            row["step_deck"] = serialize.group_to_json(step, step_field, rank)
            row["deck"] = serialize.group_to_json(comp, comp_field, rank)
        levels.append(row)
    report = {
        "tower": serialize.tower_to_json(tower),
        "levels": levels,
    }
    return report, 0


# --- iso -------------------------------------------------------------------------


def _cmd_iso(payload, opts, caps):
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
    report = {
        "towers": [
            serialize._shared(serialize.tower_to_json, A, memo),
            serialize._shared(serialize.tower_to_json, B, memo),
        ]
    }
    verdict = classify_family([A, B], caps).verdicts[(0, 1)]
    report["status"] = verdict.status
    report["certificate"] = (
        None
        if verdict.certificate is None
        else serialize.certificate_to_json(verdict.certificate, memo)
    )
    return report, 1 if verdict.status == "non_iso" else 0


# --- corollary-demo -----------------------------------------------------------------


def _cmd_corollary_demo(payload, opts, caps):
    from . import serialize
    from .fields import QQ
    from .iso import classify_family
    from .torsion import TorsionCertificate, torsion_test_Q
    from .towers import Tower
    V = serialize.parse_variety(payload["curve"], caps)
    if V.field != QQ:
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


# --- chain-check --------------------------------------------------------------------


def _cmd_chain_check(payload, opts, caps):
    from . import serialize
    from .chain import LatticeGroup, match_deck, quotient, refine, separates
    g, max_level = opts["g"], opts["max_level"]
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
        row = {
            "i": i,
            "factorial": q.modulus,
            "invariant_factors": list(q.group.invariant_factors),
            "order": q.order,
            "display": q.group.describe(lattice.rank),
        }
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
    report = {
        "g": g,
        "max_level": max_level,
        "levels": rows,
        "refine_checks": refine_checks,
        "separation_checks": separation_checks,
        "bound": bound,
    }
    if tower is not None:
        report["tower"] = serialize.tower_to_json(tower)
    return report, 0


# --- torsion --------------------------------------------------------------------------


def _cmd_torsion(payload, opts, caps):
    from . import serialize
    from .fields import QQ
    from .torsion import TorsionCertificate, torsion_subgroup_Q, torsion_test_Q
    V = serialize.parse_variety(payload["curve"], caps)
    if V.field != QQ:
        raise SchemaError("torsion certification is defined over Q")
    if "point" in payload:
        P = serialize.parse_point(V, payload["point"])
        cert = torsion_test_Q(V, P)
        report = {
            "mode": "test",
            "curve": serialize.variety_to_json(V),
            "point": serialize.point_to_json(P),
            "certificate": serialize.certificate_to_json(cert),
        }
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


# --- verify ---------------------------------------------------------------------------


def _cmd_verify(payload, opts, caps):
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
    report = {
        "certificates": len(found),
        "verified": len(found) - failures,
        "results": results,
        "ok": failures == 0,
    }
    return report, 0 if failures == 0 else 1


_HANDLERS = {
    "tower-build": _cmd_tower_build,
    "iso": _cmd_iso,
    "corollary-demo": _cmd_corollary_demo,
    "chain-check": _cmd_chain_check,
    "torsion": _cmd_torsion,
    "verify": _cmd_verify,
}


# --- output ------------------------------------------------------------------------------


def _emit(report, args):
    text = _dumps(report)
    if getattr(args, "output", None):
        _write_atomically(args.output, text)
    if getattr(args, "json", False):
        _write_line(sys.stdout, text)
    else:
        sys.stdout.write(_render_text(report) + "\n")


# characters per write: a text stream encodes each write whole, so a report
# goes out in slices instead of as one encoded copy of its text
_SLICE = 1 << 16


def _write_line(handle, text):
    """Write text and a newline to a text stream, one slice of text at a time."""
    for start in range(0, len(text), _SLICE):
        handle.write(text[start : start + _SLICE])
    handle.write("\n")


_encode_str = json.encoder.encode_basestring_ascii


def _dumps(obj):
    """A report's JSON text, byte for byte as json.dumps with sorted keys and indent 2.

    With an indent, json encodes through a chain of pure-Python generators;
    this writer appends pieces to one list.  A report shares subtrees (see
    serialize._shared), so a container met again at the same depth is copied:
    its first writing records only its span in the piece list, and the second
    sighting joins that span once and keeps the text.  Reports hold str, int,
    bool, None, lists, tuples and dicts with str keys; anything else raises
    TypeError, floats included.  A cyclic report is never built.
    """
    out = []
    _write(obj, "\n", out, {})
    return "".join(out)


def _write(obj, pad, out, spans):
    """Append obj's pieces to out; pad is a newline and two spaces a level."""
    if isinstance(obj, str):
        out.append(_encode_str(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, (list, tuple, dict)):
        if not obj:
            out.append("{}" if isinstance(obj, dict) else "[]")
            return
        key = (id(obj), len(pad))
        seen = spans.get(key)
        if seen is not None:
            if len(seen) == 3:  # (obj, start, end) of its first writing
                seen = spans[key] = (obj, "".join(out[seen[1] : seen[2]]))
            out.append(seen[1])
            return
        start = len(out)
        inner = pad + "  "
        comma = "," + inner
        sep = inner
        if isinstance(obj, dict):
            out.append("{")
            for k in sorted(obj):
                if not isinstance(k, str):
                    raise TypeError("report keys must be str, not %s" % type(k).__name__)
                out.append(sep + _encode_str(k) + ": ")
                _write(obj[k], inner, out, spans)
                sep = comma
            out.append(pad + "}")
        else:
            out.append("[")
            for item in obj:
                out.append(sep)
                _write(item, inner, out, spans)
                sep = comma
            out.append(pad + "]")
        spans[key] = (obj, start, len(out))
    else:
        raise TypeError("%s is not allowed in a report" % type(obj).__name__)


def _write_atomically(path, text):
    """Write text and a newline to a new file beside path, then rename it onto path.

    A failed write leaves any earlier report at path untouched, and the
    rename never exposes a half-written one.
    """
    tmp = "%s.%s.tmp" % (path, os.urandom(8).hex())
    try:
        with open(tmp, "x", encoding="utf-8") as handle:
            _write_line(handle, text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _render_text(report):
    if "error" in report:
        return "error (%s): %s" % (report.get("kind"), report["error"])
    command = report.get("command", "")
    lines = ["%s (seed %d)" % (command, report.get("seed", 0))]
    if command == "tower-build":
        for row in report["levels"]:
            line = "  level %d: [%d]_%s  composite m=%d c=%s" % (
                row["i"],
                row["n"],
                _point_text(row["e"]),
                row["composite"]["m"],
                _point_text(row["composite"]["c"]),
            )
            if "deck" in row:
                line += "  deck %s" % row["deck"]["display"]
            lines.append(line)
    elif command == "iso":
        lines.append("  status: %s" % report["status"])
        cert = report.get("certificate")
        if cert and cert["certificate"] == "non_iso":
            lines.append("  non-torsion difference at level %d" % cert["level"])
        if cert and cert["certificate"] == "tower_iso":
            lines.append(
                "  translations: %s"
                % " ".join(_point_text(t["point"]) for t in cert["translations"])
            )
    elif command == "corollary-demo":
        lines.append(
            "  %d towers, N=%d, base point %s"
            % (report["count"], report["N"], _point_text(report["point"]))
        )
        for pair in report["pairs"]:
            lines.append("  pair (%d, %d): %s" % (pair["a"], pair["b"], pair["status"]))
        lines.append("  all non-isomorphic: %s" % report["all_non_isomorphic"])
    elif command == "chain-check":
        lines.append("  %-5s %-10s %-24s %-10s %s" % ("i", "i!", "quotient", "order", "match"))
        for row in report["levels"]:
            lines.append(
                "  %-5d %-10d %-24s %-10d %s"
                % (
                    row["i"],
                    row["factorial"],
                    row["display"],
                    row["order"],
                    row.get("match_deck", "-"),
                )
            )
        for chk in report["separation_checks"]:
            lines.append("  separates(%s) = %d" % (chk["gamma"], chk["level"]))
        for chk in report["refine_checks"]:
            lines.append("  refine(%s) = %d" % (chk["levels"], chk["refined"]))
    elif command == "torsion":
        if report["mode"] == "test":
            cert = report["certificate"]
            if cert["certificate"] == "torsion":
                lines.append("  torsion of order %d" % cert["order"])
            else:
                lines.append("  non-torsion (no admissible multiple vanishes)")
        else:
            lines.append("  torsion subgroup: %s" % report["group"])
            for entry in report["points"]:
                lines.append(
                    "  %s  order %d"
                    % (_point_text(entry["point"]), entry["certificate"]["order"])
                )
    elif command == "verify":
        lines.append(
            "  %d/%d certificates verified" % (report["verified"], report["certificates"])
        )
        for entry in report["results"]:
            mark = "ok" if entry["ok"] else "FAIL (%s)" % entry.get("reason")
            lines.append("  %s %s: %s" % (entry["path"], entry["kind"], mark))
    return "\n".join(lines)


def _point_text(obj):
    if obj.get("inf"):
        return "O"
    if "coords" in obj:
        return "(" + ", ".join(_point_text(c) for c in obj["coords"]) + ")"
    return "(%s, %s)" % (obj["x"], obj["y"])


if __name__ == "__main__":
    sys.exit(main())
