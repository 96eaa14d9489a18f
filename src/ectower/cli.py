"""Command-line front end: JSON jobs in, deterministic reports out.

Subcommands: tower-build, iso, corollary-demo, chain-check, torsion, verify.
Exit codes: 0 success, 1 certified negative result, 2 input error,
3 cap exceeded.  Identical jobs (including the seed) produce byte-identical
reports; all sampling is driven by the mandatory seed, which defaults to 0.

This module parses arguments, reads the job, dispatches and writes the
report.  The handlers live apart: commands_fq holds the finite-field
commands (tower-build, chain-check) and commands_q the certificate commands
over Q (iso, corollary-demo, torsion, verify).  main imports the one module
its command needs when it runs, and each handler imports what it runs, so
loading this module loads only config and errors, and a process compiles
only its own command's code.
"""

import argparse
import contextlib
import functools
import importlib
import json
import os
import sys

from .config import DEFAULT_CAPS, Caps
from .errors import (BaseMismatch, BoundExceeded, IncompleteTorsion, MixedFields, NonIntegralModel,
                     PointNotOnCurve, RamifiedCharacteristic, SchemaError, TorsionBasePoint,
                     UnsupportedField, ZeroVector)

INPUT_ERROR_KINDS = (SchemaError, PointNotOnCurve, BaseMismatch, MixedFields, NonIntegralModel,
                     UnsupportedField, TorsionBasePoint, RamifiedCharacteristic, IncompleteTorsion,
                     ZeroVector)


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        payload = _load_input(args)
        caps = _caps_from(args)
        opts = _job_options(args, payload)
        module = importlib.import_module("." + _HANDLERS[args.command], __package__)
        report, code = getattr(module, args.command.replace("-", "_"))(payload, opts, caps)
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
        return Caps(field_size=args.field_cap)
    return DEFAULT_CAPS


# command: the module whose function of the command's name, - read as _, runs it
_HANDLERS = {"tower-build": "commands_fq", "iso": "commands_q", "corollary-demo": "commands_q",
             "chain-check": "commands_fq", "torsion": "commands_q", "verify": "commands_q"}

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
