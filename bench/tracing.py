"""Spans and counters around ectower's public functions, for the traced run.

The wrappers are installed from the benchmark, never from the program.  Each
function or method in TARGETS is replaced, in every ectower module that holds
a reference to it (``chain.deck_group``, ``cli.full_torsion_field``, ...), by
a wrapper that records a span: group, function, start, end, parent span, job
id, a note about its arguments or result, and whether a span of the same
group is already open.  Field arithmetic gets counters instead of spans,
because it runs millions of times in a pass.  Spans stay in memory until the
runner writes them out at the end of the run.
"""

import collections
import functools
import importlib
import sys
import time

RAISED = object()


def _length(args, result):
    return None if result is RAISED else len(result)


def _elements(args, result):
    return len(args[0])


def _returned(args, result):
    return result is not RAISED


def _found(args, result):
    return result is not RAISED and result is not None


def _certificate_ok(args, result):
    return None if result is RAISED else bool(result[0])


def _subcommand(args, result):
    return args[0][0] if args and args[0] else None


def _point_key(args, result):
    return hash((args[0], args[1]))


def _rational_bits(args, result):
    value = args[0].value
    num, den = getattr(value, "num", None), getattr(value, "den", None)
    if num is None:
        return None
    return max(abs(num).bit_length(), den.bit_length())


_TO_JSON = (
    "field_to_json", "element_to_json", "variety_to_json", "point_to_json",
    "tower_to_json", "group_to_json", "torsion_certificate_to_json",
    "non_torsion_certificate_to_json", "non_iso_certificate_to_json",
    "witness_to_json", "certificate_to_json",
)
_PARSE = (
    "parse_field", "parse_element", "parse_variety", "parse_point", "parse_tower",
    "parse_torsion_certificate", "parse_non_torsion_certificate",
    "parse_non_iso_certificate", "parse_witness",
)
_VARIETIES = ("EllipticCurve", "ProductVariety")

# (module, class or None, attribute, span group, note)
TARGETS = (
    [("fields", None, "find_irreducible", "fields.find_irreducible", None)]
    + [("curves", cls, "enumerate_points", "curves.enumerate", _length) for cls in _VARIETIES]
    + [("curves", cls, "scalar_mul", "curves.scalar_mul", None) for cls in _VARIETIES]
    + [("curves", cls, "contains", "curves.contains", None) for cls in _VARIETIES]
    + [("curves", cls, op, "curves.group_law", None)
       for cls in _VARIETIES for op in ("add", "sub", "negate")]
    + [("curves", cls, "group_structure", "curves.group_structure", None) for cls in _VARIETIES]
    + [
        ("groups", None, "structure_rank2", "groups.structure_rank2", _elements),
        ("groups", None, "combine_structures", "groups.combine_structures", None),
        ("towers", None, "full_torsion_field", "towers.full_torsion_field", _returned),
        ("towers", None, "extension_field", "towers.extension_field", None),
        ("towers", None, "deck_group", "towers.deck_group", None),
        ("towers", None, "fiber", "towers.fiber", _length),
        ("towers", None, "rational_fiber", "towers.rational_fiber", None),
        ("towers", None, "realize_map", "towers.realize", None),
        ("towers", None, "realize_variety", "towers.realize", None),
        ("towers", "TwistedMulMap", "__call__", "towers.map_eval", None),
        ("towers", "CompositeMap", "__call__", "towers.map_eval", None),
        ("towers", "Tower", "compose_to_base", "towers.compose_to_base", None),
        ("torsion", None, "torsion_test_Q", "torsion.test", _point_key),
        ("torsion", None, "torsion_subgroup_Q", "torsion.subgroup", None),
        ("torsion", None, "rational_torsion_points", "torsion.rational_points", None),
        ("torsion", None, "order_ff", "torsion.order_ff", None),
        ("torsion", "TorsionCertificate", "verify", "torsion.certificate_verify", None),
        ("torsion", "NonTorsionCertificate", "verify", "torsion.certificate_verify", None),
        ("iso", None, "classify_family", "iso.classify", None),
        ("iso", None, "necessity_test", "iso.necessity", None),
        ("iso", None, "witness_search", "iso.witness_search", _found),
        ("iso", None, "verify_witness", "iso.verify_witness", None),
        ("iso", None, "back_substitute", "iso.back_substitute", None),
        ("iso", "NonIsoCertificate", "verify", "iso.non_iso_verify", None),
        ("chain", None, "match_deck", "chain.match_deck", None),
    ]
    + [("chain", None, name, "chain.lattice", None)
       for name in ("chain_subgroup", "quotient", "refine", "separates")]
    + [("serialize", None, name, "serialize.to_json",
        _rational_bits if name == "element_to_json" else None) for name in _TO_JSON]
    + [("serialize", None, name, "serialize.parse", None) for name in _PARSE]
    + [
        ("serialize", None, "verify_certificate", "serialize.verify_certificate", _certificate_ok),
        ("serialize", None, "find_certificates", "serialize.find_certificates", None),
        ("cli", None, "main", "cli.main", _subcommand),
    ]
)

# (class in ectower.fields, method, counter)
COUNTERS = [
    (cls, method, "fields." + method.strip("_"))
    for cls in ("RationalField", "PrimeField", "ExtField")
    for method in ("_mul", "_inv")
] + [("ExtField", "__init__", "fields.ext_built")]

LAYERS = ("fields", "curves", "groups", "towers", "torsion", "iso", "chain", "serialize", "cli")
SUBCOMMANDS = ("tower-build", "chain-check", "corollary-demo", "iso", "verify")

# span fields
GROUP, FUNC, START, END, PARENT, JOB, NOTE, NESTED = range(8)
SPAN_FIELDS = ("group", "function", "start", "end", "parent", "job", "note", "nested")


class Tracer:
    """Installs the wrappers and keeps the spans and counts they record."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.job = None
        self._stack = []
        self._open = collections.Counter()
        self._undo = []

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "ectower" or name.startswith("ectower.")]
        for module, owner, attr, group, note in TARGETS:
            mod = importlib.import_module("ectower." + module)
            if owner is None:
                original = getattr(mod, attr)
                wrapper = self._span(group, attr, original, note)
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, name, wrapper)
            else:
                cls = getattr(mod, owner)
                original = cls.__dict__[attr]
                self._patch(cls, attr, self._span(group, owner + "." + attr, original, note))
        fields = importlib.import_module("ectower.fields")
        for owner, attr, key in COUNTERS:
            cls = getattr(fields, owner)
            self._patch(cls, attr, self._count(key, cls.__dict__[attr]))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span(self, group, func, fn, note):
        spans, stack, open_groups = self.spans, self._stack, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [group, func, clock(), 0.0, stack[-1] if stack else -1,
                    self.job, None, open_groups[group] > 0]
            open_groups[group] += 1
            stack.append(len(spans))
            spans.append(span)
            result = RAISED
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[END] = clock()
                stack.pop()
                open_groups[group] -= 1
                if note is not None:
                    span[NOTE] = note(args, result)

        return wrapper

    def _count(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, first, counts):
    """Per-layer metrics of one traced pass: {name: (value, unit)}.

    ``spans`` is the pass's slice of the tracer's span list and ``first`` the
    index of its first span there; parent fields index the full list.  A
    group's time and calls count only its outermost spans, so nested calls
    (a product's scalar_mul calling each curve's) are not counted twice.  A
    layer's self time is the duration of its spans minus the part covered by
    their child spans.
    """
    duration = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    for k, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT] - first] += duration[k]
    self_time = collections.Counter()
    outer = collections.defaultdict(list)
    for k, s in enumerate(spans):
        self_time[s[GROUP].split(".")[0]] += duration[k] - child[k]
        if not s[NESTED]:
            outer[s[GROUP]].append(k)

    def total(group):
        return sum(duration[k] for k in outer[group])

    def calls(group):
        return len(outer[group])

    def under(k, group):
        parent = spans[k][PARENT]
        while parent >= 0:
            if spans[parent - first][GROUP] == group:
                return True
            parent = spans[parent - first][PARENT]
        return False

    def noted(group, within=None):
        """Sum of the notes of a group's outermost spans, optionally inside another group."""
        return sum(spans[k][NOTE] or 0 for k in outer[group]
                   if within is None or under(k, within))

    fields_found = sum(1 for k in outer["towers.full_torsion_field"] if spans[k][NOTE])
    degrees = sum(1 for s in spans if s[GROUP] == "towers.extension_field")
    enumerated_in_deck = noted("curves.enumerate", "towers.deck_group")
    kernel_points = noted("groups.structure_rank2", "towers.deck_group")
    fiber_points = noted("towers.fiber")
    scanned = noted("curves.enumerate", "towers.fiber")
    tests = outer["torsion.test"]
    searches = outer["iso.witness_search"]
    verified = [spans[k][NOTE] for k in outer["serialize.verify_certificate"]]
    bits = [s[NOTE] for s in spans if s[FUNC] == "element_to_json" and s[NOTE] is not None]
    cli_spans = collections.Counter()
    for k in outer["cli.main"]:
        cli_spans[spans[k][NOTE]] += duration[k]

    metrics = {
        "fields.mul_calls": (counts["fields.mul"], "count"),
        "fields.inv_calls": (counts["fields.inv"], "count"),
        "fields.ext_built": (counts["fields.ext_built"], "count"),
        "fields.find_irreducible_s": (total("fields.find_irreducible"), "s"),
        "fields.q_max_bits": (max(bits, default=0), "bits"),
        "curves.enumerate_calls": (calls("curves.enumerate"), "count"),
        "curves.points_enumerated": (noted("curves.enumerate"), "count"),
        "curves.enumerate_s": (total("curves.enumerate"), "s"),
        "curves.scalar_mul_calls": (calls("curves.scalar_mul"), "count"),
        "curves.scalar_mul_s": (total("curves.scalar_mul"), "s"),
        "curves.contains_calls": (calls("curves.contains"), "count"),
        "curves.contains_s": (total("curves.contains"), "s"),
        "groups.structure_rank2_s": (total("groups.structure_rank2"), "s"),
        "groups.structure_elements": (noted("groups.structure_rank2"), "count"),
        "groups.combine_structures_s": (total("groups.combine_structures"), "s"),
        "towers.full_torsion_field_s": (total("towers.full_torsion_field"), "s"),
        "towers.degrees_tried": (degrees, "count"),
        "towers.degree_hit_ratio": (_ratio(fields_found, degrees), "ratio"),
        "towers.deck_group_s": (total("towers.deck_group"), "s"),
        "towers.kernel_hit_ratio": (_ratio(kernel_points, enumerated_in_deck), "ratio"),
        "towers.fiber_s": (total("towers.fiber"), "s"),
        "towers.fiber_hit_ratio": (_ratio(fiber_points, scanned), "ratio"),
        "towers.map_eval_calls": (calls("towers.map_eval"), "count"),
        "torsion.test_calls": (len(tests), "count"),
        "torsion.test_s": (total("torsion.test"), "s"),
        "torsion.test_distinct_ratio": (
            _ratio(len({spans[k][NOTE] for k in tests}), len(tests)), "ratio"),
        "torsion.subgroup_s": (total("torsion.subgroup"), "s"),
        "iso.classify_s": (total("iso.classify"), "s"),
        "iso.necessity_s": (total("iso.necessity"), "s"),
        "iso.witness_search_s": (total("iso.witness_search"), "s"),
        "iso.witness_hit_ratio": (
            _ratio(sum(1 for k in searches if spans[k][NOTE]), len(searches)), "ratio"),
        "iso.verify_witness_s": (total("iso.verify_witness"), "s"),
        "chain.match_deck_s": (total("chain.match_deck"), "s"),
        "serialize.to_json_s": (total("serialize.to_json"), "s"),
        "serialize.parse_s": (total("serialize.parse"), "s"),
        "serialize.verify_certificate_s": (total("serialize.verify_certificate"), "s"),
        "serialize.certificates_verified": (sum(1 for ok in verified if ok), "count"),
        "serialize.verify_failures": (sum(1 for ok in verified if ok is False), "count"),
    }
    for sub in SUBCOMMANDS:
        metrics["cli.main_s." + sub] = (cli_spans[sub], "s")
    for layer in LAYERS:
        metrics[layer + ".self_s"] = (self_time[layer], "s")
    return metrics

