"""The report writer against its oracle, json.dumps(obj, sort_keys=True, indent=2).

`cli._dumps` writes every report.  Its output must equal the oracle's byte
for byte on any tree a report can hold, including trees that reuse one
container object at equal and at different depths, as reports built with a
`serialize._shared` memo do.
"""

import io
import json
import os
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ectower import cli, serialize
from ectower.cli import _dumps
from ectower.fields import Rational


def oracle(obj):
    return json.dumps(obj, sort_keys=True, indent=2)


# ASCII, any other code point, and lone surrogates, which JSON escapes as \udxxx
CHARS = st.one_of(
    st.characters(max_codepoint=127),
    st.characters(),
    st.integers(0xD800, 0xDFFF).map(chr),
)
TEXT = st.text(CHARS, max_size=8)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**6), 10**6),
    st.integers(10**100, 10**120),
    st.integers(-(10**120), -(10**100)),
    TEXT,
)


def _extend(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(TEXT, children, max_size=4),
    )


TREES = st.recursive(SCALARS, _extend, max_leaves=24)
CONTAINERS = _extend(TREES)


@st.composite
def shared_trees(draw):
    """A tree holding one container object at several depths, some equal."""
    shared = draw(CONTAINERS)
    other = draw(TREES)
    spots = []
    for depth in draw(st.lists(st.integers(0, 3), min_size=1, max_size=5)):
        node = shared
        for _ in range(depth):
            node = draw(st.sampled_from([[node], (other, node), {"k": node, "o": other}]))
        spots.append(node)
    return draw(st.sampled_from([spots, {"a": spots, "b": shared}, [other, spots, shared]]))


@settings(max_examples=150)
@given(TREES)
def test_writer_equals_the_oracle(obj):
    assert _dumps(obj) == oracle(obj)


@settings(max_examples=150)
@given(shared_trees())
def test_writer_equals_the_oracle_on_shared_subtrees(obj):
    assert _dumps(obj) == oracle(obj)


def test_writer_on_fixed_cases():
    empty = {"d": {}, "l": [], "t": ()}
    inner = {"z": [True, False, None, 1, 10**100]}
    cases = [
        "",
        "é\ud800\U0001f600\"\\\n",
        [inner, inner, [inner], {"x": inner}],
        {"b": empty, "a": [empty, empty]},
        (1, (2, [3])),
        [[], {}, ()],
    ]
    for obj in cases:
        assert _dumps(obj) == oracle(obj)


@pytest.mark.parametrize("bad", [1.5, Fraction(1, 2), {"a": [0.0]}, {1: "x"}, {b"k": 1}, {1, 2}])
def test_writer_refuses_what_no_report_holds(bad):
    with pytest.raises(TypeError):
        _dumps(bad)


COUNT_11 = {
    "count": 11,
    "curve": {"curve": {"a": "0", "b": "17", "field": {"field": "Q"}}},
    "point": {"x": "-2", "y": "3"},
}


def test_a_family_report_serializes_each_shared_value_once(tmp_path, monkeypatch):
    job = tmp_path / "job.json"
    job.write_text(json.dumps(COUNT_11))

    def report_bytes(name):
        out = tmp_path / name
        assert cli.main(["corollary-demo", "--input", str(job), "--output", str(out)]) == 0
        return out.read_bytes()

    with monkeypatch.context() as m:
        # every value serialized afresh, written by the oracle
        m.setattr(serialize, "_shared", lambda to_json, value, memo: to_json(value))
        m.setattr(cli, "_dumps", oracle)
        unshared = report_bytes("unshared.json")
    calls = {}
    for name in ("tower_to_json", "non_torsion_certificate_to_json", "element_to_json"):
        def counted(*args, name=name, original=getattr(serialize, name)):
            calls[name] = calls.get(name, 0) + 1
            return original(*args)

        monkeypatch.setattr(serialize, name, counted)
    assert report_bytes("shared.json") == unshared
    # 11 towers, the 10 distinct differences (m - m')*P and the base point's
    # certificate, each serialized once; unshared, 110 towers, 56 non_torsion
    # certificates and 3,110 elements
    assert calls == {
        "tower_to_json": 11,
        "non_torsion_certificate_to_json": 11,
        "element_to_json": 554,
    }



def q_texts(node):
    """Each string under an "x", "y", "a" or "b" key of a report: its Q values."""
    if isinstance(node, list):
        return [text for child in node for text in q_texts(child)]
    if not isinstance(node, dict):
        return []
    texts = []
    for key, child in node.items():
        if key in ("x", "y", "a", "b") and isinstance(child, str):
            texts.append(child)
        else:
            texts.extend(q_texts(child))
    return texts


def test_a_family_report_prints_each_distinct_q_value_once(tmp_path, monkeypatch):
    job, out = tmp_path / "job.json", tmp_path / "demo.json"
    job.write_text(json.dumps(dict(COUNT_11, count=6)))
    printed = []
    text = Rational.__str__

    def counted(value):
        printed.append((value.num, value.den))
        return text(value)

    monkeypatch.setattr(Rational, "__str__", counted)
    assert cli.main(["corollary-demo", "--input", str(job), "--output", str(out)]) == 0
    once = list(printed)
    texts = q_texts(json.loads(out.read_text()))
    assert len(once) == len(set(once)) == len(set(texts)) < len(texts)
    # the table is the command's: a second command prints every value again
    assert cli.main(["corollary-demo", "--input", str(job), "--output", str(out)]) == 0
    assert printed == once + once


def test_a_report_is_written_in_slices_without_a_copy_of_its_text(tmp_path):
    # a 2 MB report text: writing it to a file or to a text stream allocates
    # about one slice and its encoding at a time, not the text again
    text = "[" + ",".join('"%07d"' % i for i in range(200_000)) + "]"
    out = tmp_path / "report.json"
    with open(os.devnull, "w", encoding="utf-8") as sink:
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            cli._write_atomically(str(out), text)
            cli._write_line(sink, text)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
    assert out.read_bytes() == (text + "\n").encode()
    stream = io.StringIO()
    cli._write_line(stream, text)
    assert stream.getvalue() == text + "\n"
    assert peak < len(text) // 4


def test_emit_writes_the_same_bytes_to_the_file_and_stdout(tmp_path, capsys):
    job, out = tmp_path / "job.json", tmp_path / "demo.json"
    job.write_text(json.dumps(dict(COUNT_11, count=6)))
    assert cli.main(["corollary-demo", "--input", str(job), "--output", str(out), "--json"]) == 0
    blob = out.read_bytes()
    assert capsys.readouterr().out.encode() == blob
    assert blob == (oracle(json.loads(blob)) + "\n").encode()
