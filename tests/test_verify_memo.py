"""One verify run parses and replays each distinct certificate once.

`commands_q.verify` shares a `VerifyMemo` among the certificates of a report.
The slow oracle verifies each certificate on its own, with no memo; the
memoized run must give the same (ok, kind, reason) at every path, on every
golden file and on every single-integer mutation of a report whose
certificates repeat.
"""

import json
import time
from pathlib import Path

from test_report_writer import q_texts
from test_verify_fuzz import _mutations

from ectower import serialize, torsion
from ectower.cli import main
from ectower.config import DEFAULT_CAPS
from ectower.fields import Rational
from ectower.serialize import VerifyMemo, find_certificates, verify_certificate

GOLDEN = Path(__file__).resolve().parent / "golden"
DEMO_4 = json.loads((GOLDEN / "corollary-demo-4.report.json").read_text())


def verify_each_alone(report):
    """The oracle: (path, verdict) of each certificate, verified with no memo."""
    return [(path, verify_certificate(obj)) for path, obj in find_certificates(report)]


def verify_memoized(report):
    memo = VerifyMemo()
    return [
        (path, verify_certificate(obj, DEFAULT_CAPS, memo))
        for path, obj in find_certificates(report)
    ]


def _verify_report(tmp_path, report):
    """(exit code, verify report) of `ectower verify` on report."""
    source, out = tmp_path / "report.json", tmp_path / "verified.json"
    source.write_text(json.dumps(report))
    code = main(["verify", "--input", str(source), "--output", str(out), "--json"])
    return code, json.loads(out.read_text())


def test_memoized_run_agrees_with_each_certificate_alone_on_every_golden_file():
    verdicts = set()
    for path in sorted(GOLDEN.glob("*.report.json")) + sorted(GOLDEN.glob("verify-*.job.json")):
        report = json.loads(path.read_text())
        expected = verify_each_alone(report)
        assert verify_memoized(report) == expected, path.name
        verdicts.update((ok, kind) for _, (ok, kind, _) in expected)
    kinds = {"torsion", "non_torsion", "non_iso", "tower_iso"}
    assert {(True, kind) for kind in kinds} <= verdicts
    assert any(not ok for ok, _ in verdicts)


def test_memoized_run_agrees_on_every_mutation_of_repeated_certificates():
    # pairs 0, 3 and 5 of the count-4 demo share their difference -P, and
    # each inner non_torsion certificate is listed again on its own path
    start = time.perf_counter()
    differences = [json.dumps(p["certificate"]["non_torsion"]) for p in DEMO_4["pairs"]]
    assert len(set(differences)) < len(differences)
    original = find_certificates(DEMO_4)
    alone = [verdict for _, verdict in verify_each_alone(DEMO_4)]
    refused = 0
    for key, variant in _mutations(DEMO_4):
        found = find_certificates(variant)
        assert [path for path, _ in found] == [path for path, _ in original]
        memo = VerifyMemo()
        for (path, obj), (_, before), verdict in zip(found, original, alone):
            # a mutation changes one value, so most certificates are the
            # original ones, whose verdict alone is already known
            expected = verdict if obj == before else verify_certificate(obj)
            assert verify_certificate(obj, DEFAULT_CAPS, memo) == expected, (key, path)
            refused += not expected[0]
    assert refused > 500
    assert time.perf_counter() - start < 20


def test_a_subtree_with_no_canonical_json_is_parsed_afresh():
    cert = DEMO_4["pairs"][0]["certificate"]
    tower = cert["towers"][0]
    odd = {**cert, "towers": [{**tower, "o": {"inf": object()}}, tower]}
    refusal = (False, "non_iso", "schema: o: missing key 'x'")
    assert verify_certificate(odd) == refusal
    memo = VerifyMemo()
    assert [verify_certificate(odd, DEFAULT_CAPS, memo) for _ in range(2)] == [refusal] * 2
    assert verify_certificate(cert, DEFAULT_CAPS, memo) == (True, "non_iso", None)


def test_equal_subtrees_share_a_parse_whatever_else_holds_their_strings():
    # marshal's formats 3 and later flag a string held elsewhere (as the
    # rational cache holds parsed coordinates) for a back-reference, so equal
    # content would give unequal keys; the memo's format 2 writes none
    text = json.dumps(DEMO_4["pairs"][0]["certificate"]["towers"][0])
    first, second = json.loads(text), json.loads(text)
    held = q_texts(first)
    parsed = []

    def parse(obj, caps, memo):
        parsed.append(obj)
        return object()

    memo = VerifyMemo()
    assert held and memo.parse(parse, first, DEFAULT_CAPS) is memo.parse(parse, second, DEFAULT_CAPS)
    assert parsed == [first]


def test_verify_replays_each_distinct_certificate_once(tmp_path, monkeypatch):
    # count 6 over y^2 = x^3 + 17: 15 non_iso pairs at level 1 whose
    # differences are the 5 multiples (m' - m)*P, and the base point P
    job = dict(json.loads((GOLDEN / "corollary-demo-4.job.json").read_text()), count=6)
    (tmp_path / "job.json").write_text(json.dumps(job))
    source = tmp_path / "demo.json"
    main(["corollary-demo", "--input", str(tmp_path / "job.json"), "--output", str(source)])
    blob = source.read_bytes()
    report = json.loads(blob)
    walks = []

    def counted(curve, P):
        walks.append(P)
        return walk(curve, P)

    walk = torsion._mazur_walk
    monkeypatch.setattr(torsion, "_mazur_walk", counted)
    # every difference lies on the integral model: no walk adds P to itself
    added = []
    monkeypatch.setattr(torsion, "_walk_by_addition", lambda curve, P: added.append(P))
    out = tmp_path / "verified.json"
    assert main(["verify", "--input", str(source), "--output", str(out)]) == 0
    assert len(walks) == len(set(walks)) == 6
    assert added == []
    assert source.read_bytes() == blob
    monkeypatch.undo()
    verified = json.loads(out.read_text())
    assert verified["certificates"] == 31
    expected = [
        {"path": path, "kind": kind, "ok": ok}
        for path, (ok, kind, _) in verify_each_alone(report)
    ]
    assert verified["results"] == expected


def test_each_subtree_object_is_keyed_once(tmp_path, monkeypatch):
    # count 6: the base point certificate, then per non_iso pair two towers
    # and an inner non_torsion that find_certificates also lists on its own
    job = dict(json.loads((GOLDEN / "corollary-demo-4.job.json").read_text()), count=6)
    (tmp_path / "job.json").write_text(json.dumps(job))
    source = tmp_path / "demo.json"
    main(["corollary-demo", "--input", str(tmp_path / "job.json"), "--output", str(source)])
    keyed = []
    dumps = serialize.marshal.dumps

    def counted(obj, version):
        keyed.append(id(obj))
        return dumps(obj, version)

    monkeypatch.setattr(serialize.marshal, "dumps", counted)
    out = tmp_path / "verified.json"
    assert main(["verify", "--input", str(source), "--output", str(out)]) == 0
    monkeypatch.undo()
    assert len(keyed) == len(set(keyed)) == 1 + 15 * 3
    assert json.loads(out.read_text())["certificates"] == 31


def test_a_replayed_certificate_is_looked_up_by_identity(tmp_path, monkeypatch):
    # count 6: the base point and the 5 distinct differences, each parsed
    # once into one object, then met again inside every non_iso pair
    job = dict(json.loads((GOLDEN / "corollary-demo-4.job.json").read_text()), count=6)
    (tmp_path / "job.json").write_text(json.dumps(job))
    source = tmp_path / "demo.json"
    main(["corollary-demo", "--input", str(tmp_path / "job.json"), "--output", str(source)])
    hashed, replayed = [], []
    cls = torsion.NonTorsionCertificate
    digest, replay = cls.__hash__, cls.verify

    def counted_hash(cert):
        hashed.append(id(cert))
        return digest(cert)

    def counted_verify(cert):
        replayed.append(id(cert))
        return replay(cert)

    monkeypatch.setattr(cls, "__hash__", counted_hash)
    monkeypatch.setattr(cls, "verify", counted_verify)
    out = tmp_path / "verified.json"
    assert main(["verify", "--input", str(source), "--output", str(out)]) == 0
    monkeypatch.undo()
    # a lookup by value would hash the frozen rationals on every one of them
    assert hashed == []
    assert len(replayed) == len(set(replayed)) == 6
    assert json.loads(out.read_text())["verified"] == 31


def test_a_replay_that_raises_refuses_every_copy(tmp_path, monkeypatch):
    calls = []

    def boom(cert):
        calls.append(cert)
        raise ArithmeticError("boom")

    monkeypatch.setattr(torsion.NonTorsionCertificate, "verify", boom)
    code, report = _verify_report(tmp_path, DEMO_4)
    assert code == 1 and report["verified"] == 0
    reasons = {entry["reason"] for entry in report["results"]}
    assert reasons == {"ArithmeticError: boom"}
    # the base point, then each non_iso and its inner certificate: nothing kept
    assert len(calls) == report["certificates"] == 13


def test_a_tampered_inner_certificate_fails_only_where_it_is(tmp_path):
    report = json.loads(json.dumps(DEMO_4))
    inner = report["pairs"][3]["certificate"]["non_torsion"]
    evidence = inner["evidence"]
    evidence[4]["multiple"] = evidence[5]["multiple"]
    code, verified = _verify_report(tmp_path, report)
    assert code == 1
    failed = {e["path"]: e["reason"] for e in verified["results"] if not e["ok"]}
    assert failed == {
        "$.pairs[3].certificate": "non-iso replay failed",
        "$.pairs[3].certificate.non_torsion": "non-torsion replay failed",
    }
    # pairs 0 and 5 carry the untouched certificate of the same difference
    same = DEMO_4["pairs"][3]["certificate"]["non_torsion"]
    assert all(DEMO_4["pairs"][k]["certificate"]["non_torsion"] == same for k in (0, 5))
    assert verified["verified"] == 11


def test_verify_parses_each_distinct_coordinate_string_once(tmp_path, monkeypatch):
    # count 6: 31 certificates whose towers and evidence repeat the
    # multiples of P, each string parsed once per verify command
    job = dict(json.loads((GOLDEN / "corollary-demo-4.job.json").read_text()), count=6)
    (tmp_path / "job.json").write_text(json.dumps(job))
    source, out = tmp_path / "demo.json", tmp_path / "verified.json"
    main(["corollary-demo", "--input", str(tmp_path / "job.json"), "--output", str(source)])
    texts = q_texts(json.loads(source.read_text()))
    parsed = []
    parse = Rational.parse

    def counted(cls, text):
        parsed.append(text)
        return parse(text)

    monkeypatch.setattr(Rational, "parse", classmethod(counted))
    assert main(["verify", "--input", str(source), "--output", str(out)]) == 0
    once = list(parsed)
    assert sorted(once) == sorted(set(texts))
    assert len(once) < len(texts)
    # the table is the command's: a second verify parses every string again
    assert main(["verify", "--input", str(source), "--output", str(out)]) == 0
    assert parsed == once + once
    monkeypatch.undo()
    assert json.loads(out.read_text())["verified"] == 31
