import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ectower import cli
from ectower.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"
Q = {"field": "Q"}
F5 = {"field": "Fp", "p": "5"}


def curve(field, a, b):
    return {"curve": {"field": field, "a": a, "b": b}}


def inf():
    return {"inf": True}


def pt(x, y):
    return {"x": x, "y": y}


E5_TOWER = {
    "base": curve(F5, "0", "1"),
    "o": inf(),
    "e": [inf(), pt("0", "1"), pt("0", "4"), inf()],
    "N": 3,
}


def run(tmp_path, command, payload, *flags):
    job = tmp_path / "job.json"
    job.write_text(json.dumps(payload))
    out = tmp_path / "out.json"
    code = main([command, "--input", str(job), "--output", str(out), "--json", *flags])
    report = json.loads(out.read_text()) if out.exists() else None
    out.unlink(missing_ok=True)
    return code, report


def test_tower_build_deck_column(tmp_path, capsys):
    payload = {
        "tower": {
            "base": curve(F5, "0", "1"),
            "o": inf(),
            "e": [inf(), inf(), inf(), inf()],
            "N": 3,
        },
        "deck": True,
    }
    code, report = run(tmp_path, "tower-build", payload)
    assert code == 0
    decks = [row["deck"]["display"] for row in report["levels"]]
    assert decks == ["(Z/1)^2", "(Z/2)^2", "(Z/6)^2"]
    assert [row["composite"]["m"] for row in report["levels"]] == [1, 2, 6]
    # deck groups report the field they were computed over
    assert report["levels"][1]["deck"]["field"]["field"] == "Fpk"


def test_tower_build_n_zero(tmp_path):
    payload = {"tower": {"base": curve(Q, "0", "1"), "o": inf(), "e": [inf()], "N": 0}}
    code, report = run(tmp_path, "tower-build", payload)
    assert code == 0
    assert report["levels"] == []


def test_tower_build_rejects_wrong_first_point(tmp_path):
    payload = {
        "tower": {
            "base": curve(Q, "0", "1"),
            "o": inf(),
            "e": [pt("2", "3"), inf()],
            "N": 1,
        }
    }
    code, report = run(tmp_path, "tower-build", payload)
    assert code == 2
    assert report["kind"] == "SchemaError"


def test_tower_build_rejects_unknown_keys(tmp_path):
    payload = {"tower": E5_TOWER, "surprise": 1}
    code, report = run(tmp_path, "tower-build", payload)
    assert code == 2
    payload = {
        "tower": {
            "base": curve(Q, "0", "1"),
            "o": inf(),
            "e": [inf()],
            "N": 0,
            "extra": True,
        }
    }
    code, report = run(tmp_path, "tower-build", payload)
    assert code == 2


def test_tower_build_deck_refused_over_q(tmp_path):
    payload = {
        "tower": {"base": curve(Q, "0", "1"), "o": inf(), "e": [inf(), inf()], "N": 1},
        "deck": True,
    }
    code, report = run(tmp_path, "tower-build", payload)
    assert code == 2


def test_point_not_on_curve_is_input_error(tmp_path):
    payload = {
        "tower": {
            "base": curve(Q, "0", "1"),
            "o": inf(),
            "e": [inf(), pt("1", "1")],
            "N": 1,
        }
    }
    code, report = run(tmp_path, "tower-build", payload)
    assert code == 2
    assert report["kind"] == "PointNotOnCurve"


def _iso_payload(e_b):
    base = curve(Q, "-1", "0")
    return {
        "towers": [
            {
                "base": base,
                "o": inf(),
                "e": [inf(), pt("0", "0"), pt("1", "0")],
                "N": 2,
            },
            {"base": base, "o": inf(), "e": e_b, "N": 2},
        ]
    }


def test_iso_identical_towers(tmp_path):
    payload = _iso_payload([inf(), pt("0", "0"), pt("1", "0")])
    code, report = run(tmp_path, "iso", payload)
    assert code == 0
    assert report["status"] == "iso"
    assert all(t["point"] == inf() for t in report["certificate"]["translations"])


def test_iso_undetermined_on_unsolvable_torsion_shift(tmp_path):
    # shifting level 2 by (0,0) makes d_2 nontrivial 2-torsion: necessity
    # passes but no translation witness exists over (Z/2)^2
    shifted = [inf(), pt("0", "0"), pt("-1", "0")]
    code, report = run(tmp_path, "iso", _iso_payload(shifted))
    assert code == 0
    assert report["status"] == "undetermined"
    assert report["certificate"] is None


def test_iso_non_iso_exit_code(tmp_path):
    base = curve(Q, "0", "17")
    payload = {
        "towers": [
            {"base": base, "o": inf(), "e": [inf(), inf()], "N": 1},
            {"base": base, "o": inf(), "e": [inf(), pt("-2", "3")], "N": 1},
        ]
    }
    code, report = run(tmp_path, "iso", payload)
    assert code == 1
    assert report["status"] == "non_iso"
    assert report["certificate"]["level"] == 1


def test_iso_base_mismatch(tmp_path):
    payload = {
        "towers": [
            {"base": curve(Q, "0", "17"), "o": inf(), "e": [inf(), inf()], "N": 1},
            {"base": curve(Q, "0", "1"), "o": inf(), "e": [inf(), inf()], "N": 1},
        ]
    }
    code, report = run(tmp_path, "iso", payload)
    assert code == 2
    assert report["kind"] == "BaseMismatch"


CORO = {
    "curve": curve(Q, "0", "17"),
    "point": pt("-2", "3"),
    "count": 3,
}


def test_corollary_demo(tmp_path):
    code, report = run(tmp_path, "corollary-demo", CORO, "--N", "3")
    assert code == 0
    assert report["all_non_isomorphic"] is True
    assert report["classes"] == [[0], [1], [2]]
    assert len(report["pairs"]) == 3
    assert all(p["certificate"]["level"] == 1 for p in report["pairs"])


def test_corollary_demo_single_tower(tmp_path):
    payload = dict(CORO, count=1)
    code, report = run(tmp_path, "corollary-demo", payload, "--N", "2")
    assert code == 0
    assert report["pairs"] == []
    assert report["classes"] == [[0]]


def test_corollary_demo_torsion_base_point(tmp_path):
    payload = {"curve": curve(Q, "0", "1"), "point": pt("2", "3"), "count": 2}
    code, report = run(tmp_path, "corollary-demo", payload)
    assert code == 2
    assert report["kind"] == "TorsionBasePoint"


def test_corollary_demo_refuses_finite_field(tmp_path):
    payload = {"curve": curve(F5, "0", "1"), "point": pt("0", "1"), "count": 2}
    code, report = run(tmp_path, "corollary-demo", payload)
    assert code == 2


def test_chain_check_orders(tmp_path):
    code, report = run(tmp_path, "chain-check", {"g": 1, "max_level": 4})
    assert code == 0
    assert [row["order"] for row in report["levels"]] == [1, 4, 36, 576]
    code, report = run(tmp_path, "chain-check", {"g": 2, "max_level": 2})
    assert [row["order"] for row in report["levels"]] == [1, 16]
    code, report = run(tmp_path, "chain-check", {"g": 1, "max_level": 0})
    assert report["levels"] == []
    for chk in report["separation_checks"]:
        assert chk["level"] <= 21


def test_chain_check_with_tower_match(tmp_path):
    payload = {"g": 1, "max_level": 3, "tower": E5_TOWER}
    code, report = run(tmp_path, "chain-check", payload)
    assert code == 0
    assert [row["match_deck"] for row in report["levels"]] == [True, True, True]


def test_chain_check_explicit_incomplete_field(tmp_path):
    payload = {"g": 1, "max_level": 2, "tower": E5_TOWER, "field": F5}
    code, report = run(tmp_path, "chain-check", payload)
    assert code == 2
    assert report["kind"] == "IncompleteTorsion"


def test_torsion_subgroup_command(tmp_path):
    code, report = run(tmp_path, "torsion", {"curve": curve(Q, "-1", "0")})
    assert code == 0
    assert report["invariant_factors"] == [2, 2]
    assert len(report["points"]) == 4


def test_torsion_test_command_exit_codes(tmp_path):
    payload = {"curve": curve(Q, "0", "1"), "point": pt("2", "3")}
    code, report = run(tmp_path, "torsion", payload)
    assert code == 0
    assert report["certificate"]["order"] == 6
    payload = {"curve": curve(Q, "0", "17"), "point": pt("-2", "3")}
    code, report = run(tmp_path, "torsion", payload)
    assert code == 1
    assert report["certificate"]["certificate"] == "non_torsion"


def test_verify_roundtrip_and_tamper(tmp_path):
    code, report = run(tmp_path, "corollary-demo", CORO, "--N", "3")
    assert code == 0
    code, vreport = run(tmp_path, "verify", report)
    assert code == 0
    assert vreport["ok"] is True
    tampered = copy.deepcopy(report)
    tampered["pairs"][0]["certificate"]["non_torsion"]["evidence"][2]["multiple"][
        "x"
    ] = "7"
    code, vreport = run(tmp_path, "verify", tampered)
    assert code == 1
    assert vreport["ok"] is False
    assert any(not r["ok"] for r in vreport["results"])


def test_verify_refuses_inadmissible_order_promptly(tmp_path):
    # (-2, 3) on y^2 = x^3 + 17 has infinite order; 2^20 is no Mazur order
    cert = {
        "certificate": "torsion",
        "variety": curve(Q, "0", "17"),
        "point": pt("-2", "3"),
        "order": 1048576,
    }
    job = tmp_path / "cert.json"
    job.write_text(json.dumps(cert))
    path = [str(SRC), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, "-m", "ectower", "verify", "--input", str(job), "--json"],
        capture_output=True, text=True, env=env, timeout=5,
    )
    assert done.returncode == 1
    assert json.loads(done.stdout)["ok"] is False


def test_verify_without_certificates(tmp_path):
    code, report = run(tmp_path, "verify", {"hello": 1})
    assert code == 2


def test_field_cap_exceeded(tmp_path):
    payload = {"tower": E5_TOWER, "deck": True}
    code, report = run(tmp_path, "tower-build", payload, "--field-cap", "20")
    assert code == 3
    assert report["kind"] == "BoundExceeded"


def test_iso_job_truncated_by_flag(tmp_path):
    payload = json.loads((GOLDEN / "iso-iso.job.json").read_text())
    code, report = run(tmp_path, "iso", payload, "--N", "1")
    assert code == 0
    assert [tower["N"] for tower in report["towers"]] == [1, 1]
    code, verified = run(tmp_path, "verify", report)
    assert code == 0 and verified["ok"] is True
    code, report = run(tmp_path, "iso", payload, "--N", "9")
    assert code == 2
    assert report == {"error": "cannot truncate to N=9", "kind": "SchemaError"}


@pytest.mark.parametrize(
    "command, payload, flags",
    [
        ("tower-build", {"tower": E5_TOWER, "deck": 1}, ()),
        ("tower-build", {"tower": E5_TOWER}, ("--field-cap", "1")),
        ("chain-check", {"g": 1, "max_level": 2, "field": F5}, ()),
    ],
    ids=["deck-not-bool", "field-cap-below-2", "field-without-tower"],
)
def test_malformed_options_exit_2(tmp_path, command, payload, flags):
    code, report = run(tmp_path, command, payload, *flags)
    assert code == 2
    assert report["kind"] == "SchemaError"


def test_reports_are_byte_identical(tmp_path):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"g": 1, "max_level": 3}))
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(
            ["chain-check", "--input", str(job), "--output", str(out), "--seed", "9"]
        ) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    out = tmp_path / "c.json"
    assert main(
        ["chain-check", "--input", str(job), "--output", str(out), "--seed", "10"]
    ) == 0
    assert out.read_bytes() != outs[0]


def test_unknown_extension_modulus_rejected(tmp_path):
    bad = {
        "tower": {
            "base": curve({"field": "Fpk", "p": "5", "k": 2, "modulus": [1, 0, 1]}, [1], [1]),
            "o": inf(),
            "e": [inf()],
            "N": 0,
        }
    }
    # x^2 + 1 factors mod 5, the schema layer must reject it
    code, report = run(tmp_path, "tower-build", bad)
    assert code == 2


def test_text_output_runs(tmp_path, capsys):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"g": 1, "max_level": 2}))
    assert main(["chain-check", "--input", str(job)]) == 0
    captured = capsys.readouterr()
    assert "quotient" in captured.out
    assert main(["chain-check", "--input", str(job), "--json"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["g"] == 1

def _verify_in_subprocess(tmp_path, cert, timeout=5):
    job = tmp_path / "cert.json"
    job.write_text(json.dumps(cert))
    path = [str(SRC), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, "-m", "ectower", "verify", "--input", str(job), "--json"],
        capture_output=True, text=True, env=env, timeout=timeout,
    )
    return done.returncode, json.loads(done.stdout)


def test_verify_refuses_orders_beyond_the_hasse_bound_promptly(tmp_path):
    # (4, 0) on y^2 = x^3 + 1 over F_5 has order 2; no point over F_5 has an
    # order with a prime factor above 5 + 1 + 4, so neither claim is factored
    for big_prime in (10**16 + 61, 10**29 + 319):
        cert = {
            "certificate": "torsion",
            "variety": curve(F5, "0", "1"),
            "point": pt("4", "0"),
            "order": 2 * big_prime,
        }
        code, report = _verify_in_subprocess(tmp_path, cert)
        assert code == 1
        assert report["results"][0]["reason"] == "torsion replay failed"


def test_verify_refuses_extension_degrees_before_exponentiating(tmp_path):
    for k in (10**7, 10**9):
        field = {"field": "Fpk", "p": "5", "k": k}
        cert = {"certificate": "torsion", "variety": curve(field, [0], [1]),
                "point": inf(), "order": 1}
        code, report = _verify_in_subprocess(tmp_path, cert)
        assert code == 1
        assert report["results"][0]["reason"].startswith("BoundExceeded")
    # a JSON true is no degree, though Python counts it as the integer 1
    field = {"field": "Fpk", "p": "5", "k": True}
    cert = {"certificate": "torsion", "variety": curve(field, [0], [1]),
            "point": inf(), "order": 1}
    code, report = _verify_in_subprocess(tmp_path, cert)
    assert code == 1
    assert report["results"][0]["reason"] == "schema: field: 'k' must be a positive integer"


def test_output_is_written_whole_with_no_temporary_file_left(tmp_path, capsys):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"tower": E5_TOWER}))
    out = tmp_path / "out.json"
    out.write_text("an earlier report\n")
    assert main(["tower-build", "--input", str(job), "--output", str(out), "--json"]) == 0
    assert out.read_text() == capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["job.json", "out.json"]


def test_failed_output_write_leaves_the_earlier_report(tmp_path, monkeypatch, capsys):
    from ectower import cli

    job = tmp_path / "job.json"
    job.write_text(json.dumps({"tower": E5_TOWER}))
    out = tmp_path / "out.json"
    out.write_text("an earlier report\n")

    class FullDisk:
        def __init__(self, handle):
            self.handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

        def write(self, text):
            self.handle.write(text[: len(text) // 2])
            raise OSError(28, "No space left on device")

    def open_for_writing_fails(path, mode="r", **kwargs):
        handle = open(path, mode, **kwargs)
        return handle if mode == "r" else FullDisk(handle)

    monkeypatch.setattr(cli, "open", open_for_writing_fails, raising=False)
    with pytest.raises(OSError, match="No space left"):
        main(["tower-build", "--input", str(job), "--output", str(out), "--json"])
    monkeypatch.undo()

    def refuse_rename(src, dst):
        raise OSError(18, "Invalid cross-device link")

    monkeypatch.setattr(cli.os, "replace", refuse_rename)
    with pytest.raises(OSError, match="cross-device"):
        main(["tower-build", "--input", str(job), "--output", str(out), "--json"])
    assert out.read_text() == "an earlier report\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["job.json", "out.json"]


def test_verify_reads_no_json_true_as_an_order(tmp_path):
    # O has order 1, and Python counts true as the integer 1
    cert = {"certificate": "torsion", "variety": curve(Q, "0", "17"),
            "point": inf(), "order": True}
    code, report = _verify_in_subprocess(tmp_path, cert)
    assert code == 1
    assert report["results"][0]["ok"] is False
    assert report["results"][0]["reason"] == (
        "schema: torsion certificate: order must be a positive integer")
    cert["order"] = 1
    code, report = _verify_in_subprocess(tmp_path, cert)
    assert code == 0


def _run_module(tmp_path, command, payload):
    job = tmp_path / "job.json"
    job.write_text(json.dumps(payload))
    path = [str(SRC), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, "-m", "ectower", command, "--input", str(job), "--json"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    return done.returncode, json.loads(done.stdout)


CHAIN = {"g": 1, "max_level": 2, "bound": 5}


@pytest.mark.parametrize(
    "command, payload, knob",
    [
        ("tower-build", {"tower": E5_TOWER, "seed": True}, "seed"),
        ("tower-build", {"tower": E5_TOWER, "N": True}, "N"),
        ("corollary-demo", {**CORO, "count": True}, "count"),
        ("chain-check", {**CHAIN, "g": True}, "g"),
        ("chain-check", {**CHAIN, "max_level": True}, "max_level"),
        ("chain-check", {**CHAIN, "bound": True}, "bound"),
    ],
    ids=["seed", "N", "count", "g", "max_level", "bound"],
)
def test_job_knobs_refuse_json_true(tmp_path, command, payload, knob):
    # Python counts true as the integer 1: N = true truncated a tower to level 1
    code, report = _run_module(tmp_path, command, payload)
    assert code == 2
    assert report["kind"] == "SchemaError"
    assert repr(knob) in report["error"]
    payload[knob] = 1
    code, report = _run_module(tmp_path, command, payload)
    assert code in (0, 1) and "error" not in report


def _fresh_process(args, timeout):
    """python args in a new interpreter that imports this checkout's ectower."""
    path = [str(SRC), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout
    )


def _run_text(tmp_path, command, text, timeout):
    job = tmp_path / "job.json"
    job.write_bytes(text if isinstance(text, bytes) else text.encode())
    return _fresh_process(["-m", "ectower", command, "--input", str(job), "--json"], timeout)


@pytest.mark.parametrize("depth", [995, 1000])
def test_deeply_nested_input_is_a_schema_error(tmp_path, depth):
    done = _run_text(tmp_path, "verify", '{"a": ' + "[" * depth + "]" * depth + "}", 30)
    assert done.returncode == 2
    assert json.loads(done.stdout)["kind"] == "SchemaError"
    assert "Traceback" not in done.stderr


def test_chain_check_refuses_an_order_past_the_printable_digits(tmp_path):
    # (20!)^232 has 4,266 digits and (20!)^234 4,303, past Python's default
    # int-to-str limit of 4,300; (2!)^20000 has 6,021
    code, report = run(tmp_path, "chain-check", {"g": 116, "max_level": 20})
    assert code == 0 and report["levels"][-1]["order"] == math.factorial(20) ** 232
    for job, shown in (({"g": 117, "max_level": 20}, "(20!)^234"),
                       ({"g": 10000, "max_level": 2}, "(2!)^20000")):
        code, report = _run_refusal(tmp_path, "chain-check", job)
        assert code == 3 and report["kind"] == "BoundExceeded" and shown in report["error"]


def test_nagell_lutz_search_beyond_the_field_cap_exits_3(tmp_path):
    job = json.dumps({"curve": curve(Q, str(10**12 + 7), "0")}, separators=(",", ":"))
    done = _run_text(tmp_path, "torsion", job, 5)
    assert done.returncode == 3
    assert json.loads(done.stdout)["kind"] == "BoundExceeded"
    assert "Traceback" not in done.stderr


def test_nagell_lutz_root_searches_are_charged_against_the_field_cap(tmp_path):
    # isqrt of the search range (9,986,589) is inside the 10^7 cap, but the
    # root searches for the 385 values of y trial-divide 26,765,747 times
    job = json.dumps({"curve": curve(Q, "0", "480480")}, separators=(",", ":"))
    done = _run_text(tmp_path, "torsion", job, 5)
    assert done.returncode == 3
    assert json.loads(done.stdout)["kind"] == "BoundExceeded"
    assert "Traceback" not in done.stderr


def test_verify_refuses_float_extension_coefficients(tmp_path):
    handmade = json.loads((GOLDEN / "verify-handmade.job.json").read_text())
    cert = handmade["items"][0]  # torsion over F_{5^2}, "x": [2, 1]
    cert["point"]["x"] = [2.9, 1.9]
    code, report = _verify_in_subprocess(tmp_path, cert)
    assert code == 1
    assert report["results"][0]["reason"].startswith("schema: ")


def _long_order_job():
    """The handmade verify job with a 4,401-digit order on its F_{5^2} certificate."""
    text = (GOLDEN / "verify-handmade.job.json").read_bytes()
    assert text.count(b'"order": 3,') == 1
    return text.replace(b'"order": 3,', b'"order": 1' + b"0" * 4400 + b",")


@pytest.mark.parametrize("case", ["not-utf8", "4401-digit-integer"])
def test_input_that_fails_to_load_exits_2(tmp_path, case):
    blob = b'{"note": "caf\xe9"}' if case == "not-utf8" else _long_order_job()
    done = _run_text(tmp_path, "verify", blob, 30)
    assert done.returncode == 2
    assert json.loads(done.stdout)["kind"] == "SchemaError"
    assert "Traceback" not in done.stderr


def _run_refusal(tmp_path, command, payload):
    """(exit code, report) of a job run as the CLI runs it, which must leave no traceback."""
    done = _run_text(tmp_path, command, json.dumps(payload), 60)
    assert "Traceback" not in done.stderr
    return done.returncode, json.loads(done.stdout)


F25 = {"field": "Fpk", "p": "5", "k": 2}
# y^2 = x^3 + 1 over F_{5^2}: supersingular, with group (Z/6)^2
E25_TOWER = {
    "base": curve(F25, [0], [1]),
    "o": inf(),
    "e": [inf(), pt([0], [1]), pt([4], [0]), pt([0], [4])],
    "N": 3,
}


def test_explicit_field_of_characteristic_zero_is_refused(tmp_path):
    payload = {"g": 1, "max_level": 2, "tower": E5_TOWER, "field": Q}
    code, report = _run_refusal(tmp_path, "chain-check", payload)
    assert code == 2
    assert report == {"error": "cannot embed F_5 into Q", "kind": "UnsupportedField"}


def test_zero_denominator_is_a_schema_error(tmp_path):
    code, report = _run_refusal(tmp_path, "torsion", {"curve": curve(Q, "1/0", "1")})
    assert code == 2
    assert report["kind"] == "SchemaError"
    assert "zero denominator" in report["error"]


def test_chain_check_over_an_extension_field_tower(tmp_path):
    payload = {"g": 1, "max_level": 3, "tower": E25_TOWER}
    code, report = _run_refusal(tmp_path, "chain-check", payload)
    assert code == 2
    assert report == {
        "error": "torsion-field search starts from a prime-field model",
        "kind": "UnsupportedField",
    }
    code, report = run(tmp_path, "chain-check", {**payload, "field": F25})
    assert code == 0
    assert [row["match_deck"] for row in report["levels"]] == [True, True, True]


def test_chain_check_level_divisible_by_the_characteristic(tmp_path):
    # E5 has group (Z/24)^2 over F_{5^4}: levels 1-4 match, level 5 has m = 120
    tower = {**E5_TOWER, "e": E5_TOWER["e"] + [inf(), inf()], "N": 5}
    payload = {"g": 1, "max_level": 5, "tower": tower,
               "field": {"field": "Fpk", "p": "5", "k": 4}}
    code, report = _run_refusal(tmp_path, "chain-check", payload)
    assert code == 2
    assert report["kind"] == "IncompleteTorsion"
    assert report["error"].startswith("characteristic 5 divides the degree 120; ")


@pytest.mark.parametrize(
    "command, payload",
    [
        ("tower-build", {"tower": {**E25_TOWER, "base": curve(F25, [0, 0, 1], [1])}}),
        ("tower-build", {"command": "iso", "tower": E5_TOWER}),
        ("verify", [{"certificate": "torsion"}]),
    ],
    ids=["coefficients-past-k", "command-of-another-job", "top-level-list"],
)
def test_malformed_jobs_exit_2(tmp_path, command, payload):
    code, report = _run_refusal(tmp_path, command, payload)
    assert code == 2
    assert report["kind"] == "SchemaError"


def test_one_parser_serves_every_call_in_a_process(tmp_path, capsys):
    # the parser is built at the first main call, not at import, and kept;
    # argparse's exits 2 (an unknown flag, two exclusive flags) leave nothing
    # in it, so each call gives the bytes of a fresh process
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"g": 1, "max_level": 2}))
    calls = [
        ["chain-check", "--input", str(job), "--json", "--bogus"],
        ["chain-check", "--input", str(job), "--json", "--seed", "3"],
        ["chain-check", "--input", str(job), "--json", "--text"],
        ["chain-check", "--input", str(job), "--text"],
    ]
    codes = []
    for argv in calls:
        fresh = _fresh_process(["-m", "ectower", *argv], 60)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        codes.append(code)
    assert codes == [2, 0, 2, 0]
    assert cli._build_parser() is cli._build_parser()
    imported = _fresh_process(
        ["-c", "import ectower.cli as c; print(c._build_parser.cache_info().currsize)"], 60
    )
    assert imported.stdout == "0\n"
