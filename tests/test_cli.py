import copy
import json
import os
import subprocess
import sys
from pathlib import Path

from ectower.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"
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
