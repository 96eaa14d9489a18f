"""What each entry point loads, and that the package's names stay as they were.

Each check runs in a fresh interpreter, so modules an earlier test imported
cannot stand in for an import the code under test forgot.
"""

import json
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())

# every public name of the package, by its home module
PUBLIC = {
    "config": ("Caps", "DEFAULT_CAPS"),
    "fields": ("QQ", "ExtField", "FieldElement", "PrimeField", "Rational", "find_irreducible"),
    "groups": ("FiniteAbelianGroup",),
    "curves": ("EllipticCurve", "Point", "ProductPoint", "ProductVariety"),
    "torsion": ("MAZUR_ORDERS", "NonTorsionCertificate", "TorsionCertificate", "order_ff",
                "torsion_subgroup_Q", "torsion_test_Q"),
    "towers": ("CompositeMap", "Tower", "TwistedMulMap", "deck_group", "fiber",
               "full_torsion_field", "rational_fiber"),
    "iso": ("NonIsoCertificate", "TowerIsoWitness", "classify_family", "necessity_test",
            "verify_witness", "witness_search"),
    "chain": ("LatticeGroup", "chain_subgroup", "match_deck", "quotient", "refine", "separates"),
}


def _env():
    path = [str(SRC), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


def _run(code):
    """Run code in a fresh interpreter and return what it prints as JSON."""
    done = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout)


def _loaded_after(statement):
    return set(_run(statement + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"))


def test_importing_the_package_loads_no_module_of_it():
    assert {m for m in _loaded_after("import ectower") if m.startswith("ectower.")} == set()


def test_cli_loads_no_handler_and_towers_no_q():
    # main imports a command's handler module when the command runs, and
    # fields resolves Q's names from ectower.rationals on first use
    loaded = _loaded_after("import ectower.cli")
    assert "ectower.cli" in loaded
    assert {"ectower.commands_fq", "ectower.commands_q", "ectower.rationals"} & loaded == set()
    loaded = _loaded_after("import ectower.towers")
    assert "ectower.towers" in loaded and "ectower.rationals" not in loaded
    # ectower.fields.QQ still resolves, and compiles Q then
    assert "ectower.rationals" in _loaded_after("import ectower.fields\nectower.fields.QQ")


def test_towers_and_cli_load_no_certificate_module():
    loaded = _loaded_after("import ectower.towers, ectower.cli")
    assert {"ectower.towers", "ectower.cli", "ectower.curves"} <= loaded
    skipped = {"ectower.torsion", "ectower.iso", "ectower.chain", "ectower.serialize",
               "secrets", "hmac"}
    assert loaded & skipped == set()


def test_every_public_name_is_its_home_modules_object():
    code = """
import importlib, json
import ectower
from ectower import *
public = %r
print(json.dumps({
    "all": sorted(ectower.__all__),
    "dir": sorted(set(ectower.__all__) - set(dir(ectower))),
    "same": [name for home, names in public.items() for name in names
             if getattr(ectower, name) is getattr(importlib.import_module("ectower." + home), name)
             and globals()[name] is getattr(ectower, name)],
    "version": __version__,
}))
""" % (PUBLIC,)
    found = _run(code)
    names = sorted(name for names in PUBLIC.values() for name in names)
    assert found["all"] == sorted(names + ["__version__"])
    assert found["dir"] == []
    assert sorted(found["same"]) == names
    assert found["version"] == "0.1.0"


def test_an_unknown_name_raises_attribute_error():
    code = """
import json
import ectower
try:
    ectower.no_such_name
except AttributeError as exc:
    print(json.dumps(str(exc)))
"""
    assert "no_such_name" in _run(code)
    with pytest.raises(ImportError):
        exec("from ectower import no_such_name", {})


# the first job of each subcommand in the manifest
FIRST_PER_COMMAND = list({e["command"]: e for e in reversed(MANIFEST)}.values())


@pytest.mark.parametrize("entry", FIRST_PER_COMMAND, ids=[e["name"] for e in FIRST_PER_COMMAND])
def test_each_subcommand_runs_in_a_fresh_process(entry, tmp_path):
    out = tmp_path / "report.json"
    argv = [sys.executable, "-m", "ectower", entry["command"],
            "--input", str(GOLDEN / entry["input"]), "--output", str(out), *entry["flags"]]
    done = subprocess.run(argv, env=_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == entry["exit"], done.stderr[-2000:]
    assert out.read_bytes() == (GOLDEN / (entry["name"] + ".report.json")).read_bytes()


F_Q_JOBS = [e for e in FIRST_PER_COMMAND if e["command"] in ("tower-build", "chain-check")]


@pytest.mark.parametrize("entry", F_Q_JOBS, ids=[e["name"] for e in F_Q_JOBS])
def test_finite_field_commands_load_no_certificate_module(entry, tmp_path):
    # serialize imports torsion and iso only where a certificate is touched
    out = tmp_path / "report.json"
    argv = [entry["command"], "--input", str(GOLDEN / entry["input"]), "--output", str(out),
            *entry["flags"]]
    code = """
import contextlib, io, json, sys
from ectower.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(%r)
print(json.dumps([code, sorted(sys.modules)]))
""" % (argv,)
    code, loaded = _run(code)
    assert code == entry["exit"]
    assert out.read_bytes() == (GOLDEN / (entry["name"] + ".report.json")).read_bytes()
    assert "ectower.serialize" in loaded
    assert {"ectower.torsion", "ectower.iso"} & set(loaded) == set()
    # nor Q's arithmetic
    assert "ectower.rationals" not in loaded


# the module whose handlers run each subcommand
HANDLER_MODULE = {"tower-build": "commands_fq", "chain-check": "commands_fq"}


@pytest.mark.parametrize("entry", FIRST_PER_COMMAND, ids=[e["name"] for e in FIRST_PER_COMMAND])
def test_a_subcommand_compiles_its_own_handlers_and_no_dataclasses(entry, tmp_path):
    # the records are __slots__ classes, so no process generates dataclass code
    out = tmp_path / "report.json"
    argv = [entry["command"], "--input", str(GOLDEN / entry["input"]), "--output", str(out),
            *entry["flags"]]
    code = """
import contextlib, io, json, sys
from ectower.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(%r)
print(json.dumps([code, sorted(sys.modules)]))
""" % (argv,)
    code, loaded = _run(code)
    assert code == entry["exit"]
    assert out.read_bytes() == (GOLDEN / (entry["name"] + ".report.json")).read_bytes()
    assert "dataclasses" not in loaded
    handlers = {m for m in loaded if m.startswith("ectower.commands_")}
    assert handlers == {"ectower." + HANDLER_MODULE.get(entry["command"], "commands_q")}


# CPython's parser keeps a module's tokens in an array that doubles when full;
# past these counts it doubles to 16,384 and 8,192 slots, which every process
# compiling the module pays for in peak memory
TOKEN_LIMITS = {"fields.py": 8192, "serialize.py": 4096, "cli.py": 4096,
                "curves.py": 4096, "groups.py": 4096}


@pytest.mark.parametrize("name, limit", sorted(TOKEN_LIMITS.items()))
def test_module_stays_under_the_parser_token_doubling(name, limit):
    with open(SRC / "ectower" / name, "rb") as fh:
        count = sum(
            1
            for t in tokenize.tokenize(fh.readline)
            if t.type not in (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
        )
    assert count < limit, "%s has %d parser tokens, %d at most" % (name, count, limit - 1)
