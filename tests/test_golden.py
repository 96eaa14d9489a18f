"""Golden corpus: every CLI job in tests/golden gives its recorded report, byte for byte.

`manifest.json` lists each job: its subcommand, input file, extra flags and
exit code.  The reports `<name>.report.json` were written by
`ectower <command> --input <input> --output <name>.report.json <flags>` and
are never re-recorded by the tests; a `verify` job reads another job's
recorded report as its input.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from ectower.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())


@pytest.mark.parametrize("entry", MANIFEST, ids=[e["name"] for e in MANIFEST])
def test_golden_report(entry, tmp_path):
    out = tmp_path / "report.json"
    argv = [entry["command"], "--input", str(GOLDEN / entry["input"]), "--output", str(out),
            *entry["flags"]]
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code == entry["exit"]
    assert out.read_bytes() == (GOLDEN / (entry["name"] + ".report.json")).read_bytes()


def test_golden_covers_every_subcommand_and_exit_code():
    assert {e["command"] for e in MANIFEST} == {
        "tower-build", "iso", "corollary-demo", "chain-check", "torsion", "verify"}
    assert {e["exit"] for e in MANIFEST} == {0, 1, 2, 3}
