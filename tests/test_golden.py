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
import re
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


# command: (report list, pattern of its text line, the groups that line shows for an item)
TEXT_ITEMS = {
    "tower-build": ("levels", r"  level (\d+): ", lambda row: (str(row["i"]),)),
    "chain-check": ("levels", r"  (\d+) +(\d+) ",
                    lambda row: (str(row["i"]), str(row["factorial"]))),
    "corollary-demo": ("pairs", r"  pair \((\d+), (\d+)\): (\w+)$",
                       lambda pair: (str(pair["a"]), str(pair["b"]), pair["status"])),
    "verify": ("results", r"  (\S+) (\w+): (ok|FAIL)",
               lambda entry: (entry["path"], entry["kind"], "ok" if entry["ok"] else "FAIL")),
}


@pytest.mark.parametrize("entry", MANIFEST, ids=[e["name"] for e in MANIFEST])
def test_golden_text_output(entry, capsys):
    # text is the default output mode: no --json
    argv = [entry["command"], "--input", str(GOLDEN / entry["input"]), *entry["flags"]]
    assert main(argv) == entry["exit"]
    lines = capsys.readouterr().out.splitlines()
    report = json.loads((GOLDEN / (entry["name"] + ".report.json")).read_text())
    if "error" in report:
        assert lines == ["error (%s): %s" % (report["kind"], report["error"])]
        return
    assert lines[0] == "%s (seed %d)" % (entry["command"], report["seed"])
    if entry["command"] in TEXT_ITEMS:
        key, pattern, shown = TEXT_ITEMS[entry["command"]]
        matches = (re.match(pattern, line) for line in lines[1:])
        assert [m.groups() for m in matches if m] == [shown(item) for item in report[key]]
