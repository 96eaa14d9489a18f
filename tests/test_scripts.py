"""The experiment scripts and the benchmark's own self-test, run as subprocesses."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(args, timeout):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=timeout,
    )


def test_deck_survey_refusal_exits_3():
    # over F_7 the composite level-4 map needs E[24], which no field within the caps holds
    done = _run(["scripts/deck_survey.py", "--p", "7", "--levels", "5"], timeout=60)
    assert done.returncode == 3
    assert "24-torsion" in done.stderr
    assert "Traceback" not in done.stderr


def test_deck_survey_levels_4_match_the_factorial_quotients():
    done = _run(["scripts/deck_survey.py", "--levels", "4"], timeout=120)
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines() if line[:1].isdigit()]
    assert [row[0] for row in rows] == ["1", "2", "3", "4"]
    assert all(row[5] == "True" for row in rows)
    # step deck (Z/i)^2 and composite deck (Z/i!)^2, the trivial group as (Z/1)^2
    assert [row[1] for row in rows] == ["(Z/%d)^2" % i for i in (1, 2, 3, 4)]
    assert [row[3] for row in rows] == ["(Z/%d)^2" % i for i in (1, 2, 6, 24)]


def test_deck_survey_field_cap_lifts_the_level_2_refusal():
    # E[2] needs F_5039^2, 25,391,521 elements: past the default cap, within 3 * 10^7
    args = ["scripts/deck_survey.py", "--p", "5039", "--levels", "2"]
    refused = _run(args, timeout=60)
    assert refused.returncode == 3
    assert "level 2 refused: no full 2-torsion field" in refused.stderr
    assert "Traceback" not in refused.stderr
    done = _run(args + ["--field-cap", "30000000"], timeout=60)
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines() if line[:1].isdigit()]
    assert [row[:6] for row in rows] == [
        ["1", "(Z/1)^2", "F_5039", "(Z/1)^2", "F_5039", "True"],
        ["2", "(Z/2)^2", "F_5039^2", "(Z/2)^2", "F_5039^2", "True"],
    ]
    low = _run(args + ["--field-cap", "1"], timeout=60)
    assert low.returncode == 2 and "--field-cap must be at least 2" in low.stderr
