#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at reduced size (about a second).

    python3 bench/smoke.py

Runs a small job list drawn from all three workloads, once untraced and once
traced, with one extra job whose expected result is deliberately wrong.
Checks that every metric BENCHMARK.json names prints with its unit, that the
wrong job is counted in ``failed`` and ``fail_ratio`` and makes the run
incorrect, that a job raising anything but its ``expected_raise`` makes the
run incorrect, that no wrapper stays installed after the traced run, and
that the benchmark refuses to run without the ectower sources.  Exits 1 on the
first failed check.
"""

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys

import run

sys.path.insert(0, str(run.SRC))

import jobs  # noqa: E402
import ectower.cli  # noqa: E402


def small_jobs(workdir):
    rng = random.Random(7)
    workdir.mkdir(parents=True, exist_ok=True)
    e5 = jobs.fp_points(5, 0, 1)
    base5 = jobs.curve_json(jobs.fp(5), 0, 1)
    centers = [jobs.point_json(rng.choice(e5)) for _ in range(2)]
    product = {"product": [base5, jobs.curve_json(jobs.fp(5), 0, 2)]}
    pair = {"coords": [jobs.point_json(rng.choice(e5)),
                       jobs.point_json(rng.choice(jobs.fp_points(5, 0, 2)))]}
    demo, certificates = jobs.corollary_job(workdir, "corollary-demo-4", 4, 2)
    iso_towers = jobs.emx_pair(rng, 2, 0)
    return [
        jobs.tower_build_job(workdir, "tower-build-g1-N2", base5, centers, 1),
        jobs.tower_build_job(workdir, "tower-build-g2-N1", product, [pair], 2),
        jobs.chain_check_job(workdir, "chain-check-g1-L2", base5, centers, 1),
        *jobs.fiber_jobs(rng, (1,)),
        demo,
        jobs.verify_job(workdir, demo, None, certificates),
        jobs.iso_job(workdir, "iso-emx", iso_towers, "iso"),
        # deliberately wrong: this pair has a witness, so it is not non_iso
        jobs.iso_job(workdir, "wrong-expectation", iso_towers, "non_iso", level=1),
    ]


def check(cond, message):
    if not cond:
        print("SMOKE FAIL: " + message)
        sys.exit(1)
    print("ok: " + message)


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    listed = small_jobs(run.WORK / "smoke")
    probes = run.SetupProbes("fibers", 0, count=2)
    original_main = ectower.cli.main
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        passes, failures, tracer = run.measure(listed, 0, trace, probes)
        setup_s = probes.value()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            result = run.report("smoke", len(listed), passes, failures, tracer, setup_s, {})
        lines = out.getvalue().splitlines()
        check(json.loads(lines[-1]) == result, "trace %d: the last line is the result" % trace)
        check(set(result) == {"correct", "attempted", "failed", "metrics"},
              "trace %d: the result has exactly the four keys" % trace)
        metrics = result["metrics"]
        for m in spec[key]:
            check(metrics.get(m["name"], {}).get("unit") == m["unit"]
                  and isinstance(metrics[m["name"]]["value"], (int, float)),
                  "trace %d: %s printed with unit %s" % (trace, m["name"], m["unit"]))
        if trace:
            # the small job list calls every wrapped layer; nothing in it fails verification
            idle = [name for name, m in metrics.items()
                    if m["value"] == 0 and name != "serialize.verify_failures"]
            check(not idle, "trace 1: every per-layer figure is measured (zero: %s)" % idle)
        figures = run.end_to_end(passes, setup_s)
        for name, (_, unit) in figures.items():
            check(any(line.split()[:1] == [name] and line.split()[-1] == unit for line in lines),
                  "trace %d: end-to-end %s in the table with unit %s" % (trace, name, unit))
        check(set(failures) == {"wrong-expectation"}, "trace %d: only the wrong job fails" % trace)
        check(result["failed"] == len(passes), "trace %d: it fails once per pass" % trace)
        check(result["correct"] is False, "trace %d: a wrong result makes the run incorrect" % trace)
        fail_ratio = figures["fail_ratio"][0]
        check(fail_ratio == result["failed"] / result["attempted"] > 0,
              "trace %d: fail_ratio counts it" % trace)
    check(ectower.cli.main is original_main and not tracer._undo,
          "no wrapper stays installed after the traced run")
    check(len(probes.times) == 2 and setup_s > 0, "set-up is probed as often as asked")

    # a job that raises fails the run, unless it raises the type it is known to raise
    def raising(exc):
        def call():
            raise exc
        return call

    for exc, expected, correct in ((ValueError("known"), ValueError, True),
                                   (RuntimeError("crash"), ValueError, False),
                                   (RuntimeError("crash"), None, False),
                                   (SystemExit(1), None, False)):
        crash = [jobs.Job("crash", raising(exc), lambda _: None, expected_raise=expected)]
        passes, failures, _ = run.measure(crash, 0, 0)
        with contextlib.redirect_stdout(io.StringIO()):
            result = run.report("smoke", 1, passes, failures, None, setup_s, {})
        check(result["failed"] == result["attempted"] and result["correct"] is correct,
              "%s raised with expected %s: failed, correct is %s"
              % (type(exc).__name__, expected and expected.__name__, correct))

    bare = run.WORK / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / run.BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    done = subprocess.run([sys.executable, *spec["command"][1:], "--workload", "deck",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    check(done.returncode != 0 and not done.stdout.strip(),
          "without the sources it exits %d and prints no result" % done.returncode)
    print("smoke test passed")


if __name__ == "__main__":
    main()
