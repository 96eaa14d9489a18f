#!/usr/bin/env python3
"""Benchmark of ectower: the deck, fibers and family workloads.

    python3 bench/run.py --workload deck --seed 1 --seconds 40 --trace 0

Single process, single thread, closed loop: each job starts only after the
previous one has returned.  A run repeats the workload's fixed job list
while another pass fits in --seconds and checks every result; wall_s sums
each job's least time over the passes.  Between jobs it times its own
set-up (interpreter start, imports and seeded job generation) in fresh
child processes; setup_s is the least of these probes.

With --trace 0 no wrapper is installed and the metrics are the end-to-end
ones.  With --trace 1 untraced and traced passes alternate; the per-layer
metrics come from the traced passes and trace.overhead_ratio compares the
two kinds.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  Exit code 2 means the ectower
sources are missing next to the benchmark.
"""

import argparse
import collections
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 24
PROBE_TIMEOUT_S = 120


@dataclass
class Pass:
    traced: bool
    times: dict = field(default_factory=dict)  # job name -> seconds in the program
    verify_times: dict = field(default_factory=dict)  # the same, for verify jobs
    report_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    # failed jobs that make the run incorrect: a wrong result, an exit, or a
    # raise other than the job's expected_raise
    unexpected: int = 0
    layers: dict = field(default_factory=dict)


def run_pass(jobs, index, tracer, failures, between=None):
    """Run every job once; a job whose ``after`` job failed is not attempted.

    ``between`` is called before each job, outside its timed part.
    """
    from jobs import JobFailed

    result = Pass(traced=tracer is not None)
    if tracer is not None:
        first = len(tracer.spans)
        tracer.counts.clear()
        tracer.install()
    passed = set()
    try:
        for job in jobs:
            if job.after is not None and job.after not in passed:
                continue
            if between is not None:
                between()
            if job.output is not None and job.output.exists():
                job.output.unlink()
            if tracer is not None:
                tracer.job = "%d:%s" % (index, job.name)
            result.attempted += 1
            reason = None
            start = time.perf_counter()
            try:
                outcome = job.call()
            except (Exception, SystemExit) as exc:
                reason = "raised %s: %s" % (type(exc).__name__, str(exc)[:200])
                if job.expected_raise is None or not isinstance(exc, job.expected_raise):
                    result.unexpected += 1
            elapsed = time.perf_counter() - start
            result.times[job.name] = elapsed
            if job.is_verify:
                result.verify_times[job.name] = elapsed
            if job.output is not None and job.output.exists():
                result.report_bytes += job.output.stat().st_size
            if reason is None:
                try:
                    job.check(outcome)
                except (JobFailed, KeyError, TypeError, ValueError, OSError) as exc:
                    reason = "wrong result: %s: %s" % (type(exc).__name__, exc)
                    result.unexpected += 1
            if reason is None:
                passed.add(job.name)
            else:
                result.failed += 1
                failures.setdefault(job.name, reason)
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.job = None
    if tracer is not None:
        from tracing import layer_metrics

        result.layers = layer_metrics(tracer.spans[first:], first, tracer.counts)
    return result


def measure(jobs, seconds, trace, probes=None):
    """Passes over the job list while another pass of average length fits in ``seconds``.

    With ``trace`` the passes alternate untraced and traced, and there is at
    least one of each.  ``probes`` (SetupProbes) take their set-up samples
    between jobs, in step with the elapsed share of ``seconds``.
    Returns (passes, failures, tracer).
    """
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
    passes, failures = [], {}
    start = time.perf_counter()

    def between():
        if probes is not None:
            probes.catch_up((time.perf_counter() - start) / seconds if seconds > 0 else 1.0)

    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(jobs, len(passes), tracer if traced else None, failures, between))
        if trace and not any(p.traced for p in passes):
            continue
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            if probes is not None:
                probes.catch_up(1.0)
            return passes, failures, tracer


def probe_setup(workload, seed):
    """Seconds from spawning a fresh interpreter to its job list being ready."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--setup-probe"]
    start = time.monotonic()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return float(done.stdout.split()[-1]) - start


class SetupProbes:
    """Set-up times of fresh interpreters, sampled over the whole run.

    A shared machine runs slow for stretches of a few seconds.  Probes
    spread between the run's jobs, rather than taken together at its start,
    reach some fast stretches, and ``value`` is their minimum: the set-up
    cost with the least interference from the rest of the machine.
    """

    def __init__(self, workload, seed, count=SETUP_PROBES):
        self.workload, self.seed, self.count = workload, seed, count
        self.times = []

    def catch_up(self, share):
        """Probe until the given share of all probes has been taken (at least one)."""
        while len(self.times) < max(1, math.ceil(self.count * min(share, 1.0))):
            self.times.append(probe_setup(self.workload, self.seed))

    def value(self):
        return min(self.times)


def prepare(workload, seed, workdir):
    import jobs

    return jobs.build(workload, random.Random(seed), workdir, seed)


def environment(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "seed": seed,
        "int_max_str_digits": sys.get_int_max_str_digits(),
    }


def job_list_time(passes, verify_only=False):
    """Time of one pass over the job list: the sum of each job's least time.

    A shared machine runs slow for stretches of seconds to a minute, which
    moves a median over the passes of a run with it.  Each job's least time
    is its cost with the least interference; taken per job, rather than per
    pass, it needs only some passes of each job to fall in a fast stretch.
    """
    samples = collections.defaultdict(list)
    for p in passes:
        for name, seconds in (p.verify_times if verify_only else p.times).items():
            samples[name].append(seconds)
    return sum(min(v) for v in samples.values())


def end_to_end(passes, setup_s):
    """Every end-to-end figure: {name: (value, unit)}."""
    plain = [p for p in passes if not p.traced]
    attempted = sum(p.attempted for p in passes)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (job_list_time(plain), "s"),
        "verify_s": (job_list_time(plain, verify_only=True), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "fail_ratio": (sum(p.failed for p in passes) / attempted, "ratio"),
        "report_bytes": (statistics.median(p.report_bytes for p in plain), "bytes"),
    }


def per_layer(passes, figures):
    """Per-layer figures from the traced passes, medians over them."""
    traced = [p for p in passes if p.traced]
    layers = {}
    for name, (_, unit) in traced[0].layers.items():
        values = [p.layers[name][0] for p in traced]
        exact = all(isinstance(v, int) for v in values)
        layers[name] = ((statistics.median_low if exact else statistics.median)(values), unit)
    plain_wall = figures["wall_s"][0]
    traced_wall = job_list_time(traced)
    layers["trace.overhead_ratio"] = (traced_wall / plain_wall, "ratio")
    # job-level figures whose value is 0 on some workloads, taken from untraced passes
    for name in ("verify_s", "fail_ratio", "report_bytes"):
        layers[name] = figures[name]
    return layers


def selected(figures, spec_key):
    """The figures BENCHMARK.json lists under ``spec_key``, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: figures[m["name"]] for m in spec[spec_key]}


def print_table(title, figures):
    print(title)
    for name, (value, unit) in figures.items():
        print("  %-34s %16.6g %s" % (name, value, unit))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("deck", "fibers", "family"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "ectower" / "__init__.py").is_file():
        print("bench: no ectower sources in %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        prepare(args.workload, args.seed, WORK / (args.workload + "-probe"))
        print(time.monotonic())
        return 0

    env = environment(args.seed)
    print("env: " + json.dumps(env, sort_keys=True))
    jobs = prepare(args.workload, args.seed, WORK / args.workload)
    probes = SetupProbes(args.workload, args.seed)
    passes, failures, tracer = measure(jobs, args.seconds, args.trace, probes)
    report(args.workload, len(jobs), passes, failures, tracer, probes.value(), env)
    return 0


def report(workload, job_count, passes, failures, tracer, setup_s, env):
    """Print the figures, write the spans of a traced run, and print the result line."""
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print("workload %s: %d jobs, %d passes (%d traced), %d attempted, %d failed"
          % (workload, job_count, len(passes), sum(p.traced for p in passes), attempted, failed))
    for name, reason in failures.items():
        print("  failed job %s: %s" % (name, reason))
    figures = end_to_end(passes, setup_s)
    print_table("end-to-end (untraced passes):", figures)
    if tracer is not None:
        from tracing import SPAN_FIELDS

        layers = per_layer(passes, figures)
        print_table("per-layer (traced passes):", layers)
        metrics = selected(layers, "per_layer")
        trace_file = WORK / workload / "trace.json"
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        trace_file.write_text(json.dumps(
            {"env": env, "span_fields": SPAN_FIELDS, "spans": tracer.spans}, default=str))
        print("spans written to %s" % trace_file.relative_to(ROOT))
    else:
        metrics = selected(figures, "end_to_end")
    result = {
        "correct": sum(p.unexpected for p in passes) == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    sys.exit(main())
