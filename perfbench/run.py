#!/usr/bin/env python3
"""End-to-end synthesis-job benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload census-good-1x --seed 1 \
        --seconds 30 --trace 0

Builds the library and the perfbench binary into .bench_build/, generates
the workload's inputs two to seven times (to time set-up), then runs a
closed loop of synthesis jobs, one at a time, each in its own process, for
--seconds: a job is not started if it would end past them, unless fewer
than two jobs are done. Every job's output is checked. With --trace 1
the loop alternates untraced and traced jobs and reports the per-layer
metrics instead of the end-to-end ones.

The last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# Set-up is timed at least SETUP_MIN times, and repeated up to SETUP_MAX
# times while the repeats so far took under SETUP_BUDGET_S seconds.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 2, 7, 3.0
# At least MIN_JOBS jobs run even when they overrun --seconds; more would
# break the run-time budget on a slow machine at paper 4x.
MIN_JOBS = 2
# Every subprocess must end before this many seconds into the run.
RUN_LIMIT_S = 170.0
# Reported times are wall times scaled to a machine on which the calibration
# kernel (calibrate.cc) takes CALIB_REF_S seconds, using this run's median
# kernel time. The kernel runs once before set-up, then between jobs once
# per CALIB_EVERY_S seconds of job time, and at the end as often as needed
# to reach CALIB_MIN_SAMPLES samples.
CALIB_REF_S = 0.25
CALIB_EVERY_S = 3.0
CALIB_MIN_SAMPLES = 3

# Sanity gates on the traced run: a drifting generator must not silently
# turn a workload into a different one.
GATES = {
    "census-good-1x": [
        ("core.ccs_to_ilp == 0", lambda m: m["core.ccs_to_ilp"] == 0),
        ("core.invalid_rows == 0", lambda m: m["core.invalid_rows"] == 0),
    ],
    "census-bad-4x-durable": [
        ("core.ccs_to_ilp > 0", lambda m: m["core.ccs_to_ilp"] > 0),
        ("commits == shards_emitted + 3",
         lambda m: m["core.stream_checkpoint.commits"]
         == m["core.shards_emitted"] + 3),
    ],
    "repair-housemate-1x": [
        ("core.invalid_rows > 0", lambda m: m["core.invalid_rows"] > 0),
        ("core.repair_s > 0", lambda m: m["core.repair_s"] > 0),
    ],
}

# Per-layer metrics that are measured (medians over the traced jobs); all
# others are counts the program computes and must repeat exactly.
MEASURED = {"core.peak_resident_bytes"}  # admission timing at 2 threads


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes") or name.endswith(".bytes"):
        return "bytes"
    if name.endswith("_ratio") or name == "constraints.cc_err_mean":
        return "ratio"
    return "count"


def is_measured(name):
    return name.endswith("_s") or name in MEASURED


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail_setup(msg):
    """Exits without a result line: nothing could be measured."""
    log("perfbench: " + msg)
    sys.exit(1)


class Clock:
    def __init__(self):
        self.start = time.monotonic()

    def elapsed(self):
        return time.monotonic() - self.start

    def remaining(self):
        return RUN_LIMIT_S - self.elapsed()


def run_tool(clock, args, what):
    """Runs the perfbench binary; returns its JSON line or None on failure."""
    timeout = clock.remaining()
    if timeout <= 1:
        log(f"perfbench: no time left for {what}")
        return None
    try:
        proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {what} timed out")
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"perfbench: {what} printed no result (exit {proc.returncode}):"
            f" {proc.stderr.strip()[-500:]}")
        return None
    if proc.returncode != 0 or not out.get("ok"):
        log(f"perfbench: {what} failed: {out.get('error', proc.returncode)}")
        return None
    return out


def build():
    for path in ("CMakeLists.txt", "src", os.path.join("perfbench",
                                                       "CMakeLists.txt")):
        if not os.path.exists(path):
            fail_setup(f"{path} not found; run from the repository root")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(".bench_build", "build.log")
    with open(log_path, "w") as build_log:
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"] + generator)
        steps.append(["cmake", "--build", BUILD_DIR, "-j2"])
        for step in steps:
            if subprocess.run(step, stdout=build_log,
                              stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    log(f.read()[-3000:])
                fail_setup("build failed: " + " ".join(step))


def source_hash():
    """Digest of the program and benchmark sources: keys the record of
    outputs that later runs with the same seed must reproduce."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def setup(clock, workload, seed, work):
    """Generates the inputs several times; returns (setup_s values, job
    flags, problems). The jobs read the first copy."""
    times, problems, digests, flags = [], [], set(), None
    for i in range(SETUP_MAX):
        if i >= SETUP_MIN and sum(times) >= SETUP_BUDGET_S:
            break
        out_dir = os.path.join(work, f"inputs{i}")
        os.makedirs(out_dir)
        out = run_tool(clock, ["gen", f"--workload={workload}",
                               f"--seed={seed}", f"--out-dir={out_dir}"],
                       "input generation")
        if out is None:
            fail_setup("input generation failed")
        times.append(out["setup_s"])
        digests.add(out["input_digest"])
        if out["round_trip_error"]:
            problems.append("input round trip: " + out["round_trip_error"])
        if flags is None:
            flags = out["job_flags"]
            log(f"perfbench: {workload} seed {seed}: {out['persons']} persons,"
                f" {out['households']} households, {out['ccs']} CCs,"
                f" {out['dcs']} DCs")
    if len(digests) != 1:
        problems.append("input generation is not deterministic")
    return times, flags, problems


def same_as_record(path, got):
    """Returns the mismatch with the record at `path`, or None; the first
    call for a path writes the record."""
    if not os.path.exists(path):
        with open(path, "w") as f:
            json.dump(got, f)
        return None
    with open(path) as f:
        want = json.load(f)
    return None if got == want else f"{got} differs from {want}"


class Checker:
    """Checks every job's output, and that its digest and quality figures
    match the run's first job and earlier runs of the same seed and
    sources."""

    KEYS = ("digest", "cc_err_mean", "cc_exact_frac", "new_r2_tuples")

    def __init__(self, record_path):
        self.record_path = record_path
        self.problems = []

    def check(self, out, what):
        bad = []
        if out["dc_violations"] != 0:
            bad.append(f"{out['dc_violations']} DC violations")
        if out["join_mismatches"] != 0:
            bad.append(f"{out['join_mismatches']} join mismatches")
        if out["stream_error"]:
            bad.append(out["stream_error"])
        mismatch = same_as_record(self.record_path,
                                  {k: out[k] for k in self.KEYS})
        if mismatch:
            bad.append("output " + mismatch)
        for b in bad:
            self.problems.append(f"{what}: {b}")
        return not bad


def percentile_line(name, values, unit):
    values = sorted(values)
    n = len(values)
    line = f"{name}: median {statistics.median(values):.6g} {unit}"
    if n >= 11:
        # The highest percentile with at least ten samples beyond it.
        k = n - 11
        line += f", p{100.0 * (k + 1) / n:.0f} {values[k]:.6g} {unit}"
    else:
        line += f", max {values[-1]:.6g} {unit} (no percentile has ten" \
                " samples beyond it)"
    return line + f", n={n}"


def job_args(flags, out_dir):
    return [f"--{k}={v}" for k, v in flags.items()] + [f"--out-dir={out_dir}"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(GATES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    clock = Clock()
    build()
    log(f"perfbench: build ready after {clock.elapsed():.1f} s")
    clock = Clock()  # the run limit covers set-up and jobs, not the build

    run_id = f"{args.workload}-s{args.seed}-p{os.getpid()}"
    work = os.path.join(".bench_build", "runs", run_id)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    records = os.path.join(".bench_build", "records")
    os.makedirs(records, exist_ok=True)
    traces = os.path.join(".bench_build", "traces")
    os.makedirs(traces, exist_ok=True)
    try:
        result = measure(args, clock, work, records, traces)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))


def calibrate(clock, samples):
    """Times `samples` runs of the fixed calibration kernel."""
    times = []
    for _ in range(samples):
        out = run_tool(clock, ["calibrate"], "calibration")
        if out is None:
            fail_setup("calibration failed")
        times.append(out["calib_s"])
    return times


def measure(args, clock, work, records, traces):
    calib = calibrate(clock, 1)
    setup_times, flags, problems = setup(clock, args.workload, args.seed, work)
    record = os.path.join(
        records, f"{args.workload}-s{args.seed}-{source_hash()}")
    checker = Checker(record + ".json")
    trace_out = os.path.join(traces,
                             f"{args.workload}-s{args.seed}.trace.json")

    untraced, traced = [], []
    attempted = failed = 0
    # The window closes once the next job would end past --seconds (judged
    # by the median wall time of the jobs so far, calibration included) and
    # the minimum number of jobs is done; a closed loop, so one job at a
    # time.
    window = clock.elapsed()
    walls = {"job": [], "trace": []}
    uncalibrated = 0.0  # job seconds not yet followed by a calibration
    while True:
        n = attempted
        if args.trace:
            kind = "trace" if len(untraced) > len(traced) else "job"
            enough = untraced and traced
        else:
            kind = "job"
            enough = len(untraced) >= MIN_JOBS
        if enough:
            estimate = statistics.median(walls[kind])
            if clock.elapsed() - window + estimate > args.seconds:
                break
        if (clock.remaining() < 5 and n > 0) or failed >= 3:
            break
        out_dir = os.path.join(work, f"{kind}{n}")
        os.makedirs(out_dir)
        extra = [f"--trace-out={trace_out}"] if kind == "trace" else []
        attempted += 1
        start = clock.elapsed()
        out = run_tool(clock, [kind] + job_args(flags, out_dir) + extra,
                       f"{kind} {n}")
        uncalibrated += clock.elapsed() - start
        samples = math.floor(uncalibrated / CALIB_EVERY_S)
        calib += calibrate(clock, samples)
        uncalibrated -= samples * CALIB_EVERY_S
        walls[kind].append(clock.elapsed() - start)
        ok = out is not None and checker.check(out, f"{kind} {n}")
        shutil.rmtree(out_dir, ignore_errors=True)
        if not ok:
            failed += 1
            if out is None:
                problems.append(f"{kind} {n} failed")
            continue
        (traced if kind == "trace" else untraced).append(out)
    problems += checker.problems
    if not untraced or (args.trace and not traced):
        fail_setup("no job completed: " + "; ".join(problems))
    calib += calibrate(clock, max(0, CALIB_MIN_SAMPLES - len(calib)))

    scale = CALIB_REF_S / statistics.median(calib)
    first = untraced[0]
    print(f"workload {args.workload}, seed {args.seed}: closed loop, one"
          f" client, {flags['threads']} solver thread(s),"
          f" {attempted} jobs attempted, {failed} failed"
          f" (fail_frac {failed / attempted:.4g})")
    print(f"cc_err_mean: {first['cc_err_mean']:.6g}, cc_exact_frac:"
          f" {first['cc_exact_frac']:.6g}, new_r2_tuples:"
          f" {first['new_r2_tuples']} (deterministic)")
    print(percentile_line("calibration kernel", calib, "s")
          + f"; times below are wall times x {scale:.4f}"
          f" (= {CALIB_REF_S} s / median kernel time)")
    print(percentile_line("setup_s", [t * scale for t in setup_times], "s"))
    if args.trace:
        metrics = layer_metrics(args.workload, untraced, traced, scale,
                                problems)
        counts = {k: m["value"] for k, m in metrics.items()
                  if not is_measured(k)}
        mismatch = same_as_record(record + "-layers.json", counts)
        if mismatch:
            problems.append("per-layer counts " + mismatch)
    else:
        metrics = {}
        for name, unit, factor in (("job_s", "s", scale),
                                   ("solve_s", "s", scale),
                                   ("max_rss_mb", "MiB", 1.0)):
            values = [o[name] * factor for o in untraced]
            print(percentile_line(name, values, unit))
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        metrics["new_r2_tuples"] = {"value": first["new_r2_tuples"],
                                    "unit": "count"}
        metrics["cc_exact_frac"] = {"value": first["cc_exact_frac"],
                                    "unit": "ratio"}
        metrics["setup_s"] = {"value": statistics.median(setup_times) * scale,
                              "unit": "s"}
    for p in problems:
        print("FAILED CHECK: " + p)
    return {"correct": not problems and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def layer_metrics(workload, untraced, traced, scale, problems):
    layers = [t["layers"] for t in traced]
    metrics = {}
    for name in layers[0]:
        values = [l[name] for l in layers]
        if is_measured(name):
            value = statistics.median(values)
            if unit_of(name) == "s":
                value *= scale
        else:
            value = values[0]
            if any(v != value for v in values):
                problems.append(f"{name} differs between traced jobs: {values}")
        metrics[name] = {"value": value, "unit": unit_of(name)}
    metrics["constraints.cc_err_mean"] = {
        "value": traced[0]["cc_err_mean"], "unit": "ratio"}
    metrics["core.new_r2_tuples"] = {
        "value": traced[0]["new_r2_tuples"], "unit": "count"}
    traced_s = statistics.median(t["job_s"] for t in traced) * scale
    untraced_s = statistics.median(u["job_s"] for u in untraced) * scale
    metrics["trace.overhead_s"] = {"value": traced_s - untraced_s,
                                   "unit": "s"}

    for t in traced:
        coverage = t["covered_s"] / t["job_s"]
        if coverage < 0.99:
            problems.append(f"top-level spans cover {coverage:.3%} of job_s")
    flat = {k: v["value"] for k, v in metrics.items()}
    for label, gate in GATES[workload]:
        if not gate(flat):
            problems.append(f"sanity gate failed: {label}")
    print(percentile_line("traced job_s",
                          [t["job_s"] * scale for t in traced], "s"))
    print(percentile_line("untraced job_s",
                          [u["job_s"] * scale for u in untraced], "s"))
    width = max(len(k) for k in metrics)
    for name, m in metrics.items():
        print(f"  {name:<{width}}  {m['value']:.6g} {m['unit']}")
    print("self time by span (median over traced jobs; trace file:"
          " .bench_build/traces/):")
    for name in traced[0]["self_s"]:
        value = statistics.median(t["self_s"][name] for t in traced) * scale
        print(f"  {name:<{width}}  {value:.6g} s")
    return metrics


if __name__ == "__main__":
    main()
