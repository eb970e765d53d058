#!/usr/bin/env python3
"""Campaign benchmark for the pokeemu library.

Run from the repository root:

    python3 perfbench/run.py --workload decode|sweep-4|all \
        --seed N --seconds S --trace 0|1

The first run builds the library (through the repository's own CMake
project) and the worker under .bench_build/. A run then starts worker
processes, one repetition each, in a closed loop until the next one
would end after --seconds; every repetition's output is checked. It
prints a table per workload and, as its last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the run makes one
untraced and one traced repetition, requires their counts to agree,
and reports the per-layer metrics of the traced one.

BENCHMARK.json names the metrics and their units; workloads.json holds
the pinned inputs, the checks, the loop type and the layer-to-end-to-end
mapping.
"""
import argparse
import functools
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKER = os.path.join(BUILD, "perfbench_worker")
TRACE_DIR = os.path.join(BUILD, "traces")
REPORT_CACHE = os.path.join(BUILD, "reports")
WORKER_TIMEOUT_S = 170
# Set-up samples per run: every repetition gives one, set-up-only
# processes make up the rest: at least MIN_SETUP_SAMPLES, and more, up
# to MAX_SETUP_SAMPLES, while they have taken under SETUP_TOPUP_S.
MIN_SETUP_SAMPLES = 5
MAX_SETUP_SAMPLES = 25
SETUP_TOPUP_S = 1.0
# Other work on the host only ever slows a repetition down, so a run's
# time is that of its fastest repetition. Set-up time and memory are
# medians.
ESTIMATE = {"wall_s": min, "cpu_s": min}

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
with open(os.path.join(HERE, "workloads.json")) as f:
    SPEC = json.load(f)
WORKLOADS = SPEC["workloads"]
RECORDED_SEED = SPEC["recorded_seed"]
END_TO_END = [(m["name"], m["unit"]) for m in BENCH["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in BENCH["per_layer"]]


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def check_spec():
    """BENCHMARK.json and workloads.json describe the same workloads and
    per-layer metrics."""
    names = [w["name"] for w in BENCH["workloads"]]
    if names != list(WORKLOADS):
        raise BenchError("BENCHMARK.json workloads %s differ from "
                         "workloads.json %s" % (names, list(WORKLOADS)))
    layer_names = [name for name, _ in PER_LAYER]
    if layer_names != list(SPEC["per_layer"]):
        raise BenchError("BENCHMARK.json and workloads.json list "
                         "different per-layer metrics")


def build():
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            raise BenchError("not a pokeemu checkout: %s is missing"
                             % os.path.join(ROOT, needed))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                      "-DPOKEEMU_BUILD_JOBS=" + jobs])
    steps.append(["cmake", "--build", BUILD, "--parallel", jobs])
    if not os.path.isfile(WORKER):
        log("perfbench: building the library and the worker under "
            + os.path.relpath(BUILD, ROOT))
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise BenchError("build step failed: " + " ".join(cmd))


@functools.lru_cache(maxsize=None)
def worker_id():
    """Identity of the built worker; keys the cross-run report cache."""
    digest = hashlib.sha256()
    with open(WORKER, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()[:16]


def run_worker(name, seed, trace=False, setup_only=False, shards=None):
    inputs = WORKLOADS[name]["inputs"]
    cmd = [WORKER, "--workload", inputs["stage"], "--seed", str(seed)]
    shards = shards or inputs.get("shards")
    if shards:
        cmd += ["--shards", str(shards)]
    if trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        cmd += ["--trace", "--trace-out",
                os.path.join(TRACE_DIR, "%s-seed%d.json" % (name, seed))]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        log(proc.stderr[-4000:])
        raise BenchError("worker exited with %d: %s"
                         % (proc.returncode, " ".join(cmd)))
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    # The worker prints CLOCK_MONOTONIC at readiness, the clock
    # time.monotonic() reads.
    rep["setup_s"] = rep["ready_mono"] - spawned
    return rep


# ---- output checks ------------------------------------------------------

def without_prefix(text, prefix):
    return [l for l in text.splitlines() if not l.startswith(prefix)]


def read_expected(relpath):
    with open(os.path.join(HERE, relpath)) as f:
        return f.read()


def reference_report(name, seed, shards):
    """@p name's report for @p seed on @p shards shards from this build:
    cached by an earlier run in this checkout, else computed now (inside
    the calling run's time budget)."""
    path = os.path.join(REPORT_CACHE, "%s-%s-shards%d-seed%d.report"
                        % (worker_id(), name, shards, seed))
    if not os.path.isfile(path):
        report = run_worker(name, seed, shards=shards)["report"]
        os.makedirs(REPORT_CACHE, exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            f.write(report)
        os.replace(tmp, path)
    with open(path) as f:
        return f.read()


def check(name, seed, rep):
    """Problems with one repetition's output (empty list: correct)."""
    problems = []
    checks = WORKLOADS[name]["checks"]
    out = rep["outputs"]
    if WORKLOADS[name]["inputs"]["stage"] == "decode":
        for key in ("paths", "candidates", "invalid", "toolong",
                    "instructions", "complete", "step_limited"):
            if out[key] != checks[key]:
                problems.append("%s = %s, expected %s"
                                % (key, out[key], checks[key]))
        if seed == RECORDED_SEED:
            want = read_expected(checks["recorded_seed_file"]).split()
            if out["representatives"] != want:
                problems.append("representative bytes differ from "
                                + checks["recorded_seed_file"])
        return problems

    report = rep["report"]
    prefix = checks["report_ignores_line_prefix"]
    if seed == RECORDED_SEED:
        want = read_expected(checks["report_recorded_seed_file"])
        if without_prefix(report, prefix) != without_prefix(want, prefix):
            problems.append("report differs from "
                            + checks["report_recorded_seed_file"])
    # The cross-shard contract: the merged report equals the one-shard
    # campaign's, byte for byte, on every seed.
    shards = checks["report_equals_shards"]
    if report != reference_report(name, seed, shards):
        problems.append("report differs from the %d-shard report, seed %d"
                        % (shards, seed))
    return problems


# ---- runs -----------------------------------------------------------------

def untraced(name, seed, seconds):
    start = time.monotonic()
    reps, problems = [], []
    while True:
        rep = run_worker(name, seed)
        rep_problems = check(name, seed, rep)
        if reps and (rep["outputs"] != reps[0]["outputs"] or
                     rep.get("report") != reps[0].get("report")):
            rep_problems.append("outputs differ between repetitions")
        if rep_problems:
            rep["failed"] = rep["attempted"]
        problems += rep_problems
        reps.append(rep)
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(reps) > seconds:
            break
    samples = {metric: [r[metric] for r in reps] for metric, _ in END_TO_END}
    topup_start = time.monotonic()
    while (len(samples["setup_s"]) < MIN_SETUP_SAMPLES or
           (len(samples["setup_s"]) < MAX_SETUP_SAMPLES and
            time.monotonic() - topup_start < SETUP_TOPUP_S)):
        samples["setup_s"].append(
            run_worker(name, seed, setup_only=True)["setup_s"])

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    print("== %s, seed %d: %d repetitions in %.1f s (%s) =="
          % (name, seed, len(reps), time.monotonic() - start,
             WORKLOADS[name]["loop"]))
    print("  %-12s %12s %12s %12s %12s  %-5s %s"
          % ("metric", "reported", "min", "median", "max", "unit",
             "samples"))
    metrics = {}
    for metric, unit in END_TO_END:
        values = samples[metric]
        value = ESTIMATE.get(metric, statistics.median)(values)
        print("  %-12s %12.4f %12.4f %12.4f %12.4f  %-5s %d"
              % (metric, value, min(values), statistics.median(values),
                 max(values), unit, len(values)))
        metrics[metric] = {"value": value, "unit": unit}
    print("  %-12s %d/%d = %g" % ("fail_ratio", failed, attempted,
                                  failed / attempted))
    for problem in problems:
        print("  CHECK FAILED: " + problem)
    if not problems:
        print("  checks: ok (%s)" % check_summary(name, seed, reps[0]))
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def check_summary(name, seed, rep):
    out = rep["outputs"]
    if WORKLOADS[name]["inputs"]["stage"] == "decode":
        text = ("%d paths, %d candidates, %d #UD, %d instructions"
                % (out["paths"], out["candidates"], out["invalid"],
                   out["instructions"]))
        if seed == RECORDED_SEED:
            text += "; representatives match the recorded seed"
        return text
    text = ("%d units, %d tests, lofi %d/%d and hifi %d/%d diffs raw/"
            "filtered" % (out["units"], out["tests_executed"],
                          out["lofi_raw"], out["lofi_diffs"],
                          out["hifi_raw"], out["hifi_diffs"]))
    text += ("; report identical to the %d-shard one"
             % WORKLOADS[name]["checks"]["report_equals_shards"])
    if seed == RECORDED_SEED:
        text += "; report matches the recorded seed"
    return text


def traced(name, seed):
    base = run_worker(name, seed)
    traced_rep = run_worker(name, seed, trace=True)
    problems = check(name, seed, base)
    # The traced run has no report; its counts must equal the untraced
    # run's (paths, candidates, tests, raw and filtered diffs, clusters).
    out_b, out_t = base["outputs"], traced_rep["outputs"]
    for key in out_b:
        if out_t.get(key) != out_b[key]:
            problems.append("traced %s differs from untraced" % key)
    layers = traced_rep["layers"]
    layers["trace.overhead_s"] = traced_rep["wall_s"] - base["wall_s"]

    threads = WORKLOADS[name]["inputs"].get("shards", 1)
    wall = traced_rep["wall_s"]
    print("== %s, seed %d: traced ==" % (name, seed))
    print("  counts traced vs untraced: %s"
          % ("equal" if not problems else "DIFFERENT"))
    print("  tracing overhead: traced wall %.4f s - untraced wall %.4f s"
          " = %.4f s" % (wall, base["wall_s"], layers["trace.overhead_s"]))
    print("  layer self time as a share of wall_s x %d thread(s):"
          % threads)
    shares = sorted(((k[len("self."):], v) for k, v in layers.items()
                     if k.startswith("self.")), key=lambda kv: -kv[1])
    for layer, self_s in shares:
        print("    %-22s %9.4f s / %9.4f s = %.4f"
              % (layer, self_s, wall * threads, self_s / (wall * threads)))
    print("  per-layer metrics:")
    metrics = {}
    for metric, unit in PER_LAYER:
        value = layers.get(metric, 0)
        metrics[metric] = {"value": value, "unit": unit}
        base_text = layers.get(metric + "_base")
        print("    %-28s %14.6g %-6s%s"
              % (metric, value, unit,
                 "  (%s)" % base_text if base_text else ""))
    for problem in problems:
        print("  CHECK FAILED: " + problem)
    attempted = base["attempted"] + traced_rep["attempted"]
    failed = attempted if problems else (base["failed"] +
                                         traced_rep["failed"])
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=RECORDED_SEED)
    parser.add_argument("--seconds", type=float,
                        default=BENCH["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        check_spec()
        build()
        names = list(WORKLOADS) if args.workload == "all" else \
            [args.workload]
        results = {}
        for name in names:
            results[name] = (traced(name, args.seed) if args.trace else
                             untraced(name, args.seed, args.seconds))
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        log("perfbench: " + str(e))
        return 1

    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (name, metric): value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
