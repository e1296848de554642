#!/usr/bin/env python3
"""End-to-end benchmark of sgnn: builds the library and the benchmark
program from this checkout's sources, runs one workload (or all) in its own
process, checks its outputs, and prints one JSON result line.

    python3 perfbench/run.py --workload pipeline-decoupled --seed 1 \
        --seconds 30 --trace 0

Workloads: pipeline-decoupled, train-sampled, serve-zipf, or `all`.
`--trace 0` reports the end-to-end metrics with tracing off; `--trace 1`
is the separate traced run that reports per-layer metrics, writes a
Chrome trace and prints a per-layer self-time table. `--size smoke` runs
every workload at a tiny size in seconds. The last line of standard output
is {"correct", "attempted", "failed", "metrics"}; a failed output check
exits non-zero and prints no result line.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pipeline-decoupled", "train-sampled", "serve-zipf")

# The metrics every workload reports, per trace mode, as BENCHMARK.json
# declares them. Each workload also measures layer metrics of its own
# (sparsify, ppr, sampling, serve, net, ...); those go to the full record
# under .bench_build/perfbench/out/results/ and the printed table, not the
# result line.
METRICS = {
    0: ["setup_s", "pipeline_s", "train_samples_per_s", "test_acc",
        "peak_rss_mb", "cpu_us_per_item"],
    1: ["par.cpu_per_wall", "par.sections", "par.shards",
        "trace.overhead_ratio", "trace.self_time_share",
        "graph.edges_touched", "graph.bytes_per_edge", "models.train_s"],
}

# Outputs that must equal the values recorded for the seed.
EXACT_KEYS = ("test_acc", "edges_after", "epochs_run")
# A workload process may not outlive this (the whole command has 180 s).
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures and builds the benchmark (incremental); returns the
    binary path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("error: no sgnn sources next to perfbench/ (expected src/)")
        return None
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("error: build failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "sgnn_perfbench")


def source_digest():
    """sha256 over the library and benchmark sources (the checkout need
    not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() or None


def load_expected(path):
    if not os.path.isfile(path):
        return {}
    with open(path) as f:
        return json.load(f)


def check_observed(workload, args, observed, expected):
    """Returns a list of problems with the run's deterministic outputs."""
    problems = []
    want = expected.get(args.size, {}).get(workload, {}).get(str(args.seed))
    if want is not None and not args.record:
        for key in EXACT_KEYS:
            if key in want and observed.get(key) != want[key]:
                problems.append("%s = %r, recorded for seed %d: %r" %
                                (key, observed.get(key), args.seed,
                                 want[key]))
    acc = observed.get("test_acc")
    if acc is None or not 1.0 / 8 < acc < 1.0:
        problems.append("test_acc %r outside (1/8, 1)" % (acc,))
    return problems


def run_workload(binary, workload, args, expected):
    """Runs one workload process; returns its contract result or None."""
    out_dir = os.path.join(build_dir(), "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--out", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("error: %s did not finish within %d s" % (workload,
                                                      RUN_TIMEOUT_S))
        return None
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        report = json.loads(lines[-1])
    except (ValueError, IndexError):
        log("error: %s printed no result (exit %d)" % (workload,
                                                       proc.returncode))
        return None

    problems = ["check %s failed: %s" % (c["name"], c["detail"])
                for c in report["checks"] if not c["ok"]]
    if proc.returncode != 0 and not problems:
        problems.append("exit code %d" % proc.returncode)
    problems += check_observed(workload, args, report["observed"], expected)
    want = METRICS[args.trace]
    got = report["metrics"]
    missing = [m for m in want if m not in got]
    if missing:
        problems.append("metrics not reported: " + ", ".join(missing))
    if report["attempted"] < 1:
        problems.append("nothing attempted")

    report["provenance"]["source_sha256"] = source_digest()
    report["provenance"]["git_commit"] = git_commit()
    results = os.path.join(out_dir, "results")
    os.makedirs(results, exist_ok=True)
    record = os.path.join(results, "%s-seed%d-trace%d-%s.json" %
                          (workload, args.seed, args.trace, args.size))
    with open(record, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    print("provenance: " + json.dumps(report["provenance"], sort_keys=True))

    if problems:
        for p in problems:
            log("error: %s: %s" % (workload, p))
        return None
    if args.record:
        entry = {k: report["observed"][k] for k in EXACT_KEYS
                 if k in report["observed"]}
        expected.setdefault(args.size, {}).setdefault(workload, {})[
            str(args.seed)] = entry
    return {
        "correct": True,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {m: {"value": got[m]["value"], "unit": got[m]["unit"]}
                    for m in want},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--expected",
                        default=os.path.join(HERE, "expected.json"),
                        help="recorded deterministic outputs per seed")
    parser.add_argument("--record", action="store_true",
                        help="write this run's deterministic outputs into "
                             "--expected instead of checking them")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 3
    expected = load_expected(args.expected)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for workload in workloads:
        print("== %s (seed %d, trace %d, %s)" % (workload, args.seed,
                                                 args.trace, args.size))
        result = run_workload(binary, workload, args, expected)
        if result is None:
            return 1
        results.append(result)
    if args.record:
        with open(args.expected, "w") as f:
            json.dump(expected, f, indent=1, sort_keys=True)
            f.write("\n")
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
