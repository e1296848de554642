#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark, in seconds: runs all three
workloads at the tiny `smoke` size with tracing off and on, and checks

  * every workload prints every metric BENCHMARK.json names (end-to-end
    with tracing off, per-layer with tracing on), with the unit it
    declares;
  * each result line has exactly the keys the result contract names;
  * a deliberately wrong expected output makes the run fail: non-zero
    exit and no result line.

    python3 perfbench/smoke_test.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402  (the benchmark entry point, for its metric map)

SEED = 1


def bench(workload, trace, expected=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", "1", "--trace",
           str(trace), "--size", "smoke"]
    if expected is not None:
        cmd += ["--expected", expected]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300)
    lines = proc.stdout.strip().split("\n")
    return proc.returncode, lines, proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        for workload in run.WORKLOADS:
            code, lines, err = bench(workload, trace)
            if code != 0:
                failures.append("%s trace %d exited %d:\n%s" %
                                (workload, trace, code, err))
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed",
                                  "metrics"]:
                failures.append("%s: result keys %s" % (workload,
                                                        sorted(result)))
            for metric in spec[key]:
                name = metric["name"]
                got = result["metrics"].get(name, {}).get("unit")
                if got != metric["unit"]:
                    failures.append("%s %s %s: printed unit %r, declared %r"
                                    % (workload, key, name, got,
                                       metric["unit"]))
                # The human table above the result line names each metric
                # with its unit too.
                if not any(line.split()[:1] == [name] and
                           metric["unit"] in line.split()
                           for line in lines[:-1]):
                    failures.append("%s: %s not printed with its unit" %
                                    (workload, name))
            if sorted(result["metrics"]) != sorted(m["name"]
                                                   for m in spec[key]):
                failures.append("%s trace %d: result metrics %s differ from "
                                "BENCHMARK.json" % (workload, trace,
                                                    sorted(result["metrics"])))

    # A wrong expected output must fail the run and record nothing.
    expected = run.load_expected(os.path.join(HERE, "expected.json"))
    wrong_path = os.path.join(run.build_dir(), "wrong_expected.json")
    os.makedirs(os.path.dirname(wrong_path), exist_ok=True)
    for workload in run.WORKLOADS:
        wrong = json.loads(json.dumps(expected))
        entry = wrong["smoke"][workload][str(SEED)]
        entry["test_acc"] = entry["test_acc"] + 1e-6
        with open(wrong_path, "w") as f:
            json.dump(wrong, f)
        code, lines, _ = bench(workload, 0, expected=wrong_path)
        if code == 0 or lines[-1].startswith('{"correct"'):
            failures.append("%s: a wrong expected test_acc did not fail the "
                            "run" % workload)
    os.remove(wrong_path)

    for failure in failures:
        print("FAIL " + failure)
    print("smoke test: %s" % ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
