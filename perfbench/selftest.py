#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py [--seed N]

1. Every metric name in BENCHMARK.json, and every name a run reports,
   matches [A-Za-z0-9_.-]+.
2. Two traced invocations report identical deterministic counts, and
   are correct (which includes the tenants digest agreeing at 1 and N
   threads, checked inside each traced run).
3. Per workload, the traced layer times plus <w>.other_s equal the
   traced wall time.
4. In a directory holding only BENCHMARK.json and perfbench/, run.py
   exits non-zero without printing a result.

Takes about a minute and a half.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
WORKLOADS = ("fig6", "swap", "tenants", "serve")

# Host times and the ratios built from them vary run to run.
TIMING = re.compile(r"(_s|_us|speedup|overhead_frac|ns_per_ref)$")

failures = []


def expect(ok, message):
    print(("ok    " if ok else "FAIL  ") + message)
    if not ok:
        failures.append(message)


def traced_run(seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "fig6", "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    config = {}
    for line in lines:
        if line.startswith("# config "):
            config = json.loads(line[len("# config "):])
        elif line.startswith("# problem "):
            print("      " + line)
    result = json.loads(lines[-1])
    return config, result


def bare_checkout():
    """run.py with nothing but BENCHMARK.json and perfbench/ beside it."""
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig6",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    return proc


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    bad = [n for n in declared if not NAME.match(n)]
    expect(not bad, "BENCHMARK.json metric names match [A-Za-z0-9_.-]+ "
           + (str(bad) if bad else ""))

    config_a, a = traced_run(args.seed)
    config_b, b = traced_run(args.seed)
    bad = [n for n in list(a["metrics"]) if not NAME.match(n)]
    expect(not bad, "reported metric names match the pattern")
    expect(a["correct"] and b["correct"],
           "both traced runs are correct (digests, conservation, "
           "1 vs N threads, batch == scalar, designs == grid)")
    expect(a["failed"] == 0 and b["failed"] == 0, "no failed operations")

    counts = [n for n in a["metrics"] if not TIMING.search(n)]
    differ = [n for n in counts
              if a["metrics"][n]["value"] != b["metrics"][n]["value"]]
    expect(not differ, "%d deterministic counts repeat exactly %s"
           % (len(counts), differ if differ else ""))

    for config, result in ((config_a, a), (config_b, b)):
        for w in WORKLOADS:
            wall = config["traced.%s.traced_wall_s" % w]
            layers = sum(m["value"] for n, m in result["metrics"].items()
                         if n.startswith(w + ".") and n.endswith("_s")
                         and n != w + ".other_s")
            total = layers + result["metrics"][w + ".other_s"]["value"]
            expect(abs(total - wall) <= 1e-9 * wall + 1e-12,
                   "%s: layers + other_s = traced wall (%.6f vs %.6f s)"
                   % (w, total, wall))

    proc = bare_checkout()
    printed = proc.stdout.strip().startswith("{") or "\n{" in proc.stdout
    expect(proc.returncode != 0 and not printed,
           "without src/ run.py exits %d and prints no result"
           % proc.returncode)

    if failures:
        print("%d self-test(s) failed" % len(failures))
        sys.exit(1)
    print("all self-tests passed")


if __name__ == "__main__":
    main()
