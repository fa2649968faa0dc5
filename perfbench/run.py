#!/usr/bin/env python3
"""Host-time benchmark of the Mosaic Pages reproduction.

    python3 perfbench/run.py --workload fig6|swap|tenants|serve \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (and the repository's
libraries from src/) with CMake into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), runs one workload with every MOSAIC_*
environment variable cleared, checks its outputs, and prints one JSON
result as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json for the
workload. --trace 1 runs the traced replay of all four workloads (and a
1-thread tenants pass) and reports every per-layer metric.

Correctness: each output unit (a fig6 cell, a swap row, a tenants pass,
a serve session) carries a digest of its simulated outputs. It must
equal the value pinned in perfbench/pinned.json for the seed, or, for a
seed with no pin, the unit's first digest in the run. A mismatching unit
counts its operations as failed. Cross-checks the binary reports
(conservation, batch == scalar, designs == grid, replay digests) must
all hold.

Maintenance: --pin SEEDS (e.g. 0-31) prints fresh pins as JSON for the
given seeds; see README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig6", "swap", "tenants", "serve")

# A run must end within 180 s; keep a margin for start-up and exit.
RUN_DEADLINE_S = 170
BUILD_TIMEOUT_S = 880


def die(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def hermetic_env():
    """The caller's environment without any MOSAIC_* knob."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith("MOSAIC_")}


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                           or os.path.join(ROOT, ".bench_build"))


def build():
    """Configure once, then (re)build the benchmark binary; return it."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no repository sources: src/CMakeLists.txt is missing next "
            "to perfbench/")
    bdir = os.path.join(build_root(), "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(os.cpu_count() or 1, 4))
    steps.append(["cmake", "--build", bdir, "--target", "mosaic_perfbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=hermetic_env(), timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            die("build failed: " + " ".join(cmd), 1)
    return os.path.join(bdir, "mosaic_perfbench")


def load_json(name):
    with open(os.path.join(HERE, name) if name != "BENCHMARK.json"
              else os.path.join(ROOT, name)) as f:
        return json.load(f)


class Runner:
    """Runs the binary under a shared deadline and checks its units."""

    def __init__(self, binary, seed, seconds, threads):
        self.binary = binary
        self.seed = seed
        self.seconds = seconds
        self.threads = threads
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.work_dir = os.path.join(build_root(), "work")
        pinned = load_json("pinned.json")
        self.pins = pinned.get(str(seed), {})
        # First digest of each unit in this run: units repeat across
        # iterations and passes (tenants at 1 and N threads) and must
        # agree.
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.config = {}

    def invoke(self, workload, mode, threads=None):
        cmd = [self.binary, "--workload", workload, "--mode", mode,
               "--seed", str(self.seed), "--seconds", str(self.seconds),
               "--threads", str(threads or self.threads),
               "--work-dir", self.work_dir]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            die("out of time before the %s %s pass" % (workload, mode), 1)
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  env=hermetic_env(), timeout=remaining,
                                  text=True)
        except subprocess.TimeoutExpired:
            die("%s %s pass exceeded the run deadline" % (workload, mode),
                1)
        if proc.returncode != 0:
            die("%s %s pass exited with %d" % (workload, mode,
                                               proc.returncode), 1)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.check(mode, result)
        return result

    def check(self, mode, result):
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        for key, digest, weight in result["units"]:
            expected = (self.pins.get(key)
                        or self.first.setdefault(key, digest))
            if digest != expected:
                self.failed += weight
                self.problems.append("%s: digest %s, expected %s"
                                     % (key, digest, expected))
        for name, ok, detail in result["checks"]:
            if not ok:
                self.problems.append("%s: %s" % (name, detail))
        for key, value in result["config"].items():
            self.config["%s.%s" % (mode, key) if mode != "e2e" else key] = \
                value

    def correct(self):
        return not self.problems and self.failed == 0


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """SHA-256 over src/ and perfbench/ sources: identifies the code
    even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".hh", ".txt", ".py", ".json")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def run_traced(runner, per_layer):
    metrics = {}
    for workload in WORKLOADS:
        metrics.update(runner.invoke(workload, "traced")["metrics"])
    # Thread scaling against a measured 1-thread pass of the same
    # tenants stream (replaces the summed-cell "speedup").
    one = runner.invoke("tenants", "scaling", threads=1)["metrics"]
    touch_n = (metrics["tenants.os.sharded.fill_s"]
               + metrics["tenants.os.sharded.churn_s"])
    metrics["tenants.util.pool.speedup"] = (
        one["tenants.scaling.touch_s"] / touch_n)
    missing = [name for name in per_layer if name not in metrics]
    if missing:
        die("traced run did not report: " + ", ".join(missing), 1)
    return {name: metrics[name] for name in per_layer}


def pin(binary, seeds):
    """Print fresh pins {seed: {unit: digest}} for @p seeds."""
    out = {}
    for seed in seeds:
        runner = Runner(binary, seed, 1, min(os.cpu_count() or 1, 4))
        runner.pins = {}
        units = {}
        # The traced replay emits every unit the end-to-end runs emit,
        # plus the swap rows' full VmStats.
        for workload in WORKLOADS:
            result = runner.invoke(workload, "traced")
            for key, digest, _ in result["units"]:
                units.setdefault(key, digest)
            runner.deadline = time.monotonic() + RUN_DEADLINE_S
        if not runner.correct():
            die("seed %d is not self-consistent: %s"
                % (seed, "; ".join(runner.problems)), 1)
        out[str(seed)] = dict(sorted(units.items()))
        print("pinned seed %d" % seed, file=sys.stderr)
    print(json.dumps(out, indent=1, sort_keys=True))


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", metavar="SEEDS",
                        help="print pins for a seed range such as 0-31")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    if args.pin:
        pin(binary, parse_seeds(args.pin))
        return
    if not args.workload:
        die("--workload is required")

    bench = load_json("BENCHMARK.json")
    threads = min(os.cpu_count() or 1, 4)
    runner = Runner(binary, args.seed, args.seconds, threads)
    if args.trace:
        names = [m["name"] for m in bench["per_layer"]]
        metrics = run_traced(runner, names)
    else:
        names = [m["name"] for m in bench["end_to_end"]]
        result = runner.invoke(args.workload, "e2e")
        metrics = {name: result["metrics"][name] for name in names}
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}

    config = dict(runner.config)
    config.update({"seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "threads": threads,
                   "nproc": os.cpu_count(), "git_commit": git_commit(),
                   "source_sha256": source_digest(),
                   "pinned_seed": bool(runner.pins)})
    print("# config " + json.dumps(config, sort_keys=True))
    for problem in runner.problems:
        print("# problem " + problem)
    print(json.dumps({
        "correct": runner.correct(),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    main()
