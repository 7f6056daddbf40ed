#!/usr/bin/env python3
"""Builds and runs the ndq repository benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload local_read --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --check

The first form builds the benchmark (Release, in .bench_build/perfbench; an
unchanged tree is not rebuilt), runs one workload and passes its output
through: the last line is one JSON object with "correct", "attempted",
"failed" and "metrics". The second form is the benchmark's own test: every
workload at a reduced directory size through the same code path and the
same checks, and again with a deliberately wrong expected digest and count,
which must make each run report incorrect outputs.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "ndq_perfbench")
WORKLOADS = ("local_read", "fleet_read", "online_update")

# Environment switches the engine reads at run time. Cleared so that the
# configuration the benchmark sets in code is the one measured.
PINNED_ENV = ("NDQ_OPTIMIZE", "NDQ_PAGE_FORMAT", "NDQ_DISK_BACKEND",
              "NDQ_FILE_DISK_DIR")

RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("run.py: no ndq sources at %s/src\n" % ROOT)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "ndq_perfbench",
                  "-j", "4"])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("run.py: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def run(args):
    env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    try:
        proc = subprocess.run([BINARY] + args, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, universal_newlines=True)
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1, None, ""
    result = None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result, proc.stdout


def metric_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def self_test():
    end_to_end, per_layer = metric_names()
    failures = []
    for w in WORKLOADS:
        base = ["--workload", w, "--seed", "7", "--seconds", "1",
                "--scale", "check"]
        for trace, names in (("0", end_to_end), ("1", per_layer)):
            rc, res, _ = run(base + ["--trace", trace])
            label = "%s trace=%s" % (w, trace)
            if res is None:
                failures.append("%s: no result (exit %d)" % (label, rc))
                continue
            if not res["correct"] or res["failed"] != 0:
                failures.append("%s: correct=%s failed=%d" %
                                (label, res["correct"], res["failed"]))
            if sorted(res["metrics"]) != sorted(names):
                failures.append("%s: metric names differ from BENCHMARK.json"
                                % label)
            if trace == "0":
                zero = [k for k, m in res["metrics"].items()
                        if not m["value"] > 0]
                if zero:
                    failures.append("%s: zero metrics %s" % (label, zero))
        for tamper in ("digest", "count"):
            rc, res, _ = run(base + ["--trace", "0", "--tamper", tamper])
            if res is None or res["correct"]:
                failures.append("%s: a wrong expected %s went unnoticed" %
                                (w, tamper))
        print("checked %s" % w)
    rc, res, _ = run(["--workload", "nonexistent", "--seed", "1",
                      "--seconds", "1", "--trace", "0"])
    if rc == 0 or res is not None:
        failures.append("an unknown workload was accepted")
    for f in failures:
        print("FAIL %s" % f)
    print("self-test %s" % ("failed" if failures else "passed"))
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", choices=("0", "1"))
    p.add_argument("--check", action="store_true",
                   help="run the benchmark's own test instead")
    a = p.parse_args()
    if not a.check and None in (a.workload, a.seed, a.seconds, a.trace):
        p.error("--workload, --seed, --seconds and --trace are required")
    if not build():
        return 1
    if a.check:
        return self_test()
    rc, _, out = run(["--workload", a.workload, "--seed", str(a.seed),
                      "--seconds", str(a.seconds), "--trace", a.trace])
    sys.stdout.write(out)
    return rc


if __name__ == "__main__":
    sys.exit(main())
