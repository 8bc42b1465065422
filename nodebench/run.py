#!/usr/bin/env python3
"""Builds the node benchmark from source and runs one workload.

    python3 nodebench/run.py --workload <paper-mixed|zipf-state-reads|follower-catchup>
                             --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The build goes to $CARGO_TARGET_DIR/nodebench
(default .bench_build/nodebench); the first run configures and compiles, later
runs only check that the build is current. Build output goes to stderr, so the
last line of stdout is the benchmark's result object. The result line is also
saved under nodebench/out/, with the Chrome trace of a traced run.

Exits 1 without printing a result when the build or the run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")


def flag(args, name, default):
    return args[args.index(name) + 1] if name in args[:-1] else default


def build(build_dir):
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target", "nodebench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    args = sys.argv[1:]
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "nodebench")
    if not build(build_dir):
        print("nodebench: build failed", file=sys.stderr)
        return 1

    os.makedirs(OUT, exist_ok=True)
    name = "%s-seed%s-trace%s" % (flag(args, "--workload", "none"), flag(args, "--seed", "1"),
                                 flag(args, "--trace", "0"))
    command = [os.path.join(build_dir, "nodebench")] + args
    if flag(args, "--trace", "0") == "1":
        command += ["--trace-out", os.path.join(OUT, "trace-%s.json" % name)]
    run = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        return run.returncode
    lines = run.stdout.strip().splitlines()
    if lines:
        with open(os.path.join(OUT, "result-%s.json" % name), "w") as result:
            result.write(lines[-1] + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
