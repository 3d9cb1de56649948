#!/usr/bin/env python3
"""Builds and runs the benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark binary (its own Cargo workspace in perfbench/) and the
repository's ef-lora-serve daemon into $CARGO_TARGET_DIR (default
.bench_build), then runs one workload. The last line of standard output is
the workload's JSON result; build output goes to standard error. Exits
non-zero, without a result, when the build or the run fails.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("plan-paper", "validate-hotspot", "plan-sharded", "serve-mixed")
# Every workload uses at most this many threads.
THREADS = "2"
# Kill a run that outlives the per-run limit, rather than hang.
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.getcwd()
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target, EF_LORA_THREADS=THREADS)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "perfbench", "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "Cargo.toml"),
         "-p", "ef-lora-serve", "--bin", "ef-lora-serve"],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))

    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--daemon", os.path.join(release, "ef-lora-serve"),
        "--work", os.path.join(target, "perfbench-work"),
    ]
    # The serve client and daemon share one core: a request then costs two
    # context switches on that core, not cross-core wake-ups whose cost
    # swings from run to run.
    one_core = {min(os.sched_getaffinity(0))}
    pin = ((lambda: os.sched_setaffinity(0, one_core))
           if args.workload == "serve-mixed" else None)
    # Its own process group, so a run that hangs is killed together with
    # the daemons it started.
    run = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                           start_new_session=True, preexec_fn=pin)
    try:
        stdout, _ = run.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(run.pid, signal.SIGKILL)
        run.wait()
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    if run.returncode != 0:
        sys.exit("perfbench: run failed with code %d" % run.returncode)
    sys.stdout.write(stdout)


if __name__ == "__main__":
    main()
