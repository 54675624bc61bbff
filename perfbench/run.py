#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload map-write-64t --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. It builds perfbench/bench.exe with dune
into the directory named by CARGO_TARGET_DIR (default .bench_build), then
runs it with the same arguments. The last line of standard output is the
result as one JSON object; build output goes to standard error. The exit
code is the benchmark's: 0 when every output check passed.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def find_dune():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    sys.exit("run.py: dune not found on PATH and no opam to find it")


def build(build_dir):
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = find_dune() + [
        "build",
        "--root", ROOT,
        "--build-dir", build_dir,
        "--profile", "release",
        "./perfbench/bench.exe",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    sys.stderr.write(proc.stdout)
    if proc.returncode != 0:
        sys.exit("run.py: build failed")
    return os.path.join(build_dir, "default", "perfbench", "bench.exe")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    exe = build(build_dir)
    # the traced run reads GC pauses from the runtime_events ring, whose
    # file the runtime creates here and removes at exit
    env = dict(os.environ, RUNTIME_EVENTS_DIR=build_dir)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # its own process group: the benchmark forks one process per repetition,
    # and a timeout must stop them all
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        sys.exit(proc.wait(timeout=RUN_TIMEOUT_S))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        sys.exit("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    main()
