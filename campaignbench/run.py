#!/usr/bin/env python3
"""Build and run the campaign benchmark from the repository root.

    python3 campaignbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds campaignbench/main.exe with dune from the sources in this checkout,
then runs it pinned to one CPU (the engine worker that generated_dataflow
forks inherits the pin), with temporary files kept under campaignbench/_out. The benchmark's last
line of standard output is its result; on a failed build, a failed verdict
check or a missing source tree this script exits non-zero and prints no
result line.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "campaignbench", "main.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()

    for need in ("dune-project", "lib", os.path.join("campaignbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            print(f"campaignbench: {need} missing; run from a full checkout", file=sys.stderr)
            return 2

    # no shared dune cache: the build writes inside the checkout only
    build_env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./campaignbench/main.exe"],
        cwd=ROOT, env=build_env, stdout=sys.stderr, stderr=sys.stderr,
        timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        print("campaignbench: build failed", file=sys.stderr)
        return 1

    out = os.path.join(HERE, "_out")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    # One core for the whole run: the reference routine that corrects for
    # host speed is timed on the benchmark's thread, so the forked engine
    # worker must run on that same core.
    cpu = max(os.sched_getaffinity(0))
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            start_new_session=True,
                            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # the whole session: the benchmark and any engine worker it forked
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"campaignbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(stdout.decode())
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
