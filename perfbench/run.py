#!/usr/bin/env python3
"""Build perfbench from source and run one measurement.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload authz-conv|authz-pk|bank \
        --seed N --seconds S --trace 0|1

The arguments go to perfbench/bench.exe unchanged. Its standard output is
passed through; the last line is the JSON result. The exit code is
non-zero, with no result printed, if the build or the run fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project")) and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("no dune-project and lib/ at %s: run from the root of a full checkout" % ROOT, 2)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "-j", "2", "--display", "quiet", "./perfbench/bench.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune not found")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(r.stdout)
        fail("build failed")


def main():
    build()
    try:
        r = subprocess.run([EXE] + sys.argv[1:], cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out")
    if r.returncode != 0:
        fail("bench.exe exited with %d" % r.returncode, r.returncode)
    sys.stdout.write(r.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
