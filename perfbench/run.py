#!/usr/bin/env python3
"""Build the HEALERS benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The Go program is built into
.bench_build/ with its build cache there too, so nothing outside the
checkout is written. Build output goes to standard error; the last line
of standard output is the benchmark's JSON result. Outside a checkout
of the repository (no go.mod or internal/ beside perfbench/) it exits
with status 2 without printing a result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
# The benchmark itself must end within this many seconds; a run that
# hangs is killed and reported as failed.
RUN_TIMEOUT = 170


def main():
    if not (os.path.isfile(os.path.join(ROOT, "go.mod")) and os.path.isdir(os.path.join(ROOT, "internal"))):
        print("perfbench: %s is not a checkout of the repository (no go.mod or internal/)" % ROOT, file=sys.stderr)
        return 2
    env = dict(
        os.environ,
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
    )
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=os.path.join(ROOT, "perfbench"),
                           env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [binary] + sys.argv[1:] + ["-workdir", os.path.join(BUILD, "work")]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT).returncode or 0
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s and was killed" % RUN_TIMEOUT, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
