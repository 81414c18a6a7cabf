#!/usr/bin/env python3
"""Build and run the benchmark: python3 perfbench/run.py --workload NAME
--seed N --seconds S --trace 0|1, from the root of a checkout.

It compiles the benchmark (a Go module in this directory that builds the
repository's packages from source) into .bench_build/, keeping the Go
build cache and temporary files there too, then runs it and relays its
output. The last line of standard output is the benchmark's JSON result.
The exit status is non-zero, with no result printed, when the build or
the run fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")

# The benchmark measures 12 fresh-cluster rounds (3 untraced/traced pairs
# with --trace 1), each with set-up, a fixed-op warmup and window that end
# at 4x their nominal time at the latest, a drain of up to 5 s and the
# output check. It starts no round that would run past its own 140 s
# budget, so a program several times slower still reports, on fewer
# rounds; this timeout only stops a wedged run, inside the three-minute
# limit.
RUN_TIMEOUT = 170
BUILD_TIMEOUT = 840


def go_env():
    env = dict(os.environ)
    # The runtime's defaults: GOMAXPROCS = the CPUs this process may use.
    for k in ("GOMAXPROCS", "GOGC", "GOMEMLIMIT", "GODEBUG", "GOFLAGS"):
        env.pop(k, None)
    env.update(
        GOCACHE=os.path.join(BUILD, "go-cache"),
        GOMODCACHE=os.path.join(BUILD, "go-mod"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        TMPDIR=os.path.join(BUILD, "tmp"),
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOSUMDB="off",
        CGO_ENABLED="0",
    )
    return env


def main():
    go = shutil.which("go")
    if go is None:
        print("run.py: no go toolchain on PATH", file=sys.stderr)
        return 2
    env = go_env()
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    build = subprocess.run(
        [go, "build", "-o", BINARY, "."],
        cwd=HERE, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT,
    )
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    # Go's flag package takes --flag as well as -flag.
    args = [BINARY, "-workdir", os.path.join(BUILD, "run")] + sys.argv[1:]
    proc = subprocess.Popen(args, cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("run.py: benchmark run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
