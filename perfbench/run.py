#!/usr/bin/env python3
"""Build and run Strudel's benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload author|browse|browse_edit \
        --seed N --seconds S --trace 0|1

The benchmark is a Go program of its own module (perfbench/go.mod) that
imports the repository's packages from the parent directory. Everything
the build and the run write stays under .bench_build/ in the checkout:
the Go build cache, the binary, and the run's scratch files.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin", "perfbench")
RUN_TIMEOUT = 170


def go_env():
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOENV": "off",
        "GOWORK": "off",
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "CGO_ENABLED": "0",
    })
    return env


def main():
    env = go_env()
    build = subprocess.run(["go", "build", "-o", BIN, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [BIN, "-work", os.path.join(BUILD, "work")] + sys.argv[1:]
    try:
        run = subprocess.run(args, cwd=ROOT, env=env, timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT, file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
