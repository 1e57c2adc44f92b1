#!/usr/bin/env python3
"""Build and run the benchmark of record.

Run from the repository root:

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 15 --trace 0

perfbench/ is a Go module of its own that uses the repository's module
through a replace directive. This script builds it from source into the
build directory ($CARGO_TARGET_DIR, else .bench_build), keeping every Go
cache inside that directory, then runs it. The program prints each
metric by name with its unit and sample count, and as its last line one
JSON result. A failed build exits 2 without a result.
"""
import argparse
import hashlib
import os
import subprocess
import sys


def tree_digest(root, skip):
    """Digest of the Go sources and benchmark definition under root."""
    h = hashlib.sha256()
    for d, dirs, files in os.walk(root):
        dirs[:] = sorted(x for x in dirs
                         if not x.startswith(".") and os.path.join(d, x) != skip)
        for f in sorted(files):
            if f.endswith((".go", ".mod", ".sum")) or f == "BENCHMARK.json":
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, root).encode() + b"\0")
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True)
    except OSError:
        return "none"
    return out.stdout.strip() or "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("table1", "fs-lan", "gateway-storm"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ,
               GOCACHE=os.path.join(build, "gocache"),
               GOPATH=os.path.join(build, "gopath"),
               GOMODCACHE=os.path.join(build, "gopath", "mod"),
               XDG_CONFIG_HOME=os.path.join(build, "config"),
               XDG_CACHE_HOME=os.path.join(build, "cache"),
               GOTOOLCHAIN="local", GOFLAGS="", GOENV="off",
               GOPROXY="off", GOSUMDB="off", CGO_ENABLED="0")
    binary = os.path.join(build, "perfbench")
    try:
        b = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    except OSError as e:
        print("perfbench: cannot run go:", e, file=sys.stderr)
        return 2
    if b.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    args = [binary, "-workload", a.workload, "-seed", str(a.seed),
            "-seconds", str(a.seconds), "-trace", str(a.trace),
            "-bench", os.path.join(root, "BENCHMARK.json"),
            "-out", os.path.join(build, "traces"),
            "-commit", commit(root), "-tree", tree_digest(root, build)]
    sys.stdout.flush()
    sys.stderr.flush()
    os.execve(binary, args, env)


if __name__ == "__main__":
    sys.exit(main())
