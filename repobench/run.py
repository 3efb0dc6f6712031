"""Build the repository's binaries and the benchmark runner, then run it.

Run from the root of a checkout:

    python3 repobench/run.py --workload corpus --seed 1 --seconds 15 --trace 0

Everything the build and the run write stays under .bench_build/ in the
checkout: the Go build cache, temp files, the binaries, and each run's
generated inputs, parse-table caches and stores. Build output goes to
stderr, so the last line of stdout is the runner's result object.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin")


def main():
    go = shutil.which("go")
    if go is None:
        sys.exit("run.py: go is not on PATH")
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOWORK="off",
    )
    builds = [
        ([go, "build", "-o", BIN + os.sep, "./cmd/clint", "./cmd/superc", "./cmd/superd"], ROOT),
        ([go, "build", "-o", os.path.join(BIN, "repobench"), "."], os.path.join(ROOT, "repobench")),
    ]
    for cmd, cwd in builds:
        if subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))
    runner = os.path.join(BIN, "repobench")
    os.execve(runner, [runner, "-bin", BIN] + sys.argv[1:], env)


if __name__ == "__main__":
    main()
