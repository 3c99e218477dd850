#!/usr/bin/env python3
"""Builds and runs the repository benchmark described by BENCHMARK.json.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds the
goalex libraries and the perfbench program in .bench_build/perfbench
(Release, the same flags as the top-level build); later calls only check
that the build is current. Build output goes to standard error, so the
last line of standard output is always the program's JSON result. Exits
non-zero without a result when the build fails (for example when the
checkout holds no sources) and with the program's status otherwise.
"""
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    """Configures (once) and builds the program and its tests."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(max(1, os.cpu_count() or 1))
    command = ["cmake", "--build", BUILD, "--target", "perfbench",
               "perfbench_test", "-j", jobs]
    return subprocess.call(command, stdout=sys.stderr) == 0


def source_id():
    """The git sha when the checkout is a repository, else a digest of the
    sources the benchmark builds."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for directory, _, files in sorted(os.walk(os.path.join(ROOT, top))):
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "tree-" + digest.hexdigest()[:16]


def main(argv):
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if argv == ["--self-test"]:
        return subprocess.call([os.path.join(BUILD, "perfbench_test")])
    command = [os.path.join(BUILD, "perfbench")] + argv + [
        "--git-sha", source_id()]
    return subprocess.call(command, cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
