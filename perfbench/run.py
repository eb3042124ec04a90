#!/usr/bin/env python3
"""Builds the benchmark program from this checkout and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The first call configures and builds
perfbench/ (and the celect library from src/) into .bench_build/, or into
$CARGO_TARGET_DIR when that is set; later calls rebuild only what changed.
Build output goes to stderr, so the last line on stdout is the program's
JSON result. The exit code is the program's: non-zero when a check failed
or the program could not be built.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("sim_flood", "sim_capture", "churn_storm", "udp_lossy")
BUILD_JOBS = "4"


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build(root):
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"no celect sources under {root / 'src'}; run from a checkout")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    build_dir = target / "perfbench"
    if not (build_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(build_dir), "-j", BUILD_JOBS]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    binary = build(root)
    sys.stdout.flush()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    sys.exit(subprocess.run(cmd, cwd=root).returncode)


if __name__ == "__main__":
    main()
