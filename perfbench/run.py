#!/usr/bin/env python3
"""Build (on first use) and run the LookHD end-to-end benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload speech_burst --seed 1 \
        --seconds 10 --trace 0

`--workload all` runs both workloads in turn.

Configures and builds perfbench/ (the lookhd library, the shipped
lookhd_serve binary and the benchmark binary) into $CARGO_TARGET_DIR, default
.bench_build, then hands every argument to that binary. Build output
goes to stderr; its last stdout line is the JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configure (cheap when nothing changed; fails when the build
    tree belongs to another source tree), then build incrementally;
    exit nonzero on failure."""
    def run(cmd):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")

    run(["cmake", "-S", HERE, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    run(["cmake", "--build", build_dir, "--target", "perfbench",
         "-j", jobs])


WORKLOADS = ("speech_burst", "physical_churn")


def main():
    args = sys.argv[1:]
    at = args.index("--workload") + 1 if "--workload" in args else 0
    if at and args[at:at + 1] == ["all"]:
        # Every workload in turn, same arguments; exit nonzero if any did.
        rc = 0
        for name in WORKLOADS:
            args[at] = name
            rc |= subprocess.run([sys.executable, __file__, *args]).returncode
        sys.exit(rc)
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(build_dir)
    binary = os.path.join(build_dir, "perfbench")
    serve = os.path.join(build_dir, "lookhd", "tools", "lookhd_serve")
    work = os.path.join(build_dir, "runs")
    os.makedirs(work, exist_ok=True)
    sys.stdout.flush()
    os.execv(binary, [binary, *args, "--serve-bin", serve,
                      "--work-dir", work])


if __name__ == "__main__":
    main()
