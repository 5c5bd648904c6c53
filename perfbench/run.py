#!/usr/bin/env python3
"""Build DySel and the perfbench driver from source, then run one workload.

    python3 perfbench/run.py --workload paper-select|serve-cold|serve-warm-burst \
        --seed N --seconds S --trace 0|1 [--corrupt paper|serve]

Run from the root of a checkout.  The project is configured with its own
CMakeLists.txt, unchanged, into <build>/dysel, and only the libraries are
built; perfbench/CMakeLists.txt then builds the driver against them into
<build>/perfbench.  <build> is $CARGO_TARGET_DIR when set, else .bench_build.
Build output goes to stderr; the driver's last stdout line is the result
JSON.  Traced runs write spans and per-layer metrics under .bench_out/.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
LIBS = ["dysel_serve", "dysel_workloads"]


def step(cmd):
    """Run one build command with its output on stderr; exit on failure."""
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
        sys.exit(3)


def configure(src, build, extra):
    if os.path.exists(os.path.join(build, "CMakeCache.txt")):
        return
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    step(["cmake", "-S", src, "-B", build] + gen + extra)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        sys.stderr.write("perfbench: run from the root of a DySel checkout\n")
        sys.exit(3)
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    jobs = str(os.cpu_count() or 1)
    dysel = os.path.join(out, "dysel")
    configure(ROOT, dysel, [])
    step(["cmake", "--build", dysel, "-j", jobs, "--target"] + LIBS)
    bench = os.path.join(out, "perfbench")
    configure(HERE, bench, ["-DDYSEL_SOURCE_DIR=" + ROOT,
                            "-DDYSEL_BUILD_DIR=" + dysel])
    step(["cmake", "--build", bench, "-j", jobs])
    return os.path.join(bench, "perfbench")


def main():
    exe = build()
    args = sys.argv[1:] + ["--out-dir", os.path.join(ROOT, ".bench_out")]
    sys.stdout.flush()
    sys.exit(subprocess.run([exe] + args).returncode)


if __name__ == "__main__":
    main()
