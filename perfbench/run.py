#!/usr/bin/env python3
"""Build the perfbench driver from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload pagerank-tuned --seed 1 \
        --seconds 20 --trace 0

The first call configures and builds perfbench/ (and the src/ libraries it
links) into .bench_build/ as a Release build; later calls only rebuild what
changed. Build output goes to stderr. All arguments are passed to the
driver, whose last stdout line is the JSON result (see README.md). Exits
non-zero, without a result, when the sources are missing or the build or
the run fails.
"""
import ctypes
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170
ADDR_NO_RANDOMIZE = 0x0040000  # <sys/personality.h>
# glibc adapts its mmap and trim thresholds to the first large blocks a
# process frees, so peak RSS would depend on allocation order (and so on the
# seed). Fixed thresholds, at the values that adaptation tops out at, make
# it repeat.
MALLOC_TUNABLES = ("glibc.malloc.mmap_threshold=33554432:"
                   "glibc.malloc.trim_threshold=67108864")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: simulator sources (src/) not found next to "
                 "perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", "4"], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "perfbench")


def no_aslr():
    """Turn off address-space randomization for the driver (inherited
    through exec): heap and fiber-stack placement then repeat from run to
    run, which removes a layout-dependent share of the run-to-run spread."""
    try:
        ctypes.CDLL(None, use_errno=True).personality(ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def main():
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("perfbench: build failed: %s" % err)
    try:
        run = subprocess.run([binary] + sys.argv[1:], stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S,
                             preexec_fn=no_aslr,
                             env=dict(os.environ,
                                      GLIBC_TUNABLES=MALLOC_TUNABLES))
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        sys.exit(run.returncode)
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
