#!/usr/bin/env python3
"""Build the buscrypt benchmark binary from this checkout and run one workload.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload ctx_storm --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The perfbench binary prints human-readable lines first and one JSON result
object as its last line; this wrapper builds it (once per build directory),
forwards the arguments and relays its output and exit code. Build output
goes to stderr so the last line of stdout stays the result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_logged(cmd, timeout):
    """Run a build step with its output on stderr; True when it succeeded."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {' '.join(cmd)}: {exc}", file=sys.stderr)
        return False
    return proc.returncode == 0


def build(out):
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        print("perfbench: no buscrypt sources in this checkout", file=sys.stderr)
        return False
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        if not run_logged(["cmake", "-S", HERE, "-B", out,
                           "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], 120):
            return False
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    return run_logged(["cmake", "--build", out, "--target", "perfbench",
                       "perfbench_selftest", "-j", jobs], BUILD_TIMEOUT_S)


def main(argv):
    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if argv[:1] == ["--selftest"]:
        cmd = [os.path.join(out, "perfbench_selftest")] + argv[1:]
    else:
        cmd = [os.path.join(out, "perfbench"), "--trace-dir",
               os.path.join(os.path.dirname(out), "traces")] + argv
    proc = subprocess.run(cmd, cwd=ROOT, check=False)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
