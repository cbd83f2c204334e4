#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs it.

Run from the repository root:

    python3 bench/e2e/run.py --workload serve_16x16 --seed 1 --seconds 15 --trace 0
    python3 bench/e2e/run.py              # every workload, one child process each
    python3 bench/e2e/run.py --smoke      # every workload at ~1/50 size, checked

The build goes to $CARGO_TARGET_DIR/e2e (default .bench_build/e2e); each
workload generates its inputs under $CARGO_TARGET_DIR/work and removes them
when it ends. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. The exit code is the benchmark's: 0 only when every
output check passed.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-G", "Unix Makefiles", "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "2"],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "e2e")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", help="one workload; default: all of them")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report the per-layer metrics of traced passes")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--out", help="also write the result JSON to this file")
    args = p.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                            ".bench_build"))
    try:
        exe = build(os.path.join(target, "e2e"))
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [exe, f"seed={args.seed}", f"seconds={args.seconds}",
           f"layers={args.trace}", f"workdir={os.path.join(target, 'work')}"]
    if args.workload:
        cmd.append(f"workload={args.workload}")
    if args.smoke:
        cmd.append("smoke=1")
    if args.out:
        cmd.append(f"out={os.path.abspath(args.out)}")
    sys.stdout.flush()
    return subprocess.call(cmd)


if __name__ == "__main__":
    sys.exit(main())
