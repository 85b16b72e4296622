#!/usr/bin/env python3
"""Build and run the qasomd serving benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds `perfbench/` (a Cargo package of its
own, in release mode, into `$CARGO_TARGET_DIR` or `perfbench/target`),
runs the `qasom-perfbench` load generator, and passes its report through.
The report's last line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. The exit code is the generator's: non-zero when
the build fails, the run errors, or the correctness gate fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# The generator must finish within this many seconds of being started.
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    manifest = os.path.join(HERE, "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    build_command = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    build = subprocess.run(build_command, stdout=sys.stderr)
    if build.returncode != 0 and os.path.exists(os.path.join(HERE, "..", "crates")):
        # Once more: a compiler killed when the shared host ran short of
        # memory fails the build without anything being wrong with it.
        print("perfbench: build failed, trying once more", file=sys.stderr)
        build = subprocess.run(build_command, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    exe = os.path.join(os.path.abspath(target), "release", "qasom-perfbench")
    command = [
        exe,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
    ]
    # A session of its own, so a timeout can stop the server processes
    # the generator started along with it.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, start_new_session=True)
    started = time.monotonic()
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: the generator printed no result line", file=sys.stderr)
        return proc.returncode or 1
    print(f"perfbench: run took {time.monotonic() - started:.1f} s", file=sys.stderr)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
