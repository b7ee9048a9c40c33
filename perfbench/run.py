#!/usr/bin/env python3
"""Build and run the SpinStreams benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The script builds `perfbench/` (a Cargo
package of its own, release profile) into `$CARGO_TARGET_DIR`, or
`.bench_build` when that is unset, prints a host fingerprint line, and runs
the benchmark binary with the given arguments. The binary's last line of
standard output is the result JSON; the exit code is the binary's (non-zero
when a correctness check failed), or 2 when the build fails.

See perfbench/README.md for the workloads and metrics.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BINARY = "spinstreams-perfbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def command_output(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def fingerprint():
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "rustc": command_output(["rustc", "--version"]),
        "commit": command_output(["git", "-C", str(ROOT), "rev-parse", "HEAD"]),
    }


def main():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"error: build failed: {e}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("error: build failed", file=sys.stderr)
        return 2

    print(json.dumps({"fingerprint": fingerprint()}), flush=True)
    try:
        run = subprocess.run(
            [str(target / "release" / BINARY), *sys.argv[1:]],
            stdout=subprocess.PIPE,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"error: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    sys.stdout.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
