#!/usr/bin/env python3
"""Build and run the midband5g benchmark (perfbench/src/main.rs).

Run from the repository root:

    python3 perfbench/run.py --workload session --seed 1 --seconds 10 --trace 0

Builds the benchmark package in release mode into $CARGO_TARGET_DIR
(default `.bench_build`), runs one workload, and prints the benchmark's
JSON result as the last line of stdout. Build and benchmark chatter go
to stderr. Exits non-zero, printing no result, when the build, the run or
the result's shape fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("session", "dataset", "daemon", "dist")
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def run_group(cmd, env, timeout, stdout):
    """Run `cmd` in its own process group; on timeout kill the whole group
    (the `dist` workload spawns worker processes) and wait for it."""
    proc = subprocess.Popen(cmd, env=env, stdout=stdout, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit(f"perfbench: {cmd[0]} timed out after {timeout} s")
    return proc.returncode, out


def check_result(result, trace):
    keys = {"correct", "attempted", "failed", "metrics"}
    if not isinstance(result, dict) or set(result) != keys:
        sys.exit(f"perfbench: result keys {sorted(result)} != {sorted(keys)}")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int):
            sys.exit(f"perfbench: {key} is not an integer")
    if result["attempted"] < 1:
        sys.exit("perfbench: nothing attempted")
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    wanted = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != wanted:
        sys.exit(f"perfbench: metrics {sorted(result['metrics'])} != {sorted(wanted)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    build = ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", str(HERE / "Cargo.toml")]
    code, _ = run_group(build, env, BUILD_TIMEOUT_S, sys.stderr)
    if code != 0:
        sys.exit(f"perfbench: build failed with code {code}")

    exe = target / "release" / "perfbench"
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    code, out = run_group(cmd, env, RUN_TIMEOUT_S, subprocess.PIPE)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        sys.exit(f"perfbench: run failed with code {code}")
    sys.stderr.write("".join(line + "\n" for line in lines[:-1]))
    result = json.loads(lines[-1])
    check_result(result, args.trace == 1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
