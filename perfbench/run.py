#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload <pta_paced|pta_burst|server_durable> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the strip library, strip_server and the benchmark driver from the
sources of this checkout (CMake, into $CARGO_TARGET_DIR or .bench_build),
then runs the driver. The driver prints a table of every metric with its
unit and sample count; the last line of output is one JSON object with the
keys correct, attempted, failed and metrics. Exits non-zero when the build
fails, a correctness check fails or the run does not finish in time.
See perfbench/NOTES.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pta_paced", "pta_burst", "server_durable")
RUN_LIMIT_S = 175  # a run, build check included, ends within 180 s
FIRST_RUN_LIMIT_S = 880  # the first run in a checkout also builds


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds the driver and strip_server."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")) or not os.path.isfile(
        os.path.join(ROOT, "tools", "strip_server.cc")
    ):
        fail("the strip sources (src/, tools/) are not in this checkout")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as log:
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            rc = subprocess.call(
                ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                stdout=log,
                stderr=subprocess.STDOUT,
            )
            if rc != 0:
                shutil.rmtree(build_dir, ignore_errors=True)
                fail(f"cmake configure failed (see {log_path})")
        jobs = str(max(1, min(os.cpu_count() or 1, 8)))
        rc = subprocess.call(
            ["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench_driver", "strip_server"],
            stdout=log,
            stderr=subprocess.STDOUT,
        )
    if rc != 0:
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-40:]))
        fail("build failed")


def stop_group(pgid):
    """Kills whatever is left of the run's process group and waits (up to
    10 s) until none of it is running."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(1000):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def check_result(line):
    """The driver's last line must be the one-line JSON result."""
    try:
        result = json.loads(line)
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    started = time.monotonic()
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = target if os.path.isabs(target) else os.path.join(ROOT, target)
    build_dir = os.path.join(target, "perfbench")
    first_run = not os.path.isfile(os.path.join(build_dir, "perfbench_driver"))
    build(build_dir)

    work_dir = os.path.join(target, "work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    cmd = [
        os.path.join(build_dir, "perfbench_driver"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--server-bin", os.path.join(build_dir, "strip_server"),
        "--work-dir", work_dir,
    ]
    limit = (FIRST_RUN_LIMIT_S if first_run else RUN_LIMIT_S) - (time.monotonic() - started)
    # The driver and the strip_server it spawns share a new process group,
    # so every process of the run can be stopped together.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    timed_out = False
    try:
        out, _ = proc.communicate(timeout=max(limit, 1))
    except subprocess.TimeoutExpired:
        timed_out = True
    stop_group(proc.pid)
    if timed_out:
        out, _ = proc.communicate()
    shutil.rmtree(work_dir, ignore_errors=True)
    if timed_out:
        sys.stdout.write(out)
        fail("the run did not finish in time")

    lines = out.rstrip("\n").split("\n")
    result = check_result(lines[-1]) if lines else None
    if result is None:
        sys.stdout.write(out)
        fail(f"the driver exited with code {proc.returncode} without a result")
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
