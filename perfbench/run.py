#!/usr/bin/env python3
"""Builds the Switchboard benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload chain_traffic --seed 1 --seconds 10 --trace 0

The benchmark is its own Cargo package (perfbench/Cargo.toml) that depends
on the repository's crates by path. It is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build). The last line of standard output
is the result object; everything before it is the human-readable report.
Spans of a traced run go to $CARGO_TARGET_DIR/perfbench-traces/.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("chain_traffic", "reroute_churn", "fleet_storm", "lp_plan")
# The run itself bounds its time; this only guards against a hang.
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_sha256():
    """Hash of the sources the benchmark builds, for provenance where the
    checkout is not a git repository."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock")]
    for top in ("crates", "vendor", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in files:
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    args = p.parse_args()

    manifest = os.path.join(HERE, "Cargo.toml")
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        fail("the repository's crates are missing; run from a full checkout", 2)

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")

    env.update(
        PERFBENCH_RUSTC=command_output(["rustc", "--version"]),
        PERFBENCH_GIT_REV=command_output(["git", "rev-parse", "HEAD"]),
        PERFBENCH_SOURCE_SHA256=source_sha256(),
        PERFBENCH_CPU=cpu_model(),
    )
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--trace-dir", os.path.join(target, "perfbench-traces"),
    ]
    sys.stdout.flush()
    child = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if code != 0:
        fail(f"run exited with code {code}")


if __name__ == "__main__":
    main()
