#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload node_light --seed 1 --seconds 25 --trace 0

Builds the `algorand-node` binary (the repository's own workspace) and
the `perfbench` package next to this file, both in release mode into
$CARGO_TARGET_DIR (default `.bench_build`), then runs the benchmark.
Build output goes to stderr; the last stdout line is the result object.
Benchmark self-tests: `cargo test --release --manifest-path perfbench/Cargo.toml`.
"""

import hashlib
import os
import pathlib
import signal
import subprocess
import sys

# Longest a measured run may take before it is killed.
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_id(root):
    """The commit if this is a git checkout, else a digest of the sources."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    files = sorted(root.glob("crates/**/*.rs")) + sorted(root.glob("perfbench/src/*.rs"))
    for f in files + [root / "Cargo.lock"]:
        h.update(str(f.relative_to(root)).encode())
        h.update(f.read_bytes())
    return "tree-sha256:" + h.hexdigest()[:16]


def main():
    root = pathlib.Path.cwd()
    if not (root / "Cargo.toml").is_file() or not (root / "crates" / "node").is_dir():
        fail("run from the root of a repository checkout (no Cargo.toml or crates/node here)")
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    builds = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "algorand-node", "--bin", "algorand-node"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    # Per run, so concurrent runs never share node directories.
    work = target / f"perfbench-work-{os.getpid()}"
    env.update(
        PERFBENCH_WORK=str(work),
        ALGORAND_NODE_BIN=str(target / "release" / "algorand-node"),
        PERFBENCH_SOURCE=source_id(root),
    )
    # A session of its own, so a timeout takes the node processes too.
    proc = subprocess.Popen(
        [str(target / "release" / "perfbench")] + sys.argv[1:], cwd=root, env=env, start_new_session=True
    )
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
