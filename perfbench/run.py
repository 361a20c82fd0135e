#!/usr/bin/env python3
"""Build and run the sdfmem benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `sdfmem` CLI (whose `serve` subcommand is the daemon under
test) and the `perfbench` binary with cargo into $CARGO_TARGET_DIR
(default `.bench_build`), then runs that binary pinned to one CPU (see
perfbench/README.md for why). Its stdout is passed
through: a provenance record line, then the result object as the last
line. Exits non-zero without printing a result when the build fails.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
SOURCES = ("Cargo.toml", "src", "crates", "shims", "perfbench/src", "perfbench/Cargo.toml")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def cargo_build(target_dir, *args):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    # Build output goes to stderr: stdout is reserved for the result.
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed: " + " ".join(cmd))


def command_output(*cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def source_digest():
    """SHA-256 over the program's and the benchmark's source files."""
    digest = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
        )
        for f in sorted(files):
            if "/target/" in f:
                continue
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def main():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates")
    ):
        fail("run from the root of an sdfmem checkout (no Cargo.toml or crates/ here)")
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    cargo_build(target_dir, "-p", "sdf-cli", "--bin", "sdfmem")
    cargo_build(target_dir, "--manifest-path", os.path.join(HERE, "Cargo.toml"))
    perfbench = os.path.join(target_dir, "release", "sdfmem-perfbench")
    sdfmem = os.path.join(target_dir, "release", "sdfmem")
    commit = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        commit = command_output("git", "-C", ROOT, "rev-parse", "HEAD")
    # One CPU for the benchmark and the daemons it starts: the engine then
    # runs its candidate lattice serially, so the CPU time an operation
    # takes does not depend on whether its threads happened to overlap.
    nproc = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # Later flags win, so arguments given to this script override these.
    cmd = [
        perfbench,
        "--sdfmem", sdfmem,
        "--expected-dir", os.path.join(HERE, "expected"),
        "--workdir", os.path.join(target_dir, "perfbench-run"),
        "--commit", commit,
        "--rustc", command_output("rustc", "--version"),
        "--source-digest", source_digest(),
        "--nproc", str(nproc),
        *sys.argv[1:],
    ]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
