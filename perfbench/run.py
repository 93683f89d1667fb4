#!/usr/bin/env python3
"""Builds the `tetris` server binary and the benchmark, then runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Build outputs go to $CARGO_TARGET_DIR
(default `.bench_build`); the benchmark's temporary cache directories live
under `<target dir>/perfbench-tmp` and are removed when a run ends, and a
traced run writes its spans to `<target dir>/perfbench-spans.jsonl`. The
last line of standard output is the result object. Any build failure (for
example, a directory that holds only the benchmark) exits non-zero without
printing a result.
"""
import os
import subprocess
import sys


def build(target, *args):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: `{' '.join(cmd)}` failed")


def main():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "Cargo.toml")):
        sys.exit("perfbench: run from the repository root (no Cargo.toml here)")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(target, "--bin", "tetris")
    build(target, "--manifest-path", os.path.join("perfbench", "Cargo.toml"))
    bench = os.path.join(target, "release", "perfbench")
    server = os.path.join(target, "release", "tetris")
    scratch = os.path.join(target, "perfbench-tmp")
    spans = os.path.join(target, "perfbench-spans.jsonl")
    argv = [bench, "--server-bin", server, "--scratch", scratch, "--spans-out", spans, *sys.argv[1:]]
    sys.exit(subprocess.run(argv).returncode)


if __name__ == "__main__":
    main()
