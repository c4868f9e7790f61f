#!/usr/bin/env python3
"""Run one workload of the MC benchmark and print its result line last.

Usage, from the repository root:

    python3 benchmark/run.py --workload crypto --seed 1 --seconds 20 --trace 0

The script builds the benchmark's release binary (a package of its own in
this directory, built from the workspace sources into $CARGO_TARGET_DIR,
default `.bench_build`), then runs the workload in a fresh process. With
`--trace 0` it reports the end-to-end metrics. With `--trace 1` it runs the
workload untraced first, then once more traced with the same seed, and
reports the per-layer metrics plus the tracing overhead.

The command exits with 1 when any answer check fails, after printing the
result line with `"correct": false`.

Output: the workload's own lines (metrics with units, a `meta` line; on a
traced run the untraced run's lines come first, marked `untraced |`), a
`host` line of run metadata, and finally one JSON object with `correct`,
`attempted`, `failed` and `metrics`.

Seeds: 1 is the baseline seed; 2 is held out for confirming gain claims.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("crypto", "serve_mix", "cluster_mix")
BASELINE_SEED = 1
BUILD_TIMEOUT_S = 720
# One workload process; a traced run starts two of them.
RUN_TIMEOUT_S = 85
SOURCE_DIRS = ("crates", "src", "tests", "examples")


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=BASELINE_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def build(root, target_dir):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(root / "benchmark" / "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    try:
        done = subprocess.run(cmd, cwd=root, env=env, timeout=BUILD_TIMEOUT_S,
                              stdout=sys.stderr)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return target_dir / "release" / "mc-benchmark"


def workload(binary, root, args, extra):
    """Runs one workload process; returns its stdout lines."""
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)] + extra
    try:
        done = subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        fail(f"{args.workload} exited with code {done.returncode}")
    return lines


def rust_files(root):
    for top in SOURCE_DIRS:
        yield from sorted((root / top).rglob("*.rs"))


def source_digest(root):
    """A hash of the workspace sources: the commit, when no git is at hand."""
    digest = hashlib.sha256()
    files = [root / "Cargo.toml", root / "Cargo.lock"] + list(rust_files(root))
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit(root):
    """HEAD's commit id, read from `.git` inside the checkout if present."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def rustc_version():
    try:
        return subprocess.run(["rustc", "--version"], stdout=subprocess.PIPE,
                              text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, or None off Linux."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(x) for x in stat.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def steal_share(before, after):
    """Share of CPU time the hypervisor took from this machine."""
    if before is None or after is None or after[1] == before[1]:
        return None
    return round((after[0] - before[0]) / (after[1] - before[1]), 4)


def result_of(lines):
    try:
        return json.loads(lines[-1])
    except ValueError:
        fail("the workload printed no result line")


def main():
    args = parse_args()
    root = Path(__file__).resolve().parent.parent
    target_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target_dir.is_absolute():
        target_dir = root / target_dir
    binary = build(root, target_dir)

    host = {
        "nproc": os.cpu_count(),
        "rustc": rustc_version(),
        "commit": git_commit(root),
        "source_sha256": source_digest(root),
        "rust_lines": sum(len(p.read_bytes().splitlines()) for p in rust_files(root)),
        "seed": args.seed,
        "seconds": args.seconds,
    }
    ticks = cpu_ticks()
    lines = workload(binary, root, args, [])
    if args.trace == 1:
        for line in lines[:-1]:
            print("untraced | " + line)
        baseline = result_of(lines)["metrics"]["flow_s"]["value"]
        trace_out = target_dir / "bench-traces" / f"{args.workload}-seed{args.seed}.jsonl"
        lines = workload(binary, root, args, [
            "--trace", "1", "--baseline-flow-s", repr(baseline), "--trace-out", str(trace_out),
        ])
    correct = result_of(lines)["correct"]
    host["cpu_steal_share"] = steal_share(ticks, cpu_ticks())
    print("host " + json.dumps(host))
    print("\n".join(lines))
    if not correct:
        # The result line is printed, but a wrong answer fails the command.
        sys.exit(1)


if __name__ == "__main__":
    main()
