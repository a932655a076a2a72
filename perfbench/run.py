#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload peel-heavy --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds the library and the perfbench binary in Release
mode under $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
later calls rebuild only what changed. A run materializes the seed's
datasets in a separate process, so generation is neither timed nor counted
in the run's peak memory, then runs the binary. The binary's last stdout
line is the result object and is printed last; an environment record
precedes it. --self-test runs every workload on tiny graphs through every
check, and checks that a deliberately corrupted answer fails the run.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("peel-heavy", "flow-heavy", "serve-mixed")
# A run must finish within 180 s (building aside).
TIME_LIMIT_S = 170.0


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir(root):
    return root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build(root, bench_dir):
    """Configures (once) and builds the perfbench binary; returns its path."""
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail("the repository sources (src/) are missing; run from the repo root")
    out = build_dir(root)
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(bench_dir), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return out / "perfbench"


def source_id(root):
    """git commit when the checkout is a repository, else a digest of the
    program's sources."""
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True, timeout=10)
            if sha.returncode == 0 and sha.stdout.strip():
                return sha.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for path in sorted((root / base).rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cpp", ".txt", ".py"):
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def cmake_cache_value(root, key):
    cache = build_dir(root) / "CMakeCache.txt"
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def run_bench(root, binary, workload, seed, seconds, trace, tiny=False,
               corrupt=False, deadline=None):
    """Materializes the datasets, runs the binary; returns (code, lines)."""
    data = build_dir(root) / "datasets"
    data.mkdir(parents=True, exist_ok=True)
    suffix = f"-s{seed}.dsdg"
    for stale in data.glob("*.dsdg"):  # keep only this seed's graphs
        if not stale.name.endswith(suffix):
            stale.unlink()
    common = ["--workload", workload, "--seed", str(seed),
              "--data", os.path.relpath(data, root)]
    if tiny:
        common.append("--tiny")
    deadline = deadline or time.monotonic() + TIME_LIMIT_S
    subprocess.run([str(binary), *common, "--materialize"], cwd=root,
                   check=True, timeout=max(1.0, deadline - time.monotonic()))
    cmd = [str(binary), *common, "--seconds", str(seconds),
           "--trace", str(trace)]
    if corrupt:
        cmd.append("--corrupt")
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    return proc.returncode, proc.stdout.strip().splitlines()


def self_test(root, binary):
    """Tiny-graph pass over every workload and mode, plus a planted fault."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = {0: [m["name"] for m in spec["end_to_end"]],
             1: [m["name"] for m in spec["per_layer"]]}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines = run_bench(root, binary, workload, 7, 60, trace,
                                     tiny=True)
            result = json.loads(lines[-1]) if lines else {}
            missing = [n for n in names[trace]
                       if n not in result.get("metrics", {})]
            if code != 0 or not result.get("correct") or result.get("failed"):
                problems.append(f"{workload} trace={trace}: exit {code}, "
                                f"result {lines[-1:]}")
            elif missing:
                problems.append(f"{workload} trace={trace}: missing {missing}")
            else:
                print(f"ok   {workload} trace={trace}: "
                      f"{result['attempted']} ops checked")
    for workload in WORKLOADS:
        code, lines = run_bench(root, binary, workload, 7, 60, 0,
                                 tiny=True, corrupt=True)
        result = json.loads(lines[-1]) if lines else {}
        if code == 0 or result.get("correct") or not result.get("failed"):
            problems.append(f"{workload}: corrupted answer was not counted "
                            f"as failed (exit {code}, {lines[-1:]})")
        else:
            print(f"ok   {workload} corrupted answer: exit {code}, "
                  f"failed {result['failed']} of {result['attempted']}")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="0 keeps the dataset registry's frozen seeds")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    root = Path.cwd()
    bench_dir = Path(__file__).resolve().parent
    try:
        binary = build(root, bench_dir)
    except subprocess.CalledProcessError:
        fail("build failed", 1)
    if args.self_test:
        sys.exit(self_test(root, binary))
    if args.workload is None:
        fail("--workload is required")

    try:
        code, lines = run_bench(root, binary, args.workload, args.seed,
                                 args.seconds, args.trace)
    except subprocess.TimeoutExpired:
        fail("run exceeded its time limit", 1)
    except subprocess.CalledProcessError:
        fail("dataset materialization failed", 1)
    if not lines or not lines[-1].startswith("{"):
        fail(f"perfbench exited {code} without a result", 1)

    env = {}
    for line in lines[:-1]:
        if line.startswith("env "):
            env = json.loads(line[4:])
        else:
            print(line)
    env.update({"source": source_id(root), "nproc": os.cpu_count(),
                "cxx_compiler": cmake_cache_value(root, "CMAKE_CXX_COMPILER"),
                "workload": args.workload, "seed": args.seed})
    print("# env " + json.dumps(env, sort_keys=True))
    print(lines[-1])
    sys.exit(code)


if __name__ == "__main__":
    main()
