#!/usr/bin/env python3
"""Repository benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload regular8 --seed 1 --seconds 30 --trace 0

Run from the repository root. Builds perfbench/ (and through it the deltacol
library) into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
writes the workload's seeded edge list there, then runs the measuring
program, whose stdout it relays. The last stdout line is the result JSON.
Exits non-zero, without a result line, when the build or the run fails.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("regular8", "torus-scrambled")
BENCH_DIR = Path(__file__).resolve().parent


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def revision(root):
    """git revision of the checkout, else a digest of the library sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:12]


def build(build_dir):
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="n ~ 2000 instead of the full size (smoke test)")
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src").is_dir() or not (root / "CMakeLists.txt").is_file():
        log("run from the repository root: src/ and CMakeLists.txt not found")
        return 2
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve() / "perfbench"
    if not build(build_dir):
        return 2
    exe = build_dir / "perfbench"
    data = build_dir / "data"
    traces = build_dir / "traces"
    data.mkdir(exist_ok=True)
    traces.mkdir(exist_ok=True)

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.toy:
        common.append("--toy")
    graph = data / f"{args.workload}-{args.seed}{'-toy' if args.toy else ''}.edges"
    env = dict(os.environ)
    # A rank stuck on a silent peer fails within this bound instead of hanging.
    env["DELTACOL_NET_TIMEOUT_MS"] = "60000"
    try:
        gen = subprocess.run([str(exe), "gen", *common, "--out", str(graph)],
                             env=env, timeout=60)
        if gen.returncode != 0:
            log("input generation failed")
            return 1
        run = subprocess.run(
            [str(exe), "run", *common, "--graph", str(graph),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out-dir", str(traces), "--revision", revision(root)],
            env=env, stdout=subprocess.PIPE, text=True, timeout=args.seconds + 120)
    except subprocess.TimeoutExpired:
        log("measuring program timed out")
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stdout.write("\n".join(line for line in lines if not line.startswith("{")) + "\n")
        log(f"measuring program exited with {run.returncode}")
        return 1
    try:
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            raise ValueError("unexpected keys")
    except ValueError as err:
        log(f"no result line: {err}")
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
