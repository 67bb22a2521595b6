#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at toy size (n ~ 2000).

    python3 perfbench/smoke_test.py

Run from the repository root. For each workload it runs the untraced and
the traced run for one second each and asserts that every metric named in
BENCHMARK.json is printed with its unit, that no checked call failed and
that the output was judged correct. Exits 0 when all pass.
"""
import json
import subprocess
import sys
from pathlib import Path


def main():
    spec = json.loads(Path("BENCHMARK.json").read_text())
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [*spec["command"], "--workload", workload, "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--toy"]
            run = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            label = f"{workload} trace={trace}"
            if run.returncode != 0:
                failures.append(f"{label}: exit {run.returncode}\n{run.stderr[-2000:]}")
                continue
            result = json.loads(run.stdout.strip().split("\n")[-1])
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                failures.append(f"{label}: correct={result['correct']} "
                                f"failed={result['failed']} of {result['attempted']}")
            if "failed_frac 0 " not in run.stdout:
                failures.append(f"{label}: failed_frac is not 0")
            for metric in spec[key]:
                got = result["metrics"].get(metric["name"])
                if got is None or got.get("unit") != metric["unit"]:
                    failures.append(f"{label}: {metric['name']} missing or wrong unit: {got}")
            print(f"{label}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} checked calls", flush=True)
    for f in failures:
        print("FAIL " + f)
    print("smoke test " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
