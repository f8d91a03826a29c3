#!/usr/bin/env python3
"""Smoke-size self-test of the repository benchmark.

Usage (from the repository root):  python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at --size smoke, untraced and
traced, at the default seed (where the pinned input and output digests
apply), and asserts that each run's result line carries exactly the
declared metrics, each with its declared unit and a finite value, and
that every output check passed. Takes well under a minute once the
workload binary is built.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--size", "smoke", "--seconds", "0.5", "--trace",
           str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    if done.returncode != 0:
        return None, [f"exit code {done.returncode}: {done.stderr[-2000:]}"]
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), [l for l in done.stderr.splitlines()
                                   if "CHECK FAILED" in l]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    problems = []
    for w in declared["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            where = f"{w['name']} --trace {trace}"
            before = len(problems)
            result, failures = run(w["name"], trace)
            problems += [f"{where}: {msg}" for msg in failures]
            if result is None:
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{where}: {result['failed']} of "
                                f"{result['attempted']} checks failed")
            want = {m["name"]: m["unit"] for m in declared[kind]}
            got = result["metrics"]
            if set(got) != set(want):
                problems.append(f"{where}: metrics {sorted(got)} != declared "
                                f"{sorted(want)}")
            for name, unit in want.items():
                m = got.get(name, {})
                if m.get("unit") != unit:
                    problems.append(f"{where}: {name} unit {m.get('unit')} "
                                    f"!= {unit}")
                v = m.get("value")
                if not isinstance(v, (int, float)) or not math.isfinite(v):
                    problems.append(f"{where}: {name} value {v!r}")
            status = "ok  " if len(problems) == before else "FAIL"
            print(f"{status} {where}: {result['attempted']} checks, "
                  f"{len(got)} metrics", flush=True)
    for p in problems:
        print("FAIL " + p)
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
