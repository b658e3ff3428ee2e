"""Tracing overhead and traced-run invariants for one workload and seed.

Run from the repository root:

    python3 perfbench/overhead.py --workload venue-large --seed 1 --seconds 30

Runs the benchmark once untraced and twice traced, then prints the tracing
overhead (traced minus untraced value of each end-to-end metric the traced
run also measures) and checks that tracing changed nothing: every lambda
digest of the traced rounds equals the untraced run's digest of the same
round, and every per-layer count (all metrics not in seconds) repeats exactly
between the two traced runs.  Exits 1 if either check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout.splitlines()
    digests = [line.split()[-1] for line in out if line.startswith("round ")]
    traced = next((json.loads(line[len("traced end-to-end "):]) for line in out
                   if line.startswith("traced end-to-end ")), None)
    return json.loads(out[-1]), digests, traced


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args()

    plain, plain_digests, _ = run(args.workload, args.seed, args.seconds, 0)
    first, first_digests, traced = run(args.workload, args.seed, args.seconds, 1)
    second, second_digests, _ = run(args.workload, args.seed, args.seconds, 1)

    for name, metric in traced.items():
        base = plain["metrics"][name]["value"]
        diff = metric["value"] - base
        print(f"overhead {name}: traced {metric['value']:.6g} - untraced {base:.6g} "
              f"= {diff:+.6g} {metric['unit']} ({diff / base:+.1%})")

    ok = True
    common = min(len(plain_digests), len(first_digests))
    if first_digests[:common] != plain_digests[:common] or first_digests != second_digests:
        print(f"FAIL lambda digests differ: untraced {plain_digests} traced "
              f"{first_digests} / {second_digests}")
        ok = False
    counts = [name for name, m in first["metrics"].items() if m["unit"] != "s"]
    moved = [name for name in counts
             if first["metrics"][name]["value"] != second["metrics"][name]["value"]]
    if moved:
        print(f"FAIL per-layer counts differ between traced runs: {moved}")
        ok = False
    print(f"traced rounds: {common}; lambda digests "
          f"{'identical' if ok else 'checked'}; {len(counts) - len(moved)} of {len(counts)} "
          f"per-layer counts repeat exactly")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
