"""flexlink benchmark: one command, three workloads, checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload mc-study --seed 1 --seconds 30 --trace 0

``--trace 0`` runs whole rounds until ``--seconds`` have passed and prints the
end-to-end metrics; ``--trace 1`` installs the pass-through tracer, runs the
workload's fixed number of traced rounds and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; lines before it name
every failed operation and give each round's lambda digest.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

BLAS_THREADS = str(min(2, os.cpu_count() or 1))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
TRACE_ROUNDS = 1
WORKLOAD_NAMES = ("mc-study", "venue-large", "budget-sweep")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set the workload up, print READY and exit (used to time set-up)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def make_workdir(root: str, tag: str) -> str:
    path = os.path.join(root, ".perfbench_work", f"{tag}-{os.getpid()}")
    os.makedirs(path)
    return path


def remove_workdir(path: str):
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(path))
    except OSError:
        pass  # another run still uses it


def time_setup(args) -> list[float]:
    """Wall time from spawning a fresh interpreter to the workload being
    ready for its first timed operation, once per probe."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.stdout.read()
            if child.wait(timeout=PROBE_TIMEOUT_S) != 0 or line.strip() != "READY":
                raise RuntimeError(f"set-up probe failed: {line!r}")
        samples.append(ready - start)
    return samples


def mean_group_median(groups: dict) -> float:
    """Mean over problem groups of each group's median time: a run's median
    over a mix of problems of different size would jump between groups."""
    return statistics.fmean(statistics.median(times) for times in groups.values())


def check_metric_names(root: str, metrics: dict, section: str):
    """The printed metrics must be exactly those BENCHMARK.json lists."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        listed = [m["name"] for m in json.load(fh)[section]]
    if sorted(listed) != sorted(metrics):
        missing = sorted(set(listed) - set(metrics))
        extra = sorted(set(metrics) - set(listed))
        raise RuntimeError(f"{section} mismatch: missing {missing}, unlisted {extra}")


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "flexlink", "__init__.py")):
        print("perfbench: ./src/flexlink not found; run from the repository root",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:  # before numpy loads
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, src)

    if args.setup_probe:
        import workloads

        workdir = make_workdir(root, "probe")
        try:
            workloads.WORKLOADS[args.workload](args.seed, workdir)
        finally:
            remove_workdir(workdir)
        print("READY", flush=True)
        return 0

    setup_samples = [] if args.trace else time_setup(args)

    import tracing
    tracer = tracing.install() if args.trace else None
    import workloads

    workdir = make_workdir(root, "run")
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        tally = workloads.Tally(args.workload, args.seed, workloads.Reference(args.workload))
        start = time.perf_counter()
        rounds = 0
        while True:
            workload.run_round(rounds, tally, tracer)
            print(f"round {rounds} lambda_digest {tally.round_digest()}", flush=True)
            rounds += 1
            if (rounds >= TRACE_ROUNDS) if args.trace else \
                    (time.perf_counter() - start >= args.seconds):
                break
    finally:
        remove_workdir(workdir)

    seconds = {
        "ops_per_s": tally.completed / tally.busy_s,
        "solve_s": mean_group_median(tally.solve_s),
        "cell_solve_s": mean_group_median(tally.cell_solve_s),
        "ref_s": tally.reference.mean_s(),
    }
    ref = seconds["ref_s"]
    end_to_end = {
        "ops_per_ref": {"value": seconds["ops_per_s"] * ref, "unit": "1/ref"},
        "solve_ref": {"value": seconds["solve_s"] / ref, "unit": "ref"},
        "cell_solve_ref": {"value": seconds["cell_solve_s"] / ref, "unit": "ref"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }
    print(f"rounds {rounds} attempted {tally.attempted} completed {tally.completed} "
          f"failed {tally.failed} unexpected {tally.unexpected}")
    print("wall-clock " + " ".join(f"{name}={value:.6g}" for name, value in seconds.items()))
    for name, groups in (("solve_s", tally.solve_s), ("cell_solve_s", tally.cell_solve_s)):
        print(f"{name} group medians (n): " + ", ".join(
            f"{group}: {statistics.median(times):.4g} ({len(times)})"
            for group, times in groups.items()))
    if args.trace:
        print("traced end-to-end " + json.dumps(end_to_end))
        metrics = tracer.report()
        check_metric_names(root, metrics, "per_layer")
    else:
        end_to_end["setup_s"] = {"value": statistics.median(setup_samples), "unit": "s"}
        metrics = end_to_end
        check_metric_names(root, metrics, "end_to_end")
    print(json.dumps({"correct": tally.unexpected == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
