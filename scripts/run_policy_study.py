#!/usr/bin/env python3
"""Reference Monte Carlo policy study on the hotspot evaluation scenario.

Writes per-trial results and the aggregate (mean utility per offset, top-3
counts, best/coupled ratio, partial/full overlap ratios, PF win fractions)
as plot-ready CSV plus a JSON summary.
"""

import argparse
import json
import pathlib

from flexlink import experiments, io


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=50)
    ap.add_argument("--seed-base", type=int, default=0)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--out", type=pathlib.Path, default=pathlib.Path("study_out"))
    args = ap.parse_args()

    study = experiments.run_policy_study(experiments.STUDY_CONFIG, args.trials,
                                         args.seed_base, workers=args.workers)
    args.out.mkdir(parents=True, exist_ok=True)
    agg = study["aggregate"]

    per_offset = [(float(off), vals["mean_lam"], vals["ci_halfwidth"],
                   agg["top3_counts"][off])
                  for off, vals in sorted(agg["per_offset"].items(),
                                          key=lambda kv: float(kv[0]))]
    io.write_csv(args.out / "per_offset.csv",
                 ("offset_db", "mean_lam", "ci_halfwidth", "top3_count"),
                 per_offset,
                 meta={"trials": args.trials, "seed_base": args.seed_base})
    (args.out / "summary.json").write_text(json.dumps(agg, indent=2, sort_keys=True))

    print(f"best/coud mean ratio: {agg['best_over_coud']:.3f}")
    print(f"partial/full (deud_p): {agg['partial_over_full']['deud_p']['ratio']:.3f}")
    print(f"PF win fraction: {agg['pf_win_fraction']}")
    print(f"wrote {args.out}/per_offset.csv and summary.json")


if __name__ == "__main__":
    main()
