"""Monte Carlo campaigns and parameter studies built on the optimizer.

The policy study reproduces the experiment layout of the evaluation: for
each seeded trial it sweeps the cell-selection offset policy set under
partial band overlap, re-runs the reference policies under full overlap, and
runs the QoS-based PF baseline for comparison.  Aggregates are deterministic
given the base seed regardless of the worker count.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .association import COUD, DEUD_O, DEUD_P, Policy, associate, policy_sweep
from .errors import ConfigError
from .interference import Problem
from .model import Scenario
from .optimizer import (Solution, SolveOptions, initial_power_state, optimize,
                        step3_update_power)
from .pf_baseline import pf_allocate
from .scenario import ScenarioConfig, generate, uniform_overlap
from .units import dbm_to_watt

# Historical per-cell loads assumed by the partial-overlap arm of the study.
DEFAULT_HISTORY_UL = 0.35
DEFAULT_HISTORY_DL = 0.75

DEFAULT_PF_SPLIT = (9, 16)

MC_OPTS = SolveOptions(trace_mode="boundary")

# Reference Monte Carlo setting: a dense hotspot venue (6 macros + 3 picos
# covering a small floor, 30 terminals, a few heavy uplink-centric users over
# a messaging-class background, 9.5 dB receiver noise figure).  Macro links
# saturate their minimum-distance pathloss here, so uplink performance is
# decided by pico proximity: the regime where decoupled access pays off.
STUDY_CONFIG = ScenarioConfig(
    isd_m=20.0,
    service_mix=(0.0, 0.2, 0.0, 0.1, 0.7),
    noise_psd_dbm=-112.0,
)


def solve_policies(scenario: Scenario, policies, opts: SolveOptions,
                   overlap=None) -> list[Solution]:
    """``optimize`` for each policy on one scenario, one ``Solution`` per policy.

    A policy only shapes the problem through its association, and the solver
    is deterministic, so each distinct ``(b_ul, b_dl)`` is solved once.  A
    policy that repeats an earlier association gets that solution relabelled
    with its own policy; the copies share their arrays.
    """
    solved = {}
    out = []
    for pol in policies:
        assoc = associate(pol, scenario)
        key = (assoc.b_ul.tobytes(), assoc.b_dl.tobytes())
        if key in solved:
            out.append(dataclasses.replace(solved[key], policy_label=pol.label))
        else:
            solved[key] = optimize(scenario, pol, opts, overlap=overlap, assoc=assoc)
            out.append(solved[key])
    return out


def run_trial(config: ScenarioConfig, seed: int) -> dict:
    """One Monte Carlo trial: offset sweep (partial overlap at the default
    historical loads), full-overlap reference runs, and the PF baseline at
    the default split under CoUD and DeUD_P, all solved with ``MC_OPTS``."""
    scenario = generate(config, seed)
    overlap = uniform_overlap(scenario.n_bs, DEFAULT_HISTORY_UL, DEFAULT_HISTORY_DL)

    sweep = policy_sweep()
    partial = {
        f"{pol.offset_db:g}": {
            "lam": sol.lam, "lam_ul": sol.lam_ul, "lam_dl": sol.lam_dl,
            "step": sol.step, "converged": sol.converged,
        }
        for pol, sol in zip(sweep, solve_policies(scenario, sweep, MC_OPTS, overlap))
    }

    best_offset = max(partial, key=lambda o: partial[o]["lam"])

    labels = ("coud", "deud_p", "best")
    references = (Policy(COUD), Policy(DEUD_P), Policy(DEUD_O, offset_db=float(best_offset)))
    full = {label: sol.lam
            for label, sol in zip(labels, solve_policies(scenario, references, MC_OPTS))}

    pf = {}
    for label, pol in (("coud", Policy(COUD)), ("deud_p", Policy(DEUD_P))):
        alloc = pf_allocate(scenario, associate(pol, scenario), split=DEFAULT_PF_SPLIT)
        pf[label] = {"lam_ul": alloc.lam_ul, "lam_dl": alloc.lam_dl, "lam": alloc.lam}

    return {"seed": seed, "partial": partial, "best_offset": best_offset,
            "full": full, "pf": pf}


def run_policy_study(config: ScenarioConfig, trials: int, seed_base: int,
                     workers: int = 1) -> dict:
    """Run ``trials`` independent seeded trials and aggregate."""
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    if workers < 1:
        raise ConfigError("workers must be >= 1")
    seeds = range(seed_base, seed_base + trials)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_trial, [config] * trials, seeds))
    else:
        results = list(map(run_trial, [config] * trials, seeds))
    return {"config": dataclasses.asdict(config), "seed_base": seed_base,
            "trials": results, "aggregate": aggregate_policy_study(results)}


def mean_ci(values, z: float = 1.96):
    """Mean and normal-approximation 95% CI halfwidth."""
    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        return float(arr.mean()) if arr.size else float("nan"), float("nan")
    half = z * arr.std(ddof=1) / np.sqrt(arr.size)
    return float(arr.mean()), float(half)


def aggregate_policy_study(results: list[dict]) -> dict:
    offsets = sorted(results[0]["partial"], key=float)
    per_offset = {}
    for off in offsets:
        lams = [r["partial"][off]["lam"] for r in results]
        mean, half = mean_ci(lams)
        per_offset[off] = {"mean_lam": mean, "ci_halfwidth": half}

    best = [max(r["partial"][o]["lam"] for o in offsets) for r in results]
    coud = [r["partial"]["0"]["lam"] for r in results]
    deud_p = [r["partial"]["13"]["lam"] for r in results]

    # how often each offset lands in the per-trial top three
    top3 = {off: 0 for off in offsets}
    for r in results:
        ranked = sorted(offsets, key=lambda o: r["partial"][o]["lam"], reverse=True)
        for off in ranked[:3]:
            top3[off] += 1

    partial_full = {
        label: {
            "mean_partial": float(np.mean(vals_p)),
            "mean_full": float(np.mean(vals_f)),
            "ratio": float(np.mean(vals_p) / np.mean(vals_f)),
        }
        for label, vals_p, vals_f in (
            ("coud", coud, [r["full"]["coud"] for r in results]),
            ("deud_p", deud_p, [r["full"]["deud_p"] for r in results]),
            ("best", best, [r["full"]["best"] for r in results]),
        )
    }

    pf_wins = {}
    for label in ("coud", "deud_p"):
        opt = [r["partial"]["0" if label == "coud" else "13"]["lam"] for r in results]
        base = [min(r["pf"][label]["lam_ul"], r["pf"][label]["lam_dl"]) for r in results]
        pf_wins[label] = float(np.mean([o > b for o, b in zip(opt, base)]))

    mean_best, ci_best = mean_ci(best)
    mean_coud, ci_coud = mean_ci(coud)
    return {
        "per_offset": per_offset,
        "top3_counts": top3,
        "mean_best": mean_best, "ci_best": ci_best,
        "mean_coud": mean_coud, "ci_coud": ci_coud,
        "mean_deud_p": float(np.mean(deud_p)),
        "best_over_coud": mean_best / mean_coud if mean_coud else float("inf"),
        "partial_over_full": partial_full,
        "pf_win_fraction": pf_wins,
    }


def run_theta_sweep(scenario: Scenario, policy: Policy, thetas,
                    noise_dbm_list, opts: SolveOptions = MC_OPTS) -> list[dict]:
    """Power-budget study: utility of the power-control stage versus the
    budget scale ``theta`` under different noise floors.

    For each noise level the bandwidth is first shaped by a full reference
    solve; the power subproblem is then re-solved from the open-loop PSD
    (per transmitter in cell-specific mode) for every ``theta``, on one
    coupling per noise level with only the power budgets rescaled.  The utility
    is nondecreasing in ``theta`` because the feasible set only grows with
    the budget.
    """
    rows = []
    for noise_dbm in noise_dbm_list:
        sc = dataclasses.replace(scenario, noise_psd=float(dbm_to_watt(noise_dbm)))
        assoc = associate(policy, sc)
        ref = optimize(sc, policy, opts, assoc=assoc)
        base = Problem.from_scenario(sc, assoc)
        x0 = initial_power_state(base, opts.power_mode)
        for theta in thetas:
            problem = dataclasses.replace(base, p_ext_max=base.p_ext_max * theta)
            step = step3_update_power(problem, ref.w, x0, opts)
            rows.append({"noise_dbm": float(noise_dbm), "theta": float(theta),
                         "lam": step.lam, "converged": step.fixed_point.converged})
    return rows


def compare_pf(scenario: Scenario, policy: Policy, split=DEFAULT_PF_SPLIT) -> dict:
    """Joint optimizer (partial overlap at the default historical loads)
    versus the QoS-based PF baseline on one scenario."""
    assoc = associate(policy, scenario)
    overlap = uniform_overlap(scenario.n_bs, DEFAULT_HISTORY_UL, DEFAULT_HISTORY_DL)
    sol = optimize(scenario, policy, MC_OPTS, overlap=overlap, assoc=assoc)
    pf = pf_allocate(scenario, assoc, split=split)
    return {
        "policy": policy.label,
        "optimizer": {"lam": sol.lam, "lam_ul": sol.lam_ul, "lam_dl": sol.lam_dl,
                      "converged": sol.converged},
        "pf": {"lam": pf.lam, "lam_ul": pf.lam_ul, "lam_dl": pf.lam_dl},
    }
