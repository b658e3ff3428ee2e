"""Monte Carlo campaigns and parameter studies built on the optimizer.

The policy study reproduces the experiment layout of the evaluation: for
each seeded trial it solves the cell-selection offset policy set and the
``REFERENCES`` (CoUD, DeUD-P) under partial band overlap, re-runs the
references and the best offset under full overlap, and runs the QoS-based PF
baseline under each reference.  Aggregates are deterministic given the base
seed regardless of the worker count.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .association import COUD, DEUD_P, Policy, associate, associate_all, policy_sweep
from .errors import ConfigError, DomainError
from .interference import Problem
from .model import Scenario
from .optimizer import (Solution, SolveOptions, initial_power_state, optimize,
                        solve_problems, step3_update_power)
from .pf_baseline import DEFAULT_PF_SPLIT, pf_allocate
from .scenario import ScenarioConfig, generate, uniform_overlap
from .units import dbm_to_watt

# Historical per-cell loads assumed by the partial-overlap arm of the study.
DEFAULT_HISTORY_UL = 0.35
DEFAULT_HISTORY_DL = 0.75

MC_OPTS = SolveOptions(trace_mode="boundary")

# The study's reference policies, keyed as a trial records them.
REFERENCES = {"coud": Policy(COUD), "deud_p": Policy(DEUD_P)}

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

# The power-budget study's grid, from interference- to noise-dominant floors.
THETA_SWEEP_THETAS = tuple(round(0.01 + 0.05 * i, 2) for i in range(21))
THETA_SWEEP_NOISE_DBM = (-70.0, -80.0, -100.0, -121.45)


def solve_policies(scenario: Scenario, policies, opts: SolveOptions,
                   overlap=None, assocs=None) -> list[Solution]:
    """``optimize`` for each policy on one scenario, one ``Solution`` per policy.

    A policy only shapes the problem through its association, and the solver
    is deterministic, so each distinct ``(b_ul, b_dl)`` is solved once, and
    the distinct problems are solved as one batch (``solve_problems``).  A
    policy that repeats an earlier association gets that solution relabelled
    with its own policy; the copies share their arrays.  ``assocs`` are the
    policies' associations, ``associate_all``'s when not given.
    """
    first = {}  # association key -> index of the first policy with it
    assocs = associate_all(policies, scenario) if assocs is None else assocs
    keys = [(a.b_ul.tobytes(), a.b_dl.tobytes()) for a in assocs]
    for i, key in enumerate(keys):
        first.setdefault(key, i)
    solved = dict(zip(first, solve_problems(
        [Problem.from_scenario(scenario, assocs[i], overlap=overlap, theta=opts.theta)
         for i in first.values()], opts, [policies[i].label for i in first.values()])))
    return [solved[key] if first[key] == i else
            dataclasses.replace(solved[key], policy_label=pol.label)
            for i, (pol, key) in enumerate(zip(policies, keys))]


def run_trial(config: ScenarioConfig, seed: int) -> dict:
    """One Monte Carlo trial with ``MC_OPTS``: the offset sweep and the
    ``REFERENCES`` under partial overlap at the default historical loads, the
    references and the best offset under full overlap, and the PF baseline."""
    scenario = generate(config, seed)
    overlap = uniform_overlap(scenario.n_bs, DEFAULT_HISTORY_UL, DEFAULT_HISTORY_DL)

    arms = {f"{pol.offset_db:g}": pol for pol in policy_sweep()} | REFERENCES
    assocs = dict(zip(arms, associate_all(list(arms.values()), scenario)))
    solved = dict(zip(arms, solve_policies(scenario, list(arms.values()), MC_OPTS, overlap,
                                           list(assocs.values()))))
    partial = {
        off: {"lam": sol.lam, "lam_ul": sol.lam_ul, "lam_dl": sol.lam_dl,
              "step": sol.step, "converged": sol.converged}
        for off, sol in solved.items() if off not in REFERENCES
    }
    best_offset = max(partial, key=lambda o: partial[o]["lam"])

    full_arm = {**REFERENCES, "best": arms[best_offset]}
    full = {label: sol.lam for label, sol in zip(full_arm, solve_policies(
        scenario, list(full_arm.values()), MC_OPTS,
        assocs=[assocs[label] for label in (*REFERENCES, best_offset)]))}

    pf = {}
    for label in REFERENCES:
        alloc = pf_allocate(scenario, assocs[label], split=DEFAULT_PF_SPLIT)
        pf[label] = {"lam_ul": alloc.lam_ul, "lam_dl": alloc.lam_dl, "lam": alloc.lam}

    return {"seed": seed, "partial": partial, "best_offset": best_offset,
            "references": {label: solved[label].lam for label in REFERENCES},
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

    # per trial, under partial overlap: each reference's utility and the best offset's
    partial = {label: [r["references"][label] for r in results] for label in REFERENCES}
    partial["best"] = [max(r["partial"][o]["lam"] for o in offsets) for r in results]

    # how often each offset lands in the per-trial top three
    top3 = {off: 0 for off in offsets}
    for r in results:
        ranked = sorted(offsets, key=lambda o: r["partial"][o]["lam"], reverse=True)
        for off in ranked[:3]:
            top3[off] += 1

    partial_full = {}
    for label, vals in partial.items():
        full = [r["full"][label] for r in results]
        partial_full[label] = {"mean_partial": float(np.mean(vals)),
                               "mean_full": float(np.mean(full)),
                               "ratio": float(np.mean(vals) / np.mean(full))}

    pf_wins = {label: float(np.mean([r["references"][label] > r["pf"][label]["lam"]
                                     for r in results])) for label in REFERENCES}

    mean_best, ci_best = mean_ci(partial["best"])
    mean_coud, ci_coud = mean_ci(partial["coud"])
    return {
        "per_offset": per_offset,
        "top3_counts": top3,
        "mean_best": mean_best, "ci_best": ci_best,
        "mean_coud": mean_coud, "ci_coud": ci_coud,
        "mean_deud_p": float(np.mean(partial["deud_p"])),
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
    if not all(0 < theta < np.inf for theta in thetas):
        raise DomainError("theta must be positive")
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
