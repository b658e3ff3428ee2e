"""Monte Carlo campaigns and parameter studies built on the optimizer.

The policy study reproduces the experiment layout of the evaluation: for
each seeded trial it solves the cell-selection offset policy set and the
``REFERENCES`` (CoUD, DeUD-P) under partial band overlap, re-runs the
references and the best offset under full overlap, and runs the QoS-based PF
baseline under each reference.  Results are deterministic given the base
seed regardless of the worker count and of how trials are batched.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .association import COUD, DEUD_P, Policy, associate, associate_all, policy_sweep
from .errors import ConfigError, DomainError
from .interference import Problem
from .model import Scenario, check_band
from .optimizer import (Solution, SolveOptions, initial_power_state, solve_problems,
                        step3_update_power)
from .pf_baseline import DEFAULT_PF_SPLIT, pf_allocate, pf_allocate_all
from .scenario import ScenarioConfig, generate, uniform_overlap
from .units import dbm_to_watt

# Historical per-cell loads assumed by the partial-overlap arm of the study.
DEFAULT_HISTORY_UL = 0.35
DEFAULT_HISTORY_DL = 0.75

MC_OPTS = SolveOptions(trace_mode="boundary")

# Bytes of stacked couplings in one batch (a sweep's or a chunk's), and a chunk's
# size with a trial's couplings counted as ``TRIAL_COUPLINGS``: 10 study trials.
CHUNK_COUPLING_BYTES = 2 << 20
TRIAL_COUPLINGS = 16  # a study trial's 13.1 distinct partial-overlap (of 29) and 3 full-overlap

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

CI_Z = 1.96  # the normal quantile of a two-sided 95% confidence interval


def solve_policies(scenario: Scenario, policies, opts: SolveOptions,
                   overlap=None) -> list[Solution]:
    """``optimize`` for each policy on one scenario, one ``Solution`` per policy.

    A policy only shapes the problem through its association, and the solver
    is deterministic, so each distinct ``(b_ul, b_dl)`` is solved once, in
    batches of at most ``CHUNK_COUPLING_BYTES`` of couplings (``_solve_cases``).
    Policies that share an association share its ``Solution``.
    """
    cases = [(scenario, associate_all(policies, scenario))]
    return _solve_cases(cases, opts, overlap)[0]


def _solve_cases(cases, opts: SolveOptions, overlap=None, problems=False) -> list:
    """Each ``(scenario, assocs)`` case's solution per association, ``(solution,
    problem)`` where ``problems``: every case's distinct problems in consecutive
    batches of at most ``CHUNK_COUPLING_BYTES`` of couplings (at least one member),
    each viewing one stack (``Problem.batch``) that only a kept problem holds on to.
    A case's ``assocs`` come from one ``associate_all``, so equal maps are one object;
    every scenario and association lives for the whole call, so ids key the problems."""
    distinct = {(id(sc), id(a)): (sc, a) for sc, assocs in cases for a in assocs}
    keys, pairs, solved = list(distinct), list(distinct.values()), {}
    size = max(1, CHUNK_COUPLING_BYTES // ((cases[0][0].n_bs + cases[0][0].n_ue) ** 2 * 8))
    for i in range(0, len(pairs), size):
        batch, rows = Problem.batch(pairs[i:i + size], overlap, opts.theta)
        sols = solve_problems(batch, opts, rows)
        solved |= zip(keys[i:i + size], zip(sols, batch) if problems else sols)
    return [[solved[id(sc), id(a)] for a in assocs] for sc, assocs in cases]


def trials_per_chunk(config: ScenarioConfig) -> int:
    """The trials of ``config`` whose ``TRIAL_COUPLINGS`` fit ``CHUNK_COUPLING_BYTES`` (>= 1)."""
    side = config.macro_rows * config.macro_cols + config.n_pico + config.n_ue
    return max(1, CHUNK_COUPLING_BYTES // (TRIAL_COUPLINGS * side * side * 8))


def run_trial(config: ScenarioConfig, seed: int) -> dict:
    """The trial of ``seed``: the batch of one of ``run_trials``."""
    return run_trials(config, [seed])[0]


def run_trials(config: ScenarioConfig, seeds) -> list[dict]:
    """A Monte Carlo trial with ``MC_OPTS`` per seed: the offset sweep and the
    ``REFERENCES`` under partial overlap at the default historical loads, the
    references and the best offset under full overlap, and the PF baseline;
    each overlap's problems of every trial form one batch."""
    scenarios = [generate(config, seed) for seed in seeds]
    overlap = uniform_overlap(scenarios[0].n_bs, DEFAULT_HISTORY_UL, DEFAULT_HISTORY_DL)
    arms = {f"{pol.offset_db:g}": pol for pol in policy_sweep()} | REFERENCES
    assocs = [dict(zip(arms, associate_all(list(arms.values()), sc))) for sc in scenarios]
    solved = [dict(zip(arms, case)) for case in _solve_cases(
        [(sc, list(a.values())) for sc, a in zip(scenarios, assocs)], MC_OPTS, overlap)]
    bests = [max((off for off in s if off not in REFERENCES), key=lambda off: s[off].lam)
             for s in solved]
    fulls = _solve_cases([(sc, [a[label] for label in (*REFERENCES, best)]) for sc, a, best
                          in zip(scenarios, assocs, bests)], MC_OPTS, problems=True)
    # the full-overlap references at theta 1 are the problems of their PF baselines: one batch
    pfs = iter(pf_allocate_all([pr for full in fulls for _, pr in full[:len(REFERENCES)]]))
    results = []
    for seed, s, best, full in zip(seeds, solved, bests, fulls):
        pf = dict(zip(REFERENCES, pfs))  # the trial's next ``REFERENCES`` of the batch
        partial = {off: {"lam": sol.lam, "lam_ul": sol.lam_ul, "lam_dl": sol.lam_dl,
                         "step": sol.step, "converged": sol.converged}
                   for off, sol in s.items() if off not in REFERENCES}
        results.append({"seed": seed, "partial": partial, "best_offset": best,
                        "references": {label: s[label].lam for label in REFERENCES},
                        "full": dict(zip((*REFERENCES, "best"), (sol.lam for sol, _ in full))),
                        "pf": {label: {"lam_ul": x.lam_ul, "lam_dl": x.lam_dl, "lam": x.lam}
                               for label, x in pf.items()}})
    return results


def run_policy_study(config: ScenarioConfig, trials: int, seed_base: int,
                     workers: int = 1) -> dict:
    """Run ``trials`` seeded trials, ``trials_per_chunk`` a chunk, and aggregate."""
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    if workers < 1:
        raise ConfigError("workers must be >= 1")
    seeds, size = range(seed_base, seed_base + trials), trials_per_chunk(config)
    chunks = [seeds[i:i + size] for i in range(0, trials, size)]
    workers = min(workers, len(chunks))  # a pool starts all its workers at once
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(run_trials, [config] * len(chunks), chunks))
    else:
        done = list(map(run_trials, [config] * len(chunks), chunks))
    results = [trial for chunk in done for trial in chunk]
    return {"config": dataclasses.asdict(config), "seed_base": seed_base,
            "trials": results, "aggregate": aggregate_policy_study(results)}


def mean_ci(values):
    """Mean and normal-approximation 95% CI halfwidth (``None`` below two values)."""
    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        return float(arr.mean()) if arr.size else float("nan"), None
    half = CI_Z * arr.std(ddof=1) / np.sqrt(arr.size)
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
    coupling with only the noise and the power budgets replaced.  The utility
    is nondecreasing in ``theta`` because the feasible set only grows with
    the budget.
    """
    if not all(0 < theta < np.inf for theta in thetas):
        raise DomainError("theta must be positive")
    rows = []
    coupled = Problem.from_scenario(scenario, associate(policy, scenario))
    x0 = initial_power_state(coupled.stack, opts.power_mode)[0]
    for noise_dbm in noise_dbm_list:
        noise_psd = float(dbm_to_watt(noise_dbm))
        check_band(scenario.rb_bandwidth, noise_psd)  # a scenario's checks of the floor
        base = dataclasses.replace(coupled, noise_psd=noise_psd)
        with np.errstate(over="ignore"):  # a budget past the largest float is refused, not warned
            ref, *problems = [dataclasses.replace(base, p_ext_max=base.p_ext_max * theta)
                              for theta in (opts.theta, *thetas)]
        ref = solve_problems([ref], opts)[0]
        for theta, problem in zip(thetas, problems):
            step = step3_update_power(problem, ref.w, x0, opts)
            rows.append({"noise_dbm": float(noise_dbm), "theta": float(theta),
                         "lam": step.lam, "converged": step.fixed_point.converged})
    return rows


def compare_pf(scenario: Scenario, policy: Policy, split=DEFAULT_PF_SPLIT) -> dict:
    """Joint optimizer (partial overlap at the default historical loads)
    versus the QoS-based PF baseline on one scenario."""
    assoc = associate(policy, scenario)
    overlap = uniform_overlap(scenario.n_bs, DEFAULT_HISTORY_UL, DEFAULT_HISTORY_DL)
    sol = solve_problems([Problem.from_scenario(scenario, assoc, overlap)], MC_OPTS)[0]
    pf = pf_allocate(Problem.from_scenario(scenario, assoc), split=split)
    return {
        "policy": policy.label,
        "optimizer": {"lam": sol.lam, "lam_ul": sol.lam_ul, "lam_dl": sol.lam_dl,
                      "converged": sol.converged},
        "pf": {"lam": pf.lam, "lam_ul": pf.lam_ul, "lam_dl": pf.lam_dl},
    }
