"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  The trend criteria (8, 10) run the reference
Monte Carlo study defined in :mod:`flexlink.experiments`.
"""

import time

import numpy as np
import pytest

import flexlink.experiments as experiments
from flexlink.association import Policy, associate
from flexlink.fixedpoint import normalized_fixed_point
from flexlink.interference import f_load, f_power, f_power_cell, g1, g2, utility
from flexlink.model import pairwise_overlap_factors
from flexlink.optimizer import (
    SolveOptions,
    initial_psd,
    minimize_power,
    optimize,
    step1_update_bandwidth,
    step3_update_power,
)
from flexlink.scenario import ScenarioConfig, generate

from .helpers import boundary_lambdas, random_problem, random_wp, solve_assoc
from .oracles import check_sif_axioms, grid_conditional_eigen, linear_reformulation_check
from .test_optimizer import _power_bound_problem

OPTS = SolveOptions(trace_mode="boundary")


def _report(criterion, detail):
    print(f"[criterion {criterion}] PASS  {detail}")


# ---------------------------------------------------------------- criterion 1
def test_criterion_1_sif_axiom_suite():
    """f_load, f_power, f_power_cell satisfy the SIF axioms on >=1000
    randomized samples each, with zero violations beyond 1e-12 slack."""
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    totals = {"f_load": 0, "f_power": 0, "f_power_cell": 0}

    for trial in range(12):
        n_ue = int(rng.integers(2, 9))     # K <= 8
        n_bs = int(rng.integers(1, 5))     # N <= 4
        scenario, assoc, problem = random_problem(int(rng.integers(0, 2**31)),
                                                  n_ue=n_ue, n_bs=n_bs)
        dim = 2 * n_ue
        w_fix, p_fix = random_wp(int(rng.integers(0, 2**31)), dim)
        alphas = rng.uniform(1.01, 3.0, size=3).tolist()

        def pairs(lo, hi, n, d):
            xs = rng.uniform(lo, hi, size=(n, d))
            return [(x, x + rng.uniform(0.0, hi / 2, size=d)) for x in xs]

        maps = {
            "f_load": (lambda w: f_load(w, p_fix, problem), pairs(0.0, 1.0, 30, dim)),
            "f_power": (lambda p: f_power(p, w_fix, problem), pairs(0.0, 1e-2, 30, dim)),
            "f_power_cell": (lambda pb: f_power_cell(pb, w_fix, problem),
                             pairs(0.0, 1e-2, 30, n_ue + n_bs)),
        }
        for name, (fn, sample_pairs) in maps.items():
            report = check_sif_axioms(fn, sample_pairs, alphas, slack=1e-12)
            assert report.passed, (name, report.monotonicity_violations[:2],
                                   report.scalability_violations[:2])
            totals[name] += report.n_monotonicity + report.n_scalability

    elapsed = time.monotonic() - t0
    assert all(v >= 1000 for v in totals.values()), totals
    assert elapsed < 30.0
    _report(1, f"samples={totals} elapsed={elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 2
def test_criterion_2_normalized_iteration_vs_grid_oracle():
    """normalized_fixed_point matches the grid-search conditional eigenvector
    on 20 random affine SIFs (k <= 4) within 1e-3."""
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    worst_dx = worst_drho = 0.0
    for i in range(20):
        k = int(rng.integers(2, 5))
        m = rng.uniform(0.05, 1.0, size=(k, k))
        b = rng.uniform(0.1, 1.0, size=k)
        res = normalized_fixed_point(lambda x: m @ x + b, lambda x: float(np.max(x)),
                                     np.ones(k), tol=1e-12)
        assert res.converged
        x_grid, rho_grid = grid_conditional_eigen(m, b, resolution=1e-4)
        worst_dx = max(worst_dx, float(np.max(np.abs(res.x - x_grid))))
        worst_drho = max(worst_drho, abs(res.eigenvalue - rho_grid))
    elapsed = time.monotonic() - t0
    assert worst_dx <= 1e-3 and worst_drho <= 1e-3
    assert elapsed < 60.0
    _report(2, f"max|dx|={worst_dx:.2e} max|drho|={worst_drho:.2e} elapsed={elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 3
def test_criterion_3_monotone_utility_chain():
    """On 50 random scenarios (K=10, N=4) the recorded utility is
    nondecreasing at every solve boundary and termination is tight."""
    cfg = ScenarioConfig(macro_rows=1, macro_cols=3, n_pico=1, n_ue=10,
                         isd_m=100.0, noise_psd_dbm=-112.0)
    policies = [Policy("coud"), Policy("deud_p"), Policy("deud_o", offset_db=7.0)]
    steps = {"s1": 0, "s2": 0, "s3": 0}
    for t in range(50):
        theta = 1e-4 if t % 3 == 2 else 1.0  # a third of the runs exercise S2
        sol = optimize(generate(cfg, seed=900 + t), policies[t % 3],
                       SolveOptions(trace_mode="full", theta=theta))
        assert sol.converged
        steps[sol.step] += 1
        lams = boundary_lambdas(sol.trace)
        assert all(b >= a - 1e-9 for a, b in zip(lams, lams[1:])), f"trial {t}"
        # per-iteration rows inside each fixed-point solve are monotone too
        prev_lam, prev_step = None, None
        for step, _it, lam, _g1, _g2, _res, boundary in sol.trace.rows:
            if boundary:
                prev_lam, prev_step = None, None
                continue
            if step == prev_step and prev_lam is not None:
                assert lam >= prev_lam - 1e-9 * max(1.0, abs(prev_lam)), f"trial {t}"
            prev_lam, prev_step = lam, step
        assert abs(max(sol.g1, sol.g2) - 1.0) <= 1e-5, f"trial {t}"
    assert steps["s2"] + steps["s3"] == 50
    _report(3, f"terminal steps={steps}")


# ---------------------------------------------------------------- criterion 4
def test_criterion_4_power_update_dichotomy():
    """Entering the power update with the budget already tight keeps the
    allocation; entering with clear slack strictly improves the utility."""
    tight_checked = slack_checked = 0
    for seed in (101, 111, 119, 131):
        sc, assoc, problem = _power_bound_problem(seed)
        p0 = initial_psd(problem)
        s1 = step1_update_bandwidth(problem, p0, OPTS)
        if abs(g2(s1.w, p0, problem) - 1.0) > 1e-9:
            continue
        s3 = step3_update_power(problem, s1.w, p0, OPTS)
        assert np.max(np.abs(s3.p - p0)) <= 1e-8
        assert abs(s3.lam - s1.lam) <= 1e-8
        tight_checked += 1

    for seed in (121, 122, 123, 124):
        scenario, assoc, problem = random_problem(seed, n_ue=3, n_bs=2)
        p0 = initial_psd(problem)
        s1 = step1_update_bandwidth(problem, p0, OPTS)
        if g2(s1.w, p0, problem) > 0.9 or g1(s1.w, problem) < 1.0 - 1e-9:
            continue
        s3 = step3_update_power(problem, s1.w, p0, OPTS)
        assert s3.lam > s1.lam
        slack_checked += 1

    assert tight_checked >= 3 and slack_checked >= 3
    _report(4, f"tight-entry instances={tight_checked} slack-entry instances={slack_checked}")


# ---------------------------------------------------------------- criterion 5
def test_criterion_5_linear_reformulation_cross_check():
    """The power-update utility matches the linear-in-power route within
    1e-4 relative on 20 random instances."""
    checked = 0
    seed = 500
    worst = 0.0
    while checked < 20:
        seed += 1
        scenario, assoc, problem = random_problem(seed, n_ue=3, n_bs=2)
        p0 = initial_psd(problem)
        s1 = step1_update_bandwidth(problem, p0, OPTS)
        if g1(s1.w, problem) < 1.0 - 1e-9 or g2(s1.w, p0, problem) > 0.999:
            continue
        s3 = step3_update_power(problem, s1.w, p0, OPTS)
        report = linear_reformulation_check(problem, s1.w, s3.p)
        assert report.ok, f"seed {seed}: gap {report.rel_diff:.2e}"
        worst = max(worst, report.rel_diff)
        checked += 1
    _report(5, f"instances=20 worst relative gap={worst:.2e}")


# ---------------------------------------------------------------- criterion 6
def test_criterion_6_energy_minimization():
    """Power minimization reaches utility 1 +- 1e-4 with g2 <= 1, saves
    power, and is componentwise minimal against random feasible vectors."""
    checked = 0
    rng = np.random.default_rng(600)
    for seed in (131, 132, 134, 137, 140):
        scenario, assoc, problem = random_problem(seed, n_ue=3, n_bs=2,
                                                  demand_scale=3e5)
        sol = solve_assoc(scenario, assoc, OPTS)
        if sol.lam <= 1.0:
            continue
        res = minimize_power(problem, sol.w, sol.p)
        assert abs(res.lam - 1.0) <= 1e-4
        assert g2(sol.w, res.p_min, problem) <= 1.0 + 1e-9
        assert res.psi_after < res.psi_before

        found = 0
        while found < 100:
            if rng.uniform() < 0.5:
                cand = res.p_min * rng.uniform(1.0, 5.0)
            else:
                cand = res.p_min * (1.0 + rng.uniform(0.0, 2.0, size=res.p_min.shape))
            if utility(sol.w, cand, problem) < 1.0:
                continue
            assert np.all(res.p_min <= cand + 1e-12)
            assert np.sum(sol.w * res.p_min) <= np.sum(sol.w * cand) + 1e-15
            found += 1
        checked += 1
    assert checked >= 3
    _report(6, f"instances={checked}, 100 feasible comparisons each")


# ---------------------------------------------------------------- criterion 7
def test_criterion_7_policy_identities():
    """deud-o:0 is coud and deud-o:13 is deud-p, bit-equal in association
    and achieved utility, on every test scenario."""
    configs = [
        ScenarioConfig(macro_rows=1, macro_cols=2, n_pico=1, n_ue=8, isd_m=100.0),
        ScenarioConfig(macro_rows=2, macro_cols=2, n_pico=2, n_ue=12, isd_m=300.0),
        experiments.STUDY_CONFIG,
    ]
    count = 0
    for cfg in configs:
        for seed in range(3):
            sc = generate(cfg, seed=seed)
            for off, ref_policy in ((0.0, Policy("coud")), (13.0, Policy("deud_p"))):
                a = associate(Policy("deud_o", offset_db=off), sc)
                b = associate(ref_policy, sc)
                assert np.array_equal(a.b_ul, b.b_ul)
                assert np.array_equal(a.b_dl, b.b_dl)
                sol_a = solve_assoc(sc, a, OPTS)
                sol_b = solve_assoc(sc, b, OPTS)
                assert sol_a.lam == sol_b.lam
                assert np.array_equal(sol_a.w, sol_b.w)
                count += 1
    _report(7, f"{count} identity pairs bit-equal")


# ---------------------------------------------------------------- criterion 8
def test_criterion_8_trend_reproduction():
    """50-trial study at K=30, N=9 (6 macro + 3 pico): best-offset beats
    coupled access by >1.2x, partial overlap beats full overlap by >1.1x,
    and the joint optimizer beats QoS-PF in >=90% of trials."""
    t0 = time.monotonic()
    study = experiments.run_policy_study(experiments.STUDY_CONFIG, trials=50,
                                         seed_base=0)
    elapsed = time.monotonic() - t0
    agg = study["aggregate"]

    ratio_a = agg["best_over_coud"]
    assert ratio_a > 1.2, f"best-offset/coud ratio {ratio_a:.3f}"

    ratio_b = agg["partial_over_full"]["deud_p"]["ratio"]
    assert ratio_b > 1.1, f"partial/full ratio {ratio_b:.3f}"

    wins = agg["pf_win_fraction"]
    assert wins["coud"] >= 0.9 and wins["deud_p"] >= 0.9, wins

    assert elapsed < 600.0
    _report(8, f"best/coud={ratio_a:.3f} partial/full={ratio_b:.3f} "
               f"pf wins={wins} elapsed={elapsed:.0f}s")


# ---------------------------------------------------------------- criterion 9
def test_criterion_9_overlap_worked_example():
    """The historical-load worked example reproduces 0.57, 0, 0.49, 0.09."""
    ul_dl, dl_ul = pairwise_overlap_factors(load_ul=[0.3, 0.7], load_dl=[0.7, 0.3])
    o_dl_ul = dl_ul[0, 1]
    o_ul_dl = ul_dl[0, 1]
    assert o_dl_ul == pytest.approx(0.57, abs=0.005)
    assert o_ul_dl == 0.0
    c_dl_i, c_ul_i = 0.7, 0.3
    c_dl_j, c_ul_j = 0.3, 0.7
    assert c_dl_i * c_ul_j == pytest.approx(0.49)
    assert c_ul_i * c_dl_j == pytest.approx(0.09)
    _report(9, f"factors {o_dl_ul:.4f}, {o_ul_dl:.1f}, 0.49, 0.09")


# --------------------------------------------------------------- criterion 10
def test_criterion_10_theta_sweep_trends():
    """Utility is nondecreasing in the budget scale for every tested noise
    level, and the relative gain is larger in the noise-dominant regime."""
    scenario = generate(experiments.STUDY_CONFIG, seed=0)
    thetas = [0.1, 0.4, 0.7, 1.0]
    noises = [-70.0, -100.0, -121.45]
    rows = experiments.run_theta_sweep(scenario, Policy("deud_p"), thetas, noises)

    gains = {}
    for noise in noises:
        lams = [r["lam"] for r in rows if r["noise_dbm"] == noise]
        assert all(r["converged"] for r in rows if r["noise_dbm"] == noise)
        assert all(b >= a - 1e-9 * max(1.0, a) for a, b in zip(lams, lams[1:])), noise
        gains[noise] = lams[-1] / lams[0]
    assert gains[-70.0] > gains[-121.45]
    _report(10, "gain(theta 0.1->1.0): " +
            ", ".join(f"{n} dBm: {g:.2f}x" for n, g in gains.items()))
