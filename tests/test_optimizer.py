"""Three-step optimizer, power minimization, linear-reformulation check."""

import dataclasses

import numpy as np
import pytest

from flexlink.errors import InfeasibleError
from flexlink.interference import Problem, expand_psd, f_load, f_power, g1, g2, utility
from flexlink.model import Association
from flexlink.optimizer import (
    SolveOptions,
    initial_power_state,
    initial_psd,
    minimize_power,
    optimize,
    step1_update_bandwidth,
    step2_power_scaling,
    step3_update_power,
)

from .helpers import random_problem, single_link_scenario, yates_iterates
from .oracles import linear_reformulation_check, max_min_bandwidth_grid

OPTS = SolveOptions(trace_mode="boundary")
CELL_OPTS = SolveOptions(trace_mode="boundary", power_mode="cell_specific")


def _single_link_problem(ue_power_w=0.1585, bs_power_w=19.95, **kw):
    sc = single_link_scenario(ue_power_w=ue_power_w, bs_power_w=bs_power_w, **kw)
    assoc = Association(b_ul=[0], b_dl=[0], n_bs=1)
    return sc, assoc, Problem.from_scenario(sc, assoc)


def test_step1_single_cell_closed_form():
    sc, assoc, problem = _single_link_problem(demand_ul=4e6, demand_dl=1.6e7)
    p = np.array([2e-3, 4e-2])
    # no interference: the demand map is constant in w
    phi = sc.demands / (sc.rb_count * sc.rb_bandwidth
                        * np.log2(1.0 + p * problem.d_diag / sc.noise_psd))
    g_load = phi.sum()                       # both links share the one cell
    g_pow = sc.rb_count * max(phi[0] * p[0] / 0.1585, phi[1] * p[1] / 19.95)
    g = max(g_load, g_pow)

    res = step1_update_bandwidth(problem, p, OPTS)
    assert res.fixed_point.converged and res.fixed_point.iterations <= 3
    assert np.allclose(res.w, phi / g, rtol=1e-10)
    assert res.lam == pytest.approx(1.0 / g, rel=1e-10)
    # binding constraint identified analytically: load for these numbers
    assert g_load > g_pow
    assert g1(res.w, problem) == pytest.approx(1.0, abs=1e-12)


def test_step1_demand_scaling_leaves_w_and_divides_lam():
    scenario, assoc, problem = random_problem(61, n_ue=3, n_bs=2)
    p = initial_psd(problem)
    base = step1_update_bandwidth(problem, p, OPTS)

    scaled = dataclasses.replace(problem, demands=3.0 * problem.demands)
    res = step1_update_bandwidth(scaled, p, OPTS)
    assert np.allclose(res.w, base.w, rtol=1e-12)
    assert res.lam == pytest.approx(base.lam / 3.0, rel=1e-12)


def test_step1_matches_surface_search_oracle():
    scenario, assoc, problem = random_problem(71, n_ue=2, n_bs=2, coud=True)
    p = initial_psd(problem)
    res = step1_update_bandwidth(problem, p, OPTS)
    lam_grid = max_min_bandwidth_grid(problem, p, resolution=1e-3)
    assert lam_grid <= res.lam * (1.0 + 1e-9)
    assert abs(res.lam - lam_grid) <= 1e-2 * res.lam


def test_step1_minimality_downward_perturbation_infeasible():
    scenario, assoc, problem = random_problem(81, n_ue=3, n_bs=2)
    p = initial_psd(problem)
    res = step1_update_bandwidth(problem, p, OPTS)
    f_at = f_load(res.w, p, problem)
    assert np.all(res.w >= res.lam * f_at - 1e-7 * np.maximum(res.w, 1e-12))
    for l in range(problem.n_links):
        w_down = res.w.copy()
        w_down[l] *= 0.999
        violated = np.any(w_down < res.lam * f_load(w_down, p, problem) * (1 - 1e-12))
        assert violated


def test_step2_noop_when_band_already_full():
    scenario, assoc, problem = random_problem(91, n_ue=3, n_bs=2)
    p = initial_psd(problem)
    s1 = step1_update_bandwidth(problem, p, OPTS)
    if g1(s1.w, problem) < 1.0 - 1e-6:
        pytest.skip("instance is power-bound; no-op guard not exercised")
    s2 = step2_power_scaling(problem, s1.w, p, OPTS)
    assert s2.rounds == 0
    assert np.array_equal(s2.w, s1.w)
    assert np.array_equal(s2.p, p)
    assert s2.lam == s1.lam


def _power_bound_problem(seed=101):
    # tiny transmit budgets make the power constraint bind first in S1
    scenario, assoc, _ = random_problem(seed, n_ue=3, n_bs=2)
    from flexlink.model import BaseStation, Scenario, UserTerminal

    bs = [BaseStation(position=b.position, kind=b.kind, max_power_w=2e-4)
          for b in scenario.bs_list]
    ue = [UserTerminal(position=u.position, service_class=u.service_class,
                       max_power_w=1e-4) for u in scenario.ue_list]
    sc = Scenario(bs_list=bs, ue_list=ue, h0=scenario.h0, h1=scenario.h1,
                  h2=scenario.h2, demands=scenario.demands, rb_count=scenario.rb_count,
                  rb_bandwidth=scenario.rb_bandwidth, noise_psd=scenario.noise_psd)
    return sc, assoc, Problem.from_scenario(sc, assoc)


def test_step2_reaches_full_load_with_increasing_utility():
    sc, assoc, problem = _power_bound_problem()
    p0 = initial_psd(problem)
    s1 = step1_update_bandwidth(problem, p0, OPTS)
    assert g2(s1.w, p0, problem) == pytest.approx(1.0, abs=1e-9)
    assert g1(s1.w, problem) < 1.0 - 1e-6

    from flexlink.optimizer import SolveTrace

    trace = SolveTrace()
    s2 = step2_power_scaling(problem, s1.w, p0, OPTS, trace=trace)
    assert g1(s2.w, problem) == pytest.approx(1.0, abs=1e-6)
    assert g2(s2.w, s2.p, problem) <= 1.0 + 1e-9
    lams = [s1.lam] + trace.boundary_lambdas()
    assert all(b > a - 1e-12 for a, b in zip(lams, lams[1:]))
    assert s2.lam > s1.lam


def test_step3_identity_when_power_already_binding():
    sc, assoc, problem = _power_bound_problem(111)
    p0 = initial_psd(problem)
    s1 = step1_update_bandwidth(problem, p0, OPTS)
    assert g2(s1.w, p0, problem) == pytest.approx(1.0, abs=1e-9)
    s3 = step3_update_power(problem, s1.w, p0, OPTS)
    assert np.max(np.abs(s3.p - p0)) <= 1e-8
    assert abs(s3.lam - s1.lam) <= 1e-8


def test_step3_strictly_improves_when_power_is_slack():
    scenario, assoc, problem = random_problem(121, n_ue=3, n_bs=2)
    p0 = initial_psd(problem)
    s1 = step1_update_bandwidth(problem, p0, OPTS)
    g2_entry = g2(s1.w, p0, problem)
    assert g1(s1.w, problem) == pytest.approx(1.0, abs=1e-9)
    assert g2_entry <= 0.9
    s3 = step3_update_power(problem, s1.w, p0, OPTS)
    assert s3.lam > s1.lam
    assert g2(s1.w, s3.p, problem) == pytest.approx(1.0, abs=1e-9)


def test_step3_single_cell_closed_form_saturates_budget():
    sc, assoc, problem = _single_link_problem(demand_ul=2e6, demand_dl=6e6)
    w = np.array([0.4, 0.6])
    p0 = np.array([1e-5, 1e-5])
    s3 = step3_update_power(problem, w, p0, OPTS)

    w0b = sc.rb_count * sc.rb_bandwidth
    gain = problem.d_diag
    limits = np.array([0.1585, 19.95])

    def g2_at(lam):
        with np.errstate(over="ignore"):
            p = (2.0 ** (lam * sc.demands / (w0b * w)) - 1.0) * sc.noise_psd / gain
        return sc.rb_count * np.max(w * p / limits)

    lo, hi = 1e-6, 1e6
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g2_at(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    lam_closed = 0.5 * (lo + hi)
    assert s3.lam == pytest.approx(lam_closed, rel=1e-8)
    assert g2(w, s3.p, problem) == pytest.approx(1.0, abs=1e-12)


# full pipeline


def test_optimize_monotone_boundaries_and_tight_termination():
    for seed in (0, 1, 2, 3):
        scenario, assoc, _ = random_problem(seed, n_ue=4, n_bs=2)
        sol = optimize(scenario, None, OPTS, assoc=assoc)
        assert sol.converged
        lams = sol.trace.boundary_lambdas()
        assert all(b >= a - 1e-9 for a, b in zip(lams, lams[1:]))
        assert abs(max(sol.g1, sol.g2) - 1.0) <= 1e-5
        # terminal feasibility w >= lam f(w) within 10 tol
        f_at = f_load(sol.w, sol.p, Problem.from_scenario(scenario, assoc))
        assert np.all(sol.w >= sol.lam * f_at - 10 * 1e-7)


def test_optimize_deterministic_bit_identical():
    scenario, assoc, _ = random_problem(7, n_ue=4, n_bs=2)
    a = optimize(scenario, None, OPTS, assoc=assoc)
    b = optimize(scenario, None, OPTS, assoc=assoc)
    assert np.array_equal(a.w, b.w)
    assert np.array_equal(a.p, b.p)
    assert a.lam == b.lam


def test_cell_specific_never_beats_per_link():
    for seed in (11, 12, 13):
        scenario, assoc, _ = random_problem(seed, n_ue=4, n_bs=2, coud=True)
        per_link = optimize(scenario, None, OPTS, assoc=assoc)
        cell = optimize(scenario, None, CELL_OPTS, assoc=assoc)
        assert cell.lam <= per_link.lam * (1.0 + 1e-6)
        assert cell.p_bar is not None
        # expanded PSD is shared within each cell's downlinks
        k = scenario.n_ue
        for n in range(scenario.n_bs):
            served = np.flatnonzero(assoc.b_dl == n)
            if served.size > 1:
                assert np.allclose(cell.p[k + served], cell.p[k + served][0])


def test_optimize_cell_specific_terminates_tight():
    scenario, assoc, _ = random_problem(17, n_ue=4, n_bs=2, coud=True)
    sol = optimize(scenario, None, CELL_OPTS, assoc=assoc)
    assert sol.converged
    assert abs(max(sol.g1, sol.g2) - 1.0) <= 1e-5
    lams = sol.trace.boundary_lambdas()
    assert all(b >= a - 1e-9 for a, b in zip(lams, lams[1:]))


def _both_tight_after_s1_theta(scenario, assoc):
    """Budget scale at which the cell-specific S1 fixed point has
    ``g1 = g2 = 1``, so the solve ends in S1."""
    problem = Problem.from_scenario(scenario, assoc)
    p0 = expand_psd(initial_power_state(problem, "cell_specific"), assoc)
    w = step1_update_bandwidth(problem, p0, CELL_OPTS).w
    return g2(w, p0, problem) / g1(w, problem)


def test_cell_specific_power_is_the_expanded_state():
    scenario, assoc, _ = random_problem(0, n_ue=4, n_bs=2, coud=True)
    for theta, step in ((_both_tight_after_s1_theta(scenario, assoc), "s1"),
                        (1e-6, "s2"), (1.0, "s3")):
        sol = optimize(scenario, None, dataclasses.replace(CELL_OPTS, theta=theta), assoc=assoc)
        assert (sol.step, sol.converged) == (step, True)
        assert np.array_equal(sol.p, expand_psd(sol.p_bar, assoc))
    assert optimize(scenario, None, OPTS, assoc=assoc).p_bar is None


def test_step3_cell_specific_from_the_per_transmitter_state():
    scenario, assoc, problem = random_problem(0, n_ue=4, n_bs=2, coud=True)
    sol = optimize(scenario, None, CELL_OPTS, assoc=assoc)
    # init, S1 and S3 boundary rows only: S3 started from the initial state
    assert sol.step == "s3" and len(sol.trace.rows) == 3
    s3 = step3_update_power(problem, sol.w, initial_power_state(problem, "cell_specific"),
                            CELL_OPTS)
    assert s3.lam == sol.lam_solver
    assert np.array_equal(s3.p, sol.p)
    assert np.array_equal(s3.x, sol.p_bar)


# power minimization


def test_minimize_power_single_link_closed_form():
    sc, assoc, problem = _single_link_problem(demand_ul=1e6, demand_dl=2e6)
    sol = optimize(sc, None, OPTS, assoc=assoc)
    assert sol.lam > 1.0
    res = minimize_power(problem, sol.w, sol.p)
    expected = (2.0 ** (sc.demands / (sc.rb_count * sol.w * sc.rb_bandwidth)) - 1.0) \
        * sc.noise_psd / problem.d_diag
    assert np.allclose(res.p_min, expected, rtol=1e-8)
    assert res.lam == pytest.approx(1.0, abs=1e-4)
    assert res.saving_ratio < 1.0


def _feasible_candidates(problem, w_star, p_min, count=100, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        if rng.uniform() < 0.5:
            cand = p_min * rng.uniform(1.0, 5.0)
        else:
            cand = p_min * (1.0 + rng.uniform(0.0, 2.0, size=p_min.shape))
        if utility(w_star, cand, problem) >= 1.0:
            out.append(cand)
    return out


def test_minimize_power_yates_minimality_against_feasible_points():
    scenario, assoc, problem = random_problem(131, n_ue=3, n_bs=2, demand_scale=3e5)
    sol = optimize(scenario, None, OPTS, assoc=assoc)
    assert sol.lam > 1.0, "instance must be strictly feasible"
    res = minimize_power(problem, sol.w, sol.p)
    assert res.lam == pytest.approx(1.0, abs=1e-4)
    assert g2(sol.w, res.p_min, problem) <= 1.0 + 1e-9
    psi = lambda p: float(np.sum(sol.w * p))
    for cand in _feasible_candidates(problem, sol.w, res.p_min):
        assert np.all(res.p_min <= cand + 1e-12)
        assert psi(res.p_min) <= psi(cand) + 1e-15


def test_minimize_power_nonincreasing_from_feasible_start():
    scenario, assoc, problem = random_problem(131, n_ue=3, n_bs=2, demand_scale=3e5)
    sol = optimize(scenario, None, OPTS, assoc=assoc)
    from flexlink.fixedpoint import yates_iteration

    f = lambda p: f_power(p, sol.w, problem)
    res = yates_iteration(f, sol.p)
    iterates = yates_iterates(f, sol.p, res.iterations)
    assert np.array_equal(iterates[-1], res.x)
    prev = sol.p
    for x in iterates:
        assert np.all(x <= prev * (1.0 + 1e-12))
        prev = x


def test_minimize_power_requires_strict_feasibility():
    scenario, assoc, problem = random_problem(141, n_ue=4, n_bs=2, demand_scale=1e8)
    sol = optimize(scenario, None, OPTS, assoc=assoc)
    assert sol.lam <= 1.0
    with pytest.raises(InfeasibleError):
        minimize_power(problem, sol.w, sol.p)


# linear-in-power reformulation cross-check


@pytest.mark.parametrize("seed", [151, 152, 153])
def test_linear_reformulation_agrees_with_power_update(seed):
    scenario, assoc, problem = random_problem(seed, n_ue=3, n_bs=2)
    p0 = initial_psd(problem)
    s1 = step1_update_bandwidth(problem, p0, OPTS)
    assert g1(s1.w, problem) == pytest.approx(1.0, abs=1e-9)
    s3 = step3_update_power(problem, s1.w, p0, OPTS)
    report = linear_reformulation_check(problem, s1.w, s3.p)
    assert report.ok, f"relative gap {report.rel_diff:.2e}"
    assert report.lam_affine == pytest.approx(s3.lam, rel=1e-4)
