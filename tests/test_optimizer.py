"""Three-step optimizer, power minimization, linear-reformulation check."""

import collections
import dataclasses

import numpy as np
import pytest

from flexlink import optimizer
from flexlink.association import DEUD_P, Policy, associate, policy_sweep
from flexlink.errors import InfeasibleError
from flexlink.experiments import (DEFAULT_HISTORY_DL, DEFAULT_HISTORY_UL, STUDY_CONFIG,
                                  solve_policies)
from flexlink.fixedpoint import normalized_fixed_point
from flexlink.interference import (Problem, ProblemStack, f_load, f_power, f_power_cell, g1, g2,
                                   utility)
from flexlink.model import Association
from flexlink.optimizer import (
    SolveOptions,
    initial_power_state,
    initial_psd,
    minimize_power,
    optimize,
    power_maps,
    stage1_bandwidth,
    stage3_power,
    step1_update_bandwidth,
    step2_power_scaling,
    step3_update_power,
)
from flexlink.scenario import ScenarioConfig, generate, uniform_overlap

from .helpers import (boundary_lambdas, random_problem, renumber, single_link_scenario,
                      solve_assoc, yates_iterates)
from .oracles import (anderson_fixed_point_ref, expand_psd_ref, f_load_ref, f_power_cell_ref,
                      f_power_ref, g2_ref, linear_reformulation_check, max_min_bandwidth_grid,
                      normalized_fixed_point_ref)

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
    lams = [s1.lam] + boundary_lambdas(trace)
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
        sol = solve_assoc(scenario, assoc, OPTS)
        assert sol.converged
        lams = boundary_lambdas(sol.trace)
        assert all(b >= a - 1e-9 for a, b in zip(lams, lams[1:]))
        assert abs(max(sol.g1, sol.g2) - 1.0) <= 1e-5
        # terminal feasibility w >= lam f(w) within 10 tol
        f_at = f_load(sol.w, sol.p, Problem.from_scenario(scenario, assoc))
        assert np.all(sol.w >= sol.lam * f_at - 10 * 1e-7)


def test_optimize_deterministic_bit_identical():
    scenario, assoc, _ = random_problem(7, n_ue=4, n_bs=2)
    a = solve_assoc(scenario, assoc, OPTS)
    b = solve_assoc(scenario, assoc, OPTS)
    assert np.array_equal(a.w, b.w)
    assert np.array_equal(a.p, b.p)
    assert a.lam == b.lam


def test_cell_specific_never_beats_per_link():
    for seed in (11, 12, 13):
        scenario, assoc, _ = random_problem(seed, n_ue=4, n_bs=2, coud=True)
        per_link = solve_assoc(scenario, assoc, OPTS)
        cell = solve_assoc(scenario, assoc, CELL_OPTS)
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
    sol = solve_assoc(scenario, assoc, CELL_OPTS)
    assert sol.converged
    assert abs(max(sol.g1, sol.g2) - 1.0) <= 1e-5
    lams = boundary_lambdas(sol.trace)
    assert all(b >= a - 1e-9 for a, b in zip(lams, lams[1:]))


def _both_tight_after_s1_theta(scenario, assoc):
    """Budget scale at which the cell-specific S1 fixed point has
    ``g1 = g2 = 1``, so the solve ends in S1."""
    problem = Problem.from_scenario(scenario, assoc)
    p0 = expand_psd_ref(initial_power_state(problem.stack, "cell_specific")[0], assoc)
    w = step1_update_bandwidth(problem, p0, CELL_OPTS).w
    return g2(w, p0, problem) / g1(w, problem)


def test_cell_specific_power_is_the_expanded_state():
    scenario, assoc, _ = random_problem(0, n_ue=4, n_bs=2, coud=True)
    for theta, step in ((_both_tight_after_s1_theta(scenario, assoc), "s1"),
                        (1e-6, "s2"), (1.0, "s3")):
        sol = solve_assoc(scenario, assoc, dataclasses.replace(CELL_OPTS, theta=theta))
        assert (sol.step, sol.converged) == (step, True)
        assert np.array_equal(sol.p, expand_psd_ref(sol.p_bar, assoc))
    assert solve_assoc(scenario, assoc, OPTS).p_bar is None


def test_step3_cell_specific_from_the_per_transmitter_state():
    scenario, assoc, problem = random_problem(0, n_ue=4, n_bs=2, coud=True)
    sol = solve_assoc(scenario, assoc, CELL_OPTS)
    # init, S1 and S3 boundary rows only: S3 started from the initial state
    assert sol.step == "s3" and len(sol.trace.rows) == 3
    s3 = step3_update_power(problem, sol.w, initial_power_state(problem.stack, "cell_specific")[0],
                            CELL_OPTS)
    assert s3.lam == sol.lam_solver
    assert np.array_equal(s3.p, sol.p)
    assert np.array_equal(s3.x, sol.p_bar)


# power minimization


def test_minimize_power_single_link_closed_form():
    sc, assoc, problem = _single_link_problem(demand_ul=1e6, demand_dl=2e6)
    sol = solve_assoc(sc, assoc, OPTS)
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
    sol = solve_assoc(scenario, assoc, OPTS)
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
    sol = solve_assoc(scenario, assoc, OPTS)
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
    sol = solve_assoc(scenario, assoc, OPTS)
    assert sol.lam <= 1.0
    with pytest.raises(InfeasibleError):
        minimize_power(problem, sol.w, sol.p)
    p = sol.p.copy()
    p[0] = np.nan
    with pytest.raises(InfeasibleError):  # a NaN utility is no utility above 1
        minimize_power(problem, sol.w, p)


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


def test_stage_maps_equal_the_per_call_forms_on_solver_iterates(monkeypatch):
    """Every S1 and S3 map the solver builds gives exactly (``==``) what the
    per-call functionals it replaced give, on every iterate of every member
    of every batch of distinct problems of study seed 3, in both power modes
    and both overlap arms."""
    calls, last = collections.Counter(), []

    def checked(stage, build, f_ref, g_ref):
        def build_checked(stack, fixed):
            f, g = build(stack, fixed)

            # a batch of one's maps take its vector, and its g gives a float
            rows = lambda a: np.reshape(a, (len(stack.problems), -1))

            def f_checked(x):
                out = f(x)
                for b, problem in enumerate(stack.problems):
                    member = rows(x)[b], rows(fixed)[b]
                    assert np.array_equal(rows(out)[b], f_ref(*member, problem)), stage
                    calls[stage] += 1
                    last.append((stage, problem, member[1], member[0]))
                return out

            def g_checked(x):
                out = g(x)
                for b, problem in enumerate(stack.problems):
                    assert rows(out)[b, 0] == g_ref(rows(x)[b], rows(fixed)[b], problem), stage
                return out
            return f_checked, g_checked
        return build_checked

    monkeypatch.setattr(optimizer, "load_maps", checked(
        "s1", optimizer.load_maps, f_load_ref,
        lambda w, p, pr: max(g1(w, pr), g2_ref(w, p, pr))))
    monkeypatch.setattr(optimizer, "link_power_maps", checked(
        "s3", optimizer.link_power_maps, f_power_ref, lambda p, w, pr: g2_ref(w, p, pr)))
    monkeypatch.setattr(optimizer, "cell_power_maps", checked(
        "s3 cell", optimizer.cell_power_maps, f_power_cell_ref,
        lambda pb, w, pr: g2_ref(w, expand_psd_ref(pb, pr.assoc), pr)))

    scenario = generate(STUDY_CONFIG, 3)
    partial = uniform_overlap(scenario.n_bs, DEFAULT_HISTORY_UL, DEFAULT_HISTORY_DL)
    for mode in ("per_link", "cell_specific"):
        for overlap in (partial, None):
            solve_policies(scenario, policy_sweep(), dataclasses.replace(OPTS, power_mode=mode),
                           overlap)
    assert min(calls["s1"], calls["s3"], calls["s3 cell"]) > 100, calls

    # the module-level maps keep the zero-PSD limit the stage maps leave out
    for stage, problem, fixed, x in last[::50]:
        if stage == "s1":
            continue
        zeroed = x.copy()
        zeroed[::3] = 0.0
        f, f_ref = (f_power, f_power_ref) if stage == "s3" else (f_power_cell, f_power_cell_ref)
        assert np.array_equal(f(zeroed, fixed, problem), f_ref(zeroed, fixed, problem))


def _maps(assoc):
    return assoc.b_ul.tobytes(), assoc.b_dl.tobytes()


def _solution_digest(sol):
    return repr((sol.w.tobytes(), sol.p.tobytes(), sol.lam, sol.lam_ul, sol.lam_dl,
                 sol.lam_solver, sol.step, sol.g1, sol.g2, sol.converged, sol.trace.rows))


@pytest.mark.parametrize("seed", range(4))
def test_batch_members_equal_their_batch_of_one(seed):
    """Every member of a ``solve_policies`` batch is bit for bit its own
    ``optimize`` (a batch of one): allocation, every utility, constraints,
    stage, convergence and every full-trace row.  Members stop at different
    iterations and fall back from extrapolation at different steps, in both
    power modes, both overlap arms and at a budget that reaches S2."""
    scenario = generate(STUDY_CONFIG, seed)
    partial = uniform_overlap(scenario.n_bs, DEFAULT_HISTORY_UL, DEFAULT_HISTORY_DL)
    steps = collections.Counter()
    for mode in ("per_link", "cell_specific"):
        for theta in (1.0, 3.16e-5):
            opts = SolveOptions(power_mode=mode, theta=theta)
            for overlap in (partial, None):
                batch = solve_policies(scenario, policy_sweep(), opts, overlap)
                # the first policy of each association (a repeat shares its solution)
                firsts = {_maps(associate(pol, scenario)): (pol, sol)
                          for pol, sol in reversed(list(zip(policy_sweep(), batch)))}
                for pol, sol in firsts.values():
                    alone = optimize(scenario, pol, opts, overlap=overlap)
                    assert _solution_digest(sol) == _solution_digest(alone), (pol.label, mode)
                    assert (sol.p_bar is None) == (alone.p_bar is None)
                    assert sol.p_bar is None or np.array_equal(sol.p_bar, alone.p_bar)
                    steps[sol.step] += 1
    assert steps["s3"] > 0 and (steps["s2"] > 0 or seed == 2), steps  # seed 2 has no S2


def _step_digest(r):
    fp = r.fixed_point
    return repr((r.w.tobytes(), r.p.tobytes(), None if r.x is None else r.x.tobytes(), r.lam,
                 fp.iterations, fp.residual, fp.converged))


@pytest.mark.parametrize("opts", [OPTS, CELL_OPTS], ids=lambda opts: opts.power_mode)
def test_one_member_stack_runs_the_solo_stages(opts):
    """S1 and S3 of one problem run one loop whatever its stack: the
    problem's own (``Problem.stack``, vector states), a one-member stacked
    batch built from its coupling, or one taken from a larger stack.  Each
    is bit for bit the single-problem stages and the reference loops
    (``normalized_fixed_point_ref`` for S1, ``anderson_fixed_point_ref`` for
    S3) on the problem's own stage maps: ``w``, ``p``, power state, utility,
    iterations, residual and convergence."""
    scenario = generate(STUDY_CONFIG, 0)
    overlap = uniform_overlap(scenario.n_bs, DEFAULT_HISTORY_UL, DEFAULT_HISTORY_DL)
    problems, rows = Problem.batch([(scenario, associate(Policy(label), scenario))
                                    for label in ("coud", DEUD_P)], overlap)
    b, problem = 1, problems[1]
    x0 = initial_power_state(problem.stack, opts.power_mode)
    expand, build = power_maps(problem.stack, opts.power_mode)
    p0 = expand(x0)
    s1 = step1_update_bandwidth(problem, p0[0], opts)
    s3 = step3_update_power(problem, s1.w, x0[0], opts)
    fixed_point = lambda r: (r.x.tobytes(), r.eigenvalue, r.iterations, r.residual, r.converged)
    s1_ref = normalized_fixed_point_ref(*optimizer.load_maps(problem.stack, p0[0]), 1.0,
                                        np.zeros(problem.n_links))
    with np.errstate(divide="ignore", invalid="ignore"):
        s3_ref = anderson_fixed_point_ref(*build(problem.stack, s1.w), x0[0],
                                          optimizer.ANDERSON_MEMORY)
    assert fixed_point(s1.fixed_point) == fixed_point(s1_ref)
    assert fixed_point(s3.fixed_point) == fixed_point(s3_ref)
    assert s1.lam == s1_ref.eigenvalue and s3.lam == s3_ref.eigenvalue
    stacks = (problem.stack, ProblemStack([problem], problem.rows[None]),
              ProblemStack(problems, rows).take([b]))
    assert [stack.shape for stack in stacks] == [(), (1,), (1,)]
    for stack in stacks:
        assert stack.size == 1
        [s1_stacked] = stage1_bandwidth(stack, p0, opts)
        [s3_stacked] = stage3_power(stack, s1_stacked.w[None], x0, opts)
        assert _step_digest(s1_stacked) == _step_digest(s1)
        assert _step_digest(s3_stacked) == _step_digest(s3)


def test_s2_takes_a_round_whenever_it_is_entered():
    """A member enters S2 when its S1 boundary row has a load below
    ``1 - TIGHT_TOL`` and a tight power constraint.  That load is below S2's
    loop bound ``1 - TOL_OUTER``, so S2 always scales at least once: exactly
    those members have an ``s2`` boundary row.  Study seeds 0-9, the study
    policies, partial overlap, both power modes, at a budget that reaches S2
    and at the full budget."""
    tight = lambda v: v >= 1.0 - optimizer.TIGHT_TOL
    assert optimizer.TIGHT_TOL > optimizer.TOL_OUTER
    policies = [Policy("coud"), Policy(DEUD_P)] + policy_sweep()
    entered = 0
    for seed in range(10):
        scenario = generate(STUDY_CONFIG, seed)
        overlap = uniform_overlap(scenario.n_bs, DEFAULT_HISTORY_UL, DEFAULT_HISTORY_DL)
        for mode in ("per_link", "cell_specific"):
            for theta in (1.0, 3.16e-5):
                opts = SolveOptions(power_mode=mode, theta=theta, trace_mode="boundary")
                for sol in solve_policies(scenario, policies, opts, overlap):
                    rows = [row for row in sol.trace.rows if row[6]]
                    step, _, _, load, use = rows[1][:5]
                    assert step == "s1"
                    enters = not tight(load) and tight(use)
                    assert enters == any(row[0] == "s2" for row in rows), (seed, mode, theta)
                    entered += enters
    assert entered > 0


def test_plain_stages_run_the_reference_loop(monkeypatch):
    """S1 and S2 call ``normalized_fixed_points`` with ``memory=0``, on a
    batch's ``(B, n)`` states or on one problem's vector, and that is the
    plain loop as it read before Anderson acceleration: running each member
    of each batch through that loop alone instead leaves every solution and
    every full-trace row (iterates, residuals, iteration counts) of every
    distinct problem of study seed 3 bit-identical, in both power modes, at a
    budget that reaches S2."""
    scenario = generate(STUDY_CONFIG, 3)
    partial = uniform_overlap(scenario.n_bs, DEFAULT_HISTORY_UL, DEFAULT_HISTORY_DL)

    def solve_all():
        return [sol for mode in ("per_link", "cell_specific") for theta in (1.0, 3.16e-5)
                for sol in solve_policies(scenario, policy_sweep(),
                                          SolveOptions(power_mode=mode, theta=theta), partial)]

    plain = solve_all()
    assert any(row[0] == "s2" for sol in plain for row in sol.trace.rows)
    calls = collections.Counter()
    batched = optimizer.normalized_fixed_points

    def routed(f, g, x0, memory=0, callback=None, take=None, **kw):
        calls[memory, x0.ndim] += len(x0) if x0.ndim == 2 else 1  # member fixed points
        if memory:
            return batched(f, g, x0, memory=memory, callback=callback, take=take, **kw)
        if x0.ndim == 1:  # one problem's vector
            one = None if callback is None else (
                lambda t, x, residual: callback(0, t, x, residual))
            return [normalized_fixed_point_ref(f, g, 1.0, x0, callback=one, **kw)]
        out, fx0 = [], f(x0)
        for b in range(len(x0)):  # each member alone, the others held at their start
            put = lambda rows, v, b=b: np.concatenate([rows[:b], v[None], rows[b + 1:]])
            one = None if callback is None else (
                lambda t, x, residual, b=b: callback(b, t, x, residual))
            out.append(normalized_fixed_point_ref(
                lambda x, b=b, put=put: f(put(x0, x))[b],
                lambda y, b=b, put=put: float(g(put(fx0, y))[b]), 1.0, x0[b],
                callback=one, **kw))
        return out

    monkeypatch.setattr(optimizer, "normalized_fixed_points", routed)
    assert list(map(_solution_digest, solve_all())) == list(map(_solution_digest, plain))
    assert calls[0, 2] > 50 and calls[optimizer.ANDERSON_MEMORY, 2] > 40, calls
    assert calls[0, 1] > 0, calls  # S2's re-solves


def test_s3_follows_the_anderson_reference(monkeypatch):
    """Every S3 fixed point of the study solves of seed 3, in both power
    modes and batched with the trial's other associations, is bit for bit
    the one-problem accelerated loop of ``anderson_fixed_point_ref`` on that
    member's stage maps."""
    entries = []
    stage3 = optimizer.stage3_power

    def recorded(stack, w_fixed, x0, opts=OPTS, traces=None):
        out = stage3(stack, w_fixed, x0, opts, traces)
        entries.extend((problem, out[b].w, x0[b], opts.power_mode, out[b].fixed_point)
                       for b, problem in enumerate(stack.problems))
        return out

    monkeypatch.setattr(optimizer, "stage3_power", recorded)
    scenario = generate(STUDY_CONFIG, 3)
    partial = uniform_overlap(scenario.n_bs, DEFAULT_HISTORY_UL, DEFAULT_HISTORY_DL)
    for mode in ("per_link", "cell_specific"):
        solve_policies(scenario, policy_sweep(), dataclasses.replace(OPTS, power_mode=mode),
                       partial)
    assert {mode for *_, mode, _ in entries} == {"per_link", "cell_specific"}
    digest = lambda r: (r.x.tobytes(), r.eigenvalue, r.iterations, r.residual, r.converged,
                        r.note)
    for problem, w, x0, mode, fast in entries:
        f, g = optimizer.power_maps(problem.stack, mode)[1](problem.stack, w)
        with np.errstate(divide="ignore", invalid="ignore"):
            ref = anderson_fixed_point_ref(f, g, x0, optimizer.ANDERSON_MEMORY)
        assert digest(fast) == digest(ref), mode


def test_s3_lambda_does_not_depend_on_numbering():
    """The accelerated S3 finds one lambda (to the benchmark's 1e-9 relative)
    for a K=1000 cell-specific deud-p problem however its UEs and BSs are
    numbered: the safeguard's slack keeps rounding from deciding between the
    extrapolated and the plain step."""
    base = generate(ScenarioConfig(macro_rows=3, macro_cols=4, n_pico=6, n_ue=1000), 2)
    opts = SolveOptions(power_mode="cell_specific", trace_mode="boundary")
    sols = [optimize(renumber(base, np.random.default_rng([1, r, 2])), Policy(DEUD_P), opts)
            for r in range(3)]
    assert all(sol.step == "s3" and sol.converged for sol in sols)
    lams = [sol.lam for sol in sols]
    assert max(lams) / min(lams) - 1.0 <= 1e-9, lams


def test_accelerated_s3_takes_fewer_iterations_at_plain_accuracy(monkeypatch):
    """On the study solves of seeds 0-3 in both power modes, S3 with Anderson
    steps takes fewer iterations than the plain iteration, and its lambda is
    within 1e-4 relative of the plain iteration run to tol 1e-13."""
    entries = []
    stage3 = optimizer.stage3_power

    def recorded(stack, w_fixed, x0, opts=OPTS, traces=None):
        out = stage3(stack, w_fixed, x0, opts, traces)
        entries.extend((problem, out[b].w, x0[b], opts.power_mode, out[b])
                       for b, problem in enumerate(stack.problems))
        return out

    monkeypatch.setattr(optimizer, "stage3_power", recorded)
    for seed in range(4):
        scenario = generate(STUDY_CONFIG, seed)
        partial = uniform_overlap(scenario.n_bs, DEFAULT_HISTORY_UL, DEFAULT_HISTORY_DL)
        for mode in ("per_link", "cell_specific"):
            solve_policies(scenario, policy_sweep(), dataclasses.replace(OPTS, power_mode=mode),
                           partial)
    assert len({mode for *_, mode, _ in entries}) == 2 and len(entries) > 50

    iterations = collections.Counter()
    for problem, w, x0, mode, fast in entries:
        f, g = optimizer.power_maps(problem.stack, mode)[1](problem.stack, w)
        with np.errstate(divide="ignore", invalid="ignore"):
            plain = normalized_fixed_point(f, g, x0)
            tight = normalized_fixed_point(f, g, x0, tol=1e-13)
        assert fast.fixed_point.converged and tight.converged
        assert fast.lam == pytest.approx(tight.eigenvalue, rel=1e-4)
        iterations["fast"] += fast.fixed_point.iterations
        iterations["plain"] += plain.iterations
    assert iterations["fast"] < iterations["plain"], iterations
