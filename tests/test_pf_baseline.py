"""QoS-based proportional fairness baseline."""

import numpy as np
import pytest

from flexlink.association import Policy, associate, policy_sweep
from flexlink.errors import ConfigError
from flexlink.experiments import (DEFAULT_HISTORY_DL, DEFAULT_HISTORY_UL, MC_OPTS, REFERENCES,
                                  STUDY_CONFIG, compare_pf, run_trial)
from flexlink.interference import Problem, qos_levels
from flexlink.model import Association
from flexlink.pf_baseline import EPS_PF, pf_allocate, pf_allocate_all
from flexlink.scenario import ScenarioConfig, generate, uniform_overlap

from .helpers import (make_scenario, random_problem, random_scenario, solve_assoc,
                      two_cell_scenario, coud_assoc)
from .oracles import _pf_rates, _split_band, dense_coupling, pf_allocate_ref, pf_greedy_ref

SPLITS = ((9, 16), (1, 24), (24, 1), (12, 13))


def digest(alloc):
    """Every field of a ``PfAllocation``, bytes and dtypes of its arrays."""
    return (alloc.w.tobytes(), alloc.p.tobytes(), alloc.rb_counts.dtype,
            alloc.rb_counts.tobytes(), alloc.lam_ul, alloc.lam_dl, alloc.qos.tobytes())


def test_single_link_per_direction_gets_whole_split():
    sc = two_cell_scenario()
    assoc = coud_assoc(sc)  # one UL and one DL per cell
    alloc = pf_allocate(Problem.from_scenario(sc, assoc), split=(9, 16))
    k = sc.n_ue
    assert np.all(alloc.rb_counts[:k] == 9)
    assert np.all(alloc.rb_counts[k:] == 16)
    assert np.allclose(alloc.w[:k], 9 / 25)
    assert np.allclose(alloc.w[k:], 16 / 25)


def test_identical_links_share_within_one_rb():
    # one cell, two UEs with identical gains and demands
    h0 = np.array([[1e-8, 1e-8]])
    sc = make_scenario(h0, np.array([[1.0]]), np.eye(2) * 0.5 + 0.5,
                       [2e6, 2e6, 5e6, 5e6])
    assoc = Association(b_ul=[0, 0], b_dl=[0, 0], n_bs=1)
    alloc = pf_allocate(Problem.from_scenario(sc, assoc), split=(9, 16))
    assert abs(alloc.rb_counts[0] - alloc.rb_counts[1]) <= 1
    assert abs(alloc.rb_counts[2] - alloc.rb_counts[3]) <= 1
    assert alloc.rb_counts[:2].sum() == 9
    assert alloc.rb_counts[2:].sum() == 16


@pytest.mark.parametrize("config", [STUDY_CONFIG, ScenarioConfig(n_ue=7),
                                    ScenarioConfig(n_ue=100)], ids=["study", "k7", "k100"])
def test_sort_equals_the_greedy_loop(config):
    for seed in range(6):
        scenario = generate(config, seed)
        for policy in ("coud", "deud-p"):
            assoc = associate(Policy.parse(policy), scenario)
            for split in SPLITS:
                problem = Problem.from_scenario(scenario, assoc)
                assert np.array_equal(pf_allocate(problem, split).rb_counts,
                                      pf_greedy_ref(scenario, assoc, split)), (seed, policy, split)


@pytest.mark.parametrize("demands, want", [
    # gains so small that qos + EPS_PF rounds to EPS_PF: every priority of
    # every link is equal, and the first link of each cell and direction wins all
    ([1e30] * 6, [9, 0, 0, 16, 0, 0]),
    # two tied tiny links beside one ordinary link in each direction
    ([1e30, 2e6, 1e30, 5e6, 1e30, 1e30], None),
    # identical ordinary links: equal priorities across links at every count
    ([2e6] * 3 + [5e6] * 3, [3, 3, 3, 6, 5, 5]),
])
@pytest.mark.parametrize("split", SPLITS)
def test_sort_breaks_ties_as_the_greedy_loop(demands, want, split):
    sc = make_scenario(np.array([[1e-8] * 3]), np.array([[1.0]]), np.eye(3) * 0.5 + 0.5,
                       demands)
    assoc = Association(b_ul=[0] * 3, b_dl=[0] * 3, n_bs=1)
    alloc = pf_allocate(Problem.from_scenario(sc, assoc), split=split)
    assert np.array_equal(alloc.rb_counts, pf_greedy_ref(sc, assoc, split))
    if want is not None and split == (9, 16):
        assert alloc.rb_counts.tolist() == want
    problem = _split_band(Problem.from_scenario(sc, assoc))
    gain = _pf_rates(problem, alloc.p, np.zeros(6), split) / sc.demands  # QoS per RB
    tiny = sc.demands == 1e30
    assert np.all(gain[tiny] * max(split) + EPS_PF == EPS_PF) and np.all(gain[~tiny] > 1e-6)


def test_per_cell_budgets_respected():
    scenario, assoc, problem = random_problem(5, n_ue=6, n_bs=2)
    alloc = pf_allocate(problem, split=(9, 16))
    k = scenario.n_ue
    for cell in range(scenario.n_bs):
        ul = alloc.rb_counts[:k][assoc.b_ul == cell].sum()
        dl = alloc.rb_counts[k:][assoc.b_dl == cell].sum()
        assert ul <= 9 and dl <= 16
        assert ul + dl <= scenario.rb_count


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_split_band_rates_match_dense_reference(seed):
    # the PF baseline zeroes the cross-direction blocks by slicing the
    # coupling at the UE/BS transmitter split; the dense V~ zeroes them by link
    n, k = 3, 7
    sc = random_scenario(seed, n_ue=k, n_bs=n)
    rng = np.random.default_rng(seed)
    assoc = Association(b_ul=rng.integers(0, n, k), b_dl=rng.integers(0, n, k), n_bs=n)
    p = 10 ** rng.uniform(-6, -1, 2 * k)
    counts = rng.integers(0, 9, 2 * k).astype(float)
    split = (9, 16)

    dense = dense_coupling(sc, assoc)
    vt = np.array(dense.v_tilde)
    vt[:k, k:] = 0.0
    vt[k:, :k] = 0.0
    occupancy = counts / np.repeat(split, k)
    ipsd = (vt @ (p * occupancy) + dense.sigma_vec) / dense.d_diag
    expected = sc.rb_bandwidth * np.log2(1.0 + p / ipsd)

    problem = _split_band(Problem.from_scenario(sc, assoc))
    assert np.allclose(_pf_rates(problem, p, counts, split), expected, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("split", SPLITS[:3])
def test_batch_equals_each_problem_alone(split):
    """``pf_allocate_all`` of a batch that mixes two venues, one problem with an
    overlap and a budget scale, and one problem twice gives each member bit for
    bit what ``pf_allocate`` gives it alone and what ``pf_allocate_ref`` gives."""
    cases = [(generate(STUDY_CONFIG, seed), Policy.parse(policy))
             for seed in (0, 1) for policy in ("coud", "deud-p", "deud-o:7")]
    cases = [(scenario, associate(policy, scenario)) for scenario, policy in cases]
    problems = Problem.batch(cases)[0]
    overlap = uniform_overlap(cases[4][0].n_bs, DEFAULT_HISTORY_UL, DEFAULT_HISTORY_DL)
    problems[4] = Problem.from_scenario(*cases[4], overlap, theta=0.3)
    batch = pf_allocate_all([*problems, problems[2]], split)
    assert len(batch) == len(problems) + 1
    for alloc, problem, case in zip(batch, [*problems, problems[2]], [*cases, cases[2]]):
        assert digest(alloc) == digest(pf_allocate(problem, split)) == \
            digest(pf_allocate_ref(*case, split))


def test_bad_split_rejected():
    """A bad split is one ``ConfigError`` line, for one problem and through a batch."""
    sc = two_cell_scenario()
    problem = Problem.from_scenario(sc, coud_assoc(sc))
    for split in ((9, 17), (-1, 26), (0, 25), (25, 0)):
        with pytest.raises(ConfigError) as alone:
            pf_allocate(problem, split=split)
        with pytest.raises(ConfigError) as batch:
            pf_allocate_all([problem, problem], split=split)
        assert str(batch.value) == str(alone.value) and "\n" not in str(alone.value)


def test_deterministic():
    scenario, assoc, problem = random_problem(6, n_ue=5, n_bs=2)
    a = pf_allocate(problem)
    b = pf_allocate(Problem.from_scenario(scenario, assoc))
    assert np.array_equal(a.rb_counts, b.rb_counts)
    assert a.lam_ul == b.lam_ul and a.lam_dl == b.lam_dl


@pytest.mark.parametrize("seed", [201, 202, 203, 204])
def test_joint_optimizer_beats_pf_min_direction(seed):
    scenario, assoc, problem = random_problem(seed, n_ue=4, n_bs=2, coud=True)
    pf = pf_allocate(problem)
    sol = solve_assoc(scenario, assoc, MC_OPTS)
    # the per-direction utilities split the QoS vector the solution's lam is taken from
    qos = qos_levels(sol.w, sol.p, problem)
    k = scenario.n_ue
    assert (sol.lam_ul, sol.lam_dl) == (float(np.min(qos[:k])), float(np.min(qos[k:])))
    assert sol.lam == min(sol.lam_ul, sol.lam_dl)
    assert min(sol.lam_ul, sol.lam_dl) >= pf.lam


@pytest.mark.parametrize("seed", range(4))
def test_pf_of_a_problem_equals_the_scenario_path(seed):
    """``pf_allocate(problem)`` gives bit for bit what ``pf_allocate(scenario,
    assoc)`` gave, on the study venues for every sweep association, whatever
    the problem's overlap and budgets; a trial's PF figures are those of its
    references."""
    scenario = generate(STUDY_CONFIG, seed)
    overlap = uniform_overlap(scenario.n_bs, DEFAULT_HISTORY_UL, DEFAULT_HISTORY_DL)
    for policy in policy_sweep():
        assoc = associate(policy, scenario)
        want = digest(pf_allocate_ref(scenario, assoc))
        for model, theta in ((None, 1.0), (overlap, 0.3)):
            assert digest(pf_allocate(Problem.from_scenario(scenario, assoc, model, theta))) == \
                want, policy.label
    trial = run_trial(STUDY_CONFIG, seed)["pf"]
    for label, policy in REFERENCES.items():
        ref = pf_allocate_ref(scenario, associate(policy, scenario))
        assert trial[label] == {"lam_ul": ref.lam_ul, "lam_dl": ref.lam_dl, "lam": ref.lam}


def test_compare_pf_reports_both_sides():
    sc = generate(ScenarioConfig(macro_rows=1, macro_cols=2, n_pico=1, n_ue=6,
                                 isd_m=100.0), seed=2)
    out = compare_pf(sc, Policy("coud"))
    assert out["optimizer"]["lam"] > 0
    assert out["pf"]["lam"] == min(out["pf"]["lam_ul"], out["pf"]["lam_dl"])
    assert out["optimizer"]["lam"] >= out["pf"]["lam"]
