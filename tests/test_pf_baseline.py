"""QoS-based proportional fairness baseline."""

import numpy as np
import pytest

from flexlink.errors import ConfigError
from flexlink.experiments import MC_OPTS, compare_pf
from flexlink.interference import qos_levels
from flexlink.model import Association
from flexlink.optimizer import optimize
from flexlink.pf_baseline import pf_allocate

from .helpers import make_scenario, random_problem, two_cell_scenario, coud_assoc


def test_single_link_per_direction_gets_whole_split():
    sc = two_cell_scenario()
    assoc = coud_assoc(sc)  # one UL and one DL per cell
    alloc = pf_allocate(sc, assoc, split=(9, 16))
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
    alloc = pf_allocate(sc, assoc, split=(9, 16))
    assert abs(alloc.rb_counts[0] - alloc.rb_counts[1]) <= 1
    assert abs(alloc.rb_counts[2] - alloc.rb_counts[3]) <= 1
    assert alloc.rb_counts[:2].sum() == 9
    assert alloc.rb_counts[2:].sum() == 16


def test_per_cell_budgets_respected():
    scenario, assoc, _ = random_problem(5, n_ue=6, n_bs=2)
    alloc = pf_allocate(scenario, assoc, split=(9, 16))
    k = scenario.n_ue
    for cell in range(scenario.n_bs):
        ul = alloc.rb_counts[:k][assoc.b_ul == cell].sum()
        dl = alloc.rb_counts[k:][assoc.b_dl == cell].sum()
        assert ul <= 9 and dl <= 16
        assert ul + dl <= scenario.rb_count


def test_bad_split_rejected():
    sc = two_cell_scenario()
    assoc = coud_assoc(sc)
    with pytest.raises(ConfigError):
        pf_allocate(sc, assoc, split=(9, 17))
    with pytest.raises(ConfigError):
        pf_allocate(sc, assoc, split=(-1, 26))


def test_deterministic():
    scenario, assoc, _ = random_problem(6, n_ue=5, n_bs=2)
    a = pf_allocate(scenario, assoc)
    b = pf_allocate(scenario, assoc)
    assert np.array_equal(a.rb_counts, b.rb_counts)
    assert a.lam_ul == b.lam_ul and a.lam_dl == b.lam_dl


@pytest.mark.parametrize("seed", [201, 202, 203, 204])
def test_joint_optimizer_beats_pf_min_direction(seed):
    scenario, assoc, problem = random_problem(seed, n_ue=4, n_bs=2, coud=True)
    pf = pf_allocate(scenario, assoc)
    sol = optimize(scenario, None, MC_OPTS, assoc=assoc)
    # the per-direction utilities split the QoS vector the solution's lam is taken from
    qos = qos_levels(sol.w, sol.p, problem)
    k = scenario.n_ue
    assert (sol.lam_ul, sol.lam_dl) == (float(np.min(qos[:k])), float(np.min(qos[k:])))
    assert sol.lam == min(sol.lam_ul, sol.lam_dl)
    assert min(sol.lam_ul, sol.lam_dl) >= pf.lam


def test_compare_pf_reports_both_sides():
    from flexlink.association import Policy
    from flexlink.scenario import ScenarioConfig, generate

    sc = generate(ScenarioConfig(macro_rows=1, macro_cols=2, n_pico=1, n_ue=6,
                                 isd_m=100.0), seed=2)
    out = compare_pf(sc, Policy("coud"))
    assert out["optimizer"]["lam"] > 0
    assert out["pf"]["lambda_min_direction"] == min(out["pf"]["lambda_ul"],
                                                    out["pf"]["lambda_dl"])
    assert out["optimizer"]["lam"] >= out["pf"]["lambda_min_direction"]
