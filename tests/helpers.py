"""Shared fixtures: hand-built scenarios and random problem factories."""

import numpy as np

from flexlink.interference import Problem
from flexlink.model import Association, BaseStation, Scenario, UserTerminal
from flexlink.optimizer import SolveOptions, solve_problems

RB_COUNT = 25
RB_BW = 180e3
NOISE = 1e-13


def make_scenario(h0, h1, h2, demands, rb_count=RB_COUNT, rb_bandwidth=RB_BW,
                  noise_psd=NOISE, ue_power_w=0.1585, bs_power_w=19.95, kinds=None):
    n, k = np.asarray(h0).shape
    kinds = kinds or ["macro"] * n
    bs = [BaseStation(position=(100.0 * i, 0.0), kind=kinds[i], max_power_w=bs_power_w)
          for i in range(n)]
    ue = [UserTerminal(position=(10.0 * j, 50.0), service_class=0, max_power_w=ue_power_w)
          for j in range(k)]
    return Scenario(bs_list=bs, ue_list=ue, h0=h0, h1=h1, h2=h2,
                    demands=np.asarray(demands, dtype=float),
                    rb_count=rb_count, rb_bandwidth=rb_bandwidth, noise_psd=noise_psd)


def two_cell_scenario():
    """Two macro cells, two UEs, hand-set gains; UE j is served by BS j under
    best-gain association."""
    h0 = np.array([[1e-7, 2e-8], [5e-9, 3e-7]])
    h1 = np.array([[1.0, 4e-9], [4e-9, 1.0]])
    h2 = np.array([[1.0, 6e-8], [6e-8, 1.0]])
    demands = np.array([5e6, 8e6, 2e7, 1e7])
    return make_scenario(h0, h1, h2, demands)


def coud_assoc(scenario):
    from flexlink.association import Policy, associate

    return associate(Policy("coud"), scenario)


def single_link_scenario(demand_ul=5e6, demand_dl=2e7, gain_ul=1e-8, gain_dl=1e-8,
                         ue_power_w=0.1585, bs_power_w=19.95, noise_psd=NOISE):
    """One BS, one UE: both links are interference-free (single cell)."""
    h0 = np.array([[max(gain_ul, gain_dl)]])
    sc = make_scenario(h0, np.array([[1.0]]), np.array([[1.0]]),
                       [demand_ul, demand_dl], ue_power_w=ue_power_w,
                       bs_power_w=bs_power_w, noise_psd=noise_psd)
    return sc


def random_scenario(seed, n_ue=4, n_bs=2, demand_scale=1e7, noise_psd=NOISE):
    """Random positive gains with the required symmetry, moderate demands."""
    rng = np.random.default_rng(seed)
    h0 = 10 ** rng.uniform(-11, -7, size=(n_bs, n_ue))
    h1 = 10 ** rng.uniform(-12, -9, size=(n_bs, n_bs))
    h1 = np.sqrt(h1 * h1.T)
    np.fill_diagonal(h1, 1.0)
    h2 = 10 ** rng.uniform(-12, -9, size=(n_ue, n_ue))
    h2 = np.sqrt(h2 * h2.T)
    np.fill_diagonal(h2, 1.0)
    demands = demand_scale * 10 ** rng.uniform(-1, 0.5, size=2 * n_ue)
    return make_scenario(h0, h1, h2, demands, noise_psd=noise_psd)


def random_problem(seed, n_ue=4, n_bs=2, coud=False, **kw):
    scenario = random_scenario(seed, n_ue=n_ue, n_bs=n_bs, **kw)
    rng = np.random.default_rng(seed + 917)
    if coud:
        b_dl = b_ul = rng.integers(0, n_bs, size=n_ue)
    else:
        b_ul = rng.integers(0, n_bs, size=n_ue)
        b_dl = rng.integers(0, n_bs, size=n_ue)
    assoc = Association(b_ul=b_ul, b_dl=b_dl, n_bs=n_bs)
    return scenario, assoc, Problem.from_scenario(scenario, assoc)


def solve_assoc(scenario, assoc, opts=SolveOptions(), overlap=None):
    """The solution of ``scenario`` under the given association ``assoc``."""
    return solve_problems([Problem.from_scenario(scenario, assoc, overlap, opts.theta)], opts)[0]


def boundary_lambdas(trace):
    """The utilities of a ``SolveTrace``'s stage-boundary rows, in order."""
    return [row[2] for row in trace.rows if row[6]]


def assoc_problem(assoc, seed=0):
    """The problem of a random scenario under a given association."""
    scenario = random_scenario(seed, n_ue=assoc.n_ue, n_bs=assoc.n_bs)
    return Problem.from_scenario(scenario, assoc)


def yates_iterates(f, x0, n):
    """The ``n`` iterates ``f(x0), f(f(x0)), ...`` of the plain update."""
    xs = [np.asarray(x0, dtype=float)]
    for _ in range(n):
        xs.append(f(xs[-1]))
    return xs[1:]


def random_wp(seed, n_links, w_lo=0.02, w_hi=0.6, p_lo=1e-5, p_hi=1e-2):
    rng = np.random.default_rng(seed)
    w = rng.uniform(w_lo, w_hi, size=n_links)
    p = 10 ** rng.uniform(np.log10(p_lo), np.log10(p_hi), size=n_links)
    return w, p


def renumber(scenario, rng):
    """The same venue with its UEs and BSs renumbered by permutations drawn
    from ``rng``: an equivalent problem with different input arrays."""
    k = scenario.n_ue
    ue = rng.permutation(k)
    bs = rng.permutation(scenario.n_bs)
    return Scenario(
        bs_list=[scenario.bs_list[i] for i in bs],
        ue_list=[scenario.ue_list[j] for j in ue],
        h0=scenario.h0[np.ix_(bs, ue)],
        h1=scenario.h1[np.ix_(bs, bs)],
        h2=scenario.h2[np.ix_(ue, ue)],
        demands=np.concatenate([scenario.demands[:k][ue], scenario.demands[k:][ue]]),
        rb_count=scenario.rb_count, rb_bandwidth=scenario.rb_bandwidth,
        noise_psd=scenario.noise_psd,
    )
