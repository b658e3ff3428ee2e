"""Monte Carlo harness: determinism, aggregation, confidence intervals."""

import dataclasses
import itertools

import numpy as np
import pytest

import flexlink.experiments as experiments
from flexlink import io
from flexlink.association import Policy, associate, associate_all, policy_sweep
from flexlink.interference import Problem
from flexlink.optimizer import optimize, solve_problems
from flexlink.pf_baseline import pf_allocate
from flexlink.scenario import ScenarioConfig, generate, uniform_overlap

from .oracles import run_trial_loop

TINY = ScenarioConfig(macro_rows=1, macro_cols=2, n_pico=1, n_ue=6,
                      isd_m=20.0, service_mix=(0.0, 0.2, 0.0, 0.1, 0.7),
                      noise_psd_dbm=-112.0)


def test_single_trial_structure():
    res = experiments.run_trial(TINY, seed=4)
    assert set(res["partial"]) == {f"{o:g}" for o in
                                   [0] + list(range(1, 52, 2))}
    assert res["best_offset"] in res["partial"]
    assert set(res["full"]) == {"coud", "deud_p", "best"}
    assert res["full"]["best"] > 0
    assert all(v["converged"] for v in res["partial"].values())


@pytest.mark.parametrize("seed", [1, 2, 2824])
def test_trial_equals_one_solve_per_policy(seed):
    assert experiments.run_trial(experiments.STUDY_CONFIG, seed) == \
        run_trial_loop(experiments.STUDY_CONFIG, seed)


def _counting_solves(monkeypatch):
    """Replace ``experiments.solve_problems`` with a wrapper; returns the list
    of batches it is called with, each a list of problems."""
    calls = []

    def counted(problems, *args):
        calls.append(list(problems))
        return solve_problems(problems, *args)

    monkeypatch.setattr(experiments, "solve_problems", counted)
    return calls


@pytest.mark.parametrize("seed", [1, 2])
def test_trial_solves_each_association_once_per_arm(monkeypatch, seed):
    calls = _counting_solves(monkeypatch)
    res = experiments.run_trial(experiments.STUDY_CONFIG, seed)
    scenario = generate(experiments.STUDY_CONFIG, seed)
    arms = {
        True: policy_sweep(),  # partial overlap
        False: [Policy("coud"), Policy("deud_p"),
                Policy("deud_o", offset_db=float(res["best_offset"]))],
    }
    # one batch per arm; a problem's rows tell whether the overlap model was applied
    solved = [(tuple(pr.assoc.b_ul), tuple(pr.assoc.b_dl),
               not np.array_equal(pr.rows, Problem.from_scenario(scenario, pr.assoc).rows))
              for batch in calls for pr in batch]
    assert [{c[2] for c in solved[:len(calls[0])]}, {c[2] for c in solved[len(calls[0]):]}] == \
        [{True}, {False}]
    assert len(solved) == len(set(solved))
    for partial, policies in arms.items():
        distinct = {(tuple(a.b_ul), tuple(a.b_dl))
                    for a in (associate(pol, scenario) for pol in policies)}
        assert {c[:2] for c in solved if c[2] == partial} == distinct
    assert sum(c[2] for c in solved) < len(arms[True])  # the sweep does repeat


def test_chunk_solves_each_arm_as_one_batch(monkeypatch):
    """A chunk of trials makes two solves: every trial's distinct partial-overlap
    problems, once each and trial after trial, then every trial's full-overlap
    problems."""
    calls = _counting_solves(monkeypatch)
    seeds = range(3, 3 + experiments.trials_per_chunk(experiments.STUDY_CONFIG))
    res = experiments.run_policy_study(experiments.STUDY_CONFIG, trials=len(seeds),
                                       seed_base=seeds[0])["trials"]
    expected = [[], []]
    for seed, trial in zip(seeds, res):
        scenario = generate(experiments.STUDY_CONFIG, seed)
        overlap = uniform_overlap(scenario.n_bs, experiments.DEFAULT_HISTORY_UL,
                                  experiments.DEFAULT_HISTORY_DL)
        best = Policy("deud_o", offset_db=float(trial["best_offset"]))
        for arm, (policies, model) in enumerate((
                (policy_sweep() + list(experiments.REFERENCES.values()), overlap),
                ([Policy("coud"), Policy("deud_p"), best], None))):
            distinct = {}
            for pol in policies:
                assoc = associate(pol, scenario)
                distinct.setdefault((assoc.b_ul.tobytes(), assoc.b_dl.tobytes()), assoc)
            expected[arm] += [Problem.from_scenario(scenario, a, model).rows.tobytes()
                              for a in distinct.values()]
    assert [[pr.rows.tobytes() for pr in batch] for batch in calls] == expected


def test_chunk_runs_its_pf_baselines_as_one_batch(monkeypatch):
    """A chunk's PF baselines are one ``pf_allocate_all`` call over its trials'
    full-overlap references, and no ``Problem`` is built through
    ``Problem.__post_init__`` (``dataclasses.replace``) on the way."""
    batches, post_inits = [], []
    real_batch, real_post_init = experiments.pf_allocate_all, Problem.__post_init__

    def batched(problems, *args):
        batches.append(list(problems))
        return real_batch(problems, *args)

    def post_init(problem):
        post_inits.append(problem)
        real_post_init(problem)

    monkeypatch.setattr(experiments, "pf_allocate_all", batched)
    monkeypatch.setattr(Problem, "__post_init__", post_init)
    seeds = range(40, 40 + experiments.trials_per_chunk(experiments.STUDY_CONFIG))
    res = experiments.run_trials(experiments.STUDY_CONFIG, seeds)
    assert [len(batch) for batch in batches] == [2 * len(seeds)] and post_inits == []
    maps = lambda assocs: [(a.b_ul.tolist(), a.b_dl.tolist()) for a in assocs]
    for trial, pair in zip(res, zip(*[iter(batches[0])] * 2)):  # each trial's references
        scenario = generate(experiments.STUDY_CONFIG, trial["seed"])
        assert maps(pr.assoc for pr in pair) == \
            maps(associate_all(list(experiments.REFERENCES.values()), scenario))
    dataclasses.replace(batches[0][0])  # the counter sees a derived problem
    assert len(post_inits) == 1


@pytest.mark.parametrize("members", [1, 2])
def test_batches_hold_at_most_the_coupling_cap(monkeypatch, members):
    """Every batch holds at most ``CHUNK_COUPLING_BYTES`` of stacked couplings:
    under a cap of one or two members' couplings a K=30 sweep solves its
    distinct associations in consecutive groups of that size, and every
    ``Solution`` equals the uncapped batch's bit for bit."""
    scenario = generate(experiments.STUDY_CONFIG, 2)
    digest = lambda sol: repr((sol.w.tobytes(), sol.p.tobytes(), sol.lam, sol.lam_ul,
                               sol.lam_dl, sol.lam_solver, sol.step, sol.g1, sol.g2,
                               sol.converged, sol.trace.rows))
    whole = experiments.solve_policies(scenario, policy_sweep(), experiments.MC_OPTS)
    distinct = len({id(sol) for sol in whole})
    side = scenario.n_bs + scenario.n_ue
    monkeypatch.setattr(experiments, "CHUNK_COUPLING_BYTES", members * side * side * 8 + 7)
    calls = _counting_solves(monkeypatch)
    capped = experiments.solve_policies(scenario, policy_sweep(), experiments.MC_OPTS)
    assert [len(batch) for batch in calls] == \
        [members] * (distinct // members) + [distinct % members] * (distinct % members > 0)
    assert list(map(digest, capped)) == list(map(digest, whole))


def test_chunk_sizing():
    """The K=30 study stacks several trials into a batch; a K=300 venue one."""
    assert experiments.trials_per_chunk(experiments.STUDY_CONFIG) > 1
    large = dataclasses.replace(experiments.STUDY_CONFIG, n_ue=300)
    assert experiments.trials_per_chunk(large) == 1


def test_study_does_not_depend_on_chunking():
    """A full chunk and a ragged one of two trials, each trial equal to one
    solve per policy."""
    trials = experiments.trials_per_chunk(experiments.STUDY_CONFIG) + 2
    study = experiments.run_policy_study(experiments.STUDY_CONFIG, trials=trials, seed_base=20)
    assert study["trials"] == [run_trial_loop(experiments.STUDY_CONFIG, seed)
                               for seed in range(20, 20 + trials)]


def test_solve_policies_relabels_repeats(monkeypatch):
    calls = _counting_solves(monkeypatch)
    scenario = generate(experiments.STUDY_CONFIG, 1)
    overlap = uniform_overlap(scenario.n_bs, experiments.DEFAULT_HISTORY_UL,
                              experiments.DEFAULT_HISTORY_DL)
    # deud-o:0 is coud and deud-o:13 is deud-p: two distinct problems, one batch
    policies = [Policy.parse(t) for t in ("coud", "deud-o:0", "deud-o:13", "deud-p", "coud")]
    sols = experiments.solve_policies(scenario, policies, experiments.MC_OPTS, overlap)
    assert [len(batch) for batch in calls] == [2]
    assert sols[0] is sols[1] is sols[4] and sols[2] is sols[3]
    assert sols[0].lam == sols[1].lam == sols[4].lam
    assert sols[2].lam == sols[3].lam
    for pol, sol in zip(policies, sols):
        alone = optimize(scenario, pol, experiments.MC_OPTS, overlap=overlap)
        assoc = associate(pol, scenario)
        meta = {"policy": pol.label, "theta": 1.0}
        assert io.solution_to_dict(sol, assoc, {}, meta) == \
            io.solution_to_dict(alone, assoc, {}, meta)
    assert experiments.solve_policies(scenario, [], experiments.MC_OPTS, overlap) == []


def test_policies_sharing_an_association_share_its_solution():
    """The solver sees associations, not policies: one ``Solution`` per
    distinct association, the same object for every policy that maps to it."""
    scenario = generate(experiments.STUDY_CONFIG, 1)
    policies = policy_sweep() + [Policy.parse("coud"), Policy.parse("deud-p")]
    assocs = associate_all(policies, scenario)
    sols = experiments.solve_policies(scenario, policies, experiments.MC_OPTS)
    for i, j in itertools.combinations(range(len(policies)), 2):
        assert (sols[i] is sols[j]) == (assocs[i] is assocs[j]), (policies[i], policies[j])
    assert len(set(map(id, sols))) == len(set(map(id, assocs))) < len(policies)


def test_deud_p_figures_come_from_the_deud_p_solves():
    """With 33 dBm picos the macro-pico gap is 10 dB, so offset 13 is not
    DeUD-P: the study's DeUD-P figures are those of ``Policy(DEUD_P)`` solved
    under partial overlap (trials 0-2: mean 0.069598; offset 13 gives 0.069792)."""
    config = dataclasses.replace(experiments.STUDY_CONFIG, pico_power_dbm=33.0)
    agg = experiments.run_policy_study(config, trials=3, seed_base=0)["aggregate"]
    partial, full, wins = [], [], []
    for seed in range(3):
        scenario = generate(config, seed)
        overlap = uniform_overlap(scenario.n_bs, experiments.DEFAULT_HISTORY_UL,
                                  experiments.DEFAULT_HISTORY_DL)
        sol = optimize(scenario, Policy("deud_p"), experiments.MC_OPTS, overlap=overlap)
        pf = pf_allocate(Problem.from_scenario(scenario, associate(Policy("deud_p"), scenario)))
        partial.append(sol.lam)
        full.append(optimize(scenario, Policy("deud_p"), experiments.MC_OPTS).lam)
        wins.append(sol.lam > min(pf.lam_ul, pf.lam_dl))
    assert agg["mean_deud_p"] == float(np.mean(partial)) == pytest.approx(0.069598, abs=5e-7)
    assert agg["partial_over_full"]["deud_p"] == {
        "mean_partial": float(np.mean(partial)), "mean_full": float(np.mean(full)),
        "ratio": float(np.mean(partial) / np.mean(full))}
    assert agg["pf_win_fraction"]["deud_p"] == float(np.mean(wins))


def test_study_deterministic_given_seed_base():
    a = experiments.run_policy_study(TINY, trials=3, seed_base=11)
    b = experiments.run_policy_study(TINY, trials=3, seed_base=11)
    assert a["aggregate"] == b["aggregate"]
    c = experiments.run_policy_study(TINY, trials=3, seed_base=12)
    assert c["aggregate"] != a["aggregate"]


def test_mean_ci_width_scales_inverse_sqrt():
    # the halfwidth estimator tracks 1/sqrt(T) within 20% on seeded data
    rng = np.random.default_rng(0)
    data = rng.lognormal(mean=0.0, sigma=0.6, size=4000)
    _, w1 = experiments.mean_ci(data[:500])
    _, w4 = experiments.mean_ci(data[:2000])
    assert w1 / w4 == pytest.approx(2.0, rel=0.2)


def test_study_ci_matches_estimator_on_trial_data():
    # The 1/sqrt(T) width law is asserted on controlled iid data above (the
    # per-trial utility is heavy-tailed enough that its sample sigma needs
    # far more than desk-scale trials to stabilize).  On real study output,
    # verify the reported interval is exactly the estimator applied to the
    # stored per-trial utilities.
    study = experiments.run_policy_study(TINY, trials=8, seed_base=40)
    best = [max(t["partial"][o]["lam"] for o in t["partial"])
            for t in study["trials"]]
    mean, half = experiments.mean_ci(best)
    assert study["aggregate"]["mean_best"] == pytest.approx(mean, rel=1e-12)
    assert study["aggregate"]["ci_best"] == pytest.approx(half, rel=1e-12)
    assert half > 0 and np.isfinite(half)


def test_theta_sweep_rows_cover_grid():
    sc = generate(TINY, seed=1)
    for power_mode in ("per_link", "cell_specific"):
        opts = dataclasses.replace(experiments.MC_OPTS, power_mode=power_mode)
        rows = experiments.run_theta_sweep(sc, Policy("deud_p"), [0.5, 1.0],
                                           [-100.0, -121.45], opts)
        assert len(rows) == 4
        seen = {(r["noise_dbm"], r["theta"]) for r in rows}
        assert seen == {(-100.0, 0.5), (-100.0, 1.0), (-121.45, 0.5), (-121.45, 1.0)}
        assert all(r["converged"] for r in rows)
        for noise in (-100.0, -121.45):
            lams = [r["lam"] for r in rows if r["noise_dbm"] == noise]
            assert lams[1] >= lams[0] - 1e-12


def test_workers_do_not_change_results(monkeypatch):
    a = experiments.run_policy_study(TINY, trials=5, seed_base=5, workers=1)
    # chunks of two trials of TRIAL_COUPLINGS 9 x 9 couplings: the pool maps
    # three chunks, the last one ragged
    monkeypatch.setattr(experiments, "CHUNK_COUPLING_BYTES",
                        2 * experiments.TRIAL_COUPLINGS * 9 * 9 * 8)
    assert experiments.trials_per_chunk(TINY) == 2
    b = experiments.run_policy_study(TINY, trials=5, seed_base=5, workers=2)
    assert a["trials"] == b["trials"]
    assert a["aggregate"] == b["aggregate"]


def test_pool_starts_at_most_one_worker_per_chunk(monkeypatch):
    """A process pool starts all its workers at its first task, so the study
    asks for no more than it has chunks, and a one-chunk study runs in-process."""
    pools = []

    class InProcessPool:  # records the pool size, starts no process
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", InProcessPool)
    size = experiments.trials_per_chunk(experiments.STUDY_CONFIG)
    two = experiments.run_policy_study(experiments.STUDY_CONFIG, trials=size + 2, seed_base=20,
                                       workers=64)
    assert pools == [2]
    one = experiments.run_policy_study(experiments.STUDY_CONFIG, trials=size, seed_base=20,
                                       workers=2)
    assert pools == [2]
    assert one["trials"] == two["trials"][:size]
