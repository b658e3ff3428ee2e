"""The benchmark's three workloads.

Each workload builds its inputs from the run's seed, then runs whole rounds
of the same operations.  Every operation is timed on its own and checked:
solver outputs by the independent checker (``checker.py``), study outputs by
the properties the program guarantees (row counts, convergence, aggregates
recomputed from the rows, determinism, the policy identities, a utility
nondecreasing in the power budget).

* ``mc-study``: ``flexlink montecarlo`` on the reference study venue, run
  in-process through ``flexlink.cli.main``.  Many small solves; per-call
  overhead dominates.
* ``venue-large``: deud-p solves on K=1000 venues in both power modes.  Dense
  2K x 2K kernels and memory dominate; no problem repeats.
* ``budget-sweep``: deud-p solves over a log grid of power budgets and the
  theta study of ``experiments.run_theta_sweep`` on K=300 venues.  The only
  workload reaching tight budgets (S2) and the per-transmitter maps.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io as text_io
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

import flexlink
from flexlink import cli, experiments
from flexlink.association import COUD, DEUD_O, DEUD_P, SWEEP_OFFSETS_DB
from flexlink.errors import DomainError

import checker
from reference import Reference

MODES = ("per_link", "cell_specific")


@dataclass
class Tally:
    """Operations attempted, completed and failed, with their timings."""

    workload: str
    seed: int
    reference: Reference
    attempted: int = 0
    completed: int = 0   # returned a result (a failed check still completes)
    failed: int = 0
    unexpected: int = 0  # failures not caused by the two known program faults
    busy_s: float = 0.0  # summed wall time of the timed operations
    # solve times per problem group (a venue, a budget point), by power mode
    solve_s: dict = field(default_factory=dict)
    cell_solve_s: dict = field(default_factory=dict)
    lambdas: list = field(default_factory=list)  # this round's, for the digest

    def solve_time(self, mode: str, group, elapsed: float):
        target = self.cell_solve_s if mode == "cell_specific" else self.solve_s
        target.setdefault(group, []).append(elapsed)

    def fail(self, check: str, known: bool = False, **where):
        self.failed += 1
        self.unexpected += int(not known)
        fields = {"workload": self.workload, "seed": self.seed, **where}
        print("FAILED " + " ".join(f"{k}={v}" for k, v in fields.items())
              + f" check={check}" + ("" if known else " (unexpected)"), flush=True)

    def round_digest(self) -> str:
        digest = hashlib.sha256(",".join(repr(float(x)) for x in self.lambdas).encode())
        self.lambdas.clear()
        return digest.hexdigest()[:16]


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


def untraced(tracer):
    return tracer.paused() if tracer is not None else contextlib.nullcontext()


def raw_problem(scenario, assoc, theta: float, overlap) -> checker.RawProblem:
    """The checker's view of a problem: the scenario's raw arrays only."""
    return checker.RawProblem(
        h0=scenario.h0, h1=scenario.h1, h2=scenario.h2,
        noise_psd=scenario.noise_psd, demands=scenario.demands,
        rb_count=scenario.rb_count, rb_bandwidth=scenario.rb_bandwidth,
        ue_budget_w=np.array([u.max_power_w for u in scenario.ue_list]) * theta,
        bs_budget_w=np.array([b.max_power_w for b in scenario.bs_list]) * theta,
        b_ul=assoc.b_ul, b_dl=assoc.b_dl,
        overlap=None if overlap is None else (overlap.scheme, overlap.load_ul, overlap.load_dl),
    )


def solution_failures(scenario, assoc, theta, overlap, sol, mode) -> list[str]:
    failures = [] if sol.converged else ["not_converged"]
    return failures + checker.check_solution(
        raw_problem(scenario, assoc, theta, overlap), sol.w, sol.p, sol.g1, sol.g2,
        sol.lam, cell_specific=mode == "cell_specific")


class McStudy:
    """``flexlink montecarlo`` on ``experiments.STUDY_CONFIG``.

    A round is one CLI invocation of ``TRIALS`` trials.  Its checks: exit
    code 0; ``trials.csv`` holds TRIALS x 27 converged rows; the
    ``summary.json`` per-offset means and ``best_over_coud`` recompute from
    the rows; every trial's offset-0 and offset-13 rows equal fresh coud and
    deud-p solves bit for bit (policy identities and determinism), and those
    solves pass the checker; two sampled rows per round re-solve bit for bit.
    A cell-specific deud-p solve per trial is timed and checked as well.
    Trials are the counted operations; a trial failing any check fails.
    """

    name = "mc-study"
    TRIALS = 10
    SAMPLED_ROWS = 2

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.config_path = os.path.join(workdir, "study_config.json")
        config = dataclasses.asdict(experiments.STUDY_CONFIG)
        with open(self.config_path, "w") as fh:
            json.dump({k: list(v) if isinstance(v, tuple) else v for k, v in config.items()}, fh)
        self.overlap_loads = (experiments.DEFAULT_HISTORY_UL, experiments.DEFAULT_HISTORY_DL)
        self.offsets = [f"{o:g}" for o in SWEEP_OFFSETS_DB]

    def run_round(self, r: int, tally: Tally, tracer):
        seed_base = self.seed * 1_000_000 + r * self.TRIALS
        out_dir = os.path.join(self.workdir, f"mc-{r}")
        argv = ["montecarlo", "--config", self.config_path, "--trials", str(self.TRIALS),
                "--seed-base", str(seed_base), "--workers", "1", "--out", out_dir]
        tally.reference.run()
        with contextlib.redirect_stdout(text_io.StringIO()):
            rc, elapsed = timed(cli.main, argv)
        tally.attempted += self.TRIALS
        tally.busy_s += elapsed
        if rc != 0:
            for t in range(self.TRIALS):
                tally.fail(f"exit_code {rc}", round=r, trial_seed=seed_base + t)
            return
        tally.completed += self.TRIALS
        with untraced(tracer):
            self._check(r, seed_base, out_dir, tally)

    def _check(self, r, seed_base, out_dir, tally):
        with open(os.path.join(out_dir, "trials.csv")) as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        with open(os.path.join(out_dir, "summary.json")) as fh:
            summary = json.load(fh)
        problems = {t: [] for t in range(self.TRIALS)}
        by_trial = {t: {} for t in range(self.TRIALS)}
        for row in rows:
            t = int(row["trial"])
            if t not in by_trial or int(row["seed"]) != seed_base + t:
                continue
            by_trial[t][row["offset_db"]] = row
            tally.lambdas.append(float(row["lam"]))
        for t, cells in by_trial.items():
            if sorted(cells, key=float) != self.offsets or len(rows) != self.TRIALS * len(self.offsets):
                problems[t].append(f"rows {len(cells)} of {len(self.offsets)}, total {len(rows)}")
                continue
            for off, row in cells.items():
                if row["converged"] != "1":
                    problems[t].append(f"not_converged offset={off}")
                lam, lam_ul, lam_dl = (float(row[k]) for k in ("lam", "lam_ul", "lam_dl"))
                if checker.rel_diff(lam, min(lam_ul, lam_dl)) > 1e-12:
                    problems[t].append(f"lam_not_min_direction offset={off}")
        if not any(problems.values()):
            for name in self._summary_mismatches(by_trial, summary["aggregate"]):
                for t in problems:
                    problems[t].append(name)

        picks = np.random.default_rng([self.seed, r]).choice(
            self.TRIALS * len(self.offsets), self.SAMPLED_ROWS, replace=False)
        sampled = [divmod(int(i), len(self.offsets)) for i in picks]
        sampled = [(t, self.offsets[o]) for t, o in sampled]
        for t in range(self.TRIALS):
            if not problems[t]:
                problems[t] += self._resolve(seed_base + t, by_trial[t],
                                             [off for tt, off in sampled if tt == t], tally)
            for problem in problems[t]:
                tally.fail(problem, round=r, trial_seed=seed_base + t)
                break

    def _summary_mismatches(self, by_trial, aggregate):
        lams = {off: [float(by_trial[t][off]["lam"]) for t in sorted(by_trial)]
                for off in self.offsets}
        bad = [f"summary_mean offset={off}" for off in self.offsets
               if checker.rel_diff(float(np.mean(lams[off])),
                                   aggregate["per_offset"][off]["mean_lam"]) > 1e-12]
        best = [max(lams[off][i] for off in self.offsets) for i in range(len(by_trial))]
        if checker.rel_diff(float(np.mean(best)) / float(np.mean(lams["0"])),
                            aggregate["best_over_coud"]) > 1e-12:
            bad.append("summary_best_over_coud")
        return bad

    def _resolve(self, trial_seed, cells, sampled_offsets, tally) -> list[str]:
        """Re-solve the trial's identity rows and sampled rows; check them."""
        scenario = flexlink.generate(experiments.STUDY_CONFIG, trial_seed)
        overlap = flexlink.uniform_overlap(scenario.n_bs, *self.overlap_loads)
        problems = []
        cases = [("0", flexlink.Policy(COUD), True), ("13", flexlink.Policy(DEUD_P), True)]
        cases += [(off, flexlink.Policy(DEUD_O, offset_db=float(off)), False)
                  for off in sampled_offsets]
        for off, policy, check in cases:
            sol, elapsed = timed(flexlink.optimize, scenario, policy, experiments.MC_OPTS,
                                 overlap=overlap)
            tally.solve_time("per_link", policy.label if check else "sampled", elapsed)
            tally.lambdas.append(sol.lam)
            if sol.lam != float(cells[off]["lam"]):
                problems.append(f"resolve_not_identical policy={policy.label} offset={off}")
            if check:
                assoc = flexlink.associate(policy, scenario)
                problems += [f"{p} policy={policy.label}" for p in solution_failures(
                    scenario, assoc, 1.0, overlap, sol, "per_link")]
        policy = flexlink.Policy(DEUD_P)
        opts = dataclasses.replace(experiments.MC_OPTS, power_mode="cell_specific")
        sol, elapsed = timed(flexlink.optimize, scenario, policy, opts, overlap=overlap)
        tally.solve_time("cell_specific", policy.label, elapsed)
        tally.lambdas.append(sol.lam)
        problems += [f"{p} policy=deud-p mode=cell_specific" for p in solution_failures(
            scenario, flexlink.associate(policy, scenario), 1.0, overlap, sol, "cell_specific")]
        return problems


def renumber(scenario, rng):
    """The same venue with its UEs and BSs renumbered: an equivalent problem
    with different input arrays."""
    k = scenario.n_ue
    ue = rng.permutation(k)
    bs = rng.permutation(scenario.n_bs)
    return flexlink.Scenario(
        bs_list=[scenario.bs_list[i] for i in bs],
        ue_list=[scenario.ue_list[j] for j in ue],
        h0=scenario.h0[np.ix_(bs, ue)],
        h1=scenario.h1[np.ix_(bs, bs)],
        h2=scenario.h2[np.ix_(ue, ue)],
        demands=np.concatenate([scenario.demands[:k][ue], scenario.demands[k:][ue]]),
        rb_count=scenario.rb_count, rb_bandwidth=scenario.rb_bandwidth,
        noise_psd=scenario.noise_psd,
    )


class VenueLarge:
    """deud-p ``optimize`` on K=1000 venues (3 x 4 macros, 6 picos, default
    radio parameters, no overlap), once per power mode, recording the trace
    at stage boundaries as the Monte Carlo study does.

    Solve time varies about 2x between independently drawn K=1000 venues, far
    more than any bound worth keeping, so a round solves the same three base
    venues (scenario seeds 0, 1, 2), each renumbered by a permutation drawn
    from the run seed.  Every solve sees new input arrays.  A renumbered
    venue is the same problem, so its lambda must equal the first round's to
    1e-9 relative.
    """

    name = "venue-large"
    CONFIG = flexlink.ScenarioConfig(macro_rows=3, macro_cols=4, n_pico=6, n_ue=1000)
    BASE_SEEDS = (0, 1, 2)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.bases = [flexlink.generate(self.CONFIG, s) for s in self.BASE_SEEDS]
        self.first_lambda = {}

    def run_round(self, r: int, tally: Tally, tracer):
        policy = flexlink.Policy(DEUD_P)
        for b, base in enumerate(self.bases):
            scenario = renumber(base, np.random.default_rng([self.seed, r, b]))
            tally.reference.run()
            for mode in MODES:
                opts = flexlink.SolveOptions(power_mode=mode, trace_mode="boundary")
                sol, elapsed = timed(flexlink.optimize, scenario, policy, opts)
                tally.attempted += 1
                tally.completed += 1
                tally.busy_s += elapsed
                tally.solve_time(mode, self.BASE_SEEDS[b], elapsed)
                tally.lambdas.append(sol.lam)
                with untraced(tracer):
                    assoc = flexlink.associate(policy, scenario)
                    problems = solution_failures(scenario, assoc, 1.0, None, sol, mode)
                first = self.first_lambda.setdefault((b, mode), sol.lam)
                if checker.rel_diff(sol.lam, first) > checker.MATCH_RTOL:
                    problems.append(f"renumbered_lambda {sol.lam!r} != {first!r}")
                for problem in problems:
                    tally.fail(problem, round=r, venue=self.BASE_SEEDS[b], mode=mode, theta=1)


class BudgetSweep:
    """Power-budget workload on K=300 venues (3 x 4 macros, 6 picos).

    A round runs, in both power modes, deud-p ``optimize`` over a theta grid
    and ``experiments.run_theta_sweep`` (theta 0.01..1, four noise floors,
    one call per floor), on two venues:

    * the fixed venue (scenario seed 1, unchanged in every run): the full
      grid 1e-6..1 and the theta study in both modes.  Two program faults
      fail here on every round: S3 stops on an absolute PSD step (``tol_p``)
      at tight budgets and leaves per-link QoS levels apart by more than
      1e-3; ``run_theta_sweep`` never passes ``p_bar0`` in cell-specific mode
      and raises ``DomainError``.  Their inputs do not depend on the seed, so
      the failed share is the same in every run.
    * scenario seed 0 renumbered by a permutation drawn from the run seed and
      the round (see ``renumber``): the grid 0.01..1 and the per-link theta
      study, where no solve fails.  Solve times differ up to 1.6x between
      independently drawn K=300 venues, which spread the run's rates by 18%.

    The counted operations are budget points: one theta x mode ``optimize``,
    or one theta x noise point of the theta study.
    """

    name = "budget-sweep"
    CONFIG = flexlink.ScenarioConfig(macro_rows=3, macro_cols=4, n_pico=6, n_ue=300)
    FIXED_SEED = 1
    RENUMBERED_SEED = 0
    FIXED_GRID = np.logspace(-6, 0, 13)
    RENUMBERED_GRID = np.logspace(-2, 0, 5)
    STUDY_THETAS = np.logspace(-2, 0, 5)
    NOISE_DBM = (-70.0, -80.0, -100.0, -121.45)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.fixed = flexlink.generate(self.CONFIG, self.FIXED_SEED)
        self.base = flexlink.generate(self.CONFIG, self.RENUMBERED_SEED)

    def run_round(self, r: int, tally: Tally, tracer):
        renumbered = renumber(self.base, np.random.default_rng([self.seed, r]))
        self._grid("fixed", self.fixed, self.FIXED_GRID, r, tally, tracer)
        self._study("fixed", self.fixed, MODES, r, tally)
        self._grid("renumbered", renumbered, self.RENUMBERED_GRID, r, tally, tracer)
        self._study("renumbered", renumbered, ("per_link",), r, tally)

    def _grid(self, venue, scenario, thetas, r, tally, tracer):
        tally.reference.run()
        policy = flexlink.Policy(DEUD_P)
        with untraced(tracer):
            assoc = flexlink.associate(policy, scenario)
        for mode in MODES:
            for theta in thetas:
                opts = flexlink.SolveOptions(power_mode=mode, theta=float(theta),
                                             trace_mode="boundary")
                sol, elapsed = timed(flexlink.optimize, scenario, policy, opts)
                tally.attempted += 1
                tally.completed += 1
                tally.busy_s += elapsed
                tally.solve_time(mode, f"{venue} theta={theta:.3g}", elapsed)
                tally.lambdas.append(sol.lam)
                with untraced(tracer):
                    failures = solution_failures(scenario, assoc, float(theta), None, sol, mode)
                for problem in failures:
                    known = problem.startswith("qos_spread") and sol.step == "s3"
                    tally.fail(problem, known=known, round=r, venue=venue, mode=mode,
                               theta=f"{theta:.3g}", step=sol.step)

    def _study(self, venue, scenario, modes, r, tally):
        tally.reference.run()
        policy = flexlink.Policy(DEUD_P)
        points = len(self.STUDY_THETAS)
        for mode in modes:
            opts = dataclasses.replace(experiments.MC_OPTS, power_mode=mode)
            for noise in self.NOISE_DBM:
                tally.attempted += points
                start = time.perf_counter()
                try:
                    rows = experiments.run_theta_sweep(scenario, policy, self.STUDY_THETAS,
                                                       [noise], opts)
                except DomainError as exc:
                    tally.busy_s += time.perf_counter() - start
                    known = mode == "cell_specific" and "p_bar0" in str(exc)
                    for theta in self.STUDY_THETAS:
                        tally.fail(f"DomainError: {exc}", known=known, round=r, venue=venue,
                                   mode=mode, noise_dbm=noise, theta=f"{theta:.3g}")
                    continue
                tally.busy_s += time.perf_counter() - start
                tally.completed += points
                lams = [row["lam"] for row in rows]
                tally.lambdas += lams
                bad = set(checker.check_nondecreasing(self.STUDY_THETAS, lams))
                for i, (theta, row) in enumerate(zip(self.STUDY_THETAS, rows)):
                    problem = None
                    if len(rows) != points or row["theta"] != float(theta):
                        problem = f"rows {len(rows)} of {points}"
                    elif not row["converged"]:
                        problem = "not_converged"
                    elif not (np.isfinite(row["lam"]) and row["lam"] > 0):
                        problem = f"lambda {row['lam']!r}"
                    elif i in bad:
                        problem = f"lambda_decreased_in_theta {lams[i - 1]!r} -> {lams[i]!r}"
                    if problem:
                        tally.fail(problem, round=r, venue=venue, mode=mode,
                                   noise_dbm=noise, theta=f"{theta:.3g}")


WORKLOADS = {w.name: w for w in (McStudy, VenueLarge, BudgetSweep)}
