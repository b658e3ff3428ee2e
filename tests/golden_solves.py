"""Golden outputs: the solver's results on a fixed case list.

``tests/golden/solves.json`` holds, per case, the utilities, the constraint
values, the stopping stage, convergence, the per-stage iteration counts and
three scalar digests of the allocation (``sum(w)``, ``sum(p)``, ``w . p``).
``tests/test_golden.py`` re-solves every case and requires equal steps,
convergence flags and iteration counts, and every float within 1e-12
relative.  Scalars keep the file small and the check independent of the
BLAS build.

A change that moves outputs on purpose regenerates the file, from the
repository root:

    PYTHONPATH=src python -m tests.golden_solves

Regeneration keeps every committed record that the check accepts, so only
the records a change moved beyond the tolerance (or added) are rewritten,
whatever the host's last digits.
"""

from __future__ import annotations

import json
import math
import pathlib

import numpy as np

from flexlink import experiments
from flexlink.association import Policy, associate
from flexlink.interference import Problem
from flexlink.optimizer import SolveOptions, minimize_power, optimize
from flexlink.scenario import ScenarioConfig, generate, uniform_overlap

PATH = pathlib.Path(__file__).resolve().parent / "golden" / "solves.json"
RTOL = 1e-12
MODES = ("per_link", "cell_specific")
STUDY_SEEDS = range(6)
STUDY_POLICIES = ("coud", "deud-p", "deud-o:21", "deud-o:49")
STUDY_THETAS = (1.0, 1e-3, 3.16e-5)
SWEEP_CONFIG = ScenarioConfig(macro_rows=3, macro_cols=4, n_pico=6, n_ue=300)
SWEEP_SEED = 1
SWEEP_THETAS = np.logspace(-6, 0, 13)
TRIAL_SEEDS = range(4)
THETA_STUDY = ((1e-2, 1e-1, 1.0), (-100.0, -112.0))
# minimize_power needs a utility above 1: a light venue (the CLI smoke's)
LIGHT_CONFIG = ScenarioConfig(macro_rows=2, macro_cols=3, n_pico=3, n_ue=4, isd_m=20.0,
                              service_mix=(0.0, 0.0, 0.0, 0.0, 1.0), noise_psd_dbm=-112.0)
MIN_POWER_CASES = (("coud", 3), ("deud-p", 5))  # (policy, light venue seed)


def _partial(scenario):
    return uniform_overlap(scenario.n_bs, experiments.DEFAULT_HISTORY_UL,
                           experiments.DEFAULT_HISTORY_DL)


def solution_record(sol) -> dict:
    """The digest of one ``Solution``, with every S1 iteration counted
    (S2's re-solves too) from the full trace."""
    boundary = {row[0]: row[1] for row in sol.trace.rows if row[6]}
    s1_total = sum(1 for row in sol.trace.rows if row[0] == "s1" and not row[6])
    w, p = np.asarray(sol.w), np.asarray(sol.p)
    return {
        "lam": sol.lam, "lam_ul": sol.lam_ul, "lam_dl": sol.lam_dl,
        "lam_solver": float(sol.lam_solver), "g1": sol.g1, "g2": sol.g2,
        "step": sol.step, "converged": sol.converged,
        "iters": [boundary.get("s1", 0), boundary.get("s2", 0), boundary.get("s3", 0),
                  s1_total],
        "sum_w": float(w.sum()), "sum_p": float(p.sum()), "w_dot_p": float(w @ p),
    }


def cases():
    """``(name, compute)`` for every case; ``compute()`` returns its record."""
    for seed in STUDY_SEEDS:
        scenario = generate(experiments.STUDY_CONFIG, seed)
        for overlap_name, overlap in (("full", None), ("pairwise", _partial(scenario))):
            for text in STUDY_POLICIES:
                for mode in MODES:
                    for theta in STUDY_THETAS:
                        opts = SolveOptions(power_mode=mode, theta=theta)
                        yield (f"study seed={seed} {text} {mode} {overlap_name} theta={theta:g}",
                               lambda s=scenario, t=text, o=opts, ov=overlap: solution_record(
                                   optimize(s, Policy.parse(t), o, overlap=ov)))
    sweep = generate(SWEEP_CONFIG, SWEEP_SEED)
    for mode in MODES:
        for theta in SWEEP_THETAS:
            opts = SolveOptions(power_mode=mode, theta=float(theta))
            yield (f"sweep K=300 {mode} theta={theta:.3g}",
                   lambda o=opts: solution_record(optimize(sweep, Policy.parse("deud-p"), o)))
    for seed in TRIAL_SEEDS:
        yield (f"run_trial seed={seed}",
               lambda s=seed: experiments.run_trial(experiments.STUDY_CONFIG, s))
    study0 = generate(experiments.STUDY_CONFIG, 0)
    for text in ("coud", "deud-p"):
        yield (f"compare_pf seed=0 {text}",
               lambda t=text: experiments.compare_pf(study0, Policy.parse(t)))
    for mode in MODES:
        yield (f"run_theta_sweep seed=0 deud-p {mode}",
               lambda m=mode: experiments.run_theta_sweep(
                   study0, Policy.parse("deud-p"), *THETA_STUDY,
                   SolveOptions(power_mode=m, trace_mode="boundary")))
    for text, seed in MIN_POWER_CASES:
        yield (f"minimize_power seed={seed} {text}", lambda t=text, s=seed: _min_power(t, s))


def _min_power(text, seed) -> dict:
    scenario = generate(LIGHT_CONFIG, seed)
    policy = Policy.parse(text)
    sol = optimize(scenario, policy)
    res = minimize_power(Problem.from_scenario(scenario, associate(policy, scenario)),
                         sol.w, sol.p)
    return {"solve_lam": sol.lam, "lam": res.lam, "psi_before": res.psi_before,
            "psi_after": res.psi_after, "saving_ratio": res.saving_ratio,
            "iterations": res.fixed_point.iterations, "sum_p": float(res.p_min.sum())}


def mismatches(path, want, got) -> list[str]:
    """Where ``got`` differs from the record ``want``: keys, lengths, types,
    steps, flags and counts exactly, floats beyond ``RTOL`` relative."""
    if isinstance(want, dict) and isinstance(got, dict):
        if sorted(want) != sorted(got):
            return [f"{path}: keys {sorted(want)} != {sorted(got)}"]
        return [m for key in want for m in mismatches(f"{path}.{key}", want[key], got[key])]
    if isinstance(want, list) and isinstance(got, (list, tuple)):
        if len(want) != len(got):
            return [f"{path}: length {len(want)} != {len(got)}"]
        return [m for i, (a, b) in enumerate(zip(want, got))
                for m in mismatches(f"{path}[{i}]", a, b)]
    if isinstance(want, float) and not isinstance(got, (bool, str)):
        same = (math.isnan(want) and math.isnan(got)) or want == got \
            or abs(got - want) <= RTOL * abs(want)
        return [] if same else [f"{path}: {got!r} != {want!r}"]
    return [] if want == got and type(want) is type(got) else [f"{path}: {got!r} != {want!r}"]


def computed_records() -> dict:
    """Every case's record, as the file stores it."""
    return {name: json.loads(json.dumps(compute())) for name, compute in cases()}


def merged(committed: dict, computed: dict) -> dict:
    """``computed``, keeping each committed record the check accepts."""
    return {name: committed[name] if name in committed
            and not mismatches(name, committed[name], rec) else rec
            for name, rec in computed.items()}


def render(records: dict) -> str:
    return "{\n" + ",\n".join(f"{json.dumps(name)}: {json.dumps(rec, sort_keys=True)}"
                               for name, rec in records.items()) + "\n}\n"


def main():
    committed = json.loads(PATH.read_text()) if PATH.exists() else {}
    records = merged(committed, computed_records())
    PATH.parent.mkdir(exist_ok=True)
    PATH.write_text(render(records))
    moved = sum(records[name] is not committed.get(name) for name in records)
    print(f"wrote {len(records)} cases to {PATH}, {moved} new or moved")


if __name__ == "__main__":
    main()
