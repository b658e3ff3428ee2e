"""Command-line front end.

Subcommands: ``generate``, ``solve``, ``sweep``, ``montecarlo``,
``compare-pf``, ``minimize-power``, ``theta-sweep``.  Exit codes: 0 on
success, 1 on usage or configuration errors, 2 when a solve did not converge.  All outputs embed the
config hash, the seed and the tool version; CSV files carry them in a leading
comment line.
"""

from __future__ import annotations

import errno
import math
import os
import sys

import click

from . import __version__, experiments, io
from .association import DEUD_O, SWEEP_OFFSETS_DB, Policy, associate, equivalent
from .errors import ConfigError, FlexlinkError
from .interference import Problem
from .optimizer import SolveOptions, minimize_power, solve_problems
from .pf_baseline import DEFAULT_PF_SPLIT
from .scenario import generate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_CONVERGED = 2
MAX_OFFSETS = 1000  # entries of one offset list; the paper's set has 27


def parse_offsets(text: str) -> list[float]:
    """Parse ``0,1,3..51`` style offset lists; ``a..b`` steps by 2 by default,
    ``a..b:s`` by ``s``."""
    out: list[float] = []
    for token in filter(None, (t.strip() for t in text.split(","))):
        lo_txt, dots, rest = token.partition("..")
        hi_txt, colon, step_txt = rest.partition(":")
        bad = f"bad offset{' range' if dots else ''} {token!r}"
        try:
            lo, hi, step = map(float, (lo_txt, hi_txt if dots else lo_txt,
                                       step_txt if colon else 2))
        except ValueError as exc:
            raise ConfigError(bad) from exc
        if not all(map(math.isfinite, (lo, hi, step))) or step <= 0 or hi < lo or \
                dots and (lo + step == lo or hi + step == hi):  # a step lost in rounding
            raise ConfigError(bad)
        if len(out) + (hi - lo) / step + 1e-9 >= MAX_OFFSETS:  # counted before it is built
            raise ConfigError(f"more than {MAX_OFFSETS} offsets at {token!r}")
        if not dots:
            out.append(lo)
            continue
        while lo <= hi + 1e-9 * step:  # a billionth of a step past hi: the sum's rounding
            out.append(lo)
            lo += step
    if not out:
        raise ConfigError(f"no offsets in {text!r}")
    return out


def _out_dir(ctx, param, path):
    """``--out``, refused before any work unless its nearest existing ancestor
    (itself, if it exists) is a directory; the check creates nothing."""
    probe = os.path.abspath(path)
    while not os.path.exists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), path)
    return path


@click.group()
@click.version_option(version=__version__)
def cli():
    """Joint uplink/downlink bandwidth and power optimization toolkit."""


@cli.command("generate")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--seed", required=True, type=click.IntRange(min=0))
@click.option("--out", "out_path", required=True, type=click.Path())
def cmd_generate(config_path, seed, out_path):
    """Draw a scenario from a config file and write it as JSON."""
    config = io.load_config(config_path)
    scenario = generate(config, seed)
    meta = {"seed": seed, "config_hash": io.canonical_hash(io.config_to_dict(config))}
    io.write_json(io.scenario_to_dict(scenario, meta=meta), out_path)
    click.echo(f"wrote {out_path}")


@cli.command("solve")
@click.option("--scenario", "scenario_path", required=True, type=click.Path(exists=True))
@click.option("--policy", "policy_text", required=True)
@click.option("--cell-specific", is_flag=True, default=False)
@click.option("--theta", type=float, default=1.0, show_default=True)
@click.option("--overlap", type=click.Choice(sorted(io.OVERLAP_CHOICES)), default="none",
              show_default=True)
@click.option("--overlap-load-ul", type=float, default=experiments.DEFAULT_HISTORY_UL,
              show_default=True)
@click.option("--overlap-load-dl", type=float, default=experiments.DEFAULT_HISTORY_DL,
              show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path(), callback=_out_dir)
def cmd_solve(scenario_path, policy_text, cell_specific, theta, overlap,
              overlap_load_ul, overlap_load_dl, out_dir):
    """Run the three-step optimizer on a stored scenario."""
    scenario_doc, scenario, source = io.read_scenario(scenario_path)
    policy = Policy.parse(policy_text)
    assoc = associate(policy, scenario)
    overlap_model = io.overlap_model(overlap, scenario.n_bs, overlap_load_ul, overlap_load_dl)
    opts = SolveOptions(power_mode="cell_specific" if cell_specific else "per_link",
                        theta=theta)

    solution = solve_problems([Problem.from_scenario(scenario, assoc, overlap_model, theta)],
                              opts)[0]

    os.makedirs(out_dir, exist_ok=True)
    meta = {"policy": policy.label, "theta": theta, "overlap": overlap,
            "tool_version": __version__, **source}
    # the loads let minimize-power rebuild this solve's coupling
    loads = {"overlap_load_ul": overlap_load_ul, "overlap_load_dl": overlap_load_dl}
    doc = io.solution_to_dict(solution, assoc, scenario_doc, meta=meta | loads)
    io.write_json(doc, os.path.join(out_dir, "solution.json"))
    io.write_trace(solution.trace, os.path.join(out_dir, "trace.csv"), meta=meta)
    click.echo(f"lambda={solution.lam:.6g} step={solution.step} "
               f"g1={solution.g1:.6f} g2={solution.g2:.6f} converged={solution.converged}")
    return EXIT_OK if solution.converged else EXIT_NOT_CONVERGED


@cli.command("sweep")
@click.option("--scenario", "scenario_path", required=True, type=click.Path(exists=True))
@click.option("--offsets", "offsets_text", default=",".join(map(str, SWEEP_OFFSETS_DB)),
              show_default=True,
              help="Offsets in dB, as in 0,1,3..51 (a..b steps by 2, a..b:s by s).")
@click.option("--overlap", type=click.Choice(sorted(io.OVERLAP_CHOICES)), default="pairwise",
              show_default=True)
@click.option("--overlap-load-ul", type=float, default=experiments.DEFAULT_HISTORY_UL,
              show_default=True)
@click.option("--overlap-load-dl", type=float, default=experiments.DEFAULT_HISTORY_DL,
              show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path(), callback=_out_dir)
def cmd_sweep(scenario_path, offsets_text, overlap, overlap_load_ul, overlap_load_dl, out_dir):
    """Sweep cell-selection offsets on one scenario; report the top three."""
    _, scenario, source = io.read_scenario(scenario_path)
    policies = [Policy(DEUD_O, offset_db=off) for off in parse_offsets(offsets_text)]
    overlap_model = io.overlap_model(overlap, scenario.n_bs, overlap_load_ul, overlap_load_dl)

    solutions = experiments.solve_policies(scenario, policies, experiments.MC_OPTS, overlap_model)
    rows = [(pol.offset_db, sol.lam, sol.g1, sol.g2, sol.step, int(sol.converged),
             equivalent(pol, scenario) or "") for pol, sol in zip(policies, solutions)]
    all_converged = all(sol.converged for sol in solutions)

    os.makedirs(out_dir, exist_ok=True)
    meta = {"tool_version": __version__, "overlap": overlap, **source}
    io.write_csv(os.path.join(out_dir, "sweep.csv"),
                 ("offset_db", "lam", "g1", "g2", "step", "converged", "equivalent"),
                 rows, meta=meta)
    ranked = sorted(rows, key=lambda r: r[1], reverse=True)[:3]
    summary = {"top3": [{"offset_db": r[0], "lambda": r[1]} for r in ranked], "meta": meta}
    io.write_json(summary, os.path.join(out_dir, "summary.json"))
    click.echo("top3: " + ", ".join(f"{r['offset_db']:g} dB (lambda={r['lambda']:.6g})"
                                    for r in summary["top3"]))
    return EXIT_OK if all_converged else EXIT_NOT_CONVERGED


@cli.command("montecarlo")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--trials", required=True, type=int)
@click.option("--seed-base", required=True, type=click.IntRange(min=0))
@click.option("--workers", type=int, default=1, show_default=True,
              help="Parallel trial workers.")
@click.option("--out", "out_dir", required=True, type=click.Path(), callback=_out_dir)
def cmd_montecarlo(config_path, trials, seed_base, workers, out_dir):
    """Seeded Monte Carlo policy study: offset sweep, overlap arms, PF baseline."""
    config = io.load_config(config_path)
    study = experiments.run_policy_study(config, trials, seed_base, workers=workers)

    os.makedirs(out_dir, exist_ok=True)
    meta = {"tool_version": __version__, "seed_base": seed_base, "trials": trials,
            "config_hash": io.canonical_hash(io.config_to_dict(config))}
    rows = []
    for t, res in enumerate(study["trials"]):
        for off, cell in sorted(res["partial"].items(), key=lambda kv: float(kv[0])):
            rows.append((t, res["seed"], off, cell["lam"], cell["lam_ul"], cell["lam_dl"],
                         cell["step"], int(cell["converged"])))
    io.write_csv(os.path.join(out_dir, "trials.csv"),
                 ("trial", "seed", "offset_db", "lam", "lam_ul", "lam_dl", "step", "converged"),
                 rows, meta=meta)
    io.write_json({"aggregate": study["aggregate"], "config": study["config"], "meta": meta},
                  os.path.join(out_dir, "summary.json"))
    agg = study["aggregate"]
    click.echo(f"mean lambda: best={agg['mean_best']:.6g} coud={agg['mean_coud']:.6g} "
               f"ratio={agg['best_over_coud']:.3f}")
    return EXIT_OK


@cli.command("compare-pf")
@click.option("--scenario", "scenario_path", required=True, type=click.Path(exists=True))
@click.option("--policy", "policy_text", required=True)
@click.option("--split", default="%d:%d" % DEFAULT_PF_SPLIT, show_default=True,
              help="UL:DL resource block split for the PF baseline.")
@click.option("--out", "out_dir", required=True, type=click.Path(), callback=_out_dir)
def cmd_compare_pf(scenario_path, policy_text, split, out_dir):
    """Joint optimizer versus the QoS-based proportional fairness baseline."""
    _, scenario, source = io.read_scenario(scenario_path)
    policy = Policy.parse(policy_text)
    try:
        ul_rbs, dl_rbs = (int(x) for x in split.split(":"))
    except ValueError as exc:
        raise ConfigError(f"bad split {split!r}, expected UL:DL") from exc

    result = experiments.compare_pf(scenario, policy, split=(ul_rbs, dl_rbs))

    os.makedirs(out_dir, exist_ok=True)
    meta = {"tool_version": __version__, "policy": policy.label, **source}
    opt, pf = result["optimizer"], result["pf"]
    io.write_csv(os.path.join(out_dir, "compare_pf.csv"),
                 ("algorithm", "lam_min_direction", "lam_ul", "lam_dl"),
                 [("joint", min(opt["lam_ul"], opt["lam_dl"]), opt["lam_ul"], opt["lam_dl"]),
                  ("pf", pf["lam"], pf["lam_ul"], pf["lam_dl"])],
                 meta=meta)
    click.echo(f"joint lambda={opt['lam']:.6g}  pf min-direction={pf['lam']:.6g}")
    return EXIT_OK if opt["converged"] else EXIT_NOT_CONVERGED


@cli.command("minimize-power")
@click.option("--solution", "solution_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path(), callback=_out_dir)
def cmd_minimize_power(solution_path, out_dir):
    """Shrink a strictly feasible solution's power to the utility-1 minimum."""
    problem, w_star, p_star, source = io.load_solution(solution_path)
    result = minimize_power(problem, w_star, p_star)

    os.makedirs(out_dir, exist_ok=True)
    io.write_json(io.power_min_to_dict(result, source), os.path.join(out_dir, "minpower.json"))
    click.echo(f"lambda={result.lam:.6g} saving_ratio={result.saving_ratio:.6g}")
    return EXIT_OK if result.fixed_point.converged else EXIT_NOT_CONVERGED


@cli.command("theta-sweep")
@click.option("--scenario", "scenario_path", required=True, type=click.Path(exists=True))
@click.option("--policy", "policy_text", required=True)
@click.option("--theta", "thetas", type=float, multiple=True,
              default=experiments.THETA_SWEEP_THETAS, show_default=True,
              help="Power budget scale; repeat the flag for a grid.")
@click.option("--noise-dbm", "noises_dbm", type=float, multiple=True,
              default=experiments.THETA_SWEEP_NOISE_DBM, show_default=True,
              help="Noise floor in dBm per RB; repeat the flag for several.")
@click.option("--out", "out_dir", required=True, type=click.Path(), callback=_out_dir)
def cmd_theta_sweep(scenario_path, policy_text, thetas, noises_dbm, out_dir):
    """Power-budget study: the power stage's utility per budget scale and noise floor."""
    _, scenario, source = io.read_scenario(scenario_path)
    policy = Policy.parse(policy_text)
    rows = experiments.run_theta_sweep(scenario, policy, thetas, noises_dbm)

    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "theta_sweep.csv")
    io.write_csv(path, ("noise_dbm", "theta", "lam", "converged"),
                 [(r["noise_dbm"], r["theta"], r["lam"], int(r["converged"])) for r in rows],
                 meta={"tool_version": __version__, "policy": policy.label, **source})
    click.echo(f"wrote {len(rows)} rows to {path}")
    return EXIT_OK if all(r["converged"] for r in rows) else EXIT_NOT_CONVERGED


def main(argv=None) -> int:
    """Entry point with the documented exit-code contract."""
    try:
        rv = cli.main(args=argv, standalone_mode=False)
    except (FlexlinkError, OSError) as exc:  # OSError: a file it cannot read or write
        click.echo(f"error: {exc}", err=True)
        return EXIT_USAGE
    except click.ClickException as exc:  # usage errors too: one line, not click's four
        click.echo(f"error: {exc.format_message()}", err=True)
        return EXIT_USAGE
    except click.Abort:
        return EXIT_USAGE
    return int(rv) if isinstance(rv, int) else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
