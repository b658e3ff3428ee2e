"""Command-line front end.

Subcommands: ``generate``, ``solve``, ``sweep``, ``montecarlo``,
``compare-pf``, ``minimize-power``.  Exit codes: 0 on success, 1 on usage or
configuration errors, 2 when a solve did not converge.  All outputs embed the
config hash, the seed and the tool version; CSV files carry them in a leading
comment line.
"""

from __future__ import annotations

import math
import os
import sys

import click
import numpy as np

from . import __version__, experiments, io
from .association import Policy, associate
from .errors import ConfigError, FlexlinkError
from .interference import Problem
from .model import OVERLAP_PAIRWISE, OVERLAP_SPECIFIC, Association
from .optimizer import SolveOptions, minimize_power, optimize
from .scenario import generate, uniform_overlap

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_CONVERGED = 2

OVERLAP_CHOICES = {"none": None, "pairwise": OVERLAP_PAIRWISE,
                   "specific": OVERLAP_SPECIFIC}  # none: full overlap, no model


def parse_offsets(text: str) -> list[float]:
    """Parse ``0,1,3..51`` style offset lists; ``a..b`` steps by 2 by default,
    ``a..b:s`` by ``s``."""
    out: list[float] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if ".." in token:
            lo_txt, rest = token.split("..", 1)
            step_txt = "2"
            if ":" in rest:
                rest, step_txt = rest.split(":", 1)
            try:
                lo, hi, step = float(lo_txt), float(rest), float(step_txt)
            except ValueError as exc:
                raise ConfigError(f"bad offset range {token!r}") from exc
            if not all(map(math.isfinite, (lo, hi, step))) or step <= 0 or hi < lo:
                raise ConfigError(f"bad offset range {token!r}")
            val = lo
            while val <= hi + 1e-9:
                out.append(val)
                val += step
        else:
            try:
                val = float(token)
            except ValueError as exc:
                raise ConfigError(f"bad offset {token!r}") from exc
            if not math.isfinite(val):
                raise ConfigError(f"bad offset {token!r}")
            out.append(val)
    if not out:
        raise ConfigError(f"no offsets in {text!r}")
    return out


def _overlap_model(name, n_bs, load_ul, load_dl):
    scheme = OVERLAP_CHOICES[name]
    if scheme is None:
        return None
    return uniform_overlap(n_bs, load_ul, load_dl, scheme=scheme)


def _link_vector(value, key, n_links):
    """A solution's per-link ``value`` as floats, else a ``ConfigError``."""
    try:
        vec = np.array(value, dtype=float)
        if vec.shape == (n_links,):
            return vec
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"solution key {key!r} must be a list of {n_links} numbers")


def _read_scenario(path):
    """The scenario document at ``path``, its scenario, and the ``seed`` and
    ``config_hash`` meta that every output derived from it carries."""
    doc = io.read_json(path, "scenario")
    source = io.as_object(doc.get("meta", {}), "scenario key 'meta'")
    return doc, io.scenario_from_dict(doc), {"seed": source.get("seed"),
                                             "config_hash": source.get("config_hash")}


@click.group()
@click.version_option(version=__version__)
def cli():
    """Joint uplink/downlink bandwidth and power optimization toolkit."""


@cli.command("generate")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--seed", required=True, type=int)
@click.option("--out", "out_path", required=True, type=click.Path())
def cmd_generate(config_path, seed, out_path):
    """Draw a scenario from a config file and write it as JSON."""
    config = io.load_config(config_path)
    scenario = generate(config, seed)
    meta = {"seed": seed, "config_hash": io.canonical_hash(io.config_to_dict(config))}
    io.save_scenario(scenario, out_path, meta=meta)
    click.echo(f"wrote {out_path}")


@cli.command("solve")
@click.option("--scenario", "scenario_path", required=True, type=click.Path(exists=True))
@click.option("--policy", "policy_text", required=True)
@click.option("--cell-specific", is_flag=True, default=False)
@click.option("--theta", type=float, default=1.0, show_default=True)
@click.option("--overlap", type=click.Choice(sorted(OVERLAP_CHOICES)), default="none",
              show_default=True)
@click.option("--overlap-load-ul", type=float, default=experiments.DEFAULT_HISTORY_UL,
              show_default=True)
@click.option("--overlap-load-dl", type=float, default=experiments.DEFAULT_HISTORY_DL,
              show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path())
def cmd_solve(scenario_path, policy_text, cell_specific, theta, overlap,
              overlap_load_ul, overlap_load_dl, out_dir):
    """Run the three-step optimizer on a stored scenario."""
    scenario_doc, scenario, source = _read_scenario(scenario_path)
    policy = Policy.parse(policy_text)
    assoc = associate(policy, scenario)
    overlap_model = _overlap_model(overlap, scenario.n_bs, overlap_load_ul, overlap_load_dl)
    opts = SolveOptions(power_mode="cell_specific" if cell_specific else "per_link",
                        theta=theta)

    solution = optimize(scenario, policy, opts, overlap=overlap_model, assoc=assoc)

    os.makedirs(out_dir, exist_ok=True)
    meta = {"policy": policy.label, "theta": theta, "overlap": overlap,
            "tool_version": __version__, **source}
    # the loads let minimize-power rebuild this solve's coupling
    loads = {"overlap_load_ul": overlap_load_ul, "overlap_load_dl": overlap_load_dl}
    doc = io.solution_to_dict(solution, assoc, scenario_doc, meta=meta | loads)
    io.write_json(doc, os.path.join(out_dir, "solution.json"))
    solution.trace.to_csv(os.path.join(out_dir, "trace.csv"), meta=meta)
    click.echo(f"lambda={solution.lam:.6g} step={solution.step} "
               f"g1={solution.g1:.6f} g2={solution.g2:.6f} converged={solution.converged}")
    return EXIT_OK if solution.converged else EXIT_NOT_CONVERGED


@cli.command("sweep")
@click.option("--scenario", "scenario_path", required=True, type=click.Path(exists=True))
@click.option("--offsets", "offsets_text", default="0,1,3..51", show_default=True)
@click.option("--overlap", type=click.Choice(sorted(OVERLAP_CHOICES)), default="pairwise",
              show_default=True)
@click.option("--overlap-load-ul", type=float, default=experiments.DEFAULT_HISTORY_UL)
@click.option("--overlap-load-dl", type=float, default=experiments.DEFAULT_HISTORY_DL)
@click.option("--out", "out_dir", required=True, type=click.Path())
def cmd_sweep(scenario_path, offsets_text, overlap, overlap_load_ul, overlap_load_dl, out_dir):
    """Sweep cell-selection offsets on one scenario; report the top three."""
    _, scenario, source = _read_scenario(scenario_path)
    offsets = parse_offsets(offsets_text)
    overlap_model = _overlap_model(overlap, scenario.n_bs, overlap_load_ul, overlap_load_dl)
    opts = SolveOptions(trace_mode="boundary")

    policies = [Policy("deud_o", offset_db=off) for off in offsets]
    solutions = experiments.solve_policies(scenario, policies, opts, overlap_model)
    rows = [(pol.offset_db, sol.lam, sol.g1, sol.g2, sol.step, int(sol.converged),
             pol.equivalent_to() or "") for pol, sol in zip(policies, solutions)]
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
@click.option("--seed-base", required=True, type=int)
@click.option("--workers", type=int, default=1, show_default=True,
              help="Parallel trial workers.")
@click.option("--out", "out_dir", required=True, type=click.Path())
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
@click.option("--split", default="9:16", show_default=True,
              help="UL:DL resource block split for the PF baseline.")
@click.option("--out", "out_dir", required=True, type=click.Path())
def cmd_compare_pf(scenario_path, policy_text, split, out_dir):
    """Joint optimizer versus the QoS-based proportional fairness baseline."""
    _, scenario, source = _read_scenario(scenario_path)
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
@click.option("--out", "out_dir", required=True, type=click.Path())
def cmd_minimize_power(solution_path, out_dir):
    """Shrink a strictly feasible solution's power to the utility-1 minimum."""
    doc = io.read_json(solution_path, "solution")
    with io.reading("solution"):
        scenario_doc, assoc_doc, solved = (io.as_object(doc[key], f"solution key {key!r}")
                                           for key in ("scenario", "association", "solution"))
        assoc = Association(b_ul=np.array(assoc_doc["b_ul"]), b_dl=np.array(assoc_doc["b_dl"]),
                            n_bs=assoc_doc["n_bs"])
        scenario = io.scenario_from_dict(scenario_doc)
        w_star = _link_vector(solved["w"], "w", scenario.n_links)
        p_star = _link_vector(solved["p"], "p", scenario.n_links)
        theta = float(solved.get("theta", 1.0))
        solve_meta = io.as_object(doc.get("meta", {}), "solution key 'meta'")
        overlap = solve_meta.get("overlap", "none")
        loads = (solve_meta.get("overlap_load_ul"), solve_meta.get("overlap_load_dl"))
        if overlap not in OVERLAP_CHOICES:
            raise ConfigError(f"unknown overlap {overlap!r} in the solution meta")
        if overlap != "none" and None in loads:
            raise ConfigError(f"the solution meta names overlap {overlap!r} but not its loads")
        overlap_model = _overlap_model(overlap, scenario.n_bs, *loads)
        problem = Problem.from_scenario(scenario, assoc, overlap=overlap_model, theta=theta)

    result = minimize_power(problem, w_star, p_star)

    os.makedirs(out_dir, exist_ok=True)
    out = {
        "p_min": result.p_min.tolist(),
        "lambda": result.lam,
        "psi_before": result.psi_before,
        "psi_after": result.psi_after,
        "saving_ratio": result.saving_ratio,
        "meta": {"tool_version": __version__,
                 "scenario_hash": io.canonical_hash(scenario_doc),
                 "seed": solve_meta.get("seed"),
                 "config_hash": solve_meta.get("config_hash")},
    }
    io.write_json(out, os.path.join(out_dir, "minpower.json"))
    click.echo(f"lambda={result.lam:.6g} saving_ratio={result.saving_ratio:.4f}")
    return EXIT_OK if result.fixed_point.converged else EXIT_NOT_CONVERGED


def main(argv=None) -> int:
    """Entry point with the documented exit-code contract."""
    try:
        rv = cli.main(args=argv, standalone_mode=False)
    except FlexlinkError as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_USAGE
    except click.ClickException as exc:
        exc.show()
        return EXIT_USAGE
    except click.Abort:
        return EXIT_USAGE
    return int(rv) if isinstance(rv, int) else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
