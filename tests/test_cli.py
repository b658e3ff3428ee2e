"""Command-line interface: files, determinism, exit codes."""

import hashlib
import json
import shutil
import warnings

import numpy as np
import pytest

from flexlink import __version__, cli, experiments, io
from flexlink.association import Policy, associate
from flexlink.cli import MAX_OFFSETS, main, parse_offsets
from flexlink.errors import ConfigError
from flexlink.experiments import DEFAULT_HISTORY_DL, run_theta_sweep
from flexlink.interference import Problem
from flexlink.optimizer import SolveTrace, minimize_power
from flexlink.scenario import COUNT_RANGES, ScenarioConfig, uniform_overlap

CONFIG = {
    "macro_rows": 2,
    "macro_cols": 3,
    "n_pico": 3,
    "n_ue": 10,
    "isd_m": 20.0,
    "service_mix": [0.0, 0.2, 0.0, 0.1, 0.7],
    "noise_psd_dbm": -112.0,
}


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIG))
    return path


@pytest.fixture()
def scenario_file(tmp_path, config_file):
    out = tmp_path / "scenario.json"
    assert main(["generate", "--config", str(config_file), "--seed", "7",
                 "--out", str(out)]) == 0
    return out


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_parse_offsets_paper_set():
    offs = parse_offsets("0,1,3..51")
    assert offs == [0.0] + [float(o) for o in range(1, 52, 2)]
    assert len(offs) == 27
    assert parse_offsets("2..10:4") == [2.0, 6.0, 10.0]
    assert parse_offsets("1e17,-1e17") == [1e17, -1e17]
    # a range ends within a billionth of its step past the bound, however small the step
    tiny = parse_offsets("0..1e-8:1e-10")
    assert len(tiny) == 101 and tiny[-1] == pytest.approx(1e-8, rel=1e-12)
    assert parse_offsets("0..0:1e-300") == [0.0]
    for bad in ("5..1", "nan", "inf", "0,-inf", "nan..5", "0..5:inf", "0..nan",
                "1e17..1e17", "-1e17..0", "0..1e17", "0..5:1e-300"):
        with pytest.raises(ConfigError, match="bad offset"):
            parse_offsets(bad)


def test_parse_offsets_refuses_a_list_over_the_cap():
    assert len(parse_offsets(f"0..{MAX_OFFSETS - 1}:1")) == MAX_OFFSETS
    # counted before the list is built: the last three would fill memory
    for too_long in ("0..2000:1", ",".join(["0"] * (MAX_OFFSETS + 1)), "0..1e12",
                     "0..1e-300:1e-310"):
        with pytest.raises(ConfigError, match=f"more than {MAX_OFFSETS} offsets"):
            parse_offsets(too_long)


def test_generate_is_deterministic_by_file_hash(tmp_path, config_file):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["generate", "--config", str(config_file), "--seed", "9", "--out", str(a)]) == 0
    assert main(["generate", "--config", str(config_file), "--seed", "9", "--out", str(b)]) == 0
    assert _sha(a) == _sha(b)
    c = tmp_path / "c.json"
    assert main(["generate", "--config", str(config_file), "--seed", "10", "--out", str(c)]) == 0
    assert _sha(a) != _sha(c)


def test_generated_file_round_trips_through_load(scenario_file):
    sc = io.read_scenario(scenario_file)[1]
    assert sc.n_ue == CONFIG["n_ue"]
    assert sc.n_bs == 9


def test_solve_outputs_and_policy_identity(tmp_path, scenario_file):
    out_coud = tmp_path / "coud"
    out_off0 = tmp_path / "off0"
    assert main(["solve", "--scenario", str(scenario_file), "--policy", "coud",
                 "--out", str(out_coud)]) == 0
    assert main(["solve", "--scenario", str(scenario_file), "--policy", "deud-o:0",
                 "--out", str(out_off0)]) == 0
    a = json.loads((out_coud / "solution.json").read_text())
    b = json.loads((out_off0 / "solution.json").read_text())
    assert a["solution"]["lambda"] == b["solution"]["lambda"]
    assert a["association"] == b["association"]
    assert (out_coud / "trace.csv").exists()
    # meta embedded
    assert a["meta"]["tool_version"]
    assert a["meta"]["config_hash"]
    assert a["meta"]["seed"] == 7


def test_solve_deud_o13_equals_deud_p(tmp_path, scenario_file):
    out_a = tmp_path / "o13"
    out_b = tmp_path / "dp"
    assert main(["solve", "--scenario", str(scenario_file), "--policy", "deud-o:13",
                 "--out", str(out_a)]) == 0
    assert main(["solve", "--scenario", str(scenario_file), "--policy", "deud-p",
                 "--out", str(out_b)]) == 0
    a = json.loads((out_a / "solution.json").read_text())
    b = json.loads((out_b / "solution.json").read_text())
    assert a["solution"]["lambda"] == b["solution"]["lambda"]
    assert a["solution"]["w"] == b["solution"]["w"]
    assert a["association"] == b["association"]


def test_solve_theta_monotone(tmp_path, scenario_file):
    lams = {}
    for theta in ("0.5", "1.0"):
        out = tmp_path / f"theta{theta}"
        assert main(["solve", "--scenario", str(scenario_file), "--policy", "deud-p",
                     "--theta", theta, "--out", str(out)]) == 0
        lams[theta] = json.loads((out / "solution.json").read_text())["solution"]["lambda"]
    assert lams["0.5"] <= lams["1.0"]


def test_solve_writes_the_policy_and_theta_of_its_meta(tmp_path, scenario_file):
    """The solver does not know the policy or the budget scale: the solution
    block takes them from the meta, and ``load_solution`` rebuilds the budgets."""
    out = tmp_path / "sol"
    assert main(["solve", "--scenario", str(scenario_file), "--policy", "deud-o:5",
                 "--theta", "0.5", "--out", str(out)]) == 0
    doc = json.loads((out / "solution.json").read_text())
    assert (doc["solution"]["policy"], doc["solution"]["theta"]) == \
        (doc["meta"]["policy"], doc["meta"]["theta"]) == ("deud-o:5", 0.5)
    scenario = io.read_scenario(scenario_file)[1]
    expected = Problem.from_scenario(scenario, associate(Policy.parse("deud-o:5"), scenario),
                                     theta=0.5)
    assert io.load_solution(out / "solution.json")[0].p_ext_max.tolist() == \
        expected.p_ext_max.tolist()


@pytest.mark.parametrize("mode", [[], ["--cell-specific"]], ids=["per-link", "cell-specific"])
def test_solve_at_a_huge_budget_warns_nothing(tmp_path, scenario_file, mode):
    """S3 cannot meet its absolute step test at a budget scale of 1e300 and
    exits 2, but the Anderson Gram matrix that overflows there raises no
    warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", "--scenario", str(scenario_file), "--policy", "coud",
                     "--theta", "1e300", *mode, "--out", str(tmp_path / "huge")]) == 2


def test_sweep_csv_and_ranking(tmp_path, scenario_file):
    out = tmp_path / "sweep"
    assert main(["sweep", "--scenario", str(scenario_file), "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "offset_db,lam,g1,g2,step,converged,equivalent"
    rows = [l.split(",") for l in lines[2:]]
    assert len(rows) == 27
    lam_by_offset = {float(r[0]): float(r[1]) for r in rows}
    assert max(lam_by_offset.values()) >= lam_by_offset[0.0]
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["top3"]) == 3

    # ranking stable under re-run
    out2 = tmp_path / "sweep2"
    assert main(["sweep", "--scenario", str(scenario_file), "--out", str(out2)]) == 0
    assert (out / "sweep.csv").read_text().splitlines()[1:] == \
        (out2 / "sweep.csv").read_text().splitlines()[1:]


def test_sweep_rows_equal_separate_solves(tmp_path, scenario_file):
    out = tmp_path / "sweep"
    assert main(["sweep", "--scenario", str(scenario_file), "--offsets", "0,0,13",
                 "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    assert [r["offset_db"] for r in rows] == ["0.0", "0.0", "13.0"]
    assert [r["equivalent"] for r in rows] == ["coud", "coud", "deud_p"]
    for row in rows:
        sol_dir = tmp_path / f"solve{row['offset_db']}"
        assert main(["solve", "--scenario", str(scenario_file), "--policy",
                     f"deud-o:{row['offset_db']}", "--overlap", "pairwise",
                     "--out", str(sol_dir)]) == 0
        solved = json.loads((sol_dir / "solution.json").read_text())["solution"]
        assert [row["lam"], row["g1"], row["g2"], row["step"], row["converged"]] == [
            repr(solved["lambda"]), repr(solved["g1"]), repr(solved["g2"]), solved["step"],
            str(int(solved["converged"]))]


def test_sweep_labels_the_venue_power_gap_deud_p(tmp_path):
    """With 33 dBm picos the macro-pico gap is 10 dB: offset 10 is deud-p
    (its row equals a deud-p solve) and offset 13 is no reference."""
    config, scen, out = tmp_path / "config.json", tmp_path / "s.json", tmp_path / "sweep"
    config.write_text(json.dumps(dict(CONFIG, pico_power_dbm=33.0)))
    assert main(["generate", "--config", str(config), "--seed", "7", "--out", str(scen)]) == 0
    assert main(["sweep", "--scenario", str(scen), "--offsets", "0,10,13", "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    rows = [dict(zip(lines[1].split(","), line.split(","))) for line in lines[2:]]
    assert [(r["offset_db"], r["equivalent"]) for r in rows] == \
        [("0.0", "coud"), ("10.0", "deud_p"), ("13.0", "")]
    assert main(["solve", "--scenario", str(scen), "--policy", "deud-p", "--overlap", "pairwise",
                 "--out", str(tmp_path / "dp")]) == 0
    solved = json.loads((tmp_path / "dp" / "solution.json").read_text())["solution"]
    assert rows[1]["lam"] == repr(solved["lambda"])


def test_montecarlo_single_trial_equals_solve(tmp_path, config_file):
    out = tmp_path / "mc"
    assert main(["montecarlo", "--config", str(config_file), "--trials", "1",
                 "--seed-base", "7", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    trials_csv = (out / "trials.csv").read_text().splitlines()
    assert len(trials_csv) == 2 + 27  # comment, header, 27 offsets

    # the trial's offset-0 lambda equals a solve with pairwise overlap defaults
    scen = tmp_path / "s.json"
    assert main(["generate", "--config", str(config_file), "--seed", "7",
                 "--out", str(scen)]) == 0
    sol_dir = tmp_path / "sol"
    assert main(["solve", "--scenario", str(scen), "--policy", "deud-o:0",
                 "--overlap", "pairwise", "--out", str(sol_dir)]) == 0
    lam_solve = json.loads((sol_dir / "solution.json").read_text())["solution"]["lambda"]
    row0 = [l for l in trials_csv if l.startswith("0,7,0")][0]
    assert float(row0.split(",")[3]) == pytest.approx(lam_solve, rel=1e-12)
    assert summary["aggregate"]["mean_coud"] == pytest.approx(lam_solve, rel=1e-12)


def test_one_trial_summary_is_strict_json(tmp_path):
    """A one-trial study has no confidence interval: its half-widths are JSON
    ``null``, so the summary parses with NaN and Infinity refused."""
    from flexlink.experiments import STUDY_CONFIG

    config = tmp_path / "study.json"
    config.write_text(json.dumps(io.config_to_dict(STUDY_CONFIG)))
    out = tmp_path / "mc"
    assert main(["montecarlo", "--config", str(config), "--trials", "1", "--seed-base", "0",
                 "--out", str(out)]) == 0

    def refuse(token):
        raise ValueError(f"not JSON: {token}")
    aggregate = json.loads((out / "summary.json").read_text(), parse_constant=refuse)["aggregate"]
    assert aggregate["ci_best"] is None and aggregate["ci_coud"] is None
    assert all(v["ci_halfwidth"] is None for v in aggregate["per_offset"].values())
    assert aggregate["mean_best"] > 0


def test_theta_sweep_csv_and_provenance(tmp_path, scenario_file):
    out = tmp_path / "theta"
    assert main(["theta-sweep", "--scenario", str(scenario_file), "--policy", "deud-p",
                 "--theta", "0.1", "--theta", "1", "--noise-dbm", "-80", "--noise-dbm", "-112",
                 "--out", str(out)]) == 0
    meta, header, *rows = (out / "theta_sweep.csv").read_text().splitlines()
    scenario_meta = json.loads(scenario_file.read_text())["meta"]
    assert meta == (f"# tool_version={__version__} policy=deud-p seed=7 "
                    f"config_hash={scenario_meta['config_hash']}")
    assert header == "noise_dbm,theta,lam,converged"
    expected = run_theta_sweep(io.read_scenario(scenario_file)[1], Policy.parse("deud-p"),
                               (0.1, 1.0), (-80.0, -112.0))
    assert rows == [f"{r['noise_dbm']!r},{r['theta']!r},{r['lam']!r},{int(r['converged'])}"
                    for r in expected]
    assert len(rows) == 4


def test_compare_pf_csv(tmp_path, scenario_file):
    out = tmp_path / "pf"
    assert main(["compare-pf", "--scenario", str(scenario_file), "--policy", "coud",
                 "--out", str(out)]) == 0
    lines = (out / "compare_pf.csv").read_text().splitlines()
    header = lines[1].split(",")
    joint = dict(zip(header, lines[2].split(",")))
    pf = dict(zip(header, lines[3].split(",")))
    assert float(joint["lam_min_direction"]) >= float(pf["lam_min_direction"])
    # identical seeds give identical CSV
    out2 = tmp_path / "pf2"
    assert main(["compare-pf", "--scenario", str(scenario_file), "--policy", "coud",
                 "--out", str(out2)]) == 0
    assert (out / "compare_pf.csv").read_text() == (out2 / "compare_pf.csv").read_text()


def test_minimize_power_cli_and_preconditions(tmp_path, config_file):
    # light-traffic scenario so the solved utility exceeds one
    light = dict(CONFIG, service_mix=[0.0, 0.0, 0.0, 0.0, 1.0], n_ue=4)
    cfg2 = tmp_path / "light.json"
    cfg2.write_text(json.dumps(light))
    scen = tmp_path / "light_scenario.json"
    assert main(["generate", "--config", str(cfg2), "--seed", "3", "--out", str(scen)]) == 0
    sol_dir = tmp_path / "sol"
    assert main(["solve", "--scenario", str(scen), "--policy", "coud",
                 "--out", str(sol_dir)]) == 0
    lam = json.loads((sol_dir / "solution.json").read_text())["solution"]["lambda"]
    assert lam > 1.0

    out = tmp_path / "minpower"
    assert main(["minimize-power", "--solution", str(sol_dir / "solution.json"),
                 "--out", str(out)]) == 0
    doc = json.loads((out / "minpower.json").read_text())
    assert doc["lambda"] == pytest.approx(1.0, abs=1e-4)
    assert doc["saving_ratio"] < 1.0


def test_minimize_power_uses_the_solve_overlap(tmp_path):
    light = dict(CONFIG, macro_rows=1, macro_cols=2, n_pico=1, n_ue=4,
                 service_mix=[0.0, 0.0, 0.0, 0.0, 1.0])
    cfg = tmp_path / "light.json"
    cfg.write_text(json.dumps(light))
    scen = tmp_path / "scenario.json"
    assert main(["generate", "--config", str(cfg), "--seed", "3", "--out", str(scen)]) == 0
    sol_dir = tmp_path / "sol"
    assert main(["solve", "--scenario", str(scen), "--policy", "deud-o:21", "--overlap",
                 "pairwise", "--overlap-load-ul", "0.3", "--out", str(sol_dir)]) == 0
    doc = json.loads((sol_dir / "solution.json").read_text())
    assert doc["meta"]["overlap_load_ul"] == 0.3
    assert doc["meta"]["overlap_load_dl"] == DEFAULT_HISTORY_DL
    out = tmp_path / "minpower"
    assert main(["minimize-power", "--solution", str(sol_dir / "solution.json"),
                 "--out", str(out)]) == 0

    # the same minimization on the coupling the solve used
    scenario = io.read_scenario(scen)[1]
    overlap = uniform_overlap(scenario.n_bs, 0.3, DEFAULT_HISTORY_DL)
    problem = Problem.from_scenario(scenario, associate(Policy.parse("deud-o:21"), scenario),
                                    overlap=overlap)
    expected = minimize_power(problem, np.array(doc["solution"]["w"]),
                              np.array(doc["solution"]["p"]))
    assert json.loads((out / "minpower.json").read_text())["p_min"] == expected.p_min.tolist()


def test_solve_cell_specific_mode(tmp_path, scenario_file):
    out = tmp_path / "cell"
    assert main(["solve", "--scenario", str(scenario_file), "--policy", "deud-p",
                 "--cell-specific", "--out", str(out)]) == 0
    doc = json.loads((out / "solution.json").read_text())
    assert "p_bar" in doc["solution"]
    assert len(doc["solution"]["p_bar"]) == CONFIG["n_ue"] + 9
    per_link = tmp_path / "plink"
    assert main(["solve", "--scenario", str(scenario_file), "--policy", "deud-p",
                 "--out", str(per_link)]) == 0
    lam_cell = doc["solution"]["lambda"]
    lam_link = json.loads((per_link / "solution.json").read_text())["solution"]["lambda"]
    assert lam_cell <= lam_link * (1 + 1e-9)


def test_trace_csv_columns_frozen(tmp_path, scenario_file):
    out = tmp_path / "sol"
    assert main(["solve", "--scenario", str(scenario_file), "--policy", "coud",
                 "--out", str(out)]) == 0
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0].startswith("# ")
    assert lines[1] == "step,iteration,lam,g1,g2,residual,boundary"
    # boundary rows carry a nondecreasing utility column
    lams = [float(l.split(",")[2]) for l in lines[2:] if l.split(",")[6] == "1"]
    assert all(b >= a - 1e-9 for a, b in zip(lams, lams[1:]))


def test_trace_csv_text_is_pinned(tmp_path):
    trace = SolveTrace()
    trace.record("init", 0, 0.0, 0.0, 0.0, float("nan"), boundary=True)
    trace.record("s1", 7, 1.25, 0.5, 1.0, 3e-08)
    path = tmp_path / "trace.csv"
    io.write_trace(trace, path, meta={"policy": "coud", "theta": 1.0})
    assert path.read_text() == ("# policy=coud theta=1.0\n"
                                "step,iteration,lam,g1,g2,residual,boundary\n"
                                "init,0,0.0,0.0,0.0,nan,1\n"
                                "s1,7,1.25,0.5,1.0,3e-08,0\n")


def test_unknown_flag_is_usage_error(tmp_path):
    assert main(["solve", "--bogus"]) == 1
    assert main(["no-such-command"]) == 1


# The bad-input contract, over every document a subcommand reads: each key,
# every entry of each short list of numbers and the first element of each
# other list of a valid document, under each mutation.
SHORT = 8
HUGE = str(10 ** 400)  # a JSON integer too large for a float
MUTATIONS = ("delete", '"x"', "null", "[]", "{}", "NaN", "-1", "0", "true", "2.5", '"1"', HUGE)
# the first command reads the document; the others must reject what it rejects
COMMANDS = {
    "config": (["generate", "--seed", "3"], ["montecarlo", "--trials", "1", "--seed-base", "3"]),
    "scenario": (["solve", "--policy", "coud"], ["sweep"], ["compare-pf", "--policy", "coud"],
                 ["theta-sweep", "--policy", "coud", "--theta", "0.5", "--noise-dbm", "-100"]),
    "solution": (["minimize-power"],),
}
# (document, path, mutation) of the grid: the error line, or its prefix when
# it ends in a space.  The tests after the grid pin the lines of other inputs.
PINNED = {
    ("solution", "meta.overlap_load_dl", "delete"):
        "error: the solution meta names overlap 'pairwise' but not its loads",
    # a demand the solved allocation cannot carry: utility below 1
    ("solution", "scenario.user_terminals.0.demand_ul_mbps", "2.5"):
        "error: power minimization requires utility > 1, got ",
    # scenario numbers follow the config reader's rule: finite, integers
    # integral, never a bool
    ("scenario", "rb_count", "2.5"):
        "error: malformed scenario: key 'rb_count' must be an integer, got 2.5",
    ("solution", "scenario.rb_count", "2.5"):
        "error: malformed scenario: key 'rb_count' must be an integer, got 2.5",
    ("scenario", "noise_psd_dbm", "true"):
        "error: malformed scenario: key 'noise_psd_dbm' must be a finite number, got true",
    ("scenario", "user_terminals.0.demand_dl_mbps", "true"):
        "error: malformed scenario: key 'demand_dl_mbps' must be a finite number, got true",
    ("scenario", "user_terminals.0.service_class", "2.5"):
        "error: malformed scenario: key 'service_class' must be an integer, got 2.5",
    ("scenario", "schema_version", "true"):
        "error: scenario key 'schema_version' must be 1, got true",
    # solution numbers and pathloss matrices follow the same rule
    ("scenario", "pathloss_db.bs_to_ue.0.0", "true"):
        "error: malformed scenario: key 'bs_to_ue' must be 9 x 4 finite numbers",
    ("solution", "association.b_ul.0", '"1"'):
        "error: malformed solution: key 'b_ul' must be 4 numbers",
    ("solution", "solution.theta", "true"):
        "error: malformed solution: key 'theta' must be a finite number, got true",
    ("solution", "solution.w.0", '"1"'):
        "error: solution key 'w' must be a list of 8 non-negative numbers",
    ("solution", "meta.overlap_load_ul", '"1"'):
        "error: malformed solution: key 'overlap_load_ul' must be a finite number, got \"1\"",
}


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """A valid config, its scenario and that scenario's solution, as JSON text."""
    tmp = tmp_path_factory.mktemp("documents")
    # light traffic, so the solved utility (about 236) exceeds minimize-power's 1
    config = io.config_to_dict(ScenarioConfig(n_ue=4, isd_m=20.0, noise_psd_dbm=-112.0,
                                              service_mix=(0.0, 0.0, 0.0, 0.0, 1.0)))
    paths = {name: tmp / f"{name}.json" for name in COMMANDS}
    paths["config"].write_text(json.dumps(config))
    assert main(["generate", "--config", str(paths["config"]), "--seed", "3",
                 "--out", str(paths["scenario"])]) == 0
    assert main(["solve", "--scenario", str(paths["scenario"]), "--policy", "coud",
                 "--overlap", "pairwise", "--out", str(tmp)]) == 0
    return {name: path.read_text() for name, path in paths.items()}


def _paths(node, prefix=""):
    """Every key, every entry of a list of at most ``SHORT`` numbers and the
    first element of any other list, under ``node``, with its value."""
    vector = isinstance(node, list) and len(node) <= SHORT and all(
        type(value) in (int, float) for value in node)
    items = (node.items() if isinstance(node, dict) else
             [(str(i), value) for i, value in enumerate(node if vector else node[:1])])
    for key, value in items:
        yield prefix + key, value
        if isinstance(value, (dict, list)):
            yield from _paths(value, f"{prefix}{key}.")


def _mutated(text, path, mutation):
    """The JSON ``text`` with ``mutation`` applied at ``path``; the empty path
    is the whole file."""
    if not path:
        return mutation
    doc = node = json.loads(text)
    *outer, key = [int(k) if k.isdigit() else k for k in path.split(".")]
    for k in outer:
        node = node[k]
    if mutation == "delete":
        del node[key]
    else:
        node[key] = json.loads(mutation)
    return json.dumps(doc)


def _run(argv, out, capsys):
    """``main`` on ``argv`` writing to ``out``: its error line (None unless it
    exits 1) and every breach of the bad-input contract."""
    existed = out.exists()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main([*argv, "--out", str(out)])
        except Exception as exc:  # at the shell, a traceback
            return None, [f"raised {exc!r}"]
    err = capsys.readouterr().err
    breaches = [f"warned {w.category.__name__}: {w.message}" for w in caught]
    if code == 1:
        lines = err.splitlines()
        if len(lines) != 1 or not lines[0].startswith("error: ") or out.exists() > existed:
            breaches.append(f"exit 1 with stderr {err!r}, out written: {out.exists()}")
        return (lines or [""])[0], breaches
    if code not in (0, 2) or "Traceback" in err:
        breaches.append(f"exit {code} with stderr {err!r}")
    if out.is_dir():  # what solve or minimize-power computed
        for doc in (json.loads(path.read_text()) for path in out.glob("*.json")):
            breaches += [f"wrote {k} = {v}" for k, v in doc.get("solution", doc).items()
                         if k not in ("step", "policy", "meta")
                         and not np.all(np.isfinite(np.asarray(v, dtype=float)))]
        shutil.rmtree(out)
    out.unlink(missing_ok=True)
    return None, breaches


def _through_readers(documents, document, path, mutation, tmp_path, capsys):
    """``document`` mutated at ``path`` through every command that reads it:
    the first command's error line and every breach of the contract.  Each
    command must print the same line, and a config's line names the field."""
    source, out = tmp_path / "bad.json", tmp_path / "out"
    source.write_text(_mutated(documents[document], path, mutation))
    first, *others = ([*cmd, f"--{document}", str(source)] for cmd in COMMANDS[document])
    line, found = _run(first, out, capsys)
    if line is not None:
        for argv in others:
            again, more = _run(argv, out, capsys)
            found += more + ([f"{argv[0]} printed {again!r}"] if again != line else [])
        if document == "config" and path.split(".")[0] not in line:
            found.append(f"{line!r} does not name the field")
    return line, found


def _rejection(documents, tmp_path, capsys, document, path, value):
    """The one error line every reader of ``document`` prints when ``path``
    holds the Python ``value`` (or is deleted), after checking the contract."""
    mutation = value if value == "delete" or not path else json.dumps(value)
    line, breaches = _through_readers(documents, document, path, mutation, tmp_path, capsys)
    assert not breaches, "\n".join(breaches)
    assert line is not None, f"{document} {path} = {value!r} was accepted"
    return line


@pytest.mark.parametrize("document", ["config", "scenario", "solution"])
def test_bad_document_keeps_the_contract(tmp_path, capsys, documents, document):
    """Every mutated document through every command that reads it: exit 0, 1
    or 2, no traceback and no warning.  On exit 1: one ``error:`` line, the
    same from every command, no output, and for a config the line names the
    mutated field.  On exit 0 or 2: every number computed is finite.

    The field rule: where the valid value is a JSON number and ``"x"`` is
    refused, ``true`` and ``"1"`` are refused too."""
    paths = dict(_paths(json.loads(documents[document])))
    cases = [(path, mutation) for path in paths for mutation in MUTATIONS]
    breaches, lines = [], {}
    for case in cases:
        line, found = _through_readers(documents, document, *case, tmp_path, capsys)
        lines[case] = line
        want = PINNED.get((document, *case))
        if want and not (line == want or want.endswith(" ") and str(line).startswith(want)):
            found.append(f"printed {line!r}, not {want!r}")
        breaches += [f"{case}: {breach}" for breach in found]
    numbers = [path for path, value in paths.items() if type(value) in (int, float)]
    breaches += [f"{(path, mutation)}: accepted, but '\"x\"' is refused"
                 for path in numbers if lines[path, '"x"'] is not None
                 for mutation in ("true", '"1"') if lines[path, mutation] is None]
    assert len(cases) >= {"config": 288, "scenario": 504, "solution": 1116}[document]
    assert not breaches, "\n".join(breaches)


@pytest.mark.parametrize("usage", ["unknown flag", "missing option", "missing path",
                                   "directory", "not UTF-8", "out under a file"])
@pytest.mark.parametrize("document, argv", [(doc, cmd) for doc, cmds in COMMANDS.items()
                                            for cmd in cmds], ids=lambda v: " ".join(v)
                         if isinstance(v, list) else v)
def test_usage_error_is_one_line(tmp_path, capsys, monkeypatch, documents, usage, document,
                                argv):
    """Usage errors through every command: an unknown flag, its document
    option left out, a document path that does not exist or names a
    directory, a document that is not UTF-8, or an ``--out`` under an
    existing file, which a command that writes a directory refuses before
    its computation."""
    if usage == "out under a file":
        def computed(*args, **kwargs):
            raise AssertionError("computed before --out was checked")
        for owner, name in ((cli, "solve_problems"), (cli, "minimize_power"),
                            (experiments, "solve_policies"), (experiments, "run_policy_study"),
                            (experiments, "compare_pf"), (experiments, "run_theta_sweep")):
            monkeypatch.setattr(owner, name, computed)
    source = tmp_path / "doc.json"
    source.write_bytes((b"\xff" if usage == "not UTF-8" else b"") + documents[document].encode())
    path = {"missing path": tmp_path / "absent.json", "directory": tmp_path}.get(usage, source)
    flags = [] if usage == "missing option" else [f"--{document}", str(path)]
    flags += ["--bogus"] if usage == "unknown flag" else []
    out = source / "out" if usage == "out under a file" else tmp_path / "out"
    line, breaches = _run([*argv, *flags], out, capsys)
    assert not breaches, breaches
    want = {"unknown flag": "error: No such option '--bogus'",
            "missing option": f"error: Missing option '--{document}'",
            "missing path": f"error: Invalid value for '--{document}': Path ",
            "directory": "error: [Errno 21] Is a directory: ",
            "not UTF-8": f"error: {document} is not valid JSON: ",
            "out under a file": "error: [Errno 20] Not a directory: "}[usage]
    assert line is not None and line.startswith(want), line


def test_generate_out_directory_is_one_line(tmp_path, capsys, documents):
    """``generate --out`` naming a directory: one error line, nothing written."""
    source = tmp_path / "config.json"
    source.write_text(documents["config"])
    out = tmp_path / "out"
    out.mkdir()
    line, breaches = _run(["generate", "--seed", "3", "--config", str(source)], out, capsys)
    assert not breaches, breaches
    assert line is not None and line.startswith("error: [Errno 21] Is a directory: "), line
    assert not any(out.iterdir())


def test_generate_missing_key_names_it(tmp_path, capsys, documents):
    assert "n_ue" in _rejection(documents, tmp_path, capsys, "config", "n_ue", "delete")


@pytest.mark.parametrize("key, value", [
    ("n_ue", "x"), ("n_ue", 2.5), ("isd_m", "x"), ("isd_m", float("nan")),
    ("macro_power_dbm", "x"), ("service_mix", "abcde"), ("service_mix", 5),
    ("pico_ring", [0.7]), ("min_dist_site_m", -5.0), ("min_dist_macro_ue_m", 0.0),
    ("min_dist_pico_ue_m", -1.0),
])
def test_malformed_config_is_one_line_error(tmp_path, capsys, documents, key, value):
    # _through_readers checks that the line names the key
    _rejection(documents, tmp_path, capsys, "config", key, value)


def test_solve_malformed_scenario_is_one_line_error(tmp_path, capsys, documents):
    def rejection(path, value):
        return _rejection(documents, tmp_path, capsys, "scenario", path, value)

    assert rejection("base_stations", "delete") == \
        "error: missing required scenario key: base_stations"
    assert rejection("", "{not json").startswith("error: scenario is not valid JSON: ")
    for path, value in (("rb_count", "x"), ("base_stations", {"id": 0})):
        assert rejection(path, value).startswith("error: malformed scenario: ")


@pytest.mark.parametrize("command, flag, what", [
    ("solve", "--scenario", "scenario"), ("sweep", "--scenario", "scenario"),
    ("minimize-power", "--solution", "solution"), ("generate", "--config", "config"),
    ("compare-pf", "--scenario", "scenario"), ("montecarlo", "--config", "config"),
])
def test_non_object_document_is_one_line_error(tmp_path, capsys, command, flag, what):
    doc = tmp_path / "list.json"
    doc.write_text("[]")
    argv = next(cmd for cmds in COMMANDS.values() for cmd in cmds if cmd[0] == command)
    assert _run([*argv, flag, str(doc)], tmp_path / "out", capsys) == (
        f"error: {what} must be a JSON object", [])


@pytest.mark.parametrize("document, key", [
    ("scenario", "meta"), ("solution", "scenario"), ("solution", "association"),
    ("solution", "solution"), ("solution", "meta"),
])
def test_non_object_nested_value_is_one_line_error(tmp_path, capsys, documents, document, key):
    assert _rejection(documents, tmp_path, capsys, document, key, []) == \
        f"error: {document} key {key!r} must be a JSON object"


@pytest.mark.parametrize("key", ["scenario", "association", "association.b_ul",
                                 "association.b_dl", "association.n_bs", "solution",
                                 "solution.w", "solution.p"])
def test_minimize_power_missing_key_is_one_line_error(tmp_path, capsys, documents, key):
    assert _rejection(documents, tmp_path, capsys, "solution", key, "delete") == \
        f"error: missing required solution key: {key.split('.')[-1]}"


@pytest.mark.parametrize("key, value", [("w", "abc"), ("p", ["abc"] * 8),
                                        ("w", [0.1, 0.2, 0.3]), ("p", [[1e-3] * 8])])
def test_minimize_power_malformed_link_vector_is_one_line_error(tmp_path, capsys, documents,
                                                                 key, value):
    assert _rejection(documents, tmp_path, capsys, "solution", f"solution.{key}", value) == \
        f"error: solution key '{key}' must be a list of 8 non-negative numbers"


@pytest.mark.parametrize("key, value, line", [
    ("association.b_ul", "abc", "error: malformed solution: "),
    ("association.n_bs", "x", "error: n_bs must be an integer >= 1, got 'x'"),
    ("solution.theta", "x", "error: malformed solution: "),
    ("meta.overlap", [], "error: malformed solution: "),
    ("meta.overlap_load_ul", "x", "error: malformed solution: "),
], ids=["association.b_ul-abc", "association.n_bs-x", "solution.theta-x", "meta.overlap-value3",
        "meta.overlap_load_ul-x"])
def test_minimize_power_malformed_solution_is_one_line_error(tmp_path, capsys, documents,
                                                              key, value, line):
    got = _rejection(documents, tmp_path, capsys, "solution", key, value)
    assert got.startswith(line) if line.endswith(" ") else got == line


@pytest.mark.parametrize("key, index, value", [("b_ul", 0, 1.7), ("b_dl", 1, float("nan"))])
def test_minimize_power_non_integral_association_is_one_line_error(tmp_path, capsys, documents,
                                                                    key, index, value):
    # _rejection fails on any warning, such as a cast warning before the line
    assert _rejection(documents, tmp_path, capsys, "solution", f"association.{key}.{index}",
                      value) == f"error: {key} must hold integer BS indices in [0, 9)"


@pytest.mark.parametrize("document, path, value, line", [
    ("solution", "schema_version", 2, "error: solution key 'schema_version' must be 1, got 2"),
    ("solution", "schema_version", "delete",
     "error: solution key 'schema_version' must be 1, got null"),
    ("scenario", "base_stations.0.position_m.0", "x",
     "error: malformed scenario: key 'position_m' must be 2 finite numbers"),
    ("solution", "solution.theta", 10 ** 400,
     f"error: malformed solution: key 'theta' must be a finite number, got {10 ** 400}"),
    ("scenario", "pathloss_db.bs_to_ue.0.0", 10 ** 400,
     "error: malformed scenario: key 'bs_to_ue' must be 9 x 4 finite numbers"),
    ("config", "isd_m", 10 ** 400, f"error: isd_m must be a finite number, got {10 ** 400}"),
    ("config", "rb_count", 10 ** 400, f"error: rb_count must be a finite number, got {10 ** 400}"),
    ("scenario", "rb_count", 10 ** 400,
     f"error: malformed scenario: key 'rb_count' must be a finite number, got {10 ** 400}"),
    ("solution", "association.n_bs", 10 ** 400,
     f"error: n_bs must be a finite number >= 1, got {10 ** 400}"),
    ("solution", "association.b_ul.1", 10 ** 400,
     "error: malformed solution: key 'b_ul' must be 4 numbers"),
], ids=["solution-schema_version-2", "solution-schema_version-delete",
        "scenario-position_m.0-x", "solution-theta-1e400", "scenario-pathloss-1e400",
        "config-isd_m-1e400", "config-rb_count-1e400", "scenario-rb_count-1e400",
        "solution-n_bs-1e400", "solution-b_ul.1-1e400"])
def test_field_outside_the_grid_rule_is_one_line_error(tmp_path, capsys, documents, document,
                                                       path, value, line):
    """Inputs the grid's field rule cannot see, because ``"x"`` there was
    accepted too (a solution's schema version, a position entry), and JSON
    integers too large for a float."""
    assert _rejection(documents, tmp_path, capsys, document, path, value) == line


@pytest.mark.parametrize("document", ["scenario", "solution"])
@pytest.mark.parametrize("key, value, rule", [
    ("config_hash", "x\nfake,row", '16 lowercase hex digits or null, got "x\\nfake,row"'),
    ("seed", {"a": [1, 2]}, 'a non-negative integer or null, got {"a": [1, 2]}'),
], ids=["config_hash-newline", "seed-object"])
def test_bad_provenance_is_one_line_error(tmp_path, capsys, documents, document, key, value,
                                          rule):
    """A document's seed and config hash reach the meta of every output and a
    CSV's comment line, so a value ``generate`` cannot write is refused."""
    assert _rejection(documents, tmp_path, capsys, document, f"meta.{key}", value) == \
        f"error: {document} meta key {key!r} must be {rule}"


@pytest.mark.parametrize("document", ["scenario", "solution"])
@pytest.mark.parametrize("key, mutation", [("seed", "delete"), ("seed", "null"), ("seed", "0"),
                                           ("config_hash", "delete"), ("config_hash", "null")])
def test_absent_or_null_provenance_is_accepted(tmp_path, capsys, documents, document, key,
                                               mutation):
    assert _through_readers(documents, document, f"meta.{key}", mutation, tmp_path,
                            capsys) == (None, [])


@pytest.mark.parametrize("key", sorted(COUNT_RANGES))
def test_config_count_outside_its_range_is_one_line_error(tmp_path, capsys, documents, key):
    """The count fields' documented ranges; a count above its cap fails
    before ``generate`` draws anything."""
    low, high = COUNT_RANGES[key]
    for value in (low - 1, high + 1):
        assert _rejection(documents, tmp_path, capsys, "config", key, value) == \
            f"error: {key} must be in [{low}, {high}], got {value}"


@pytest.fixture()
def bad_flag(tmp_path, capsys, config_file, scenario_file):
    """``args`` (a command and its flags) on the CLI fixtures: the error line
    and every breach of the contract.  A flag in ``args`` overrides the same
    flag given before it."""
    def run(args):
        command, *flags = args
        inputs = {"generate": ["--config", str(config_file), "--seed", "7"],
                  "montecarlo": ["--config", str(config_file), "--trials", "1",
                                 "--seed-base", "7"],
                  "sweep": ["--scenario", str(scenario_file)]}
        argv = [command,
                *inputs.get(command, ["--scenario", str(scenario_file), "--policy", "coud"]),
                *flags]
        return _run(argv, tmp_path / "out", capsys)
    return run


def test_solve_non_positive_theta_is_one_line_error(bad_flag):
    for theta in ("0", "inf", "nan"):
        assert bad_flag(["solve", "--theta", theta]) == ("error: theta must be positive", [])


@pytest.mark.parametrize("theta", ["0", "inf", "nan"])
def test_theta_sweep_non_positive_theta_is_one_line_error(bad_flag, theta):
    assert bad_flag(["theta-sweep", "--theta", theta]) == ("error: theta must be positive", [])


@pytest.mark.parametrize("command", ["solve", "theta-sweep"])
def test_overflowing_budget_scale_is_one_line_error(bad_flag, command):
    """A finite ``--theta`` that scales a budget past the largest float: no
    overflow warning before the line (pytest turns it into an error)."""
    assert bad_flag([command, "--theta", "1e308"]) == (
        "error: power budgets must be strictly positive and finite", [])


@pytest.mark.parametrize("noise, breach", [("nan", "positive"), ("-1e400", "positive"),
                                           ("1e400", "finite")])
def test_theta_sweep_nan_noise_is_one_line_error(bad_flag, noise, breach):
    assert bad_flag(["theta-sweep", "--noise-dbm", noise]) == (
        f"error: rb_bandwidth and noise_psd must be {breach}", [])


@pytest.mark.parametrize("command, flag", [("generate", "--seed"), ("montecarlo", "--seed-base")])
def test_negative_seed_is_one_line_error(bad_flag, command, flag):
    assert bad_flag([command, flag, "-1"]) == (
        f"error: Invalid value for '{flag}': -1 is not in the range x>=0.", [])


@pytest.mark.parametrize("scheme", ["pairwise", "specific"])
@pytest.mark.parametrize("direction", ["ul", "dl"])
def test_solve_nan_overlap_load_is_one_line_error(bad_flag, scheme, direction):
    assert bad_flag(["solve", "--overlap", scheme, f"--overlap-load-{direction}", "nan"]) == (
        "error: historical loads must lie in [0, 1]", [])


@pytest.mark.parametrize("args, line", [
    (["solve", "--policy", "deud-o:nan"], "error: policy offset must be finite, got nan dB"),
    (["solve", "--policy", "deud-o:inf"], "error: policy offset must be finite, got inf dB"),
    (["sweep", "--offsets", "nan"], "error: bad offset 'nan'"),
    (["sweep", "--offsets", "0,inf"], "error: bad offset 'inf'"),
    (["sweep", "--offsets", ","], "error: no offsets in ','"),
], ids=[f"args{i}" for i in range(5)])
def test_non_finite_offset_is_one_line_error(bad_flag, args, line):
    assert bad_flag(args) == (line, [])


def test_sweep_offsets_over_the_cap_is_one_line_error(bad_flag):
    assert bad_flag(["sweep", "--offsets", "0..2000:1"]) == (
        f"error: more than {MAX_OFFSETS} offsets at '0..2000:1'", [])


@pytest.mark.parametrize("flag, value", [("--trials", "0"), ("--workers", "0"),
                                         ("--workers", "-3")])
def test_montecarlo_bad_count_is_one_line_error(bad_flag, flag, value):
    assert bad_flag(["montecarlo", flag, value]) == (f"error: {flag[2:]} must be >= 1", [])


@pytest.mark.parametrize("split", ["0:25", "25:0"])
def test_compare_pf_empty_direction_is_one_line_error(bad_flag, split):
    assert bad_flag(["compare-pf", "--split", split]) == (
        f"error: split ({split.replace(':', ', ')}) must give each direction at least one "
        "of the 25 RBs", [])
