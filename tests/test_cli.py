"""Command-line interface: files, determinism, exit codes."""

import hashlib
import json

import numpy as np
import pytest

from flexlink.association import Policy, associate
from flexlink.cli import main, parse_offsets
from flexlink.errors import ConfigError
from flexlink.experiments import DEFAULT_HISTORY_DL
from flexlink.interference import Problem
from flexlink.io import load_scenario
from flexlink.optimizer import SolveTrace, minimize_power
from flexlink.scenario import uniform_overlap

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
    for bad in ("5..1", "nan", "inf", "0,-inf", "nan..5", "0..5:inf", "0..nan"):
        with pytest.raises(ConfigError, match="bad offset"):
            parse_offsets(bad)


def test_generate_is_deterministic_by_file_hash(tmp_path, config_file):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["generate", "--config", str(config_file), "--seed", "9", "--out", str(a)]) == 0
    assert main(["generate", "--config", str(config_file), "--seed", "9", "--out", str(b)]) == 0
    assert _sha(a) == _sha(b)
    c = tmp_path / "c.json"
    assert main(["generate", "--config", str(config_file), "--seed", "10", "--out", str(c)]) == 0
    assert _sha(a) != _sha(c)


def test_generate_missing_key_names_it(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({k: v for k, v in CONFIG.items() if k != "n_ue"}))
    code = main(["generate", "--config", str(bad), "--seed", "1",
                 "--out", str(tmp_path / "x.json")])
    assert code == 1
    assert "n_ue" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("n_ue", "x"), ("n_ue", 2.5), ("isd_m", "x"), ("isd_m", float("nan")),
    ("macro_power_dbm", "x"), ("service_mix", "abcde"), ("service_mix", 5),
    ("pico_ring", [0.7]),
])
def test_malformed_config_is_one_line_error(tmp_path, capsys, key, value):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(CONFIG | {key: value}))
    out = tmp_path / "out"
    for args in (["generate", "--seed", "1"], ["montecarlo", "--trials", "1", "--seed-base", "1"]):
        assert main([*args, "--config", str(bad), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and key in err[0], err
        assert not out.exists()


def test_generated_file_round_trips_through_load(scenario_file):
    from flexlink import io

    sc = io.load_scenario(scenario_file)
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


def test_solve_non_positive_theta_is_one_line_error(tmp_path, scenario_file, capsys):
    for theta in ("0", "inf", "nan"):
        out = tmp_path / f"theta{theta}"
        assert main(["solve", "--scenario", str(scenario_file), "--policy", "deud-p",
                     "--theta", theta, "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: theta must be positive"]
        assert not out.exists()


@pytest.mark.parametrize("scheme", ["pairwise", "specific"])
@pytest.mark.parametrize("direction", ["ul", "dl"])
def test_solve_nan_overlap_load_is_one_line_error(tmp_path, scenario_file, capsys,
                                                  scheme, direction):
    out = tmp_path / "out"
    assert main(["solve", "--scenario", str(scenario_file), "--policy", "coud",
                 "--overlap", scheme, f"--overlap-load-{direction}", "nan",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: historical loads must lie in [0, 1]"]
    assert not out.exists()


def test_solve_malformed_scenario_is_one_line_error(tmp_path, scenario_file, capsys):
    doc = json.loads(scenario_file.read_text())
    del doc["base_stations"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "bad_out"
    assert main(["solve", "--scenario", str(bad), "--policy", "coud", "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: missing required scenario key: base_stations"]
    assert not out.exists()

    bad.write_text("{not json")
    assert main(["solve", "--scenario", str(bad), "--policy", "coud", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: scenario is not valid JSON")

    # wrongly typed fields
    for key, value in (("rb_count", "x"), ("base_stations", {"id": 0})):
        bad.write_text(json.dumps(json.loads(scenario_file.read_text()) | {key: value}))
        assert main(["solve", "--scenario", str(bad), "--policy", "coud", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: malformed scenario: "), err
    assert not out.exists()


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


@pytest.mark.parametrize("args", [["solve", "--policy", "deud-o:nan"],
                                  ["solve", "--policy", "deud-o:inf"],
                                  ["sweep", "--offsets", "nan"],
                                  ["sweep", "--offsets", "0,inf"],
                                  ["sweep", "--offsets", ","]])
def test_non_finite_offset_is_one_line_error(tmp_path, scenario_file, capsys, args):
    out = tmp_path / "out"
    assert main([*args, "--scenario", str(scenario_file), "--out", str(out)]) == 1
    bad_value = args[-1].split(":")[-1].split(",")[-1]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and bad_value in err[0]
    assert not out.exists()


@pytest.mark.parametrize("command, flag, what", [
    ("solve", "--scenario", "scenario"), ("sweep", "--scenario", "scenario"),
    ("minimize-power", "--solution", "solution"), ("generate", "--config", "config"),
])
def test_non_object_document_is_one_line_error(tmp_path, capsys, command, flag, what):
    doc = tmp_path / "list.json"
    doc.write_text("[]")
    extra = {"solve": ["--policy", "coud"], "generate": ["--seed", "1"]}.get(command, [])
    out = tmp_path / "out"
    assert main([command, flag, str(doc), *extra, "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {what} must be a JSON object"]
    assert not out.exists()


@pytest.mark.parametrize("document, key", [
    ("scenario", "meta"), ("solution", "scenario"), ("solution", "association"),
    ("solution", "solution"), ("solution", "meta"),
])
def test_non_object_nested_value_is_one_line_error(tmp_path, scenario_file, capsys,
                                                   document, key):
    sol_dir = tmp_path / "sol"
    assert main(["solve", "--scenario", str(scenario_file), "--policy", "coud",
                 "--out", str(sol_dir)]) == 0
    source = scenario_file if document == "scenario" else sol_dir / "solution.json"
    doc = json.loads(source.read_text())
    doc[key] = []
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    out = tmp_path / "out"
    if document == "scenario":
        args = ["solve", "--scenario", str(bad), "--policy", "coud"]
    else:
        args = ["minimize-power", "--solution", str(bad)]
    assert main([*args, "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {document} key {key!r} must be a JSON object"]
    assert not out.exists()


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


@pytest.mark.parametrize("flag, value", [("--trials", "0"), ("--workers", "0"),
                                         ("--workers", "-3")])
def test_montecarlo_bad_count_is_one_line_error(tmp_path, config_file, capsys, flag, value):
    counts = ["--trials", "1", "--workers", "1"]
    counts[counts.index(flag) + 1] = value
    out = tmp_path / "mc"
    assert main(["montecarlo", "--config", str(config_file), "--seed-base", "7",
                 *counts, "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {flag[2:]} must be >= 1"]
    assert not out.exists()


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


@pytest.mark.parametrize("split", ["0:25", "25:0"])
def test_compare_pf_empty_direction_is_one_line_error(tmp_path, scenario_file, capsys, split):
    out = tmp_path / "pf"
    assert main(["compare-pf", "--scenario", str(scenario_file), "--policy", "coud",
                 "--split", split, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: split ({split.replace(':', ', ')})")
    assert not out.exists()


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

    # infeasible input (utility <= 1) is a usage error: exit 1
    heavy = dict(CONFIG, service_mix=[1.0, 0.0, 0.0, 0.0, 0.0], n_ue=10)
    cfg3 = tmp_path / "heavy.json"
    cfg3.write_text(json.dumps(heavy))
    scen3 = tmp_path / "heavy_scenario.json"
    assert main(["generate", "--config", str(cfg3), "--seed", "3", "--out", str(scen3)]) == 0
    sol3 = tmp_path / "sol3"
    assert main(["solve", "--scenario", str(scen3), "--policy", "coud",
                 "--out", str(sol3)]) == 0
    code = main(["minimize-power", "--solution", str(sol3 / "solution.json"),
                 "--out", str(tmp_path / "mp3")])
    assert code == 1


def test_minimize_power_uses_the_solve_overlap(tmp_path, capsys):
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
    scenario = load_scenario(scen)
    overlap = uniform_overlap(scenario.n_bs, 0.3, DEFAULT_HISTORY_DL)
    problem = Problem.from_scenario(scenario, associate(Policy.parse("deud-o:21"), scenario),
                                    overlap=overlap)
    expected = minimize_power(problem, np.array(doc["solution"]["w"]),
                              np.array(doc["solution"]["p"]))
    assert json.loads((out / "minpower.json").read_text())["p_min"] == expected.p_min.tolist()

    # a document that names an overlap scheme without its loads is refused
    del doc["meta"]["overlap_load_dl"]
    bad = tmp_path / "no_loads.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["minimize-power", "--solution", str(bad), "--out", str(tmp_path / "mp2")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "pairwise" in err[0]


@pytest.mark.parametrize("key", ["scenario", "association", "association.b_ul",
                                 "association.b_dl", "association.n_bs", "solution",
                                 "solution.w", "solution.p"])
def test_minimize_power_missing_key_is_one_line_error(tmp_path, scenario_file, capsys, key):
    assert main(["solve", "--scenario", str(scenario_file), "--policy", "coud",
                 "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "solution.json").read_text())
    *outer, name = key.split(".")
    del (doc[outer[0]] if outer else doc)[name]
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    capsys.readouterr()
    out = tmp_path / "minpower"
    assert main(["minimize-power", "--solution", str(tmp_path / "bad.json"),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: missing required solution key: {name}"]
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("w", "abc"), ("p", ["abc"] * 20),
                                        ("w", [0.1, 0.2, 0.3]), ("p", [[1e-3] * 20])])
def test_minimize_power_malformed_link_vector_is_one_line_error(tmp_path, scenario_file, capsys,
                                                                 key, value):
    assert main(["solve", "--scenario", str(scenario_file), "--policy", "coud",
                 "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "solution.json").read_text())
    doc["solution"][key] = value
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    capsys.readouterr()
    out = tmp_path / "minpower"
    assert main(["minimize-power", "--solution", str(tmp_path / "bad.json"),
                 "--out", str(out)]) == 1
    n_links = 2 * CONFIG["n_ue"]
    assert capsys.readouterr().err.splitlines() == [
        f"error: solution key '{key}' must be a list of {n_links} numbers"]
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("association.b_ul", "abc"), ("association.n_bs", "x"), ("solution.theta", "x"),
    ("meta.overlap", []), ("meta.overlap_load_ul", "x"),
])
def test_minimize_power_malformed_solution_is_one_line_error(tmp_path, scenario_file, capsys,
                                                              key, value):
    assert main(["solve", "--scenario", str(scenario_file), "--policy", "coud",
                 "--overlap", "pairwise", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "solution.json").read_text())
    outer, name = key.split(".")
    doc[outer][name] = value
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    capsys.readouterr()
    out = tmp_path / "minpower"
    assert main(["minimize-power", "--solution", str(tmp_path / "bad.json"),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: malformed solution: "), err
    assert not out.exists()


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
    trace.to_csv(path, meta={"policy": "coud", "theta": 1.0})
    assert path.read_text() == ("# policy=coud theta=1.0\n"
                                "step,iteration,lam,g1,g2,residual,boundary\n"
                                "init,0,0.0,0.0,0.0,nan,1\n"
                                "s1,7,1.25,0.5,1.0,3e-08,0\n")


def test_unknown_flag_is_usage_error(tmp_path):
    assert main(["solve", "--bogus"]) == 1
    assert main(["no-such-command"]) == 1
