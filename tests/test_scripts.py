"""The scripts under ``scripts/``: their command lines and exit codes."""

import importlib.util
import pathlib

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("flag, value", [("--trials", "0"), ("--workers", "0")])
def test_policy_study_bad_count_is_one_line_error(tmp_path, capsys, flag, value):
    counts = ["--trials", "1", "--workers", "1"]
    counts[counts.index(flag) + 1] = value
    out = tmp_path / "study"
    assert _load("run_policy_study").main([*counts, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {flag[2:]} must be >= 1"]
    assert captured.out == "" and not out.exists()
