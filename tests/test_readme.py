"""The README's library example runs as written, and its study config is
the library's."""

import json
import re
from pathlib import Path

import pytest

from flexlink.experiments import STUDY_CONFIG
from flexlink.io import config_from_dict

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    solution, saved = namespace["solution"], namespace["saved"]
    assert solution.lam > 1.0
    assert saved.lam == pytest.approx(1.0, abs=1e-4)
    assert saved.saving_ratio < 1.0


def test_readme_study_config_is_the_library_one():
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    assert config_from_dict(json.loads(blocks[0])) == STUDY_CONFIG
