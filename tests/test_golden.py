"""The solver's outputs on the golden case list equal the committed ones:
steps, convergence flags and iteration counts exactly, every float to 1e-12
relative.  See ``tests/golden_solves.py`` for the cases and the command that
regenerates the file."""

import json
import math

from .golden_solves import PATH, cases

RTOL = 1e-12


def _mismatches(path, want, got):
    if isinstance(want, dict) and isinstance(got, dict):
        if sorted(want) != sorted(got):
            return [f"{path}: keys {sorted(want)} != {sorted(got)}"]
        return [m for key in want for m in _mismatches(f"{path}.{key}", want[key], got[key])]
    if isinstance(want, list) and isinstance(got, (list, tuple)):
        if len(want) != len(got):
            return [f"{path}: length {len(want)} != {len(got)}"]
        return [m for i, (a, b) in enumerate(zip(want, got))
                for m in _mismatches(f"{path}[{i}]", a, b)]
    if isinstance(want, float) and not isinstance(got, (bool, str)):
        same = (math.isnan(want) and math.isnan(got)) or want == got \
            or abs(got - want) <= RTOL * abs(want)
        return [] if same else [f"{path}: {got!r} != {want!r}"]
    return [] if want == got and type(want) is type(got) else [f"{path}: {got!r} != {want!r}"]


def test_outputs_equal_the_golden_file():
    with open(PATH) as fh:
        golden = json.load(fh)
    computed = {name: json.loads(json.dumps(compute())) for name, compute in cases()}
    assert sorted(computed) == sorted(golden)
    bad = [m for name in golden for m in _mismatches(name, golden[name], computed[name])]
    assert not bad, f"{len(bad)} mismatches, first: {bad[:5]}"
