"""The solver's outputs on the golden case list equal the committed ones:
steps, convergence flags and iteration counts exactly, every float to 1e-12
relative.  See ``tests/golden_solves.py`` for the cases and the command that
regenerates the file."""

import json

from .golden_solves import PATH, computed_records, merged, mismatches, render


def test_outputs_equal_the_golden_file():
    text = PATH.read_text()
    golden = json.loads(text)
    computed = computed_records()
    assert sorted(computed) == sorted(golden)
    bad = [m for name in golden for m in mismatches(name, golden[name], computed[name])]
    assert not bad, f"{len(bad)} mismatches, first: {bad[:5]}"
    # regenerating the file would leave it byte for byte as it is
    assert render(merged(golden, computed)) == text
