"""analyze and sweep output against a stored reference.

The reference in data/analysis_golden.json was written by
``PYTHONPATH=src python tests/data/make_analysis_golden.py`` at commit
080552c, before measurement moved onto the cached per-netlist analysis.
"""

import json
from pathlib import Path

import pytest

from quadder.cli import main

GOLDEN = json.loads((Path(__file__).parent / "data" / "analysis_golden.json").read_text())


def _stdout(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, argv
    return out


@pytest.mark.parametrize("mask", ["excluded", "included"])
def test_analyze_matches_reference(capsys, mask):
    cases = [key.split() for key in GOLDEN["analyze"] if key.endswith(mask)]
    assert len(cases) == 5 * 15
    for kind, n, _ in cases:
        # hybrid leans on the --block default, min(4, n), which the reference passed explicitly
        argv = ["analyze", "--kind", kind, "--width", n, "--mask", mask]
        assert _stdout(capsys, argv) == GOLDEN["analyze"][f"{kind} {n} {mask}"], argv


def test_sweep_matches_reference(capsys):
    assert _stdout(capsys, GOLDEN["sweep_argv"]) == GOLDEN["sweep"]
