"""Frozen CLI outputs: each case's stdout must match its file under
tests/golden byte for byte.

A golden file holds the stdout of `python -m spinpointer.cli ARGS` for the
case's ARGS. Regenerate one only with a change that is meant to move the
numbers, and record that change in CHANGES.md.
"""
from pathlib import Path

import pytest

from spinpointer import cli

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "sweep_plus_r.csv": ["sweep", "--n", "2", "--delta", "0.3", "--delta", "0.8",
                         "--nodes-r", "48", "--nodes-theta", "32"],
    "sweep_best_of_axis.csv": ["sweep", "--n", "1", "--n", "3", "--delta", "0.2",
                               "--delta", "1.0", "--guess-rule", "best-of-axis",
                               "--nodes-r", "48", "--nodes-theta", "32"],
    "sweep_explicit_momentum.csv": ["sweep", "--n", "5", "--delta", "1.0", "--nodes-r", "48",
                                    "--nodes-theta", "32", "--nodes-p-radial", "80"],
    "optimize_n2.json": ["optimize", "--n", "2"],
    "disturbance_marked.csv": ["disturbance", "--n", "1", "--n", "3", "--delta-min", "0.1",
                               "--delta-max", "2", "--delta-steps", "5", "--mark-delta-opt"],
    "disturbance_explicit_momentum.csv": ["disturbance", "--n", "2", "--delta", "0.5",
                                          "--nodes-p-radial", "160", "--nodes-p-polar", "8"],
    "bloch.csv": ["bloch", "--n", "1", "--n", "5", "--delta", "0.3", "--delta", "1"],
    "asympt_formula.csv": ["asympt", "--n-min", "150", "--n-max", "200", "--n-step", "50"],
    # No other case reaches the golden-section search over the lower bound.
    "asympt_optimize.csv": ["asympt", "--n-min", "4", "--n-max", "8", "--n-step", "4",
                            "--spread-rule", "optimize"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, capsys):
    code = cli.main(CASES[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / name).read_bytes().decode("utf-8")
