"""The invariant suite can fail: each check below reports passed = False
when the route it reads is replaced by one that breaks its invariant."""
from types import SimpleNamespace

import pytest

from spinpointer import validate


def test_bloch_check_fails_when_the_closed_sz_exceeds_the_initial_sz(monkeypatch):
    def bloch(n, model):
        return SimpleNamespace(sz_initial=0.5 * n, sz_post_closed=0.5 * n + 0.25,
                               sz_post_numeric=0.5 * n + 0.25, sx_post=0.0, sy_post=0.0,
                               error_estimate=0.0, accepted=True)

    monkeypatch.setattr(validate, "bloch_post_numeric", bloch)
    result = validate._check_bloch_paths()
    assert result.name == "bloch_closed_vs_numeric"
    assert (result.passed, result.measured) == (False, 0.25)


def test_bloch_check_fails_on_a_point_not_accepted(monkeypatch):
    # Closed and numeric S_z agree, but the refinement pass moved by more
    # than its tolerance; the largest change is in the detail.
    def bloch(n, model):
        return SimpleNamespace(sz_initial=0.5 * n, sz_post_closed=0.25, sz_post_numeric=0.25,
                               sx_post=0.0, sy_post=0.0, error_estimate=2e-3 if n == 5 else 0.0,
                               accepted=n != 5)

    monkeypatch.setattr(validate, "bloch_post_numeric", bloch)
    result = validate._check_bloch_paths()
    assert (result.passed, result.measured) == (False, 1.0)
    assert "max err_estimate 2.00e-03" in result.detail


@pytest.mark.parametrize(
    "masses, measured",
    [({1: (0.75, 0.75), 2: (0.6, 0.4)}, 1.0),   # n = 1: upper no larger than lower
     ({1: (0.75, 0.25), 2: (0.4, 0.6)}, 0.2)],  # n = 2: upper below lower
    ids=["n1", "n2"],
)
def test_hemisphere_check_fails_when_the_lower_cap_wins(masses, measured, monkeypatch):
    monkeypatch.setattr(validate, "hemisphere_masses", lambda n, model: masses[n])
    result = validate._check_hemisphere_orientation()
    assert result.name == "hemisphere_orientation"
    assert result.passed is False
    assert result.measured == pytest.approx(measured, abs=1e-15)


@pytest.mark.parametrize(
    "accepted, fidelity",
    [(False, 0.6),  # inside the window, but not accepted
     (True, 0.4)],  # accepted, but below 1/2 - 0.02
    ids=["not_accepted", "outside_window"],
)
def test_fidelity_check_fails_on_a_rejected_or_implausible_point(accepted, fidelity, monkeypatch):
    point = SimpleNamespace(accepted=accepted, fidelity=fidelity, error_estimate=0.0)
    monkeypatch.setattr(validate, "average_fidelity", lambda n, model: point)
    result = validate._check_fidelity_refinement()
    assert result.name == "fidelity_refinement_accepted"
    # One bad mark for each of the 4 sizes at each of the 3 spreads.
    assert (result.passed, result.measured) == (False, 12.0)
