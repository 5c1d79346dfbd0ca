"""Average guessing fidelity against an independent single-spin oracle,
plus frozen regression values and the optimizer's contract.

The single-spin oracle below never touches the library's momentum code:
for one spin the conditional amplitude is isotropic, E(r) = w0(r) I +
w1(r) r_hat.sigma, and both radial weights reduce to closed Gaussian
integrals, leaving one ordinary radial quadrature for the fidelity.
"""
import math
import tracemalloc

import numpy as np
import pytest

from spinpointer import estimation, pointer
from spinpointer.errors import CapabilityError, ConvergenceError, DomainError
from spinpointer.estimation import (
    FidelityPoint,
    GuessRule,
    average_fidelity,
    find_delta_opt,
    optimal_fidelity,
    strong_coupling_limit,
)
from spinpointer.pointer import MomentumQuadrature, PointerModel, QuadratureCounts, adaptive_outcome_grid
from spinpointer.quadrature import gauss_legendre


def _single_spin_weights(r: np.ndarray, spread: float) -> tuple[np.ndarray, np.ndarray]:
    # Closed forms of Int_0^inf dp p^2 profile(p) j_l(r p) x {cos(p/2), i-free sin(p/2)}
    # via Int_0^inf e^{-a p^2} cos(k p) dp and Int_0^inf p e^{-a p^2} sin(k p) dp.
    a = spread * spread
    c = math.sqrt(2.0 / math.pi) * (2.0 * a / math.pi) ** 0.75

    def gauss_cos(k):
        return 0.5 * math.sqrt(math.pi / a) * np.exp(-k * k / (4.0 * a))

    def gauss_psin(k):
        return math.sqrt(math.pi) * k / (4.0 * a**1.5) * np.exp(-k * k / (4.0 * a))

    plus, minus = r + 0.5, r - 0.5
    w0 = c / (2.0 * r) * (gauss_psin(plus) + gauss_psin(minus))
    w1 = c * (
        (gauss_cos(minus) - gauss_cos(plus)) / (2.0 * r * r)
        - (gauss_psin(plus) - gauss_psin(minus)) / (2.0 * r)
    )
    return w0, w1


def _single_spin_radial_rule(spread: float):
    r_max = 0.5 + 12.0 * spread
    nodes = max(256, int(math.ceil(2.5 * r_max / spread)))
    return gauss_legendre(min(nodes, 4000), 0.0, r_max)


def single_spin_fidelity_oracle(spread: float) -> float:
    rule = _single_spin_radial_rule(spread)
    w0, w1 = _single_spin_weights(rule.nodes, spread)
    integrand = rule.nodes**2 * (w0 * w0 + w1 * w1 + (2.0 / 3.0) * w0 * w1)
    return 2.0 * math.pi * float(rule.weights @ integrand)


def single_spin_completeness_oracle(spread: float) -> float:
    rule = _single_spin_radial_rule(spread)
    w0, w1 = _single_spin_weights(rule.nodes, spread)
    return 4.0 * math.pi * float(rule.weights @ (rule.nodes**2 * (w0 * w0 + w1 * w1)))


def test_oracle_is_complete():
    for spread in (0.05, 0.3, 1.0):
        assert single_spin_completeness_oracle(spread) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("spread", [0.2, 0.475, 0.7, 1.0])
def test_single_spin_fidelity_matches_oracle(spread):
    point = average_fidelity(1, PointerModel(spread))
    assert point.accepted
    assert point.fidelity == pytest.approx(single_spin_fidelity_oracle(spread), abs=5e-4)


def test_single_spin_curve_has_interior_revival():
    # The curve dips near spread 0.2 and climbs back above its small-spread
    # value near 0.475: momentum kicks around |p| = pi flip the spin outright.
    dip = single_spin_fidelity_oracle(0.2)
    revival = single_spin_fidelity_oracle(0.475)
    edge = single_spin_fidelity_oracle(0.05)
    assert dip == pytest.approx(0.60822606, abs=1e-6)
    assert revival == pytest.approx(0.66496930, abs=1e-6)
    assert edge == pytest.approx(0.66322795, abs=1e-6)
    assert revival > edge > dip


@pytest.mark.parametrize(
    "n_spins,expected",
    [(1, 0.666511), (3, 0.699648)],
)
def test_strong_coupling_endpoint_frozen(n_spins, expected):
    point = average_fidelity(n_spins, PointerModel(0.01))
    assert point.fidelity == pytest.approx(expected, abs=5e-5)
    assert point.fidelity == pytest.approx(strong_coupling_limit(n_spins), abs=1e-3)


@pytest.mark.parametrize(
    "n_spins,expected",
    [(1, 0.513256), (2, 0.526506), (3, 0.539703), (4, 0.552804)],
)
def test_weak_coupling_endpoint_frozen(n_spins, expected):
    point = average_fidelity(n_spins, PointerModel(10.0))
    assert point.fidelity == pytest.approx(expected, abs=5e-5)
    # First-order weak-coupling law: F - 1/2 = sqrt(2/pi) n / (6 spread).
    law = math.sqrt(2.0 / math.pi) * n_spins / (6.0 * 10.0)
    assert point.fidelity - 0.5 == pytest.approx(law, rel=0.02)


def test_guess_rule_dominance_and_branch():
    model = PointerModel(0.5)
    plus = average_fidelity(2, model, GuessRule.PLUS_R)
    minus = average_fidelity(2, model, GuessRule.MINUS_R)
    best = average_fidelity(2, model, GuessRule.BEST_OF_AXIS)
    assert plus.fidelity > minus.fidelity
    assert best.fidelity >= max(plus.fidelity, minus.fidelity) - 1e-12
    assert best.branch == "plus_r"
    assert plus.fidelity + minus.fidelity == pytest.approx(1.0, abs=5e-3)



def test_guess_rule_text_is_its_value_and_unknown_text_is_refused_before_any_build(monkeypatch):
    model = PointerModel(0.5)
    for rule in GuessRule:
        assert average_fidelity(1, model, rule.value) == average_fidelity(1, model, rule)
    builds, build = [], pointer.build_amplitude_field

    def counted(*args, **kwargs):
        builds.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(pointer, "build_amplitude_field", counted)
    monkeypatch.setattr(estimation, "build_amplitude_field", counted)
    # "plus-r" is the command line's spelling, not the rule's value.
    for rule in ("bogus", "plus-r", None, 1):
        with pytest.raises(DomainError, match="unknown guess rule"):
            average_fidelity(1, model, rule)
    assert builds == []

def test_fidelity_stays_in_physical_band():
    for spread in (0.1, 0.6, 1.2):
        point = average_fidelity(3, PointerModel(spread))
        assert point.accepted
        assert 0.48 <= point.fidelity <= optimal_fidelity(3) + 1e-3


def test_optimal_fidelity_values():
    assert optimal_fidelity(1) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert optimal_fidelity(2) == pytest.approx(0.75, abs=1e-15)
    assert optimal_fidelity(3) == pytest.approx(0.8, abs=1e-15)
    assert strong_coupling_limit(1) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert strong_coupling_limit(2) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert strong_coupling_limit(3) == pytest.approx(0.7, abs=1e-15)
    assert strong_coupling_limit(4) == pytest.approx(0.7, abs=1e-15)


def test_optimizer_finds_interior_maximum():
    result = find_delta_opt(2, (0.3, 1.0), nodes_r=64, nodes_theta=48)
    assert not result.boundary_flag
    assert result.delta_opt == pytest.approx(0.587, abs=0.06)
    assert result.f_max > 2.0 / 3.0
    assert result.gap == pytest.approx(result.f_opt - result.f_max, abs=1e-15)
    assert 0.0 < result.gap < 0.01
    assert result.evaluations > 5
    # Golden-section certificate: nudging the argument does not help.
    for shift in (-0.05, 0.05):
        nearby = average_fidelity(2, PointerModel(result.delta_opt + shift), nodes_r=64, nodes_theta=48)
        assert result.f_max >= nearby.fidelity - 2e-3


def test_optimizer_frozen_evaluations_and_bits():
    # Frozen: the search must visit the same points in the same order, which
    # fixes both the evaluation count and the tie-break among equal values.
    result = find_delta_opt(2)
    assert result.evaluations == 15
    assert result.delta_opt.hex() == "0x1.2cb1a84c139c9p-1"


def test_unconverged_point_raises():
    coarse = MomentumQuadrature(radial_nodes=6, polar_nodes=6)
    with pytest.raises(ConvergenceError):
        average_fidelity(2, PointerModel(0.05), quad=coarse)


def test_over_cap_refinement_is_refused_after_the_scan_alone(monkeypatch):
    # The cap admits the scan's and the base pass's radial counts but not the
    # refinement pass's, so only the scan may be built before the refusal.
    # The outcome counts share the cap, so they are taken small enough that
    # their refinement pass fits it too.
    n_spins, model, quad = 1, PointerModel(0.5), MomentumQuadrature()
    outcome = dict(nodes_r=32, nodes_theta=32)
    scan = quad.effective_radial(0.5 * n_spins + 6.0 * model.spread, model, n_spins)
    grid = adaptive_outcome_grid(n_spins, model, **outcome)
    base = quad.radial_count(quad.effective_radial(grid.r_max, model, n_spins))
    cap = max(scan, base)
    assert quad.radial_count(base, refined=True) > cap
    monkeypatch.setattr(pointer, "MAX_RADIAL_NODES", cap)
    builds, build = [], pointer.build_amplitude_field

    def counted(*args, **kwargs):
        builds.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(pointer, "build_amplitude_field", counted)
    monkeypatch.setattr(estimation, "build_amplitude_field", counted)
    with pytest.raises(CapabilityError, match=f"cap {cap}"):
        average_fidelity(n_spins, model, quad=quad, **outcome)
    assert len(builds) == 1


def test_domain_errors():
    with pytest.raises(DomainError):
        average_fidelity(0, PointerModel(1.0))
    with pytest.raises(DomainError):
        average_fidelity(1, PointerModel(1.0), rule="sideways")
    counts = QuadratureCounts(nodes_r=48, nodes_theta=32, nodes_p_radial=64, nodes_p_polar=2)
    for fidelity in (-1e-6, 1.0 + 1e-6, math.nan):
        with pytest.raises(DomainError, match=r"outside \[0, 1\]"):
            FidelityPoint(1, 1.0, "plus_r", fidelity, 0.0, True, "plus_r", counts)


def test_exact_fidelity_peak_memory_at_n_100():
    # The spin factor streams into the polar moments, the field is written in
    # place and the base field is released before the refined build. With the
    # spin factor held as one (n+1, N_p, N_c) stack the traced peak was 110.5 MiB.
    tracemalloc.start()
    try:
        average_fidelity(100, PointerModel(math.sqrt(12.5)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80 * 2**20
