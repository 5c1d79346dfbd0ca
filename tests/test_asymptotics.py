"""Fidelity lower bound and its large-ensemble scaling."""
import math

import numpy as np
import pytest

from spinpointer.asymptotics import (
    delta_opt_formula,
    diag_radial_profile,
    epsilon_curve,
    fidelity_lower_bound,
    kraus_diagonal_element,
    optimal_scaling,
)
from spinpointer.errors import ConvergenceError, DomainError
from spinpointer.estimation import average_fidelity
from spinpointer.pointer import (
    MomentumQuadrature,
    PointerModel,
    adaptive_outcome_grid,
    build_amplitude_field,
    position_amplitudes,
)
from spinpointer.quadrature import gauss_legendre
from spinpointer.spincore import coherent_dicke, direction_from_angles


def test_spread_formula_values():
    assert delta_opt_formula(1) == pytest.approx(math.sqrt(0.125), abs=1e-15)
    assert delta_opt_formula(2) == pytest.approx(0.5, abs=1e-15)
    assert delta_opt_formula(8) == pytest.approx(1.0, abs=1e-15)
    assert delta_opt_formula(200) == pytest.approx(5.0, abs=1e-15)


def test_optimal_scaling_values():
    assert optimal_scaling(1) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert optimal_scaling(2) == pytest.approx(0.5, abs=1e-15)
    for n in (3, 10, 400):
        assert optimal_scaling(n) == pytest.approx(1.0 / (1.0 + 2.0 / n), abs=1e-15)


def test_diagonal_element_is_coherent_projection():
    # Dual route: the factorized element must equal the projection of the
    # full amplitude field onto the coherent state along the outcome ray.
    model = PointerModel(0.5)
    for radius, polar in ((0.4, 0.3), (1.1, 1.2), (2.0, 2.8)):
        element = kraus_diagonal_element(radius, polar, 2, model)
        vec = position_amplitudes(radius, polar, 2, model)
        coherent = coherent_dicke(direction_from_angles(polar, 0.0), 2)
        projection = complex(np.vdot(coherent.amplitudes, vec.amplitudes))
        assert abs(element - projection) < 1e-12
        assert abs(element) ** 2 <= vec.norm_squared() + 1e-12


def test_diagonal_element_bounded_by_density():
    model = PointerModel(0.5)
    grid = adaptive_outcome_grid(2, model)
    field = build_amplitude_field(2, model, grid)
    density = field.density()
    rng = np.random.default_rng(99)
    for _ in range(20):
        a = int(rng.integers(grid.radial.count))
        b = int(rng.integers(grid.polar.count))
        element = kraus_diagonal_element(
            float(grid.radial.nodes[a]), float(grid.polar.nodes[b]), 2, model
        )
        assert abs(element) ** 2 <= density[a, b] + 1e-6


def test_weak_coupling_profile_integrates_to_unit():
    # spread -> infinity leaves the pointer wavepacket untouched, so the
    # on-axis element's norm approaches 1.
    model = PointerModel(200.0)
    rule = gauss_legendre(768, 0.0, 12.0 * model.spread)
    w = diag_radial_profile(rule.nodes, 2, model)
    total = 4.0 * math.pi * float(rule.weights @ (rule.nodes**2 * np.abs(w) ** 2))
    assert total == pytest.approx(1.0, abs=0.01)


def test_lower_bound_below_average_fidelity():
    for n in (2, 3, 4):
        model = PointerModel(0.7)
        bound = fidelity_lower_bound(n, model)
        exact = average_fidelity(n, model)
        assert bound.accepted
        assert bound.f_lower <= exact.fidelity + exact.error_estimate + bound.error_estimate
        assert bound.epsilon_n == pytest.approx(n * (1.0 - bound.f_lower), abs=1e-12)


def test_lower_bound_frozen_values():
    assert fidelity_lower_bound(2, PointerModel(0.5)).f_lower == pytest.approx(0.730946, abs=2e-5)
    assert fidelity_lower_bound(4, PointerModel(0.9)).f_lower == pytest.approx(0.812594, abs=2e-5)


def test_epsilon_curve_band_and_frozen_values():
    points = epsilon_curve([150, 300], spread_rule="formula")
    eps = {p.n_spins: p.epsilon_n for p in points}
    assert eps[150] == pytest.approx(1.04196, abs=3e-4)
    assert eps[300] == pytest.approx(1.04871, abs=3e-4)
    for p in points:
        assert 0.9 < p.epsilon_n < 1.5
        assert p.epsilon_n > optimal_scaling(p.n_spins)
        assert p.spread == pytest.approx(delta_opt_formula(p.n_spins), abs=1e-15)
        assert p.accepted


def test_formula_spread_is_locally_best_at_large_n():
    center = fidelity_lower_bound(200, PointerModel(5.0)).f_lower
    assert center > fidelity_lower_bound(200, PointerModel(2.5)).f_lower
    assert center > fidelity_lower_bound(200, PointerModel(10.0)).f_lower


def test_optimized_spread_rule_improves_on_formula():
    formula = epsilon_curve([20], spread_rule="formula")[0]
    tuned = epsilon_curve([20], spread_rule="optimize")[0]
    base = delta_opt_formula(20)
    assert 0.5 * base <= tuned.spread <= 2.0 * base
    assert tuned.f_lower >= formula.f_lower - 1e-6


def test_domain_errors():
    with pytest.raises(DomainError):
        delta_opt_formula(0)
    with pytest.raises(DomainError):
        fidelity_lower_bound(0, PointerModel(1.0))
    with pytest.raises(DomainError):
        epsilon_curve([2], spread_rule="sideways")
    with pytest.raises(DomainError):
        kraus_diagonal_element(0.5, 4.0, 1, PointerModel(1.0))


def test_unconverged_point_raises():
    coarse = MomentumQuadrature(radial_nodes=6, polar_nodes=6)
    with pytest.raises(ConvergenceError, match="lower-bound refinement moved by"):
        fidelity_lower_bound(2, PointerModel(0.05), quad=coarse)
