"""Fidelity lower bound and its large-ensemble scaling."""
import math
import tracemalloc

import numpy as np
import pytest

from spinpointer.asymptotics import (
    delta_opt_formula,
    diag_radial_profile,
    epsilon_curve,
    fidelity_lower_bound,
    optimal_scaling,
)
from spinpointer.errors import CapabilityError, ConvergenceError, DomainError
from spinpointer.estimation import average_fidelity
from spinpointer.pointer import (
    MomentumQuadrature,
    OutcomeGrid,
    PointerModel,
    adaptive_outcome_grid,
    build_amplitude_field,
    momentum_profile,
    position_amplitudes,
)
from spinpointer.quadrature import Rule1D, gauss_legendre
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


def _diagonal_element(radius, polar, n_spins, model):
    """E_r = cos^n(polar/2) W(radius), in the field's normalization."""
    return math.cos(0.5 * polar) ** n_spins * diag_radial_profile(radius, n_spins, model)[0]


def test_diagonal_element_is_coherent_projection():
    # Dual route: the factorized element must equal the projection of the
    # full amplitude field onto the coherent state along the outcome ray.
    model = PointerModel(0.5)
    for radius, polar in ((0.4, 0.3), (1.1, 1.2), (2.0, 2.8)):
        element = _diagonal_element(radius, polar, 2, model)
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
        element = _diagonal_element(grid.radial.nodes[a], grid.polar.nodes[b], 2, model)
        assert abs(element) ** 2 <= density[a, b] + 1e-6


def test_weak_coupling_profile_integrates_to_unit():
    # spread -> infinity leaves the pointer wavepacket untouched, so the
    # on-axis element's norm approaches 1.
    model = PointerModel(200.0)
    rule = gauss_legendre(768, 0.0, 12.0 * model.spread)
    w = diag_radial_profile(rule.nodes, 2, model)
    total = 4.0 * math.pi * float(rule.weights @ (rule.nodes**2 * np.abs(w) ** 2))
    assert total == pytest.approx(1.0, abs=0.01)


def _spherical_profile(r, n, model, quad):
    """W(r) on the spherical momentum mesh, one radius at a time: the phase
    e^(i r p c) times alpha^n, summed over Gauss rules in |p| and c = cos(polar)."""
    r_max = max(float(np.max(r)), 1.0)
    n_c = max(32, n + 1, int(math.ceil(0.8 * r_max * quad.p_max(model))) + 16)
    p_rule, c_rule = quad.gauss_rules(model, quad.effective_radial(r_max, model, n), n_c)
    p, c = p_rule.nodes, c_rule.nodes
    alpha = np.cos(0.5 * p)[:, None] - 1j * c * np.sin(0.5 * p)[:, None]
    weighted = np.exp(n * np.log(alpha)) * c_rule.weights
    radial = p_rule.weights * p * p * momentum_profile(p, model)
    inner = [np.sum(np.exp(1j * ri * np.multiply.outer(p, c)) * weighted, axis=1) for ri in r]
    return (2.0 * math.pi) ** -0.5 * (np.array(inner) @ radial)


@pytest.mark.parametrize("n", [2, 30, 200, 1000])
def test_diag_profile_matches_spherical_reference(n):
    # The cylindrical marginal route must reproduce the spherical per-radius
    # integral across the shell around the drift n/2 where W lives.
    model, quad = PointerModel(delta_opt_formula(n)), MomentumQuadrature()
    drift, half = 0.5 * n, 4.0 * (model.spread + 0.5 * math.sqrt(n) + 1.0)
    r = gauss_legendre(40, max(0.0, drift - half), drift + half).nodes
    w = diag_radial_profile(r, n, model, quad)
    reference = _spherical_profile(r, n, model, quad)
    assert np.isrealobj(w)
    assert np.max(np.abs(w - reference)) <= 1e-12 * np.max(np.abs(reference))


@pytest.mark.parametrize("n", [1, 2, 5, 30, 200])
def test_diag_profile_matches_field_on_axis(n):
    # At polar angle 0 the field's component 0 is the diagonal element, so
    # the partial-wave field on an axis grid must reproduce W on its radii.
    model = PointerModel(delta_opt_formula(n))
    radial = gauss_legendre(40, 0.0, 0.5 * n + 6.0 * model.spread + 4.0)
    axis = OutcomeGrid(radial=radial, polar=Rule1D(np.zeros(1), np.ones(1), (0.0, math.pi)))
    field = build_amplitude_field(n, model, axis)
    w = diag_radial_profile(radial.nodes, n, model)
    assert np.max(np.abs(field.values[:, 0, 0] - w)) <= 1e-12


def _r_grid_bound(n, model):
    """The bound in its outcome-radius form, (4 pi/(n+2)) Integral_0^R r^2 W(r)^2 dr,
    with W from diag_radial_profile on one Gauss rule in r. R = n/2 + 10 spread
    + 8 leaves a tail below 1e-14; the rule takes R p_max + 64 nodes."""
    r_max = 0.5 * n + 10.0 * model.spread + 8.0
    count = int(math.ceil(r_max * MomentumQuadrature().p_max(model))) + 64
    rule = gauss_legendre(count, 0.0, r_max)
    w = diag_radial_profile(rule.nodes, n, model)
    return 4.0 * math.pi / (n + 2) * float(rule.weights @ (rule.nodes * w) ** 2)


@pytest.mark.parametrize(
    "n, spread", [(1, 0.3), (2, 0.1), (4, 2.0), (30, math.sqrt(3.75)), (150, math.sqrt(18.75))]
)
def test_lower_bound_matches_radial_integral(n, spread):
    # The |G'|^2 form less its r < 0 term (0.062, 0.081 and 0.019 at the
    # first three points) must equal the direct integral over r >= 0.
    model = PointerModel(spread)
    assert fidelity_lower_bound(n, model).f_lower == pytest.approx(_r_grid_bound(n, model), abs=1e-10)


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
    points = epsilon_curve([150, 300, 1000, 10_000], spread_rule="formula")
    eps = {p.n_spins: p.epsilon_n for p in points}
    assert eps[150] == pytest.approx(1.04196, abs=3e-4)
    assert eps[300] == pytest.approx(1.04871, abs=3e-4)
    assert eps[1000] == pytest.approx(1.053493, abs=3e-4)
    assert eps[10_000] == pytest.approx(1.055349, abs=3e-4)
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
        position_amplitudes(0.5, 4.0, 1, PointerModel(1.0))


def test_unconverged_point_raises():
    coarse = MomentumQuadrature(radial_nodes=6, polar_nodes=6)
    with pytest.raises(ConvergenceError, match="lower-bound refinement moved by"):
        fidelity_lower_bound(2, PointerModel(0.05), quad=coarse)


def test_oversized_momentum_mesh_is_refused_before_allocating():
    # At spread 0.01 the bound would need about 141 000 radial momentum
    # nodes; the refusal must come before any mesh is built.
    tracemalloc.start()
    try:
        with pytest.raises(CapabilityError, match="radial momentum nodes, cap 20000"):
            fidelity_lower_bound(150, PointerModel(0.01))
        with pytest.raises(CapabilityError):
            diag_radial_profile(np.array([75.0]), 150, PointerModel(0.01))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_fourier_of_the_r_behind_term_is_blocked():
    # The refined pass has 3000 p_z nodes and 3000 radii behind the drift; one
    # unblocked phase matrix with its cosine and sine would take 137 MiB.
    tracemalloc.start()
    try:
        fidelity_lower_bound(2, PointerModel(0.7), MomentumQuadrature(radial_nodes=2000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20
