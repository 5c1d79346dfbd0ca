"""Pointer wavefunctions and the conditional amplitude field.

The partial-wave synthesis is certified here against a brute-force 3-D
momentum quadrature, against single-point evaluation, and against the
rotational covariance that the spherical decomposition must respect.
"""
import math
import warnings

import numpy as np
import pytest
import scipy.special

from spinpointer import pointer, spincore
from spinpointer.errors import DomainError
from spinpointer.pointer import (
    MomentumQuadrature,
    PointerModel,
    adaptive_outcome_grid,
    build_amplitude_field,
    build_outcome_grid,
    direct_amplitudes_3d,
    hemisphere_masses,
    momentum_profile,
    position_amplitudes,
    position_profile,
    radial_cumulative,
)
from spinpointer.quadrature import gauss_legendre
from spinpointer.spincore import dicke_expand, direction_from_angles


def test_momentum_profile_peak_value():
    model = PointerModel(1.0)
    assert float(momentum_profile(0.0, model)) == pytest.approx((2 / math.pi) ** 0.75, abs=1e-15)


def test_momentum_profile_normalized():
    for spread in (0.1, 0.7, 4.0):
        model = PointerModel(spread)
        rule = gauss_legendre(96, 0.0, 8.0 * model.momentum_sigma)
        total = 4 * math.pi * float(rule.weights @ (rule.nodes**2 * momentum_profile(rule.nodes, model) ** 2))
        assert total == pytest.approx(1.0, abs=1e-8)


def test_momentum_profile_monotone_decreasing():
    model = PointerModel(0.5)
    p = np.linspace(0.0, 4.0, 50)
    values = momentum_profile(p, model)
    assert np.all(np.diff(values) < 0)


def test_position_profile_normalized():
    model = PointerModel(0.8)
    rule = gauss_legendre(128, 0.0, 16.0 * model.spread)
    total = 4 * math.pi * float(rule.weights @ (rule.nodes**2 * position_profile(rule.nodes, model) ** 2))
    assert total == pytest.approx(1.0, abs=1e-8)


def test_model_momentum_width_is_half_inverse_spread():
    assert PointerModel(0.25).momentum_sigma == pytest.approx(2.0, abs=1e-15)
    with pytest.raises(DomainError):
        PointerModel(0.0)
    with pytest.raises(DomainError):
        PointerModel(-1.0)


def test_momentum_quadrature_validation():
    with pytest.raises(DomainError):
        MomentumQuadrature(radial_nodes=3)
    with pytest.raises(DomainError):
        MomentumQuadrature(cutoff_sigmas=2.0)
    quad = MomentumQuadrature(radial_nodes=50)
    p_rule, c_rule = quad.gauss_rules(PointerModel(1.0), 999, 40)
    assert (p_rule.count, c_rule.count) == (50, 40)
    auto = MomentumQuadrature()
    model = PointerModel(0.5)
    assert auto.p_max(model) == pytest.approx(8.0, abs=1e-15)
    # Oscillation budget: at least 1.5 nodes per radian of e^{i r p} phase,
    # with the spin band widening the effective radius.
    assert auto.effective_radial(2.0, model, n_spins=2) >= math.ceil(1.5 * 3.0 * 8.0)


def test_outcome_grid_ball_volume():
    grid = build_outcome_grid(1.7, nodes_r=48, nodes_theta=32)
    w_r, w_t = grid.volume_weights()
    volume = float(np.sum(w_r) * np.sum(w_t))
    assert volume == pytest.approx(4.0 / 3.0 * math.pi * 1.7**3, abs=1e-10)


def test_outcome_grid_polar_split():
    grid = build_outcome_grid(1.0, nodes_r=16, nodes_theta=20, polar_split=math.pi / 2)
    idx = grid.polar_split_index
    assert idx is not None
    assert np.all(grid.polar.nodes[:idx] < math.pi / 2)
    assert np.all(grid.polar.nodes[idx:] > math.pi / 2)
    _, w_t = grid.volume_weights()
    assert float(np.sum(w_t)) == pytest.approx(2.0, abs=1e-12)


def test_outcome_grid_domain_errors():
    with pytest.raises(DomainError):
        build_outcome_grid(0.0)
    with pytest.raises(DomainError):
        build_outcome_grid(1.0, r_min=-0.1)
    with pytest.raises(DomainError):
        build_outcome_grid(1.0, theta_max=4.0)


@pytest.mark.parametrize("n_spins,spread", [(1, 0.05), (1, 1.0), (3, 0.3), (6, 1.0)])
def test_total_probability_is_one(n_spins, spread):
    model = PointerModel(spread)
    grid = adaptive_outcome_grid(n_spins, model)
    field = build_amplitude_field(n_spins, model, grid)
    assert field.total_probability == pytest.approx(1.0, abs=1e-4)


def test_adaptive_grid_resolves_narrow_shells():
    model = PointerModel(0.01)
    grid = adaptive_outcome_grid(3, model)
    spacing = math.pi * grid.radial.domain[1] / (2 * grid.radial.count)
    assert spacing < model.spread


def test_weak_coupling_leaves_spin_in_place():
    vec = position_amplitudes(0.3, 0.7, 1, PointerModel(50.0))
    assert abs(vec.amplitudes[1]) ** 2 < 1e-4 * vec.norm_squared()


def test_single_point_matches_field():
    model = PointerModel(0.7)
    grid = adaptive_outcome_grid(2, model)
    field = build_amplitude_field(2, model, grid)
    quad = MomentumQuadrature(radial_nodes=field.counts.nodes_p_radial)
    for a, b in ((3, 5), (40, 30)):
        single = position_amplitudes(
            float(grid.radial.nodes[a]), float(grid.polar.nodes[b]), 2, model, quad
        )
        assert np.max(np.abs(single.amplitudes - field.values[a, b])) < 1e-12


def test_field_matches_brute_force_3d():
    model = PointerModel(0.7)
    up = direction_from_angles(0.0, 0.0)
    for radius, polar, azimuth in ((0.9, 0.6, 0.0), (0.4, 2.2, 1.3)):
        vec = radius * np.array(
            [math.sin(polar) * math.cos(azimuth), math.sin(polar) * math.sin(azimuth), math.cos(polar)]
        )
        brute = direct_amplitudes_3d(vec, up, 2, model)
        fast = position_amplitudes(radius, polar, 2, model, azimuth=azimuth)
        assert np.max(np.abs(brute.amplitudes - fast.amplitudes)) < 1e-10


def test_rotational_covariance():
    # Rotating the input direction and the outcome point together must leave
    # the outcome amplitudes' norm unchanged.
    model = PointerModel(0.7)
    rng = np.random.default_rng(17)
    for _ in range(3):
        polar, azimuth = rng.uniform(0.2, 2.9), rng.uniform(0, 2 * math.pi)
        tilted = direction_from_angles(polar, azimuth)
        cos_a, sin_a = math.cos(azimuth), math.sin(azimuth)
        cos_p, sin_p = math.cos(polar), math.sin(polar)
        rot = np.array([[cos_a, -sin_a, 0.0], [sin_a, cos_a, 0.0], [0.0, 0.0, 1.0]]) @ np.array(
            [[cos_p, 0.0, sin_p], [0.0, 1.0, 0.0], [-sin_p, 0.0, cos_p]]
        )
        radius, theta, phi = 0.9, rng.uniform(0.2, 2.9), rng.uniform(0, 2 * math.pi)
        point = radius * np.array(
            [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
        )
        brute = direct_amplitudes_3d(rot @ point, tilted, 2, model)
        fast = position_amplitudes(radius, theta, 2, model, azimuth=phi)
        assert brute.norm_squared() == pytest.approx(fast.norm_squared(), abs=1e-10)


def test_hemisphere_masses_favor_input_direction():
    for spread in (0.3, 0.8):
        model = PointerModel(spread)
        grid = adaptive_outcome_grid(2, model, polar_split=math.pi / 2)
        field = build_amplitude_field(2, model, grid)
        upper, lower = hemisphere_masses(field)
        assert upper > lower
        assert upper + lower == pytest.approx(field.total_probability, abs=1e-12)


def test_hemisphere_strong_coupling_single_spin():
    # With one spin and a sharp pointer the outcome lands on the +/- axis/2
    # shells with Born weights, putting 3/4 of the mass in the upper cap.
    model = PointerModel(0.02)
    grid = adaptive_outcome_grid(1, model, polar_split=math.pi / 2)
    field = build_amplitude_field(1, model, grid)
    upper, _ = hemisphere_masses(field)
    assert upper == pytest.approx(0.75, abs=0.01)


def test_hemisphere_requires_split_grid():
    model = PointerModel(0.5)
    grid = adaptive_outcome_grid(1, model)
    field = build_amplitude_field(1, model, grid)
    with pytest.raises(DomainError):
        hemisphere_masses(field)


def test_radial_cumulative_monotone():
    model = PointerModel(0.4)
    grid = adaptive_outcome_grid(2, model)
    field = build_amplitude_field(2, model, grid)
    cum = radial_cumulative(field)
    assert np.all(np.diff(cum) >= -1e-15)
    assert cum[-1] == pytest.approx(field.total_probability, abs=1e-12)


def test_node_doubling_stability():
    model = PointerModel(0.5)
    base = build_amplitude_field(2, model, adaptive_outcome_grid(2, model, 96, 64))
    fine = build_amplitude_field(2, model, adaptive_outcome_grid(2, model, 192, 128))
    assert abs(base.total_probability - fine.total_probability) < 1e-5


def test_worker_count_is_bitwise_invisible():
    # n = 30 takes the per-order matrix products through several radial chunks.
    for n_spins, spread in ((2, 0.6), (30, math.sqrt(30 / 8))):
        model = PointerModel(spread)
        grid = adaptive_outcome_grid(n_spins, model)
        assert grid.radial.count > 2 * pointer._CHUNK_RADIAL
        serial = build_amplitude_field(n_spins, model, grid, workers=1)
        repeat = build_amplitude_field(n_spins, model, grid, workers=1)
        parallel = build_amplitude_field(n_spins, model, grid, workers=2)
        assert np.array_equal(serial.values, repeat.values)
        assert np.array_equal(serial.values, parallel.values)


@pytest.mark.parametrize("l_max", [1, 4, 30, 100, 400])
def test_bessel_table_matches_scipy(l_max):
    orders = np.arange(1, l_max + 1)
    z = np.concatenate(
        [
            np.logspace(-10, math.log10(500.0), 600),
            # just below, at and just above each order l = z
            np.ravel(orders[:, None] + np.array([-1e-9, -1e-3, -0.5, 0.0, 1e-9, 1e-3, 0.5])),
            math.pi * np.arange(1, 160),  # zeros of j_0
        ]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        table = pointer._bessel_table(l_max, z)
    reference = scipy.special.spherical_jn(np.arange(l_max + 1)[:, None], z[None, :])
    assert table.shape == reference.shape
    assert np.all(np.isfinite(table))
    assert np.max(np.abs(table - reference)) <= 1e-13


def test_field_uses_scipy_spherical_jn_by_its_module_name(monkeypatch):
    # The benchmark traces the field's Bessel work by wrapping this name.
    assert pointer.spherical_jn is scipy.special.spherical_jn
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return scipy.special.spherical_jn(*args, **kwargs)

    monkeypatch.setattr(pointer, "spherical_jn", counted)
    build_amplitude_field(2, PointerModel(0.6), build_outcome_grid(3.0, nodes_r=20, nodes_theta=8))
    assert len(calls) == 2  # one per radial chunk


def _per_order_field(n, model, grid, quad):
    """The synthesis formula of build_amplitude_field summed one (k, l) term
    at a time, with scipy's j_l for every order."""
    p_rule, c_rule = quad.gauss_rules(model, 0, 0)
    alpha, beta = pointer._alpha_beta_polar(p_rule.nodes, c_rule.nodes)
    spin = spincore.dicke_powers(alpha, beta, n)
    measure = p_rule.weights * p_rule.nodes**2 * momentum_profile(p_rule.nodes, model)
    z = np.multiply.outer(grid.radial.nodes, p_rule.nodes)
    cos_theta = np.cos(grid.polar.nodes)
    out = np.zeros((grid.radial.count, grid.polar.count, n + 1), dtype=complex)
    for k in range(n + 1):
        ptab_c = pointer._legendre_normalized(n, k, c_rule.nodes)
        ptab_t = pointer._legendre_normalized(n, k, cos_theta)
        for l in range(k, n + 1):
            moment = (ptab_c[l - k] * c_rule.weights) @ spin[k].T
            radial = scipy.special.spherical_jn(l, z) @ (moment * measure)
            out[:, :, k] += 1j**l * np.outer(radial, ptab_t[l - k])
    return 2.0**1.5 * math.sqrt(math.pi) * out


@pytest.mark.parametrize("n_spins,spread,r_max", [(5, 0.7, 6.0), (30, math.sqrt(30 / 8), 25.0)])
def test_field_matches_per_order_sum(n_spins, spread, r_max):
    model = PointerModel(spread)
    grid = build_outcome_grid(r_max, nodes_r=20, nodes_theta=12)
    quad = MomentumQuadrature(radial_nodes=90, polar_nodes=n_spins + 3)
    fast = build_amplitude_field(n_spins, model, grid, quad).values
    reference = _per_order_field(n_spins, model, grid, quad)
    assert np.max(np.abs(fast - reference)) <= 1e-13 * np.max(np.abs(reference))


@pytest.mark.parametrize("n", [60, 61, 100])
def test_dicke_power_stack_basis_states_across_log_space_threshold(n):
    # Pole states put all weight on one basis state: 0^0 = 1, not 0. The
    # field's spin stack is pointer.dicke_powers, with k leading.
    top = np.zeros((n + 1, 1))
    top[0] = 1.0
    one, zero = np.array([1.0 + 0j]), np.array([0j])
    assert np.array_equal(pointer.dicke_powers(one, zero, n), top)
    assert np.array_equal(pointer.dicke_powers(zero, one, n), top[::-1])


@pytest.mark.parametrize("n", [5, 60, 61, 100])
def test_field_spin_stack_is_dicke_expand_with_k_first(n, monkeypatch):
    # One Dicke-power route: the field's spin factor on its Gauss momentum
    # mesh is dicke_expand's, bit for bit, on both sides of the log-space
    # threshold.
    seen = []

    def recorded(alpha, beta, n_spins):
        stack = spincore.dicke_powers(alpha, beta, n_spins)
        seen.append((alpha, beta, stack))
        return stack

    monkeypatch.setattr(pointer, "dicke_powers", recorded)
    build_amplitude_field(
        n, PointerModel(math.sqrt(n / 8.0)), build_outcome_grid(2.0, nodes_r=2, nodes_theta=2)
    )
    ((alpha, beta, stack),) = seen
    assert stack.shape == (n + 1,) + alpha.shape
    assert np.array_equal(stack, np.moveaxis(dicke_expand(alpha, beta, n).amplitudes, -1, 0))
