"""Disturbance and post-measurement Bloch vector.

The one- and two-spin disturbance oracles below are hand-derived closed
forms: averaging the rotated state's overlap with the input reduces to
Gaussian moments E_k = (1 - k^2/(4 spread^2)) exp(-k^2/(8 spread^2)) of
sin^2 powers, so no quadrature at all is needed to certify those cases.
"""
import math

import numpy as np
import pytest

from spinpointer import disturbance, pointer, quadrature, spincore
from spinpointer.disturbance import (
    bloch_post_numeric,
    bloch_z_post_closed,
    disturbance_exact,
    disturbance_lowest_order,
    disturbance_oracle_full,
    disturbance_series_copt,
    min_disturbance,
)
from spinpointer.errors import CapabilityError, ConvergenceError, DomainError, NumericError
from spinpointer.pointer import MomentumQuadrature, PointerModel, momentum_profile
from spinpointer.quadrature import gauss_legendre, scaled_count, trapezoid_periodic
from spinpointer.spincore import collective_operators, dicke_expand, full_tensor_rotation_oracle


def single_spin_disturbance_oracle(spread: float) -> float:
    e1 = (1.0 - 1.0 / (4.0 * spread**2)) * math.exp(-1.0 / (8.0 * spread**2))
    return (1.0 - e1) / 3.0


def two_spin_disturbance_oracle(spread: float) -> float:
    e1 = (1.0 - 1.0 / (4.0 * spread**2)) * math.exp(-1.0 / (8.0 * spread**2))
    e2 = (1.0 - 1.0 / spread**2) * math.exp(-1.0 / (2.0 * spread**2))
    m1 = (1.0 - e1) / 2.0  # <sin^2(p/2)>
    m2 = (3.0 - 4.0 * e1 + e2) / 8.0  # <sin^4(p/2)>
    return 2.0 * (2.0 / 3.0) * m1 - (8.0 / 15.0) * m2


@pytest.mark.parametrize("spread", [0.1, 0.35355339059327379, 1.0, 3.0])
def test_single_spin_matches_closed_form(spread):
    point = disturbance_exact(1, PointerModel(spread))
    assert point.accepted
    assert point.d_exact == pytest.approx(single_spin_disturbance_oracle(spread), abs=1e-10)


@pytest.mark.parametrize("spread", [0.3, 0.8])
def test_two_spin_matches_closed_form(spread):
    point = disturbance_exact(2, PointerModel(spread))
    assert point.d_exact == pytest.approx(two_spin_disturbance_oracle(spread), abs=1e-10)


def test_special_values():
    # At spread 1/2 the prefactor 1 - 1/(4 spread^2) vanishes, leaving 1/3.
    assert disturbance_exact(1, PointerModel(0.5)).d_exact == pytest.approx(1.0 / 3.0, abs=1e-12)
    expected = (1.0 + 2.0 * math.exp(-1.5)) / 3.0
    got = disturbance_exact(1, PointerModel(1.0 / math.sqrt(12.0))).d_exact
    assert got == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.482086773432, abs=1e-12)


def test_strong_coupling_limit_single_spin():
    assert disturbance_exact(1, PointerModel(0.005)).d_exact == pytest.approx(1.0 / 3.0, abs=0.01)


def test_weak_coupling_decay():
    for n in (1, 2, 5, 10):
        assert disturbance_exact(n, PointerModel(50.0)).d_exact < 1e-3


def test_interior_maximum():
    for n in (1, 2, 3):
        bump = disturbance_exact(n, PointerModel(0.3)).d_exact
        assert bump > disturbance_exact(n, PointerModel(0.005)).d_exact
        assert bump > disturbance_exact(n, PointerModel(5.0)).d_exact


def test_curves_ordered_in_ensemble_size():
    for spread in (0.2, 0.5, 1.0, 2.0):
        values = [disturbance_exact(n, PointerModel(spread)).d_exact for n in (1, 2, 3)]
        assert values[0] < values[1] < values[2]


def test_factorized_route_matches_full_tensor():
    for n, spread in ((1, 0.4), (2, 0.7), (3, 1.1)):
        model = PointerModel(spread)
        full = disturbance_oracle_full(n, model)
        assert disturbance_exact(n, model).d_exact == pytest.approx(full, abs=1e-8)
    # On validate's cases, and at both coupling ends, the two routes agree
    # to a few ulps of the sum.
    for n in (1, 2, 3, 4):
        for spread in (0.05, 0.3, 1.0, 10.0):
            model = PointerModel(spread)
            assert abs(disturbance_oracle_full(n, model) - disturbance_exact(n, model).d_exact) < 2e-14
    with pytest.raises(CapabilityError):
        disturbance_oracle_full(5, PointerModel(0.7))


def test_oracle_diagonalizes_each_direction_once(monkeypatch):
    # One decomposition per mesh direction, shared by every radial node, plus
    # each node's single-momentum certificate: not one per (node, direction).
    model = PointerModel(1.0)
    p, _, units, _ = disturbance._momentum_mesh(1, model, MomentumQuadrature())
    assert (units.shape[0], p.size) == (1024, 64)
    decomposed = []
    eigh = np.linalg.eigh

    def counted(h):
        decomposed.append(math.prod(np.shape(h)[:-2]))
        return eigh(h)

    monkeypatch.setattr(spincore.np.linalg, "eigh", counted)
    disturbance_oracle_full(1, model)
    assert decomposed == [1024] + [1] * 64


def test_oracle_refuses_a_spectrum_its_certificate_contradicts(monkeypatch):
    def off(p, n_spins):
        return spincore.full_tensor_rotation_oracle(p, n_spins) + 1e-12

    monkeypatch.setattr(disturbance, "full_tensor_rotation_oracle", off)
    with pytest.raises(NumericError, match="shared spectrum differs from the oracle"):
        disturbance_oracle_full(1, PointerModel(1.0))


def test_over_cap_refinement_is_refused_before_any_rule(monkeypatch):
    # The base count fits under the cap and its refinement pass does not:
    # both counts are resolved, and the refusal raised, before a rule is built.
    def no_rule(*args):
        raise AssertionError("a Gauss rule was built")

    monkeypatch.setattr(disturbance, "gauss_legendre", no_rule)
    monkeypatch.setattr(pointer, "gauss_legendre", no_rule)
    for route in (disturbance_exact, bloch_post_numeric):
        with pytest.raises(CapabilityError, match="22500 radial momentum nodes, cap 20000"):
            route(1, PointerModel(0.5), MomentumQuadrature(radial_nodes=15_000))


def test_explicit_polar_and_azimuthal_counts_share_the_cap(monkeypatch):
    # Nothing bounded them: the oracle asked for a 10^6-node polar Gauss
    # rule, and Gauss node generation is quadratic in the count.
    def no_rule(*args):
        raise AssertionError("a Gauss rule was built")

    monkeypatch.setattr(quadrature, "_legendre_reference", no_rule)
    for name in ("polar_nodes", "azimuthal_nodes"):
        with pytest.raises(CapabilityError, match=f"1000000 {name.replace('_', ' ')}, cap 20000"):
            disturbance_oracle_full(1, PointerModel(1.0), MomentumQuadrature(**{name: 10**6}))
        assert getattr(MomentumQuadrature(**{name: 20_000}), name) == 20_000


def mesh_value(n, radial, p_rule, c_rule):
    """Reference: the former 2-D (radial, polar) mesh route of
    disturbance_exact, kept verbatim, with the polar rule of max(64, n+1)
    Gauss nodes that integrates its degree-2n polynomial exactly."""
    p = p_rule.nodes[:, None]
    c = c_rule.nodes[None, :]
    sin_sq = np.sin(0.5 * p) ** 2 * (1.0 - c * c)
    overlap = np.exp(n * np.log1p(-np.clip(sin_sq, 0.0, 1.0)))
    kept = 2.0 * math.pi * float(radial @ overlap @ c_rule.weights)
    return 1.0 - kept


@pytest.mark.parametrize("n", [1, 2, 4, 30, 100, 1000])
def test_polar_recurrence_equals_the_mesh_route(n):
    # Both passes' radial rules, at spreads from 0.2 to sqrt(9n/4). At
    # n = 1000 the spreads start at 1: spread 0.2 there needs 9582- and
    # 14 373-node radial rules, whose Gauss nodes alone take about 9 s.
    c_rule = gauss_legendre(max(64, n + 1), -1.0, 1.0)
    spreads = {1.0, math.sqrt(n / 8.0), math.sqrt(9.0 * n / 4.0)} | ({0.2} if n <= 100 else set())
    for spread in sorted(spreads):
        model = PointerModel(spread)
        base = disturbance._automatic_radial(n, model)
        for count in (base, scaled_count(base)):
            p_rule = gauss_legendre(count, 0.0, model.p_max)
            radial = p_rule.weights * p_rule.nodes**2 * momentum_profile(p_rule.nodes, model) ** 2
            gap = abs(disturbance._disturbance_value(n, model, p_rule) - mesh_value(n, radial, p_rule, c_rule))
            assert gap <= 1e-13, (spread, count)


def test_disturbance_builds_only_its_two_radial_rules(monkeypatch):
    # No polar Gauss rule: at n = 10^4 the former mesh built 10 001- and
    # 15 002-node polar rules, nearly all of a 9.7 s call.
    built = []
    legendre = quadrature._legendre_reference

    def recorded(count):
        built.append(count)
        return legendre(count)

    monkeypatch.setattr(quadrature, "_legendre_reference", recorded)
    point = disturbance_exact(10_000, PointerModel(150.0))
    assert built == [160, 240]
    assert point.accepted


def _node_loop(model, quad):
    """Radial weights and the (polar, azimuth) node triples of the scalar
    per-node loops, in their order."""
    p_rule = gauss_legendre(quad.radial_nodes, 0.0, model.p_max)
    c_rule = gauss_legendre(quad.polar_nodes, -1.0, 1.0)
    phi_rule = trapezoid_periodic(quad.azimuthal_nodes)
    radial = p_rule.weights * p_rule.nodes**2 * momentum_profile(p_rule.nodes, model) ** 2
    for wp, p in zip(radial, p_rule.nodes):
        for wc, c in zip(c_rule.weights, c_rule.nodes):
            s = math.sqrt(max(0.0, 1.0 - c * c))
            for wf, phi in zip(phi_rule.weights, phi_rule.nodes):
                yield wp * wc * wf, p, c, s, phi


def oracle_by_node_loop(n, model, quad):
    """Reference: one full-tensor exponential per momentum node."""
    kept = 0.0
    for w, p, c, s, phi in _node_loop(model, quad):
        vec = np.array([p * s * math.cos(phi), p * s * math.sin(phi), p * c])
        u00 = full_tensor_rotation_oracle(vec, n)[0, 0]
        kept += w * (u00.real**2 + u00.imag**2)
    return 1.0 - kept


def bloch_by_node_loop(n, model, quad):
    """Reference: one Dicke vector and three expectation values per node."""
    ops = collective_operators(n)
    totals = np.zeros(3)
    for w, p, c, s, phi in _node_loop(model, quad):
        half = 0.5 * p
        alpha = complex(math.cos(half), -c * math.sin(half))
        beta = -1j * math.sin(half) * s * complex(math.cos(phi), math.sin(phi))
        v = dicke_expand(alpha, beta, n)
        for axis, op in enumerate(ops):
            totals[axis] += w * float(np.real(np.conj(v) @ (op @ v)))
    return totals


# The stacked routes sum with numpy's dot products and the references one
# node at a time, so the two agree to rounding, not bit for bit.
NODE_LOOP_BOUND = 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_oracle_equals_node_loop_bit_for_bit(n):
    quad = MomentumQuadrature(radial_nodes=7, polar_nodes=5, azimuthal_nodes=6)
    model = PointerModel(0.8)
    gap = abs(disturbance_oracle_full(n, model, quad) - oracle_by_node_loop(n, model, quad))
    assert gap <= NODE_LOOP_BOUND


@pytest.mark.parametrize("n", [1, 4, 61])
def test_stacked_bloch_equals_node_loop_bit_for_bit(n):
    # The reported value is the refinement pass's: scaled_count of the
    # explicit radial count and of the route's own 8-node polar rule and
    # 4-node azimuth. 12 radial nodes is the fewest whose refinement is
    # accepted at n = 61.
    quad = MomentumQuadrature(radial_nodes=12)
    model = PointerModel(0.9)
    report = bloch_post_numeric(n, model, quad)
    assert report.accepted
    fine = MomentumQuadrature(radial_nodes=scaled_count(12), polar_nodes=scaled_count(8),
                              azimuthal_nodes=scaled_count(4))
    expected = bloch_by_node_loop(n, model, fine)
    got = np.array([report.sx_post, report.sy_post, report.sz_post_numeric])
    assert np.max(np.abs(got - expected)) <= NODE_LOOP_BOUND


def test_full_tensor_oracle_frozen_bits():
    # Values of the eigendecomposition route, pinned bit for bit.
    assert disturbance_oracle_full(1, PointerModel(1.0)) == float.fromhex("0x1.cda810b7a5c80p-4")
    assert disturbance_oracle_full(2, PointerModel(0.7)) == float.fromhex("0x1.5c0785b954882p-2")


def test_lowest_order_lorentzian():
    for n in (1, 3, 10):
        at_opt = disturbance_lowest_order(n, math.sqrt(n / 8.0))
        assert at_opt == pytest.approx(0.5, abs=1e-14)
    assert disturbance_lowest_order(100, 5.0) == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert disturbance_lowest_order(2, 0.3) == pytest.approx(2.0 / (2.0 + 8.0 * 0.09), rel=1e-14)


def test_series_and_minimum_constants():
    # The second-order term against the exact disturbance at spread sqrt(n/8):
    # n^2 (D - 1/2) tends to -23/1440 from below.
    for n in (100, 300):
        exact = disturbance_exact(n, PointerModel(math.sqrt(n / 8.0))).d_exact
        assert n * n * (exact - 0.5) < 0.0
        assert abs(n * n * (exact - disturbance_series_copt(n))) < 0.05 * 23.0 / 1440.0
    assert min_disturbance(1) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert min_disturbance(2) == pytest.approx(0.6, abs=1e-15)
    assert min_disturbance(3) == pytest.approx(4.0 / 7.0, abs=1e-15)
    assert min_disturbance(100) == pytest.approx(101.0 / 201.0, abs=1e-15)


def test_point_carries_lowest_order_companion():
    point = disturbance_exact(2, PointerModel(0.5))
    assert point.d_lowest_order == pytest.approx(disturbance_lowest_order(2, 0.5), abs=1e-15)
    assert point.error_estimate < 1e-7


def test_bloch_closed_form_values():
    # (n/6) [1 + e^{-1/(8 spread^2)} (2 - 1/(2 spread^2))]; the bracketed
    # correction vanishes at spread 1/2.
    assert bloch_z_post_closed(2, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert bloch_z_post_closed(1, 50.0) == pytest.approx(0.5, abs=1e-4)


def test_bloch_closed_matches_numeric_path():
    for n in (1, 4, 10):
        for spread in (0.3, 1.0, 3.0):
            report = bloch_post_numeric(n, PointerModel(spread))
            assert report.sz_post_numeric == pytest.approx(report.sz_post_closed, abs=1e-6)
            assert abs(report.sx_post) < 1e-8
            assert abs(report.sy_post) < 1e-8
            assert report.sz_initial == pytest.approx(n / 2.0, abs=1e-15)
            assert report.sz_post_closed <= report.sz_initial + 1e-12
            # The refinement pass, every count scaled by 1.5, shows the rule
            # sized for the integrand's degree is exact up to rounding.
            assert report.accepted
            assert report.error_estimate < 1e-12


def test_bloch_numeric_path_beyond_log_space_threshold():
    report = bloch_post_numeric(100, PointerModel(math.sqrt(12.5)))
    assert report.sz_post_numeric == pytest.approx(report.sz_post_closed, abs=1e-6)
    assert abs(report.sx_post) < 1e-8
    assert abs(report.sy_post) < 1e-8


def test_bloch_recovers_with_weaker_coupling():
    values = [bloch_z_post_closed(2, s) for s in (0.5, 1.0, 1.5, 8.0)]
    assert values == sorted(values)
    assert values[-1] == pytest.approx(1.0, abs=0.01)


@pytest.mark.parametrize("n_spins", [50, 100, 200])
def test_bloch_large_ensemble_offset(n_spins):
    # At the fidelity-optimal spread the longitudinal component settles one
    # half-unit pair below its initial value: n/2 - 1 up to O(1/n).
    value = bloch_z_post_closed(n_spins, math.sqrt(n_spins / 8.0))
    assert abs(value - (n_spins / 2.0 - 1.0)) < 2.0 / n_spins


def test_domain_errors():
    with pytest.raises(DomainError):
        disturbance_exact(0, PointerModel(1.0))
    with pytest.raises(DomainError):
        min_disturbance(0)
    with pytest.raises(DomainError):
        bloch_z_post_closed(1, -1.0)
    for d_exact in (-1e-6, 1.0 + 1e-6, math.nan):
        with pytest.raises(DomainError, match=r"outside \[0, 1\]"):
            disturbance.DisturbancePoint(1, 1.0, d_exact, 0.0, 0.0, True)


def test_unconverged_point_raises():
    coarse = MomentumQuadrature(radial_nodes=6, polar_nodes=6)
    with pytest.raises(ConvergenceError, match="disturbance refinement moved by"):
        disturbance_exact(2, PointerModel(0.05), quad=coarse)
