"""Quadrature rules: exactness, refinement bookkeeping, failure detection."""
import math

import numpy as np
import pytest

from spinpointer import asymptotics, cli, disturbance, estimation, pointer, quadrature
from spinpointer.asymptotics import diag_radial_profile, fidelity_lower_bound
from spinpointer.disturbance import bloch_z_post_closed, disturbance_exact, disturbance_lowest_order
from spinpointer.errors import CapabilityError, ConvergenceError, DomainError
from spinpointer.estimation import average_fidelity, find_delta_opt
from spinpointer.pointer import MomentumQuadrature, PointerModel
from spinpointer.quadrature import (
    REFINEMENT_FACTOR,
    Rule1D,
    gauss_legendre,
    golden_section_max,
    refinement_report,
    scaled_count,
    trapezoid_periodic,
)


def _refine(f, rule, tolerance):
    """Refinement report of one rule's integral of f against its refined rule."""
    finer = gauss_legendre(scaled_count(rule.count), *rule.domain)
    base = float(rule.weights @ f(rule.nodes))
    refined = float(finer.weights @ f(finer.nodes))
    return refinement_report(base, refined, tolerance, "test integral", 1, 1.0)


def test_two_node_rule_on_reference_interval():
    rule = gauss_legendre(2)
    assert np.allclose(np.sort(rule.nodes), [-1 / math.sqrt(3), 1 / math.sqrt(3)], atol=1e-15)
    assert np.allclose(rule.weights, [1.0, 1.0], atol=1e-15)


def test_two_nodes_integrate_cubic_exactly():
    rule = gauss_legendre(2, 0.0, 1.0)
    assert float(rule.weights @ rule.nodes**3) == pytest.approx(0.25, abs=1e-15)


def test_three_nodes_exact_through_degree_five():
    rule = gauss_legendre(3, 0.0, 1.0)
    for degree in range(6):
        got = float(rule.weights @ rule.nodes**degree)
        assert got == pytest.approx(1.0 / (degree + 1), abs=1e-13)


def test_weights_sum_to_interval_length():
    rng = np.random.default_rng(3)
    for _ in range(5):
        a = float(rng.uniform(-4, 2))
        b = a + float(rng.uniform(0.1, 7))
        for n in (1, 2, 9, 33):
            rule = gauss_legendre(n, a, b)
            assert float(np.sum(rule.weights)) == pytest.approx(b - a, rel=1e-14)


def test_trapezoid_exact_for_low_harmonics():
    rule = trapezoid_periodic(8)
    assert float(np.sum(rule.weights)) == pytest.approx(2 * math.pi, rel=1e-15)
    for m in (1, 2, 3, 7):
        assert float(rule.weights @ np.cos(m * rule.nodes)) == pytest.approx(0.0, abs=1e-13)
        assert float(rule.weights @ np.sin(m * rule.nodes)) == pytest.approx(0.0, abs=1e-13)


def test_scaled_count_rounds_up():
    assert scaled_count(4) == 6
    assert scaled_count(5) == 8
    assert REFINEMENT_FACTOR == 1.5


def test_refinement_constant_integrand_has_zero_diff():
    report = _refine(lambda x: np.ones_like(x), gauss_legendre(6, 0.0, 2.0), tolerance=1e-12)
    assert report.abs_diff < 1e-14
    assert report.accepted
    assert report.refined_value == pytest.approx(2.0, abs=1e-15)


def test_refinement_accepts_resolved_gaussian():
    rule = gauss_legendre(32, -8.0, 8.0)
    report = _refine(lambda x: np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi), rule, tolerance=1e-8)
    assert report.accepted
    assert report.refined_value == pytest.approx(1.0, abs=1e-8)


def test_refinement_rejects_undersampled_oscillation():
    rule = gauss_legendre(8, 0.0, 1.0)
    with pytest.raises(ConvergenceError):
        _refine(lambda x: np.sin(40.0 * x) + 1.0, rule, tolerance=1e-8)


def test_refinement_report_fields():
    report = refinement_report(1.0, 1.0 + 5e-7, 1e-6, "test integral", 1, 1.0)
    assert report.accepted
    assert report.abs_diff == pytest.approx(5e-7, rel=1e-9)
    # Accepted up to the tolerance itself, flagged up to ten times it, raised beyond.
    assert refinement_report(0.0, 0.5, 0.5, "test integral", 1, 1.0).accepted
    flagged = refinement_report(0.0, 5.0, 0.5, "test integral", 1, 1.0)
    assert not flagged.accepted
    assert flagged.refined_value == 5.0
    with pytest.raises(ConvergenceError, match=r"test integral refinement moved by 5\.500e\+00 "
                       r"\(> 10 x tolerance 5\.0e-01\) at n=3, spread=0\.25"):
        refinement_report(0.0, 5.5, 0.5, "test integral", 3, 0.25)


def test_golden_section_finds_unimodal_maximum():
    calls = []

    def f(x):
        calls.append(x)
        return -(x - 0.3) ** 2

    evaluations = golden_section_max(f, 0.0, 1.0, 1e-3)
    assert list(evaluations) == calls  # insertion order, each point once
    best = max(evaluations, key=lambda x: evaluations[x])
    assert abs(best - 0.3) <= 1e-3
    assert all(0.0 < x < 1.0 for x in evaluations)



def test_golden_section_refuses_a_width_the_bracket_cannot_reach(monkeypatch):
    # Below one float spacing of the bracket's larger end, b - a stops
    # shrinking, and the search used to loop forever.
    calls = []

    def f(x):
        calls.append(x)
        return 0.0

    for width in (0.0, -1e-3, math.nan, 1e-20, 0.5 * math.ulp(0.6)):
        with pytest.raises(DomainError, match="search width"):
            golden_section_max(f, 0.3, 0.6, width)
    monkeypatch.setattr(estimation, "average_fidelity", lambda *args, **kwargs: f(args[1].spread))
    with pytest.raises(DomainError, match="search width"):
        find_delta_opt(1, (0.3, 0.6), delta_tolerance=1e-20)
    assert calls == []
    # One float spacing is still reachable.
    assert len(golden_section_max(f, 0.3, 0.6, math.ulp(0.6))) > 0

def test_domain_errors():
    with pytest.raises(DomainError):
        gauss_legendre(0)
    with pytest.raises(DomainError):
        gauss_legendre(4, 1.0, 1.0)
    with pytest.raises(DomainError):
        trapezoid_periodic(0)
    # A fractional count used to build its integer part (Gauss) or fail with
    # TypeError (trapezoid), and nan with ValueError in both.
    for count in (4.5, math.nan, math.inf, True):
        for rule in (gauss_legendre, trapezoid_periodic):
            with pytest.raises(DomainError, match="must be an integer"):
                rule(count)
    with pytest.raises(DomainError):
        refinement_report(1.0, 1.0, 0.0, "test integral", 1, 1.0)
    with pytest.raises(DomainError):
        Rule1D(nodes=np.zeros(3), weights=np.zeros(2), domain=(0.0, 1.0))


@pytest.mark.parametrize("n_spins", [2.5, True, math.nan])
def test_every_entry_refuses_a_non_integer_spin_count(n_spins):
    # The routes used to truncate with int(): 2.5 ran n = 2 (on an outcome
    # grid sized for 2.5 spins), True ran n = 1, and nan raised a bare
    # ValueError; the closed forms evaluated at 2.5 and at True.
    from spinpointer import pointer, spincore

    model = PointerModel(0.5)
    entries = [
        lambda: average_fidelity(n_spins, model),
        lambda: find_delta_opt(n_spins, (0.3, 0.6)),
        lambda: estimation.strong_coupling_limit(n_spins),
        lambda: pointer.adaptive_outcome_grid(n_spins, model),
        lambda: pointer.build_amplitude_field(n_spins, model, pointer.build_outcome_grid(2.0, 4, 4)),
        lambda: pointer.position_amplitudes(0.5, 0.3, n_spins, model),
        lambda: pointer.direct_amplitudes_3d(np.ones(3), spincore.direction_from_angles(0.0, 0.0),
                                             n_spins, model),
        lambda: disturbance_exact(n_spins, model),
        lambda: disturbance.disturbance_oracle_full(n_spins, model),
        lambda: disturbance.bloch_post_numeric(n_spins, model),
        lambda: fidelity_lower_bound(n_spins, model),
        lambda: spincore.dicke_expand(1.0, 0.0, n_spins),
        lambda: spincore.collective_operators(n_spins),
        lambda: spincore.full_tensor_rotation_oracle(np.ones(3), n_spins),
        lambda: spincore.dicke_basis_full(n_spins),
        lambda: spincore.DickeVector(n_spins, np.ones(3)),
        lambda: estimation.optimal_fidelity(n_spins),
        lambda: disturbance.min_disturbance(n_spins),
        lambda: disturbance_lowest_order(n_spins, 0.5),
        lambda: disturbance.disturbance_series_copt(n_spins),
        lambda: bloch_z_post_closed(n_spins, 0.5),
        lambda: asymptotics.delta_opt_formula(n_spins),
        lambda: asymptotics.optimal_scaling(n_spins),
        lambda: asymptotics.diag_radial_profile(np.array([1.0]), n_spins, model),
        lambda: asymptotics.epsilon_curve([4, n_spins]),
    ]
    for entry in entries:
        with pytest.raises(DomainError, match="n_spins must be an integer"):
            entry()


@pytest.mark.parametrize(
    "call",
    [
        lambda: refinement_report(1.0, 1.0, math.nan, "test integral", 1, 1.0),
        lambda: average_fidelity(1, PointerModel(0.5), tolerance=math.nan),
        lambda: disturbance_exact(1, PointerModel(0.5), tolerance=math.nan),
        lambda: fidelity_lower_bound(2, PointerModel(0.5), tolerance=math.nan),
        lambda: find_delta_opt(1, (0.3, 0.6), delta_tolerance=math.nan),
        lambda: disturbance_lowest_order(2, math.nan),
        lambda: bloch_z_post_closed(2, math.nan),
        lambda: trapezoid_periodic(4, math.nan),
        lambda: diag_radial_profile([math.inf], 2, PointerModel(1.0)),
        lambda: diag_radial_profile([math.nan], 2, PointerModel(1.0)),
        lambda: average_fidelity(1, PointerModel(1e-310)),
        lambda: bloch_z_post_closed(1, 1e-200),
        lambda: disturbance.disturbance_oracle_full(1, PointerModel(1e103)),
        lambda: disturbance.bloch_post_numeric(1, PointerModel(1e155)),
        lambda: disturbance_lowest_order(1, 1e155),
        lambda: fidelity_lower_bound(2, PointerModel(0.5), MomentumQuadrature(cutoff_sigmas=1e308)),
    ],
    ids=[
        "refinement_report", "average_fidelity", "disturbance_exact", "fidelity_lower_bound",
        "find_delta_opt", "disturbance_lowest_order", "bloch_z_post_closed",
        "trapezoid_periodic", "diag_radial_profile_inf", "diag_radial_profile_nan",
        "spread_1e-310", "bloch_z_post_closed_1e-200", "spread_1e103", "spread_1e155",
        "disturbance_lowest_order_1e155", "cutoff_1e308",
    ],
)
def test_nan_and_infinite_settings_are_refused(call):
    # nan passes every `x <= 0` guard, so each guard reads `not x > 0`. A
    # spread or cutoff whose momentum measure overflows is refused too: the
    # routes used to return wrong numbers there or raise a bare OverflowError.
    with pytest.raises(DomainError):
        call()


def test_routes_are_right_at_the_large_end_and_refuse_at_the_small_end_of_the_spread_range():
    # At 1e100 the coupling is negligible: F -> 1/2, D -> 0 and S_z stays n/2.
    # At 1e-100 the automatic momentum counts exceed the cap.
    lo, hi = pointer.SPREAD_RANGE
    weak = PointerModel(hi)
    assert average_fidelity(1, weak).fidelity == pytest.approx(0.5, abs=1e-4)
    assert disturbance_exact(1, weak).d_exact == pytest.approx(0.0, abs=1e-12)
    assert disturbance.disturbance_oracle_full(1, weak) == pytest.approx(0.0, abs=1e-12)
    assert disturbance.bloch_post_numeric(1, weak).sz_post_numeric == pytest.approx(0.5, abs=1e-12)
    assert fidelity_lower_bound(1, weak).f_lower == pytest.approx(1.0 / 3.0, abs=1e-6)
    assert bloch_z_post_closed(1, lo) == pytest.approx(1.0 / 6.0, abs=1e-15)
    for route in (disturbance_exact, disturbance.bloch_post_numeric, fidelity_lower_bound):
        with pytest.raises(CapabilityError):
            route(1, PointerModel(lo))


def _quadrature_ran(*args, **kwargs):
    raise AssertionError("quadrature ran before the tolerance was checked")


@pytest.mark.parametrize("tolerance", [-1.0, 0.0])
def test_bad_tolerance_is_refused_before_any_quadrature(tolerance, monkeypatch):
    # A bad tolerance used to cost both refinement passes before the refusal
    # (0.28 s for the bound at n = 400); now it is the first check.
    monkeypatch.setattr(asymptotics, "_marginals", _quadrature_ran)
    monkeypatch.setattr(disturbance, "_disturbance_value", _quadrature_ran)
    with pytest.raises(DomainError):
        fidelity_lower_bound(400, PointerModel(math.sqrt(50.0)), tolerance=tolerance)
    with pytest.raises(DomainError):
        disturbance_exact(2, PointerModel(0.5), tolerance=tolerance)


def test_momentum_count_policy(monkeypatch, capsys):
    # MomentumQuadrature resolves every momentum count of the field, the
    # disturbance route and the lower bound: an explicit count wins, the
    # refinement pass takes scaled_count of the base counts, and no Gauss
    # rule above the 20 000-node cap is ever built.
    legendre = quadrature._legendre_reference

    def capped_legendre(n):
        assert n <= 20_000, f"a {n}-node Gauss rule was built"
        return legendre(n)

    monkeypatch.setattr(quadrature, "_legendre_reference", capped_legendre)
    used = {"field": [], "disturbance": [], "bound": []}

    def recorded(module, name, route, counts_of):
        function = getattr(module, name)

        def wrapper(*args):
            result = function(*args)
            used[route].append(counts_of(args, result))
            return result

        monkeypatch.setattr(module, name, wrapper)

    # The scan build of the outcome grid goes through pointer's own name.
    # The field has no polar rule, so only its radial count is recorded.
    recorded(estimation, "build_amplitude_field", "field",
             lambda args, field: (field.counts.nodes_p_radial,))
    recorded(disturbance, "_disturbance_value", "disturbance",
             lambda args, value: (args[2].count, args[3].count))
    recorded(asymptotics, "_marginals", "bound", lambda args, marginals: (args[-1],))
    model = PointerModel(0.7)
    for quad in (MomentumQuadrature(radial_nodes=40, polar_nodes=8), None):
        for counts in used.values():
            counts.clear()
        average_fidelity(2, model, nodes_r=48, nodes_theta=32, quad=quad, tolerance=1.0)
        disturbance_exact(2, model, quad, tolerance=1.0)
        fidelity_lower_bound(2, model, quad, tolerance=1.0)
        for route, (base, refined) in used.items():
            assert refined == tuple(scaled_count(count) for count in base), route
        if quad is not None:
            assert used == {"field": [(40,), (60,)], "disturbance": [(40, 8), (60, 12)],
                            "bound": [(40,), (60,)]}
    assert used["disturbance"][0] == (64, 64)

    refused = [
        lambda: average_fidelity(100, PointerModel(0.025)),  # 24 037 radial nodes
        lambda: disturbance_exact(100, PointerModel(0.005)),  # 38 230 radial nodes
        lambda: average_fidelity(1, model, quad=MomentumQuadrature(radial_nodes=20_001)),
        lambda: disturbance_exact(1, model, MomentumQuadrature(radial_nodes=20_001)),
        lambda: fidelity_lower_bound(2, model, MomentumQuadrature(radial_nodes=20_001)),
        # Their refinement passes would take 20 001 nodes.
        lambda: disturbance_exact(1, model, MomentumQuadrature(radial_nodes=13_334)),
        lambda: fidelity_lower_bound(2, model, MomentumQuadrature(radial_nodes=13_334)),
    ]
    for call in refused:
        with pytest.raises(CapabilityError, match="radial momentum nodes, cap 20000"):
            call()
    for args in (["sweep", "--n", "1", "--delta", "0.5"],
                 ["disturbance", "--n", "1", "--delta", "0.5"],
                 ["asympt", "--n-min", "4", "--n-max", "4"]):
        assert cli.main(args + ["--nodes-p-radial", "20001"]) == 2
        assert "cap 20000" in capsys.readouterr().err
