"""Self-contained invariant suite with a machine-readable report.

Every check here is a structural or dual-route property of the library:
exactness of the quadrature rules, oracle equivalence between independent
computation paths, conservation laws, orientation, and determinism. The
suite is what `spinpointer validate` runs; it must pass on a healthy build
at the default scale.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .asymptotics import diag_radial_profile, fidelity_lower_bound
from .disturbance import (
    bloch_post_numeric,
    disturbance_exact,
    disturbance_oracle_full,
    disturbance_series_copt,
)
from .estimation import GuessRule, average_fidelity, optimal_fidelity
from .pointer import (
    MomentumQuadrature,
    OutcomeGrid,
    PointerModel,
    adaptive_outcome_grid,
    build_amplitude_field,
    hemisphere_masses,
    momentum_profile,
    position_amplitudes,
)
from .quadrature import Rule1D, gauss_legendre
from .spincore import (
    collective_operators,
    coherent_dicke,
    dicke_basis_full,
    dicke_expand,
    direction_from_angles,
    full_tensor_rotation_oracle,
    rotated_up_amplitudes,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    threshold: float
    detail: str


def _check(name: str, measured: float, threshold: float, detail: str) -> CheckResult:
    return CheckResult(
        name=name,
        passed=bool(measured <= threshold),
        measured=float(measured),
        threshold=float(threshold),
        detail=detail,
    )


def _check_quadrature_exactness() -> CheckResult:
    rule = gauss_legendre(3, 0.0, 1.0)
    worst = 0.0
    for degree in range(6):
        got = float(np.sum(rule.weights * rule.nodes**degree))
        worst = max(worst, abs(got - 1.0 / (degree + 1)))
    return _check("quadrature_polynomial_exactness", worst, 1e-13, "monomials 0..5 at n=3 on [0,1]")


def _check_rotation_oracle() -> CheckResult:
    rng = np.random.default_rng(20240811)
    worst = 0.0
    for n in range(1, 5):
        basis = dicke_basis_full(n)
        up = np.zeros(2**n, dtype=complex)
        up[0] = 1.0
        for _ in range(3):
            p = rng.normal(size=3) * 2.0
            full = full_tensor_rotation_oracle(p, n) @ up
            dicke = dicke_expand(*rotated_up_amplitudes(p), n)
            worst = max(worst, float(np.max(np.abs(basis @ full - dicke.amplitudes))))
    return _check("dicke_vs_full_tensor_rotation", worst, 1e-10, "random rotations, n = 1..4")


def _check_coherent_overlap() -> CheckResult:
    rng = np.random.default_rng(7)
    worst = 0.0
    for n in (1, 3, 7):
        for _ in range(4):
            u = direction_from_angles(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            w = direction_from_angles(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            ov = abs(np.vdot(coherent_dicke(u, n).amplitudes, coherent_dicke(w, n).amplitudes)) ** 2
            cosang = math.cos(u.polar) * math.cos(w.polar) + math.sin(u.polar) * math.sin(
                w.polar
            ) * math.cos(u.azimuth - w.azimuth)
            worst = max(worst, abs(ov - (0.5 * (1.0 + cosang)) ** n))
    return _check("coherent_state_overlap_law", worst, 1e-12, "overlap = cos^(2n)(angle/2)")


def _check_collective_algebra() -> CheckResult:
    worst = 0.0
    for n in (1, 2, 5):
        ops = collective_operators(n)
        comm = ops.sx @ ops.sy - ops.sy @ ops.sx - 1j * ops.sz
        worst = max(worst, float(np.max(np.abs(comm))))
        expected = np.arange(n / 2.0, -n / 2.0 - 0.5, -1.0)
        worst = max(worst, float(np.max(np.abs(np.sort(np.diag(ops.sz).real) - np.sort(expected)))))
    return _check("collective_operator_algebra", worst, 1e-12, "[sx,sy]=i sz; sz spectrum")


def _check_momentum_normalization() -> CheckResult:
    worst = 0.0
    for spread in (0.1, 1.0, 5.0):
        model = PointerModel(spread)
        rule = gauss_legendre(64, 0.0, 8.0 * model.momentum_sigma)
        total = 4.0 * math.pi * float(
            np.sum(rule.weights * rule.nodes**2 * momentum_profile(rule.nodes, model) ** 2)
        )
        worst = max(worst, abs(total - 1.0))
    return _check("momentum_profile_normalized", worst, 1e-8, "Int |profile|^2 d3p = 1")


def _check_completeness() -> CheckResult:
    worst = 0.0
    for n in (1, 2, 4, 6):
        for spread in (0.05, 0.3, 1.0, 3.0):
            model = PointerModel(spread)
            grid = adaptive_outcome_grid(n, model)
            fld = build_amplitude_field(n, model, grid)
            worst = max(worst, abs(fld.total_probability - 1.0))
    return _check("kraus_completeness", worst, 1e-4, "total outcome probability, n <= 6")


def _check_dominance() -> CheckResult:
    model = PointerModel(0.5)
    n = 2
    grid = adaptive_outcome_grid(n, model)
    fld = build_amplitude_field(n, model, grid)
    dens = fld.density()
    rng = np.random.default_rng(99)
    worst = -math.inf
    for _ in range(20):
        a = int(rng.integers(grid.radial.count))
        b = int(rng.integers(grid.polar.count))
        # The diagonal Kraus element E_r = cos^n(theta/2) W(r), in the field's normalization.
        w = diag_radial_profile(grid.radial.nodes[a], n, model)[0]
        diag = float(math.cos(0.5 * grid.polar.nodes[b]) ** n * w)
        worst = max(worst, diag**2 - dens[a, b])
    return _check("diagonal_element_dominance", worst, 1e-6, "|E_r|^2 <= p(r) at 20 random nodes")


def _check_diagonal_profile() -> CheckResult:
    # At polar angle 0 the field's component 0 is the diagonal element, so the
    # partial-wave field on an axis grid must reproduce W on its radii.
    worst = 0.0
    for n in (1, 2, 5, 30, 200, 1000):
        model = PointerModel(math.sqrt(n / 8.0))
        radial = gauss_legendre(40, 0.0, 0.5 * n + 6.0 * model.spread + 4.0)
        axis = OutcomeGrid(radial=radial, polar=Rule1D(np.zeros(1), np.ones(1), (0.0, math.pi)))
        field = build_amplitude_field(n, model, axis)
        w = diag_radial_profile(radial.nodes, n, model)
        worst = max(worst, float(np.max(np.abs(field.values[:, 0, 0] - w))))
    return _check(
        "diagonal_profile_two_routes", worst, 1e-12,
        "field on the axis vs W(r), n in {1, 2, 5, 30, 200, 1000}",
    )


def _check_disturbance_oracle() -> CheckResult:
    worst = 0.0
    for n in (1, 2, 3, 4):
        for spread in (0.3, 1.0):
            model = PointerModel(spread)
            worst = max(
                worst,
                abs(disturbance_exact(n, model).d_exact - disturbance_oracle_full(n, model)),
            )
    return _check("disturbance_factorized_vs_full_tensor", worst, 1e-8, "n <= 4 dual route")


def _check_bloch_paths() -> CheckResult:
    worst = 0.0
    for n in (1, 2, 3, 5, 10):
        for spread in (0.3, 1.0, 3.0):
            rep = bloch_post_numeric(n, PointerModel(spread))
            worst = max(worst, abs(rep.sz_post_closed - rep.sz_post_numeric))
            worst = max(worst, abs(rep.sx_post), abs(rep.sy_post))
            if rep.sz_post_closed > rep.sz_initial + 1e-12:
                worst = max(worst, rep.sz_post_closed - rep.sz_initial)
    return _check("bloch_closed_vs_numeric", worst, 1e-6, "n <= 10, spread in {0.3, 1, 3}")


def _check_hemisphere_orientation() -> CheckResult:
    # Orientation pin: for input all-up at strong coupling the outcome mass
    # must sit in the upper polar cap, approaching 3/4 for one spin.
    upper, lower = hemisphere_masses(1, PointerModel(0.02))
    worst = abs(upper - 0.75)
    if upper <= lower:
        worst = max(worst, 1.0)
    for spread in (0.3, 0.8):
        up2, low2 = hemisphere_masses(2, PointerModel(spread))
        if up2 < low2:
            worst = max(worst, low2 - up2)
    return _check("hemisphere_orientation", worst, 0.01, "upper-cap mass, analytic 3/4 anchor")


def _check_fidelity_refinement() -> CheckResult:
    worst = 0.0
    bad = 0.0
    for n in (1, 2, 3, 4):
        for spread in (0.05, 0.5, 2.0):
            pt = average_fidelity(n, PointerModel(spread))
            if not pt.accepted:
                bad += 1.0
            if not (0.5 - 0.02 <= pt.fidelity <= optimal_fidelity(n) + 0.02):
                bad += 1.0
            worst = max(worst, pt.error_estimate)
    return _check("fidelity_refinement_accepted", bad, 0.0, f"max err_estimate {worst:.2e}")


def _check_lower_bound_ordering() -> CheckResult:
    worst = -math.inf
    for n, spread in ((2, 0.7), (4, 0.7), (6, 1.0)):
        model = PointerModel(spread)
        fav = average_fidelity(n, model)
        flo = fidelity_lower_bound(n, model)
        worst = max(worst, flo.f_lower - fav.fidelity - fav.error_estimate - flo.error_estimate)
    return _check("lower_bound_below_fidelity", worst, 1e-6, "f_lower <= f_av, n <= 6")


def _check_guess_rule_dominance() -> CheckResult:
    worst = -math.inf
    for spread in (0.3, 1.0):
        model = PointerModel(spread)
        plus = average_fidelity(2, model, GuessRule.PLUS_R)
        minus = average_fidelity(2, model, GuessRule.MINUS_R)
        best = average_fidelity(2, model, GuessRule.BEST_OF_AXIS)
        gap = max(plus.fidelity, minus.fidelity) - best.fidelity - best.error_estimate
        worst = max(worst, gap)
    return _check("best_of_axis_dominance", worst, 1e-12, "best >= max(plus, minus)")


def _check_determinism() -> CheckResult:
    # n = 30 spans two blocks of radii at the default table budget.
    n = 30
    model = PointerModel(math.sqrt(n / 8))
    grid = adaptive_outcome_grid(n, model)
    one = build_amplitude_field(n, model, grid)
    again = build_amplitude_field(n, model, grid)
    same = np.array_equal(one.values, again.values)
    return _check("bitwise_determinism", 0.0 if same else 1.0, 0.0, "repeat runs")


def _check_disturbance_range() -> CheckResult:
    worst = 0.0
    for n in (1, 5, 10):
        for spread in (0.1, 1.0, 50.0):
            d = disturbance_exact(n, PointerModel(spread)).d_exact
            worst = max(worst, -d, d - 1.0)
            if spread == 50.0:
                worst = max(worst, d - 1e-3)
    return _check("disturbance_range_and_decay", worst, 0.0 + 1e-12, "0 <= D <= 1; D(50) < 1e-3")


def _check_disturbance_series() -> CheckResult:
    # The second-order series at spread sqrt(n/8) against the exact value, on
    # the scale of its own n^-2 term, 23/1440.
    worst = 0.0
    for n in (100, 300):
        exact = disturbance_exact(n, PointerModel(math.sqrt(n / 8.0))).d_exact
        worst = max(worst, abs(n * n * (exact - disturbance_series_copt(n))))
    return _check("disturbance_series", worst, 0.05 * 23.0 / 1440.0, "n^2 |D - series| at n = 100, 300")


def _check_single_point_consistency() -> CheckResult:
    # One-point evaluation path agrees with the batched field path.
    model = PointerModel(0.7)
    grid = adaptive_outcome_grid(2, model)
    fld = build_amplitude_field(2, model, grid)
    a, b = grid.radial.count // 2, grid.polar.count // 3
    quad = MomentumQuadrature(radial_nodes=fld.counts.nodes_p_radial)
    single = position_amplitudes(float(grid.radial.nodes[a]), float(grid.polar.nodes[b]), 2, model, quad)
    worst = float(np.max(np.abs(single.amplitudes - fld.values[a, b])))
    return _check("single_point_vs_field", worst, 1e-12, "position_amplitudes vs batched field")


def run_checks() -> list[CheckResult]:
    """Run the full invariant suite at the default scale."""
    return [
        _check_quadrature_exactness(),
        _check_rotation_oracle(),
        _check_coherent_overlap(),
        _check_collective_algebra(),
        _check_momentum_normalization(),
        _check_completeness(),
        _check_dominance(),
        _check_diagonal_profile(),
        _check_disturbance_oracle(),
        _check_bloch_paths(),
        _check_hemisphere_orientation(),
        _check_fidelity_refinement(),
        _check_lower_bound_ordering(),
        _check_guess_rule_dominance(),
        _check_determinism(),
        _check_disturbance_range(),
        _check_disturbance_series(),
        _check_single_point_consistency(),
    ]


def report_json(results: list[CheckResult]) -> str:
    doc = {
        "schema": 1,
        "all_passed": all(r.passed for r in results),
        "checks": [asdict(r) for r in results],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
