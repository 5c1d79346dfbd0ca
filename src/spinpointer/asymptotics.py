"""Large-ensemble behavior: the diagonal Kraus element, the fidelity lower
bound it induces, and the scaled inefficiency curve.

The guessed-direction matrix element E_r = <r^n| E(r) |up^n> factorizes:
an exact frame rotation puts the outcome direction on the momentum polar
axis, the azimuthal integral of the resulting Nth-power scalar keeps only
its m=0 term, and what remains is cos^n(theta/2) times a radial profile

    W(r) = (2 pi)^(-1/2) Integral dp p^2 profile(p)
               Integral dc e^(i r p c) [cos(p/2) - i c sin(p/2)]^n .

|E_r|^2 is a pointwise lower bound on the outcome density, so scoring it
like a fidelity integral lower-bounds the average fidelity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .pointer import MomentumQuadrature, OutcomeGrid, PointerModel, build_outcome_grid, momentum_profile
from .quadrature import gauss_legendre, golden_section_max, refinement_report

# Polar concentration for large ensembles: essentially all outcome
# probability sits at angles below c / sqrt(n) from the input axis.
_POLAR_CONCENTRATION = 10.0
_LARGE_N = 150


@dataclass(frozen=True)
class LowerBoundPoint:
    n_spins: int
    spread: float
    f_lower: float
    epsilon_n: float
    optimal_scaling: float
    error_estimate: float
    accepted: bool

    def __post_init__(self):
        if self.f_lower > 1.0 + 1e-9:
            raise DomainError(f"fidelity bound {self.f_lower} above 1")


def delta_opt_formula(n_spins: int) -> float:
    """Asymptotically best pointer spread sqrt(n/8)."""
    if n_spins < 1:
        raise DomainError(f"need n_spins >= 1, got {n_spins}")
    return math.sqrt(n_spins / 8.0)


def optimal_scaling(n_spins: int) -> float:
    """Scaled inefficiency of the best measurement: (1 + 2/n)^-1."""
    if n_spins < 1:
        raise DomainError(f"need n_spins >= 1, got {n_spins}")
    return 1.0 / (1.0 + 2.0 / n_spins)


def _profile_rules(r_max: float, n_spins: int, model: PointerModel, quad: MomentumQuadrature):
    """Momentum rules for W: the radial budget follows the plane-wave phase
    r_max * p_max plus the spin band n/2 * p_max, and the polar rule must
    resolve both the degree-n polynomial and the same phase across c."""
    n_c = max(32, n_spins + 1, int(math.ceil(0.8 * r_max * quad.p_max(model))) + 16)
    return quad.gauss_rules(model, quad.effective_radial(r_max, model, n_spins), n_c)


def _diag_profile_values(r, n_spins: int, model: PointerModel, p_rule, c_rule) -> np.ndarray:
    """W(r) on an array of radii for one pair of momentum rules."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    p = p_rule.nodes
    c = c_rule.nodes
    half = 0.5 * p[:, None]
    alpha = np.cos(half) - 1j * c[None, :] * np.sin(half)
    # alpha^n by n*log(alpha); integer exponent, so the log branch is moot.
    power = np.exp(n_spins * np.log(alpha))
    inner = np.empty((r.size, p.size), dtype=complex)
    weighted = power * c_rule.weights[None, :]
    for i, ri in enumerate(r):
        phase = np.exp(1j * np.multiply.outer(ri * p, c))
        inner[i] = np.sum(phase * weighted, axis=1)
    radial = p_rule.weights * p * p * momentum_profile(p, model)
    return (2.0 * math.pi) ** -0.5 * inner @ radial


def diag_radial_profile(
    r,
    n_spins: int,
    model: PointerModel,
    quad: MomentumQuadrature | None = None,
) -> np.ndarray:
    """Radial profile W(r) of the diagonal Kraus element."""
    quad = quad or MomentumQuadrature()
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(r < 0):
        raise DomainError("radii must be nonnegative")
    r_max = float(np.max(r)) if r.size else 0.0
    p_rule, c_rule = _profile_rules(max(r_max, 1.0), n_spins, model, quad)
    return _diag_profile_values(r, n_spins, model, p_rule, c_rule)


def kraus_diagonal_element(
    radius: float,
    polar: float,
    n_spins: int,
    model: PointerModel,
    quad: MomentumQuadrature | None = None,
) -> complex:
    """E_r = cos^n(polar/2) * W(radius), same normalization as the field."""
    if not (0.0 <= polar <= math.pi):
        raise DomainError(f"polar angle {polar} outside [0, pi]")
    w = diag_radial_profile(np.array([radius]), n_spins, model, quad)[0]
    return complex(math.cos(0.5 * polar) ** n_spins * w)


def _radial_window(n_spins: int, model: PointerModel, quad: MomentumQuadrature) -> tuple[float, float]:
    """Radial support of r^2 |W(r)|^2, found by a coarse scan.

    For small ensembles the window is simply [0, n/2 + 6 spread + 2]; for
    large ones the profile is a thin shell near the drift n/2 and windowing
    keeps the node budget sane.
    """
    drift = 0.5 * n_spins
    if n_spins < 50:
        return 0.0, drift + 6.0 * model.spread + 2.0
    width = 12.0 * (model.spread + 0.5 * math.sqrt(n_spins) + 1.0)
    lo = max(0.0, drift - width)
    hi = drift + width
    scan = gauss_legendre(96, lo, hi)
    p_rule, c_rule = _profile_rules(hi, n_spins, model, quad)
    w = _diag_profile_values(scan.nodes, n_spins, model, p_rule, c_rule)
    mass = scan.nodes**2 * np.abs(w) ** 2
    keep = np.nonzero(mass > 1e-12 * float(np.max(mass)))[0]
    r_lo = scan.nodes[max(0, keep[0] - 2)] if keep[0] > 0 else lo
    r_hi = scan.nodes[min(scan.count - 1, keep[-1] + 2)]
    return float(r_lo), float(r_hi)


def _bound_value(grid: OutcomeGrid, n_spins: int, model: PointerModel, p_rule, c_rule) -> float:
    """Fidelity score of |E_r|^2 on one outcome grid and pair of momentum rules."""
    w = _diag_profile_values(grid.radial.nodes, n_spins, model, p_rule, c_rule)
    w_r, w_t = grid.volume_weights()
    half = 0.5 * grid.polar.nodes
    # |E|^2 separates into radius and angle factors; score is cos^2(half).
    with np.errstate(under="ignore"):
        polar_part = np.cos(half) ** (2 * n_spins + 2)
    return float(np.sum(w_r * np.abs(w) ** 2) * float(w_t @ polar_part))


def fidelity_lower_bound(
    n_spins: int,
    model: PointerModel,
    nodes_r: int = 96,
    nodes_theta: int = 64,
    quad: MomentumQuadrature | None = None,
    tolerance: float = 1e-4,
    grid: OutcomeGrid | None = None,
) -> LowerBoundPoint:
    """Score |E_r|^2 like a fidelity integral: a lower bound on F_av.

    For n >= 150 the polar nodes concentrate on [0, 10/sqrt(n)] and the
    radial axis is windowed around the drift; the discarded caps carry
    cos^(2n) tails far below the tolerance.
    """
    n = int(n_spins)
    if n < 1:
        raise DomainError(f"need n_spins >= 1, got {n}")
    quad = quad or MomentumQuadrature()
    if grid is None:
        r_lo, r_hi = _radial_window(n, model, quad)
        theta_max = math.pi if n < _LARGE_N else min(math.pi, _POLAR_CONCENTRATION / math.sqrt(n))
        grid = build_outcome_grid(r_hi, nodes_r, nodes_theta, r_min=r_lo, theta_max=theta_max)

    p_rule, c_rule = _profile_rules(grid.r_max, n, model, quad)
    base = _bound_value(grid, n, model, p_rule, c_rule)
    refined = _bound_value(grid.refined(), n, model, p_rule.refined(), c_rule.refined())
    report = refinement_report(base, refined, tolerance, "lower-bound", n, model.spread)
    return LowerBoundPoint(
        n_spins=n,
        spread=model.spread,
        f_lower=report.refined_value,
        epsilon_n=n * (1.0 - report.refined_value),
        optimal_scaling=optimal_scaling(n),
        error_estimate=report.abs_diff,
        accepted=report.accepted,
    )


def epsilon_curve(
    n_values,
    spread_rule: str = "formula",
    nodes_r: int = 96,
    nodes_theta: int = 64,
    quad: MomentumQuadrature | None = None,
    tolerance: float = 1e-4,
) -> list[LowerBoundPoint]:
    """Scaled inefficiency n (1 - F_lower) along a list of ensemble sizes.

    spread_rule "formula" uses sqrt(n/8); "optimize" golden-sections the
    bound over a bracket around it.
    """
    if spread_rule not in ("formula", "optimize"):
        raise DomainError(f"unknown spread rule {spread_rule!r}")
    points = []
    for n in n_values:
        n = int(n)
        if spread_rule == "formula":
            spread = delta_opt_formula(n)
        else:
            spread = _optimize_spread(n, nodes_r, nodes_theta, quad, tolerance)
        points.append(
            fidelity_lower_bound(
                n, PointerModel(spread=spread), nodes_r, nodes_theta, quad, tolerance
            )
        )
    return points


def _optimize_spread(n, nodes_r, nodes_theta, quad, tolerance) -> float:
    """Spread in [base/2, 2 base] that maximizes the bound, base = sqrt(n/8)."""

    def f(s: float) -> float:
        return fidelity_lower_bound(
            n, PointerModel(spread=s), nodes_r, nodes_theta, quad, tolerance
        ).f_lower

    base = delta_opt_formula(n)
    cache = golden_section_max(f, 0.5 * base, 2.0 * base, 0.02 * base)
    return max(cache, key=lambda s: cache[s])
