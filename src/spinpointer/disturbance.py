"""Measurement back-action on the spins: disturbance of the input state and
the post-measurement Bloch vector.

Disturbance is defined as one minus the fidelity between the input product
state and the unselected post-measurement state. Tracing out the pointer
leaves a rotation average, so the exact disturbance is a two-axis momentum
integral of [1 - sin^2(p/2) sin^2(theta_p)]^n against the momentum density.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, DomainError
from .pointer import MomentumQuadrature, PointerModel, momentum_profile
from .quadrature import refinement_report, trapezoid_periodic
from .spincore import collective_operators, dicke_expand, full_tensor_rotation_oracle


@dataclass(frozen=True)
class DisturbancePoint:
    n_spins: int
    spread: float
    d_exact: float
    d_lowest_order: float
    error_estimate: float
    accepted: bool

    def __post_init__(self):
        if not (-1e-9 <= self.d_exact <= 1.0 + 1e-9):
            raise DomainError(f"disturbance {self.d_exact} outside [0, 1]")


@dataclass(frozen=True)
class BlochReport:
    n_spins: int
    spread: float
    sz_initial: float
    sz_post_closed: float
    sz_post_numeric: float
    sx_post: float
    sy_post: float


def min_disturbance(n_spins: int) -> float:
    """Smallest disturbance compatible with extracting full directional
    information from n parallel spins: (n+1)/(2n+1)."""
    if n_spins < 1:
        raise DomainError(f"need n_spins >= 1, got {n_spins}")
    return (n_spins + 1.0) / (2.0 * n_spins + 1.0)


def disturbance_lowest_order(n_spins: int, spread: float) -> float:
    """Lorentzian approximation 1/(1 + 8 spread^2 / n), valid at large n."""
    if n_spins < 1:
        raise DomainError(f"need n_spins >= 1, got {n_spins}")
    if spread <= 0:
        raise DomainError("spread must be positive")
    return 1.0 / (1.0 + 8.0 * spread * spread / n_spins)


def disturbance_series_copt(n_spins: int) -> float:
    """Disturbance at spread = sqrt(n/8) through second order: 1/2 + 23/(1440 n^2)."""
    if n_spins < 1:
        raise DomainError(f"need n_spins >= 1, got {n_spins}")
    return 0.5 + 23.0 / (1440.0 * n_spins * n_spins)


def _disturbance_rules(n_spins: int, model: PointerModel, quad: MomentumQuadrature):
    """Radial/polar rules scaled to the integrand band.

    The rotation factor contains harmonics up to cos(n p), so the radial
    count grows with n * p_max; the polar integrand is a polynomial of
    degree 2n in cos(theta_p), exact once the rule has n+1 nodes.
    """
    n_p = max(64, int(math.ceil(1.5 * n_spins * quad.p_max(model) / math.pi)) + 32)
    return quad.gauss_rules(model, n_p, max(64, n_spins + 1))


def _disturbance_value(n_spins: int, model: PointerModel, p_rule, c_rule) -> float:
    p = p_rule.nodes[:, None]
    c = c_rule.nodes[None, :]
    sin_sq = np.sin(0.5 * p) ** 2 * (1.0 - c * c)
    # (1 - x)^n via n*log1p(-x): stable for n in the hundreds.
    overlap = np.exp(n_spins * np.log1p(-np.clip(sin_sq, 0.0, 1.0 - 1e-300)))
    radial = p_rule.weights * p_rule.nodes**2 * momentum_profile(p_rule.nodes, model) ** 2
    kept = 2.0 * math.pi * float(radial @ overlap @ c_rule.weights)
    return 1.0 - kept


def disturbance_exact(
    n_spins: int,
    model: PointerModel,
    quad: MomentumQuadrature | None = None,
    tolerance: float = 1e-7,
) -> DisturbancePoint:
    """Exact disturbance by quadrature, with one refinement step."""
    n = int(n_spins)
    if n < 1:
        raise DomainError(f"need n_spins >= 1, got {n}")
    quad = quad or MomentumQuadrature()
    p_rule, c_rule = _disturbance_rules(n, model, quad)
    base = _disturbance_value(n, model, p_rule, c_rule)
    refined = _disturbance_value(n, model, p_rule.refined(), c_rule.refined())
    report = refinement_report(base, refined, tolerance, "disturbance", n, model.spread)
    return DisturbancePoint(
        n_spins=n,
        spread=model.spread,
        d_exact=report.refined_value,
        d_lowest_order=disturbance_lowest_order(n, model.spread),
        error_estimate=report.abs_diff,
        accepted=report.accepted,
    )


def disturbance_oracle_full(
    n_spins: int,
    model: PointerModel,
    quad: MomentumQuadrature | None = None,
) -> float:
    """Disturbance via the full 2^n tensor representation, for certification.

    Uses the same radial/polar rules as disturbance_exact but evaluates the
    survival amplitude <up..up|exp(-i p.S)|up..up> by dense matrix
    exponentials on the product space, with the azimuth handled by the
    trapezoid rule. Refuses n > 3.
    """
    n = int(n_spins)
    if n > 3:
        raise CapabilityError(f"full tensor disturbance oracle capped at n_spins=3, got {n}")
    quad = quad or MomentumQuadrature()
    p_rule, c_rule = _disturbance_rules(n, model, quad)
    phi_rule = trapezoid_periodic(quad.azimuthal_nodes)
    radial = p_rule.weights * p_rule.nodes**2 * momentum_profile(p_rule.nodes, model) ** 2
    kept = 0.0
    for wp, p in zip(radial, p_rule.nodes):
        for wc, c in zip(c_rule.weights, c_rule.nodes):
            s = math.sqrt(max(0.0, 1.0 - c * c))
            for wf, phi in zip(phi_rule.weights, phi_rule.nodes):
                vec = np.array([p * s * math.cos(phi), p * s * math.sin(phi), p * c])
                u = full_tensor_rotation_oracle(vec, n)
                kept += wp * wc * wf * abs(u[0, 0]) ** 2
    return 1.0 - kept


def bloch_z_post_closed(n_spins: int, spread: float) -> float:
    """Closed form for the post-measurement collective z component:
    (n/6) [1 + e^(-1/(8 spread^2)) (2 - 1/(2 spread^2))]."""
    if n_spins < 1:
        raise DomainError(f"need n_spins >= 1, got {n_spins}")
    if spread <= 0:
        raise DomainError("spread must be positive")
    x = 1.0 / (8.0 * spread * spread)
    return n_spins / 6.0 * (1.0 + math.exp(-x) * (2.0 - 4.0 * x))


def bloch_post_numeric(
    n_spins: int,
    model: PointerModel,
    quad: MomentumQuadrature | None = None,
) -> BlochReport:
    """Post-measurement collective spin components by direct rotation
    averaging; independent integration path for the closed form.

    The unselected post-measurement state is the rotation average of the
    input, so <S_a> = Integral |profile|^2 <v(p)|S_a|v(p)> d^3p with v(p)
    the rotated all-up Dicke vector; the azimuth uses the trapezoid rule,
    which is exact here because the integrand holds harmonics |m| <= 1.
    """
    n = int(n_spins)
    if n < 1:
        raise DomainError(f"need n_spins >= 1, got {n}")
    quad = quad or MomentumQuadrature()
    p_rule, c_rule = _disturbance_rules(n, model, quad)
    phi_rule = trapezoid_periodic(quad.azimuthal_nodes)
    ops = collective_operators(n)
    radial = p_rule.weights * p_rule.nodes**2 * momentum_profile(p_rule.nodes, model) ** 2

    totals = np.zeros(3)
    for wp, p in zip(radial, p_rule.nodes):
        half = 0.5 * p
        for wc, c in zip(c_rule.weights, c_rule.nodes):
            s = math.sqrt(max(0.0, 1.0 - c * c))
            alpha = complex(math.cos(half), -c * math.sin(half))
            beta_mag = -1j * math.sin(half) * s
            for wf, phi in zip(phi_rule.weights, phi_rule.nodes):
                beta = beta_mag * complex(math.cos(phi), math.sin(phi))
                v = dicke_expand(alpha, beta, n).amplitudes
                w = wp * wc * wf
                totals[0] += w * float(np.real(np.conj(v) @ (ops.sx @ v)))
                totals[1] += w * float(np.real(np.conj(v) @ (ops.sy @ v)))
                totals[2] += w * float(np.real(np.conj(v) @ (ops.sz @ v)))
    return BlochReport(
        n_spins=n,
        spread=model.spread,
        sz_initial=0.5 * n,
        sz_post_closed=bloch_z_post_closed(n, model.spread),
        sz_post_numeric=float(totals[2]),
        sx_post=float(totals[0]),
        sy_post=float(totals[1]),
    )
