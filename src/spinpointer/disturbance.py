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
    if not spread > 0:
        raise DomainError("spread must be positive")
    return 1.0 / (1.0 + 8.0 * spread * spread / n_spins)


def disturbance_series_copt(n_spins: int) -> float:
    """Disturbance at spread = sqrt(n/8) through second order: 1/2 - 23/(1440 n^2).

    The exact n^2 (D - 1/2) there is -0.016087 at n = 100 and -0.016010 at
    n = 300, tending to -23/1440 = -0.015972.
    """
    if n_spins < 1:
        raise DomainError(f"need n_spins >= 1, got {n_spins}")
    return 0.5 - 23.0 / (1440.0 * n_spins * n_spins)


def _disturbance_rules(n_spins: int, model: PointerModel, quad: MomentumQuadrature, refined=False):
    """Radial/polar rules of the base or refinement pass, scaled to the band.

    The rotation factor contains harmonics up to cos(n p), so the radial
    count grows with n * p_max; the polar integrand is a polynomial of
    degree 2n in cos(theta_p), exact once the rule has n+1 nodes.
    """
    band = math.ceil(1.5 * n_spins * quad.p_max(model) / math.pi) + 32
    return quad.gauss_rules(model, max(64, band), max(64, n_spins + 1), refined)


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
    if not tolerance > 0:
        raise DomainError("tolerance must be positive")
    quad = quad or MomentumQuadrature()
    # The refinement pass first, so a count above the cap is refused before any rule.
    fine = _disturbance_rules(n, model, quad, refined=True)
    base = _disturbance_value(n, model, *_disturbance_rules(n, model, quad))
    refined = _disturbance_value(n, model, *fine)
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
    survival amplitude u00 = <up..up|exp(-i p.S)|up..up> by dense matrix
    exponentials on the product space, with the azimuth handled by the
    trapezoid rule. Each radial node is one full_tensor_rotation_oracle call
    over its (polar, azimuth) mesh: one batched Hermitian eigendecomposition
    of the whole stack, spot-checked against scipy's Pade expm on its slice
    of largest norm, so the route shares nothing with the symmetric subspace
    and still answers to the reference exponential. |u00|^2 is formed as
    u00.real**2 + u00.imag**2. Refuses n > 3.
    """
    n = int(n_spins)
    if n > 3:
        raise CapabilityError(f"full tensor disturbance oracle capped at n_spins=3, got {n}")
    quad = quad or MomentumQuadrature()
    p_rule, c_rule = _disturbance_rules(n, model, quad)
    phi_rule = trapezoid_periodic(quad.azimuthal_nodes)
    radial = p_rule.weights * p_rule.nodes**2 * momentum_profile(p_rule.nodes, model) ** 2
    sines = _polar_sines(c_rule.nodes)
    cos_phi, sin_phi = _azimuth_cos_sin(phi_rule.nodes)
    kept = np.zeros(())
    for wp, p in zip(radial, p_rule.nodes):
        # One stacked oracle call per radial node over its (polar, azimuth) mesh.
        ps = (p * sines)[:, None]
        vec = np.stack(
            np.broadcast_arrays(ps * cos_phi, ps * sin_phi, (p * c_rule.nodes)[:, None]), axis=-1
        )
        u00 = full_tensor_rotation_oracle(vec, n)[..., 0, 0]
        weights = (wp * c_rule.weights)[:, None] * phi_rule.weights
        kept = _add_in_order(kept, (weights * (u00.real**2 + u00.imag**2)).ravel())
    return 1.0 - kept


def _polar_sines(c: np.ndarray) -> np.ndarray:
    """sqrt(1 - c^2) at each polar node, with the scalar loops' arithmetic."""
    return np.array([math.sqrt(max(0.0, 1.0 - x * x)) for x in c])


def _azimuth_cos_sin(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """libm cos and sin at each azimuth node; numpy's vector cos/sin may
    round differently."""
    return np.array([math.cos(x) for x in phi]), np.array([math.sin(x) for x in phi])


def _add_in_order(total: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """total + terms[0] + terms[1] + ..., one addition at a time along axis 0.

    np.sum would add pairwise; the running sum keeps the node order, and so
    the bits, of a scalar loop over the nodes.
    """
    return np.cumsum(np.concatenate([total[None], terms]), axis=0)[-1]


def bloch_z_post_closed(n_spins: int, spread: float) -> float:
    """Closed form for the post-measurement collective z component:
    (n/6) [1 + e^(-1/(8 spread^2)) (2 - 1/(2 spread^2))]."""
    if n_spins < 1:
        raise DomainError(f"need n_spins >= 1, got {n_spins}")
    if not spread > 0:
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

    sines = _polar_sines(c_rule.nodes)
    cos_phi, sin_phi = _azimuth_cos_sin(phi_rule.nodes)
    phases = [complex(x, y) for x, y in zip(cos_phi, sin_phi)]
    totals = np.zeros(3)
    for wp, p in zip(radial, p_rule.nodes):
        # One stacked dicke_expand per radial node over its (polar, azimuth)
        # mesh; alpha and beta keep the scalar complex arithmetic.
        cos_half = math.cos(0.5 * p)
        sin_half = math.sin(0.5 * p)
        alpha = []
        beta = []
        for c, s in zip(c_rule.nodes, sines):
            beta_mag = -1j * sin_half * s
            alpha += [complex(cos_half, -c * sin_half)] * len(phases)
            beta += [beta_mag * phase for phase in phases]
        v = dicke_expand(np.array(alpha), np.array(beta), n).amplitudes
        v_bra = np.conj(v)[:, None, :]
        # Stacked matmuls keep one gemv and one dot per node, as in the
        # scalar form; einsum would round sx and sy differently.
        expect = [
            np.real(np.matmul(v_bra, np.matmul(op, v[:, :, None])))[:, 0, 0]
            for op in (ops.sx, ops.sy, ops.sz)
        ]
        weights = ((wp * c_rule.weights)[:, None] * phi_rule.weights).ravel()
        totals = _add_in_order(totals, weights[:, None] * np.stack(expect, axis=-1))
    return BlochReport(
        n_spins=n,
        spread=model.spread,
        sz_initial=0.5 * n,
        sz_post_closed=bloch_z_post_closed(n, model.spread),
        sz_post_numeric=float(totals[2]),
        sx_post=float(totals[0]),
        sy_post=float(totals[1]),
    )
