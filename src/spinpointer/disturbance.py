"""Measurement back-action on the spins: disturbance of the input state and
the post-measurement Bloch vector.

Disturbance is defined as one minus the fidelity between the input product
state and the unselected post-measurement state. Tracing out the pointer
leaves a rotation average, so the exact disturbance is a two-axis momentum
integral of [1 - sin^2(p/2) sin^2(theta_p)]^n against the momentum density.

Two routes certify the factorized numbers: disturbance_oracle_full on the
full 2^n product space, and bloch_post_numeric against the Bloch closed
form. Both build one mesh of unit directions per call and loop over radial
nodes only. The oracle diagonalizes each direction's generator once and
reuses that spectrum at every radial node. The Bloch route expands one
batch of Dicke vectors over the whole mesh per node and keeps only the main
diagonal and first superdiagonal of their mesh-averaged density matrix,
which is all a tridiagonal collective operator reads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, DomainError, NumericError
from .pointer import MomentumQuadrature, PointerModel, checked_spread, momentum_profile
from .quadrature import checked_count, refinement_report, trapezoid_periodic
from .spincore import collective_operators, dicke_expand, full_tensor_rotation_oracle, full_tensor_spectrum


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
    """(n+1)/(2n+1) = (n+1) int_0^1 x^(2n) dx, the operation fidelity of optimal
    measure-and-prepare on n parallel spins. It is no lower bound on this
    model's disturbance, which reaches D = 1/3 at F = 2/3 for n = 1."""
    checked_count(n_spins, "n_spins")
    return (n_spins + 1.0) / (2.0 * n_spins + 1.0)


def disturbance_lowest_order(n_spins: int, spread: float) -> float:
    """Lorentzian approximation 1/(1 + 8 spread^2 / n), valid at large n."""
    checked_count(n_spins, "n_spins")
    checked_spread(spread)
    return 1.0 / (1.0 + 8.0 * spread * spread / n_spins)


def disturbance_series_copt(n_spins: int) -> float:
    """Disturbance at spread = sqrt(n/8) through second order: 1/2 - 23/(1440 n^2).

    The exact n^2 (D - 1/2) there is -0.016087 at n = 100 and -0.016010 at
    n = 300, tending to -23/1440 = -0.015972.
    """
    checked_count(n_spins, "n_spins")
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
    # (1 - x)^n via n*log1p(-x): stable for n in the hundreds. sin_sq is 1
    # only at p = pi on the polar node 0, which the Gauss nodes never hit.
    overlap = np.exp(n_spins * np.log1p(-np.clip(sin_sq, 0.0, 1.0)))
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
    n = checked_count(n_spins, "n_spins")
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


def _momentum_mesh(n_spins: int, model: PointerModel, quad: MomentumQuadrature):
    """The base pass's rules on the momentum sphere: radial nodes and their
    weights, |profile|^2 p^2 included, then the unit directions of the
    (polar, azimuth) mesh, shape (N_c N_phi, 3), and their weights."""
    p_rule, c_rule = _disturbance_rules(n_spins, model, quad)
    phi_rule = trapezoid_periodic(quad.azimuthal_nodes)
    radial = p_rule.weights * p_rule.nodes**2 * momentum_profile(p_rule.nodes, model) ** 2
    c = c_rule.nodes[:, None]
    s = np.sqrt(1.0 - c * c)
    phi = phi_rule.nodes
    units = np.stack(np.broadcast_arrays(s * np.cos(phi), s * np.sin(phi), c), axis=-1)
    weights = c_rule.weights[:, None] * phi_rule.weights
    return p_rule.nodes, radial, units.reshape(-1, 3), weights.ravel()


def disturbance_oracle_full(
    n_spins: int,
    model: PointerModel,
    quad: MomentumQuadrature | None = None,
) -> float:
    """Disturbance via the full 2^n tensor representation, for certification.

    Uses the same radial/polar rules as disturbance_exact but evaluates the
    survival amplitude u00 = <up..up|exp(-i p.S)|up..up> on the product
    space, with the azimuth handled by the trapezoid rule. The generator at
    momentum p u is p (u.S), so each direction u of the (polar, azimuth) mesh
    is diagonalized once, by full_tensor_spectrum on explicit Kronecker
    sums, and every radial node p takes the spectral sum
    u00 = sum_j |V_0j|^2 exp(-i p w_j); the route shares nothing with the
    symmetric subspace.

    Each radial node keeps a certificate: full_tensor_rotation_oracle at p
    times the direction of largest 1-norm, which answers to scipy's Pade
    expm itself, must give that direction's u00 within
    1e-13 max(1, p |u.S|_1), or NumericError is raised, so a faulty shared
    spectrum cannot pass quietly. The weighted sums are numpy dot products.
    Refuses n > 4.
    """
    n = checked_count(n_spins, "n_spins")
    if n > 4:
        raise CapabilityError(f"full tensor disturbance oracle capped at n_spins=4, got {n}")
    p, radial, units, weights = _momentum_mesh(n, model, quad or MomentumQuadrature())
    h, w, v = full_tensor_spectrum(units, n)
    mass = v[:, 0, :].real ** 2 + v[:, 0, :].imag ** 2
    norms = np.abs(h).sum(axis=-2).max(axis=-1)
    worst = int(np.argmax(norms))
    survival = np.empty(p.size)
    for i, p_i in enumerate(p):
        u00 = np.sum(mass * np.exp(-1j * p_i * w), axis=-1)
        reference = full_tensor_rotation_oracle(p_i * units[worst], n)[0, 0]
        err = abs(reference - u00[worst])
        tol = 1e-13 * max(1.0, p_i * float(norms[worst]))
        if not err <= tol:
            raise NumericError(f"shared spectrum differs from the oracle by {err:.3e} (tolerance {tol:.3e})")
        survival[i] = weights @ (u00.real**2 + u00.imag**2)
    return 1.0 - float(radial @ survival)


def bloch_z_post_closed(n_spins: int, spread: float) -> float:
    """Closed form for the post-measurement collective z component:
    (n/6) [1 + e^(-1/(8 spread^2)) (2 - 1/(2 spread^2))]."""
    checked_count(n_spins, "n_spins")
    checked_spread(spread)
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
    Each radial node is one dicke_expand call over its (polar, azimuth)
    mesh, reduced to two mesh-weighted sums: d_k = sum |v_k|^2 and
    u_k = sum conj(v_k) v_(k+1). Contracted with the radial weights, they are
    the band of the averaged density matrix, and for a Hermitian tridiagonal
    operator <S_a> = sum_k S_kk d_k + 2 Re sum_k S_k,k+1 u_k. This assumes
    collective_operators returns tridiagonal matrices, as S_z is diagonal
    and S_+- shift the Dicke index by one.

    Unlike the other reported integrals, this one is evaluated once: it has
    no refinement pass and no error estimate, so an under-resolved momentum
    rule gives a wrong value quietly (ROADMAP item 2).
    """
    n = checked_count(n_spins, "n_spins")
    p, radial, units, weights = _momentum_mesh(n, model, quad or MomentumQuadrature())
    diagonal = np.empty((p.size, n + 1))
    upper = np.empty((p.size, n), dtype=complex)
    for i, p_i in enumerate(p):
        # exp(-i p u.sigma/2)|up> = (cos(p/2) - i u_z sin(p/2), -i sin(p/2) (u_x + i u_y)).
        cos_half, sin_half = math.cos(0.5 * p_i), math.sin(0.5 * p_i)
        alpha = cos_half - 1j * sin_half * units[:, 2]
        beta = -1j * sin_half * (units[:, 0] + 1j * units[:, 1])
        v = dicke_expand(alpha, beta, n).amplitudes
        diagonal[i] = weights @ (v.real**2 + v.imag**2)
        upper[i] = weights @ (np.conj(v[:, :-1]) * v[:, 1:])
    d, u = radial @ diagonal, radial @ upper
    ops = collective_operators(n)
    sx, sy, sz = (
        float((np.diagonal(op) @ d).real + 2.0 * (np.diagonal(op, 1) @ u).real)
        for op in (ops.sx, ops.sy, ops.sz)
    )
    return BlochReport(
        n_spins=n,
        spread=model.spread,
        sz_initial=0.5 * n,
        sz_post_closed=bloch_z_post_closed(n, model.spread),
        sz_post_numeric=sz,
        sx_post=sx,
        sy_post=sy,
    )
