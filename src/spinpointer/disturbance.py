"""Measurement back-action on the spins: disturbance of the input state and
the post-measurement Bloch vector.

Disturbance is defined as one minus the fidelity between the input product
state and the unselected post-measurement state. Tracing out the pointer
leaves a rotation average, so the kept fidelity is the momentum integral of
[1 - sin^2(p/2) sin^2(theta_p)]^n against the momentum density. Its polar
axis is exact: with b = cos^2(p/2) and I_m(b) = int_0^1 (b + (1-b) c^2)^m dc,
integration by parts gives (2m + 1) I_m = 1 + 2m b I_(m-1) with I_0 = 1, a
stable upward recurrence. So disturbance_exact is the one radial integral
D = 1 - 4 pi int p^2 |profile|^2 I_n(b) dp, with a refinement pass.

Two certificates answer for the recurrence: disturbance_oracle_full, which
integrates both momentum angles numerically on the full 2^n product space
(n <= 4, run by validate), and the test suite's copy of the former 2-D
(radial, polar) mesh formula, compared on the same radial rules up to
n = 1000.

bloch_post_numeric rotates the all-up Dicke vector over a momentum mesh
sized for its own integrand, an independent path for the Bloch closed form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, DomainError, NumericError
from .pointer import MomentumQuadrature, PointerModel, checked_spread, momentum_profile
from .quadrature import checked_count, gauss_legendre, refinement_report, scaled_count, trapezoid_periodic
from .spincore import collective_bands, dicke_expand, full_tensor_rotation_oracle, full_tensor_spectrum

# The Bloch route's base rules: Gauss nodes on the polar axis and trapezoid
# nodes on the azimuth; bloch_post_numeric says why they suffice.
_BLOCH_POLAR, _BLOCH_AZIMUTH = 8, 4

# Dicke amplitudes per dicke_expand call of the Bloch route: a block of
# radial nodes takes as many whole (polar, azimuth) meshes as fit, and at
# least one. In short crosscheck benchmark runs, budgets up to 2^13 cells
# left the peak memory where the per-node route had it; 2^15 raised it by
# about 2 MB and 2^17 by 4.6 MB.
_BLOCH_CELLS = 2**12

# The Bloch refinement's tolerance on <S_z>, the fidelity's default.
_BLOCH_TOLERANCE = 1e-3


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
    error_estimate: float
    accepted: bool


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


def _radial_weights(p_rule, model: PointerModel) -> np.ndarray:
    """Weights w p^2 |profile|^2 of a radial momentum rule."""
    return p_rule.weights * p_rule.nodes**2 * momentum_profile(p_rule.nodes, model) ** 2


def _automatic_radial(harmonic: int, model: PointerModel, quad: MomentumQuadrature) -> int:
    """Automatic radial count of an integrand holding harmonics up to
    cos(harmonic p): it grows with harmonic * p_max. The disturbance's
    rotation factor holds harmonic n, the Bloch vector harmonic 1."""
    return max(64, math.ceil(1.5 * harmonic * quad.p_max(model) / math.pi) + 32)


def _disturbance_value(n_spins: int, model: PointerModel, p_rule) -> float:
    """1 - 4 pi sum_i radial_i I_n(b_i) on one radial rule, with the weights
    radial_i of _radial_weights and b = cos^2(p/2).

    I_n comes from the upward recurrence (2m + 1) I_m = 1 + 2m b I_(m-1),
    I_0 = 1, which scales the carried error by 2mb/(2m + 1) < 1 per step.
    """
    b = np.cos(0.5 * p_rule.nodes) ** 2
    polar = np.ones_like(b)
    for m in range(1, n_spins + 1):
        polar *= b
        polar *= 2.0 * m / (2.0 * m + 1.0)
        polar += 1.0 / (2.0 * m + 1.0)
    return 1.0 - 4.0 * math.pi * float(_radial_weights(p_rule, model) @ polar)


def disturbance_exact(
    n_spins: int,
    model: PointerModel,
    quad: MomentumQuadrature | None = None,
    tolerance: float = 1e-7,
) -> DisturbancePoint:
    """Exact disturbance as one radial integral, with one refinement step.

    The radial count is max(64, ceil(1.5 n p_max / pi) + 32), or the explicit
    count, and scaled_count of it for the refinement pass. No polar rule is
    built: the polar axis is the recurrence of _disturbance_value.
    """
    n = checked_count(n_spins, "n_spins")
    if not tolerance > 0:
        raise DomainError("tolerance must be positive")
    quad = quad or MomentumQuadrature()
    # Both counts are resolved first, so a count above the cap is refused before any rule.
    counts = [quad.radial_count(_automatic_radial(n, model, quad), refined) for refined in (False, True)]
    base, refined = (_disturbance_value(n, model, gauss_legendre(count, 0.0, quad.p_max(model)))
                     for count in counts)
    report = refinement_report(base, refined, tolerance, "disturbance", n, model.spread)
    return DisturbancePoint(
        n_spins=n,
        spread=model.spread,
        d_exact=report.refined_value,
        d_lowest_order=disturbance_lowest_order(n, model.spread),
        error_estimate=report.abs_diff,
        accepted=report.accepted,
    )


def _directions(c_rule, phi_rule) -> tuple[np.ndarray, np.ndarray]:
    """Unit directions of a (polar, azimuth) mesh, shape (N_c N_phi, 3), and
    their weights."""
    c = c_rule.nodes[:, None]
    s = np.sqrt(1.0 - c * c)
    phi = phi_rule.nodes
    units = np.stack(np.broadcast_arrays(s * np.cos(phi), s * np.sin(phi), c), axis=-1)
    weights = c_rule.weights[:, None] * phi_rule.weights
    return units.reshape(-1, 3), weights.ravel()


def _momentum_mesh(n_spins: int, model: PointerModel, quad: MomentumQuadrature):
    """The full-tensor oracle's rules on the momentum sphere: radial nodes and
    their weights, |profile|^2 p^2 included, then the unit directions of the
    (polar, azimuth) mesh, shape (N_c N_phi, 3), and their weights.

    The radial count is the disturbance's; the polar integrand is a
    polynomial of degree 2n in cos(theta_p), exact once the rule has n+1
    nodes.
    """
    p_rule, c_rule = quad.gauss_rules(model, _automatic_radial(n_spins, model, quad), max(64, n_spins + 1))
    units, weights = _directions(c_rule, trapezoid_periodic(quad.azimuthal_nodes))
    return p_rule.nodes, _radial_weights(p_rule, model), units, weights


def disturbance_oracle_full(
    n_spins: int,
    model: PointerModel,
    quad: MomentumQuadrature | None = None,
) -> float:
    """Disturbance via the full 2^n tensor representation, for certification.

    Uses the disturbance's radial count on a 2-D (polar, azimuth) mesh of
    its own, a polar Gauss rule of max(64, n+1) nodes and the trapezoid rule
    in the azimuth, and evaluates the survival amplitude
    u00 = <up..up|exp(-i p.S)|up..up> on the product space. The generator at
    momentum p u is p (u.S), so each direction u of the (polar, azimuth) mesh
    is diagonalized once, by full_tensor_spectrum on explicit Kronecker
    sums, and every radial node p takes the spectral sum
    u00 = sum_j |V_0j|^2 exp(-i p w_j); the route shares nothing with the
    symmetric subspace or with disturbance_exact's polar recurrence.

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


def _bloch_pass(n_spins: int, model: PointerModel, p_rule, c_rule, phi_rule) -> tuple[float, float, float]:
    """<S_x>, <S_y>, <S_z> after the measurement on one pass's rules.

    Each block of radial nodes is one dicke_expand call over its nodes times
    the (polar, azimuth) mesh, reduced to two weighted sums: d_k = sum |v_k|^2
    and u_k = sum conj(v_k) v_(k+1), the band of the averaged density matrix.
    S_z is diagonal and S_x, S_y hold only the first off-diagonals, so
    <S_z> = m.d, <S_x> = l.Re u and <S_y> = l.Im u on the bands (m, l) of
    collective_bands.
    """
    units, weights = _directions(c_rule, phi_rule)
    radial = _radial_weights(p_rule, model)
    diagonal = np.zeros(n_spins + 1)
    upper = np.zeros(n_spins, dtype=complex)
    rows = max(1, _BLOCH_CELLS // (weights.size * (n_spins + 1)))
    for start in range(0, p_rule.count, rows):
        half = 0.5 * p_rule.nodes[start:start + rows, None]
        cos_half, sin_half = np.cos(half), np.sin(half)
        # exp(-i p u.sigma/2)|up> = (cos(p/2) - i u_z sin(p/2), -i sin(p/2) (u_x + i u_y)).
        alpha = cos_half - 1j * sin_half * units[:, 2]
        beta = -1j * sin_half * (units[:, 0] + 1j * units[:, 1])
        v = dicke_expand(alpha, beta, n_spins).amplitudes.reshape(-1, n_spins + 1)
        w = (radial[start:start + rows, None] * weights).ravel()
        diagonal += w @ (v.real**2 + v.imag**2)
        upper += w @ (np.conj(v[:, :-1]) * v[:, 1:])
    m, lower = collective_bands(n_spins)
    return float(lower @ upper.real), float(lower @ upper.imag), float(m @ diagonal)


def bloch_post_numeric(
    n_spins: int,
    model: PointerModel,
    quad: MomentumQuadrature | None = None,
) -> BlochReport:
    """Post-measurement collective spin components by direct rotation
    averaging; independent integration path for the closed form.

    The unselected post-measurement state is the rotation average of the
    input, so <S_a> = Integral |profile|^2 <v(p)|S_a|v(p)> d^3p with v(p)
    the rotated all-up Dicke vector, at any n a coherent state with
    <v(p)|S|v(p)> = (n/2) R(p) z. The rules are sized for that integrand,
    which the closed form does not use:
    - radial: max(64, ceil(1.5 p_max / pi) + 32) Gauss nodes on [0, p_max],
      as R(p) z holds the single harmonic cos p (and sin p);
    - polar: 8 Gauss nodes, exact to degree 15, as R(p) z has degree 2 in
      u_z (cos p + (1 - cos p) u_z^2 for the z component);
    - azimuth: a 4-node trapezoid, exact for harmonics |m| <= 3, as R(p) z
      holds |m| <= 1.
    Explicit radial and polar counts win over the automatic ones. A second
    pass takes scaled_count of every count, and refinement_report compares
    the two values of <S_z> at tolerance 1e-3 (the fidelity's default): the
    report carries the refined pass, its change as error_estimate, and
    accepted; a change above 1e-2 raises ConvergenceError. So the degree
    argument is checked on every call.

    The radial nodes go through dicke_expand in blocks of at most
    _BLOCH_CELLS amplitudes (at least one node a block), so memory stays
    bounded at any n.
    """
    n = checked_count(n_spins, "n_spins")
    quad = quad or MomentumQuadrature()
    radial = _automatic_radial(1, model, quad)
    # The refinement pass first, so a count above the cap is refused before any rule.
    fine = (*quad.gauss_rules(model, radial, _BLOCH_POLAR, refined=True),
            trapezoid_periodic(scaled_count(_BLOCH_AZIMUTH)))
    base = (*quad.gauss_rules(model, radial, _BLOCH_POLAR), trapezoid_periodic(_BLOCH_AZIMUTH))
    sz_base = _bloch_pass(n, model, *base)[2]
    sx, sy, sz = _bloch_pass(n, model, *fine)
    report = refinement_report(sz_base, sz, _BLOCH_TOLERANCE, "bloch S_z", n, model.spread)
    return BlochReport(
        n_spins=n,
        spread=model.spread,
        sz_initial=0.5 * n,
        sz_post_closed=bloch_z_post_closed(n, model.spread),
        sz_post_numeric=report.refined_value,
        sx_post=sx,
        sy_post=sy,
        error_estimate=report.abs_diff,
        accepted=report.accepted,
    )
