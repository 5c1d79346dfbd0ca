"""Large-ensemble behavior: the diagonal Kraus element, the fidelity lower
bound it induces, and the scaled inefficiency curve.

The guessed-direction matrix element E_r = <r^n| E(r) |up^n> factorizes:
an exact frame rotation puts the outcome direction on the momentum polar
axis, the azimuthal integral of the resulting Nth-power scalar keeps only
its m=0 term, and what remains is cos^n(theta/2) times a radial profile,
a 1-D Fourier transform in the momentum p_z along the outcome axis:

    W(r) = (2 pi)^(-1/2) Integral dp_z e^(i r p_z) G(p_z),
    G(p_z) = Integral_|p_z|^p_max s ds profile(s) alpha^n,    s = |p|,
    alpha = cos(s/2) - i p_z sin(s/2) / s.

G(-p_z) = conj G(p_z), so W is real and p_z runs over [0, p_max] only.

|E_r|^2 is a pointwise lower bound on the outcome density, so scoring it
like a fidelity integral lower-bounds the average fidelity. Both outcome
axes integrate exactly: Integral_0^pi sin(theta) cos^(2n+2)(theta/2) dtheta
= 2/(n+2), and by Parseval r W(r) transforms to i G'(p_z), as G(+-p_max) = 0
and |G'| is even. With alpha = e^(-i p_z/2) at s = p_z,

    F_lower = (4 pi/(n+2)) Integral_0^inf r^2 W(r)^2 dr
            = (8 pi/(n+2)) Integral_0^p_max |G'(p_z)|^2 dp_z
              - (4 pi/(n+2)) Integral_0^inf r^2 W(-r)^2 dr,
    G'(p_z) e^(i n p_z/2) = -p_z profile(p_z)
        - i n Integral_p_z^p_max ds profile(s) sin(s/2) alpha^(n-1) e^(i n p_z/2).

The factor e^(i n p_z/2) keeps |G| and |G'| and removes the fast phase, so
one Gauss mesh in (p_z, s) serves any n, and G and G' alike: W at r is the
transform of G e^(i n p_z/2) at r - n/2. W lives around the drift r = n/2;
its r < 0 part, taken over [0, 6 spread + 4], matters only at small n (0.06
at n = 1, spread 0.3).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError
# _BLOCK_CELLS bounds the mesh cells per block of p_z rows, as it bounds the field's Bessel tables.
from .pointer import _BLOCK_CELLS, MomentumQuadrature, PointerModel, _row_ranges, momentum_profile
from .quadrature import checked_count, gauss_legendre, golden_section_max, refinement_report


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
    checked_count(n_spins, "n_spins")
    return math.sqrt(n_spins / 8.0)


def optimal_scaling(n_spins: int) -> float:
    """Scaled inefficiency of the best measurement: (1 + 2/n)^-1."""
    checked_count(n_spins, "n_spins")
    return 1.0 / (1.0 + 2.0 / n_spins)


def _marginals(n: int, model: PointerModel, p_max: float, count: int):
    """The p_z rule on [0, p_max], with G(p_z) e^(i n p_z/2) and
    G'(p_z) e^(i n p_z/2) on its nodes, from one count x count Gauss mesh in
    (p_z, s), s in [p_z, p_max], in blocks of p_z rows."""
    z_rule = gauss_legendre(count, 0.0, p_max)
    t_rule = gauss_legendre(count, 0.0, 1.0)
    marginal, slope = np.empty((2, count), dtype=complex)
    rows = _BLOCK_CELLS // count  # at least 13 under the radial cap
    for lo, hi in _row_ranges(count, rows):
        pz = z_rule.nodes[lo:hi, None]
        span = p_max - pz
        s = pz + span * t_rule.nodes
        sin_half, cos_half = np.sin(0.5 * s), np.cos(0.5 * s)
        tilt = pz * sin_half / s  # alpha = cos_half - i tilt; s > p_z > 0 on Gauss nodes
        # alpha^(n-1) e^(i n p_z/2) from log|alpha| and arg(alpha), with no complex log
        log_alpha = np.log(np.hypot(cos_half, tilt)) - 1j * np.arctan2(tilt, cos_half)
        power = np.exp((n - 1) * log_alpha + 0.5j * n * pz)
        rotated = (span * t_rule.weights) * momentum_profile(s, model) * power
        # alpha^n = alpha^(n-1) alpha
        marginal[lo:hi] = np.sum(rotated * (s * (cos_half - 1j * tilt)), axis=1)
        edge = pz[:, 0] * momentum_profile(pz[:, 0], model)
        slope[lo:hi] = -edge - 1j * n * np.sum(rotated * sin_half, axis=1)
    return z_rule, marginal, slope


def _fourier(r, n: int, z_rule, marginal: np.ndarray) -> np.ndarray:
    """W(r) on an array of radii from G(p_z) e^(i n p_z/2) on the p_z rule, in
    blocks of radii, so the phase matrix stays under _BLOCK_CELLS."""
    weighted = z_rule.weights * marginal
    shifted = np.ravel(r - 0.5 * n)
    fourier = np.empty(shifted.size)
    rows = _BLOCK_CELLS // z_rule.nodes.size  # at least 13 under the radial cap
    for lo, hi in _row_ranges(shifted.size, rows):
        phase = np.multiply.outer(shifted[lo:hi], z_rule.nodes)
        fourier[lo:hi] = np.cos(phase) @ weighted.real - np.sin(phase) @ weighted.imag
    return 2.0 * (2.0 * math.pi) ** -0.5 * fourier.reshape(np.shape(r))


def diag_radial_profile(
    r,
    n_spins: int,
    model: PointerModel,
    quad: MomentumQuadrature | None = None,
) -> np.ndarray:
    """Radial profile W(r) of the diagonal Kraus element: the Fourier transform
    of G, on the mesh of the radial count for the largest radius; W is real."""
    n = checked_count(n_spins, "n_spins")
    quad = quad or MomentumQuadrature()
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if not np.all(np.isfinite(r) & (r >= 0)):
        raise DomainError("radii must be finite and nonnegative")
    count = quad.radial_count(quad.effective_radial(float(np.max(r, initial=1.0)), model, n))
    z_rule, marginal, _ = _marginals(n, model, quad.p_max(model), count)
    return _fourier(r, n, z_rule, marginal)


def fidelity_lower_bound(
    n_spins: int,
    model: PointerModel,
    quad: MomentumQuadrature | None = None,
    tolerance: float = 1e-4,
) -> LowerBoundPoint:
    """Score |E_r|^2 like a fidelity integral: a lower bound on F_av, by the
    |G'|^2 identity of the module notes.

    Each pass evaluates G and G' once, on the (p_z, s) mesh of the radial
    count for radius 6 spread + 4, and takes the r < 0 term from W(-r) on a
    rule of that count over [0, 6 spread + 4]. Both passes' counts are
    resolved first, so one above the cap is refused before any work.
    """
    n = checked_count(n_spins, "n_spins")
    if not tolerance > 0:
        raise DomainError("tolerance must be positive")
    quad = quad or MomentumQuadrature()
    p_max, r_behind = quad.p_max(model), 6.0 * model.spread + 4.0
    automatic = quad.effective_radial(r_behind, model, n)
    counts = [quad.radial_count(automatic, refined) for refined in (False, True)]

    def score(count: int) -> float:
        z_rule, marginal, slope = _marginals(n, model, p_max, count)
        r_rule = gauss_legendre(count, 0.0, r_behind)
        w_behind = _fourier(-r_rule.nodes, n, z_rule, marginal)
        behind = float(r_rule.weights @ (r_rule.nodes * w_behind) ** 2)
        slope_norm = float(z_rule.weights @ (slope.real**2 + slope.imag**2))
        return 4.0 * math.pi / (n + 2) * (2.0 * slope_norm - behind)

    base, refined = (score(count) for count in counts)
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
    quad: MomentumQuadrature | None = None,
    tolerance: float = 1e-4,
) -> list[LowerBoundPoint]:
    """Scaled inefficiency n (1 - F_lower) along a list of ensemble sizes.

    spread_rule "formula" uses base = sqrt(n/8); "optimize" golden-sections
    the bound over [base/2, 2 base] and keeps its best evaluated spread.
    """
    if spread_rule not in ("formula", "optimize"):
        raise DomainError(f"unknown spread rule {spread_rule!r}")

    @lru_cache(maxsize=None)  # the best spread is among the evaluated ones
    def bound(n: int, spread: float) -> LowerBoundPoint:
        return fidelity_lower_bound(n, PointerModel(spread=spread), quad, tolerance)

    points = []
    for n in [checked_count(n, "n_spins") for n in n_values]:
        spread = delta_opt_formula(n)
        if spread_rule == "optimize":
            cache = golden_section_max(
                lambda s: bound(n, s).f_lower, 0.5 * spread, 2.0 * spread, 0.02 * spread
            )
            spread = max(cache, key=cache.__getitem__)
        points.append(bound(n, spread))
    return points
