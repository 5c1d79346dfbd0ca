"""Large-ensemble behavior: the diagonal Kraus element, the fidelity lower
bound it induces, and the scaled inefficiency curve.

The guessed-direction matrix element E_r = <r^n| E(r) |up^n> factorizes:
an exact frame rotation puts the outcome direction on the momentum polar
axis, the azimuthal integral of the resulting Nth-power scalar keeps only
its m=0 term, and what remains is cos^n(theta/2) times a radial profile,
a 1-D Fourier transform in the momentum p_z along the outcome axis:

    W(r) = (2 pi)^(-1/2) Integral dp_z e^(i r p_z) G(p_z),
    G(p_z) = Integral_0^sqrt(p_max^2 - p_z^2) rho drho profile(|p|) alpha^n,
    alpha = cos(|p|/2) - i p_z sin(|p|/2) / |p|.

G(-p_z) = conj G(p_z), so W is real and p_z runs over [0, p_max] only.

|E_r|^2 is a pointwise lower bound on the outcome density, so scoring it
like a fidelity integral lower-bounds the average fidelity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, DomainError
from .pointer import MomentumQuadrature, OutcomeGrid, PointerModel, build_outcome_grid, momentum_profile
from .quadrature import gauss_legendre, golden_section_max, refinement_report, scaled_count

# Polar concentration for large ensembles: essentially all outcome
# probability sits at angles below c / sqrt(n) from the input axis.
_POLAR_CONCENTRATION = 10.0
_LARGE_N = 150
_MAX_RADIAL_NODES = 20_000  # the outcome grid's radial cap in pointer
_BLOCK_CELLS = 1 << 18  # mesh cells per block of p_z rows, so memory stays bounded


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


def _radial_count(r_max: float, n_spins: int, model: PointerModel, quad: MomentumQuadrature) -> int:
    """Radial momentum count N_p for W on radii up to r_max (an explicit count
    wins), refused above the cap before anything is allocated."""
    n_p = quad.radial_nodes or quad.effective_radial(r_max, model, n_spins)
    if n_p > _MAX_RADIAL_NODES:
        raise CapabilityError(f"lower bound needs {n_p} radial momentum nodes, cap {_MAX_RADIAL_NODES}")
    return n_p


def _diag_profile_values(r, n_spins: int, model: PointerModel, p_max: float, n_p: int) -> np.ndarray:
    """W(r) on an array of radii; the p_z and rho counts both derive from N_p."""
    m = int(math.ceil(0.8 * n_p))
    z_rule = gauss_legendre(m + 16, 0.0, p_max)
    rho_ref = gauss_legendre(m + 32, 0.0, 1.0)
    marginal = np.empty(z_rule.count, dtype=complex)
    rows = _BLOCK_CELLS // rho_ref.count  # at least 10 under the radial cap
    for start in range(0, z_rule.count, rows):
        pz = z_rule.nodes[start : start + rows, None]
        rho_max = np.sqrt(p_max * p_max - pz * pz)
        rho = rho_max * rho_ref.nodes
        p = np.sqrt(pz * pz + rho * rho)
        # sin(|p|/2)/|p| as 0.5 sinc, smooth at p = 0; alpha^n by n*log(alpha)
        # with an integer exponent, so the log branch is moot.
        alpha = np.cos(0.5 * p) - 0.5j * pz * np.sinc(p / (2.0 * math.pi))
        power = np.exp(n_spins * np.log(alpha))
        measure = (rho_max * rho_ref.weights) * rho * momentum_profile(p, model)
        marginal[start : start + rows] = np.sum(measure * power, axis=1)
    weighted = z_rule.weights * marginal
    phase = np.multiply.outer(r, z_rule.nodes)
    fourier = np.cos(phase) @ weighted.real - np.sin(phase) @ weighted.imag
    return 2.0 * (2.0 * math.pi) ** -0.5 * fourier


def diag_radial_profile(
    r,
    n_spins: int,
    model: PointerModel,
    quad: MomentumQuadrature | None = None,
) -> np.ndarray:
    """Radial profile W(r) of the diagonal Kraus element; W is real."""
    quad = quad or MomentumQuadrature()
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if not np.all(np.isfinite(r) & (r >= 0)):
        raise DomainError("radii must be finite and nonnegative")
    n_p = _radial_count(float(np.max(r, initial=1.0)), n_spins, model, quad)
    return _diag_profile_values(r, n_spins, model, quad.p_max(model), n_p)


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
    w = diag_radial_profile(scan.nodes, n_spins, model, quad)
    mass = (scan.nodes * w) ** 2
    keep = np.nonzero(mass > 1e-12 * float(np.max(mass)))[0]
    r_lo = scan.nodes[max(0, keep[0] - 2)] if keep[0] > 0 else lo
    r_hi = scan.nodes[min(scan.count - 1, keep[-1] + 2)]
    return float(r_lo), float(r_hi)


def _bound_value(grid: OutcomeGrid, n_spins: int, model: PointerModel, p_max: float, n_p: int) -> float:
    """Fidelity score of |E_r|^2 on one outcome grid and radial momentum count."""
    w = _diag_profile_values(grid.radial.nodes, n_spins, model, p_max, n_p)
    w_r, w_t = grid.volume_weights()
    half = 0.5 * grid.polar.nodes
    # |E|^2 separates into radius and angle factors; score is cos^2(half).
    with np.errstate(under="ignore"):
        polar_part = np.cos(half) ** (2 * n_spins + 2)
    return float(np.sum(w_r * w * w) * float(w_t @ polar_part))


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

    n_p, p_max = _radial_count(grid.r_max, n, model, quad), quad.p_max(model)
    base = _bound_value(grid, n, model, p_max, n_p)
    refined = _bound_value(grid.refined(), n, model, p_max, scaled_count(n_p))
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

    spread_rule "formula" uses base = sqrt(n/8); "optimize" golden-sections
    the bound over [base/2, 2 base] and keeps its best evaluated spread.
    """
    if spread_rule not in ("formula", "optimize"):
        raise DomainError(f"unknown spread rule {spread_rule!r}")

    def bound(n: int, spread: float) -> LowerBoundPoint:
        return fidelity_lower_bound(n, PointerModel(spread=spread), nodes_r, nodes_theta, quad, tolerance)

    points = []
    for n in map(int, n_values):
        spread = delta_opt_formula(n)
        if spread_rule == "optimize":
            cache = golden_section_max(
                lambda s: bound(n, s).f_lower, 0.5 * spread, 2.0 * spread, 0.02 * spread
            )
            spread = max(cache, key=cache.__getitem__)
        points.append(bound(n, spread))
    return points
