"""Direction estimation from pointer outcomes: the average fidelity at one
pointer spread, and the location of the best spread.

The estimator guesses the spin direction from the outcome position r; the
default rule guesses along +r. The figure of merit is the squared overlap
between the guessed and true single-spin states, cos^2(theta/2), averaged
over the outcome distribution. With the input along +z this is a radial and
polar integral of the outcome density against the rule's score.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .asymptotics import delta_opt_formula
from .errors import DomainError
from .pointer import (
    NODES_R,
    NODES_THETA,
    AmplitudeField,
    MomentumQuadrature,
    PointerModel,
    QuadratureCounts,
    adaptive_outcome_grid,
    build_amplitude_field,
)
from .quadrature import checked_count, golden_section_max, refinement_report


class GuessRule(Enum):
    PLUS_R = "plus_r"
    MINUS_R = "minus_r"
    BEST_OF_AXIS = "best_of_axis"

    @classmethod
    def from_string(cls, text: str) -> "GuessRule":
        key = text.strip().lower().replace("-", "_")
        for rule in cls:
            if rule.value == key:
                return rule
        raise DomainError(f"unknown guess rule {text!r}")


@dataclass(frozen=True)
class FidelityPoint:
    n_spins: int
    spread: float
    guess_rule: str
    fidelity: float
    error_estimate: float
    accepted: bool
    branch: str
    counts: QuadratureCounts

    def __post_init__(self):
        if not (-1e-9 <= self.fidelity <= 1.0 + 1e-9):
            raise DomainError(f"fidelity {self.fidelity} outside [0, 1]")


@dataclass(frozen=True)
class OptimizeResult:
    n_spins: int
    delta_opt: float
    f_max: float
    f_opt: float
    gap: float
    boundary_flag: bool
    evaluations: int


def optimal_fidelity(n_spins: int) -> float:
    """Best average fidelity any measurement can reach on n parallel spins."""
    checked_count(n_spins, "n_spins")
    return (n_spins + 1.0) / (n_spins + 2.0)


def strong_coupling_limit(n_spins: int) -> float:
    """Average fidelity in the spread -> 0 limit of this pointer model."""
    n = checked_count(n_spins, "n_spins")
    if n % 2 == 0:
        return 0.25 * (3.0 * n + 2.0) / (n + 1.0)
    return 0.25 * (3.0 * n + 5.0) / (n + 2.0)


def _score_weights(field: AmplitudeField) -> tuple[float, float]:
    """Fidelity integrals for the +r and -r rules from one amplitude field."""
    w_r, w_t = field.grid.volume_weights()
    radial_profile = w_r @ field.density()  # (n_theta,)
    half = 0.5 * field.grid.polar.nodes
    f_plus = float(radial_profile @ (w_t * np.cos(half) ** 2))
    f_minus = float(radial_profile @ (w_t * np.sin(half) ** 2))
    return f_plus, f_minus


def average_fidelity(
    n_spins: int,
    model: PointerModel,
    rule: GuessRule | str = GuessRule.PLUS_R,
    nodes_r: int = NODES_R,
    nodes_theta: int = NODES_THETA,
    quad: MomentumQuadrature | None = None,
    tolerance: float = 1e-3,
) -> FidelityPoint:
    """Average guessing fidelity at one (n, spread) point.

    ``rule`` is a GuessRule or its value. Evaluates the outcome grid twice
    (base and 1.5x-refined everywhere) and declares |difference| as the
    error estimate; a disagreement beyond ten times the tolerance raises
    ConvergenceError instead of returning a number that cannot be trusted.
    """
    n_spins = checked_count(n_spins, "n_spins")
    if not tolerance > 0:
        raise DomainError("tolerance must be positive")
    try:
        rule = GuessRule(rule)
    except ValueError:
        raise DomainError(f"unknown guess rule {rule!r}") from None
    quad = quad or MomentumQuadrature()
    grid = adaptive_outcome_grid(n_spins, model, nodes_r, nodes_theta, quad)
    # The refinement pass's radial count, resolved here so that an over-cap
    # one is refused before the base build rather than after it.
    fine = quad.radial_count(quad.effective_radial(grid.r_max, model, n_spins), refined=True)
    field = build_amplitude_field(n_spins, model, grid, quad)
    base_plus, base_minus = _score_weights(field)
    counts = field.counts
    del field  # only its counts outlive it: the refined build is the larger

    field_ref = build_amplitude_field(n_spins, model, grid.refined(), replace(quad, radial_nodes=fine))
    ref_plus, ref_minus = _score_weights(field_ref)

    # Best-of-axis is resolved per (n, spread): whichever axis end scores better.
    if rule is GuessRule.PLUS_R or (rule is GuessRule.BEST_OF_AXIS and ref_plus >= ref_minus):
        branch, base, refined = "plus_r", base_plus, ref_plus
    else:
        branch, base, refined = "minus_r", base_minus, ref_minus

    report = refinement_report(base, refined, tolerance, "fidelity", n_spins, model.spread)
    return FidelityPoint(
        n_spins=n_spins,
        spread=model.spread,
        guess_rule=rule.value,
        fidelity=report.refined_value,
        error_estimate=report.abs_diff,
        accepted=report.accepted,
        branch=branch,
        counts=counts,
    )


def default_spread_bracket(n_spins: int) -> tuple[float, float]:
    """Spread bracket that find_delta_opt searches when none is given: from
    0.05 to twice the asymptotic optimum sqrt(n/8), and at least to 2."""
    return 0.05, max(2.0, 2.0 * delta_opt_formula(n_spins))


def find_delta_opt(
    n_spins: int,
    bracket: tuple[float, float] | None = None,
    delta_tolerance: float = 0.01,
    **settings,
) -> OptimizeResult:
    """Golden-section maximization of the average fidelity over the spread.

    ``settings`` are average_fidelity's keyword settings (rule, nodes_r,
    nodes_theta, quad, tolerance), passed through to every evaluation. The
    curve is not unimodal: it dips near spread 0.2 and rises toward the
    strong-coupling limit at the lower edge. The golden section keeps one
    basin. The edges are evaluated too, so an edge maximum is flagged: the
    flag is set when the best spread lies within 2 delta_tolerance of an edge.
    """
    if bracket is None:
        bracket = default_spread_bracket(n_spins)
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (0 < lo < hi):
        raise DomainError(f"bad bracket [{lo}, {hi}]")

    def f(spread: float) -> float:
        return average_fidelity(n_spins, PointerModel(spread=spread), **settings).fidelity

    cache = golden_section_max(f, lo, hi, delta_tolerance)
    # Include the bracket edges so an edge maximum is reported as such.
    for edge in (lo, hi):
        if edge not in cache:
            cache[edge] = f(edge)
    best_spread = max(cache, key=lambda s: cache[s])
    boundary = (best_spread - lo) <= 2.0 * delta_tolerance or (hi - best_spread) <= 2.0 * delta_tolerance
    f_opt = optimal_fidelity(n_spins)
    f_max = cache[best_spread]
    return OptimizeResult(
        n_spins=int(n_spins),
        delta_opt=float(best_spread),
        f_max=float(f_max),
        f_opt=f_opt,
        gap=float(f_opt - f_max),
        boundary_flag=bool(boundary),
        evaluations=len(cache),
    )
