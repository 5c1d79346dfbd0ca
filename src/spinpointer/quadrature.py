"""Deterministic quadrature rules and the refinement bookkeeping used everywhere.

All integrals in this package are evaluated twice, once at the requested
resolution and once with every node count scaled by ``REFINEMENT_FACTOR``.
``refinement_report`` is the one place that compares the two: the
difference is the declared error estimate, it is never silently absorbed,
and a difference above ten times the tolerance raises ConvergenceError.
``golden_section_max`` is the one golden-section search, shared by the
best-spread searches over the fidelity and over its lower bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.special import roots_legendre

from .errors import ConvergenceError, DomainError

REFINEMENT_FACTOR = 1.5


@dataclass(frozen=True)
class Rule1D:
    """Nodes and weights for one axis, tied to the interval they integrate."""

    nodes: np.ndarray
    weights: np.ndarray
    domain: tuple[float, float]

    def __post_init__(self):
        if self.nodes.shape != self.weights.shape or self.nodes.ndim != 1:
            raise DomainError("nodes and weights must be 1-D arrays of equal length")
        a, b = self.domain
        if not (b > a):
            raise DomainError(f"empty integration domain [{a}, {b}]")

    @property
    def count(self) -> int:
        return self.nodes.size


@dataclass(frozen=True)
class ConvergenceReport:
    """Refined value of one integral, its change from the base value, and the
    acceptance verdict."""

    refined_value: float
    abs_diff: float
    accepted: bool


@lru_cache(maxsize=256)
def _legendre_reference(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = roots_legendre(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def checked_count(value, name: str = "node count", minimum: int = 1) -> int:
    """``value`` as a node count: an integer, not a boolean, of at least
    ``minimum``. Anything else, a fraction, nan or infinity too, is a
    DomainError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise DomainError(f"{name} must be at least {minimum}, got {value}")
    return int(value)


def gauss_legendre(n: int, a: float = -1.0, b: float = 1.0) -> Rule1D:
    """Gauss-Legendre rule with ``n`` nodes mapped onto a finite [a, b], b > a."""
    n = checked_count(n)
    if not (b > a and math.isfinite(b - a)):
        raise DomainError(f"integration domain [{a}, {b}] is empty or not finite")
    x, w = _legendre_reference(n)
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    return Rule1D(nodes=mid + half * x, weights=half * w, domain=(float(a), float(b)))


def trapezoid_periodic(n: int) -> Rule1D:
    """Equal-weight rule on [0, 2 pi) for periodic integrands; exact for harmonics |m| < n."""
    n = checked_count(n)
    period = 2.0 * math.pi
    nodes = np.arange(n) * (period / n)
    weights = np.full(n, period / n)
    return Rule1D(nodes=nodes, weights=weights, domain=(0.0, period))


def scaled_count(n: int) -> int:
    return int(math.ceil(n * REFINEMENT_FACTOR))


def refinement_report(
    value: float,
    refined_value: float,
    tolerance: float,
    quantity: str,
    n_spins: int,
    spread: float,
) -> ConvergenceReport:
    """Compare a base and a refined evaluation of ``quantity`` at (n_spins, spread).

    The report accepts the value when the change is at most ``tolerance``;
    a change above ten times the tolerance raises ConvergenceError instead
    of returning a number that cannot be trusted.
    """
    if not tolerance > 0:
        raise DomainError("tolerance must be positive")
    diff = abs(refined_value - value)
    if diff > 10.0 * tolerance:
        raise ConvergenceError(
            f"{quantity} refinement moved by {diff:.3e} (> 10 x tolerance {tolerance:.1e}) "
            f"at n={n_spins}, spread={spread}"
        )
    return ConvergenceReport(
        refined_value=float(refined_value),
        abs_diff=float(diff),
        accepted=bool(diff <= tolerance),
    )


_GOLDEN = 0.5 * (math.sqrt(5.0) - 1.0)


def golden_section_max(
    f: Callable[[float], float], lo: float, hi: float, width: float
) -> dict[float, float]:
    """Golden-section search for the maximum of a unimodal ``f`` on [lo, hi].

    Shrinks the bracket until it is no wider than ``width`` and returns every
    evaluation as {x: f(x)} in the order made; each x is evaluated once. The
    bracket stops shrinking within one float spacing of its larger end, so
    a width below that spacing, or not positive, is refused before any
    evaluation.
    """
    if not width >= math.ulp(max(abs(lo), abs(hi))):
        raise DomainError(f"search width {width} is below the float spacing of [{lo}, {hi}]")
    cache: dict[float, float] = {}

    def g(x: float) -> float:
        if x not in cache:
            cache[x] = f(x)
        return cache[x]

    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = g(x1), g(x2)
    while (b - a) > width:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = g(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = g(x1)
    return cache
