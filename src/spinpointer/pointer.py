"""Three-axis Gaussian pointer coupled to N parallel spins, and the
position-outcome amplitude field it induces.

The pointer starts in an isotropic Gaussian of spatial spread ``spread`` per
axis; the coupling imprints one rotation exp(-i p.S) per momentum component.
Reading out the pointer position r applies the Kraus operator

    E(r) = (2 pi)^(-3/2) Integral d^3p  e^(i r.p) profile(p) exp(-i p.S)

to the spins, with the plane-wave normalization fixed so that the Kraus set
is complete. For input all-up the Dicke-k component of E(r)|up..up> carries
the single azimuthal harmonic e^(i k phi_p), so the momentum azimuth is
integrable in closed form; combining this with the partial-wave expansion of
the plane wave reduces the angular momentum integrals to exact polar
Gauss-Legendre sums truncated at angular order n_spins. Only the radial
momentum axis keeps the oscillation burden, and its node count scales with
r_max * p_max as configured. The spin factor on the momentum mesh,
sqrt(C(n,k)) alpha^(n-k) beta^k, is spincore.dicke_powers with the k axis
first, so each k slice that the polar moments contract is contiguous.

The field is built in blocks of outcome radii. Each block needs j_l(r p)
for every order l = 0..n_spins, taken from one table per block: scipy gives
j_0 and j_1, and the rest follow by recurrence, upward where l <= r p and by
downward ratios (Miller's algorithm) above it. The radial transform is then
one real matrix product per order l, and the angular synthesis one complex
matrix product per Dicke component k.
"""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import spherical_jn

from .errors import DomainError, NumericError
from .quadrature import Rule1D, gauss_legendre, scaled_count, trapezoid_periodic
from .spincore import Direction, DickeVector, dicke_powers

# Absolute prefactor of the partial-wave synthesis; see build notes below.
_AMPLITUDE_PREFACTOR = 2.0**1.5 * math.sqrt(math.pi)

# Radial outcome nodes per worker task; fixed so that results are bitwise
# independent of the worker count.
_CHUNK_RADIAL = 16


@dataclass(frozen=True)
class PointerModel:
    """Isotropic Gaussian pointer; spread is the per-axis position sigma-like
    width (position density has variance spread^2 per axis). The coupling is
    fixed at 1: a weaker coupling is a wider spread."""

    spread: float

    def __post_init__(self):
        if not (self.spread > 0 and np.isfinite(self.spread)):
            raise DomainError(f"pointer spread must be positive, got {self.spread}")

    @property
    def momentum_sigma(self) -> float:
        """Per-axis standard deviation of the momentum density."""
        return 0.5 / self.spread


def momentum_profile(p, model: PointerModel) -> np.ndarray:
    """Momentum wavefunction (2 spread^2/pi)^(3/4) exp(-spread^2 p^2); unit L2 norm."""
    p = np.asarray(p, dtype=float)
    d2 = model.spread * model.spread
    return (2.0 * d2 / math.pi) ** 0.75 * np.exp(-d2 * p * p)


def position_profile(x, model: PointerModel) -> np.ndarray:
    """Position wavefunction (2 pi spread^2)^(-3/4) exp(-x^2/(4 spread^2))."""
    x = np.asarray(x, dtype=float)
    d2 = model.spread * model.spread
    return (2.0 * math.pi * d2) ** -0.75 * np.exp(-x * x / (4.0 * d2))


@dataclass(frozen=True)
class MomentumQuadrature:
    """Spherical momentum-space quadrature configuration.

    ``None`` counts mean automatic scaling: each integrand supplies its own
    automatic counts to ``gauss_rules``, and explicit counts are taken as
    given. The azimuthal count only matters on paths where the azimuth is
    integrated numerically (full-tensor oracles, Bloch integrals); the
    amplitude-field path integrates it analytically.
    """

    radial_nodes: int | None = None
    polar_nodes: int | None = None
    azimuthal_nodes: int = 16
    cutoff_sigmas: float = 8.0

    def __post_init__(self):
        for name in ("radial_nodes", "polar_nodes"):
            v = getattr(self, name)
            if v is not None and v < 4:
                raise DomainError(f"{name} must be at least 4, got {v}")
        if self.azimuthal_nodes < 4:
            raise DomainError(f"azimuthal_nodes must be at least 4, got {self.azimuthal_nodes}")
        if self.cutoff_sigmas < 4:
            raise DomainError(f"cutoff_sigmas below 4 discards real probability mass")

    def p_max(self, model: PointerModel) -> float:
        return self.cutoff_sigmas * model.momentum_sigma

    def effective_radial(self, r_max: float, model: PointerModel, n_spins: int = 0) -> int:
        """Automatic radial count for outcome radii up to r_max.

        Follows the oscillation budget ceil(1.5 * (r_max + n_spins/2) * p_max)
        with a floor of 32: the spin factor itself oscillates at rate
        n_spins/2 in the radial momentum, on top of the plane-wave rate r.
        """
        band = r_max + 0.5 * n_spins
        return max(32, int(math.ceil(1.5 * band * self.p_max(model))))

    def gauss_rules(self, model: PointerModel, radial: int, polar: int) -> tuple[Rule1D, Rule1D]:
        """Gauss-Legendre rules on [0, p_max] and [-1, 1].

        An explicit count wins; otherwise the caller's automatic count
        (``radial``, ``polar``) is used.
        """
        n_p = radial if self.radial_nodes is None else int(self.radial_nodes)
        n_c = polar if self.polar_nodes is None else int(self.polar_nodes)
        return gauss_legendre(n_p, 0.0, self.p_max(model)), gauss_legendre(n_c, -1.0, 1.0)


@dataclass(frozen=True)
class QuadratureCounts:
    """Effective node counts actually used for one result (CSV fingerprint)."""

    nodes_r: int
    nodes_theta: int
    nodes_p_radial: int
    nodes_p_polar: int
    nodes_p_azimuthal: int
    cutoff_sigmas: float


@dataclass(frozen=True)
class OutcomeGrid:
    """Product grid over outcome radius and polar angle (azimuth is symmetric).

    The radial rule covers (r_min, r_max]; r_min is 0 unless the caller
    windows the radial axis (useful at large n where the probability sits in
    a thin shell around radius n/2). The polar rule may be split at a given
    angle so hemisphere masses are exact partial sums.
    """

    radial: Rule1D
    polar: Rule1D
    polar_split_index: int | None = None

    @property
    def r_max(self) -> float:
        return self.radial.domain[1]

    @property
    def r_min(self) -> float:
        return self.radial.domain[0]

    @property
    def theta_max(self) -> float:
        return self.polar.domain[1]

    def refined(self) -> "OutcomeGrid":
        """The same region with both node counts scaled by the refinement
        factor; the refined polar rule is not split."""
        return build_outcome_grid(
            self.r_max,
            nodes_r=scaled_count(self.radial.count),
            nodes_theta=scaled_count(self.polar.count),
            r_min=self.r_min,
            theta_max=self.theta_max,
        )

    def volume_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Radial and polar weight vectors including the 2 pi r^2 sin(theta)
        measure, split so integrals are w_r . M . w_t contractions."""
        w_r = 2.0 * math.pi * self.radial.weights * self.radial.nodes**2
        w_t = self.polar.weights * np.sin(self.polar.nodes)
        return w_r, w_t


def build_outcome_grid(
    r_max: float,
    nodes_r: int = 96,
    nodes_theta: int = 64,
    r_min: float = 0.0,
    theta_max: float = math.pi,
    polar_split: float | None = None,
) -> OutcomeGrid:
    if not (r_max > r_min >= 0.0):
        raise DomainError(f"need r_max > r_min >= 0, got [{r_min}, {r_max}]")
    if not (0.0 < theta_max <= math.pi):
        raise DomainError(f"polar extent must lie in (0, pi], got {theta_max}")
    radial = gauss_legendre(nodes_r, r_min, r_max)
    if polar_split is None:
        polar = gauss_legendre(nodes_theta, 0.0, theta_max)
        split_index = None
    else:
        if not (0.0 < polar_split < theta_max):
            raise DomainError("polar split must lie inside the polar domain")
        lower = gauss_legendre(nodes_theta // 2, 0.0, polar_split)
        upper = gauss_legendre(nodes_theta - nodes_theta // 2, polar_split, theta_max)
        polar = Rule1D(
            nodes=np.concatenate([lower.nodes, upper.nodes]),
            weights=np.concatenate([lower.weights, upper.weights]),
            domain=(0.0, theta_max),
        )
        split_index = lower.count
    return OutcomeGrid(radial=radial, polar=polar, polar_split_index=split_index)


@dataclass(frozen=True)
class AmplitudeField:
    """Dicke amplitudes of E(r)|up^n> on an outcome grid, at outcome azimuth 0.

    values[a, b, k] is the k-flips amplitude at radius radial.nodes[a] and
    polar angle polar.nodes[b]; a nonzero outcome azimuth multiplies
    component k by e^(i k azimuth). total_probability is the grid integral
    of the outcome density and should be 1 up to the quadrature tolerance
    and the discarded radial tail.
    """

    n_spins: int
    model: PointerModel
    grid: OutcomeGrid
    counts: QuadratureCounts
    values: np.ndarray = field(repr=False)
    total_probability: float

    def density(self) -> np.ndarray:
        """Outcome probability density p(r, theta) on the grid."""
        return np.sum(np.abs(self.values) ** 2, axis=2)


def _alpha_beta_polar(p: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Single-spin amplitudes on a (radial, polar) momentum mesh.

    alpha and the azimuth-stripped beta for exp(-i p.sigma/2)|up> with the
    momentum direction at cos(polar) = c; the full beta carries e^(i phi).
    """
    pp, cc = np.meshgrid(p, c, indexing="ij")
    half = 0.5 * pp
    alpha = np.cos(half) - 1j * cc * np.sin(half)
    beta = -1j * np.sin(half) * np.sqrt(np.clip(1.0 - cc * cc, 0.0, None))
    return alpha, beta


def _legendre_normalized(l_max: int, m: int, x: np.ndarray) -> np.ndarray:
    """Spherical-harmonic-normalized associated Legendre functions.

    Returns rows l = m..l_max of P~_{l m}(x) where Y_{l m} = P~_{l m} e^(i m phi);
    upward recursion in l is stable in this normalization.
    """
    x = np.asarray(x, dtype=float)
    if m < 0 or l_max < m:
        raise DomainError("need 0 <= m <= l_max")
    rows = np.empty((l_max - m + 1, x.size))
    # Seed ln P~_mm; for m=0 it is the constant 1/sqrt(4 pi).
    if m == 0:
        pmm = np.full(x.size, 1.0 / math.sqrt(4.0 * math.pi))
    else:
        log_norm = 0.5 * (
            math.log(2 * m + 1)
            - math.log(4.0 * math.pi)
            + math.lgamma(2 * m + 1)
            - 2.0 * math.lgamma(m + 1)
            - m * math.log(4.0)
        )
        with np.errstate(divide="ignore"):
            log_sin = 0.5 * m * np.log(np.clip(1.0 - x * x, 0.0, None))
        sign = -1.0 if m % 2 else 1.0
        pmm = sign * np.exp(log_norm + log_sin)
    rows[0] = pmm
    if l_max > m:
        rows[1] = x * math.sqrt(2 * m + 3.0) * pmm
    for l in range(m + 2, l_max + 1):
        a = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
        b = -a * math.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
        rows[l - m] = a * x * rows[l - m - 1] + b * rows[l - m - 2]
    return rows


def _radial_chunks(count: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + _CHUNK_RADIAL, count)) for lo in range(0, count, _CHUNK_RADIAL)]


def _bessel_table(l_max: int, z: np.ndarray) -> np.ndarray:
    """Spherical Bessel functions j_l(z) for l = 0..l_max >= 1, stacked on axis 0.

    j_0 and j_1 come from scipy. Orders l <= z follow the upward recurrence
    j_{l+1} = (2l+1)/z j_l - j_{l-1}, stable there (DLMF 10.51.1). Orders
    above z come from the ratios r_l = j_l / j_{l-1} = z / (2l+1 - z r_{l+1}),
    recurred downward from r = 0 at l_max plus a margin of order l_max^(1/3),
    the width of the turning region around l = z (Miller's algorithm, DLMF
    3.6(iii)); they are chained onto the upward value at floor(z). The
    ratios are bounded, so tiny orders underflow to 0 and nothing overflows;
    the upward values discarded above z may overflow harmlessly.
    """
    z = np.asarray(z, dtype=float)
    table = np.empty((l_max + 1,) + z.shape)
    seeds = spherical_jn(np.arange(2).reshape((2,) + (1,) * z.ndim), z)
    table[:2] = seeds
    last_upward = np.maximum(np.floor(z), 1.0)
    start = l_max + 16 + math.ceil(8.0 * l_max ** (1.0 / 3.0))
    with np.errstate(all="ignore"):
        ratio = np.zeros_like(z)
        for l in range(start, 1, -1):
            ratio = z / ((2 * l + 1) - z * ratio)
            if l <= l_max:
                table[l] = ratio
        prev, cur = seeds
        for l in range(1, l_max):
            prev, cur = cur, (2 * l + 1) / z * cur - prev
            table[l + 1] = np.where(l + 1 <= last_upward, cur, table[l + 1] * table[l])
    return table


def _field_chunk(payload) -> np.ndarray:
    """Amplitudes for one block of outcome radii; pure function of the payload."""
    n, r_nodes, p_nodes, weighted, theta_coefs = payload
    n_theta = theta_coefs[0].shape[1]
    bessel = _bessel_table(n, np.multiply.outer(r_nodes, p_nodes))
    # transform[k, l, a]: radial transform of the order-l moment for k flips
    transform = np.zeros((n + 1, n + 1, r_nodes.size), dtype=complex)
    for l in range(n + 1):
        t = bessel[l] @ weighted[l * (l + 1) : (l + 1) * (l + 2)].T
        transform[: l + 1, l].real = t[:, : l + 1].T
        transform[: l + 1, l].imag = t[:, l + 1 :].T
    out = np.empty((r_nodes.size, n_theta, n + 1), dtype=complex)
    for k in range(n + 1):
        out[:, :, k] = _AMPLITUDE_PREFACTOR * (transform[k, k:].T @ theta_coefs[k])
    return out


def build_amplitude_field(
    n_spins: int,
    model: PointerModel,
    grid: OutcomeGrid,
    quad: MomentumQuadrature | None = None,
    workers: int = 1,
) -> AmplitudeField:
    """Assemble the Dicke amplitude field of E(r)|up^n> on the outcome grid.

    Synthesis: with the momentum azimuth integrated exactly and the plane
    wave expanded in partial waves, component k at outcome (r, theta) is

        2^(3/2) sqrt(pi) * sum_{l=k}^{n} i^l P~_{lk}(cos theta)
            * Integral dp p^2 profile(p) j_l(r p) M_{lk}(p)

    with M_{lk}(p) the polar moment of the k-flips spin factor. Truncation at
    l = n is exact because the spin factor is band-limited; the polar
    Gauss-Legendre rule is exact once it has at least n+1 nodes.

    Each block of _CHUNK_RADIAL outcome radii builds its own table of
    j_l(r p), l = 0..n, by recurrence from scipy's j_0 and j_1 (see
    _bessel_table; it agrees with scipy's j_l to about 1e-15 absolute). The
    radial transform of order l is one real product of that table's row l
    with the real and imaginary parts of the weighted moments M_{lk}, all
    k <= l at once; the angular synthesis is one complex product per k. The
    blocks are fixed, so the values do not depend on ``workers``.
    """
    n = int(n_spins)
    if n < 1:
        raise DomainError(f"need n_spins >= 1, got {n}")
    quad = quad or MomentumQuadrature()
    p_rule, c_rule = quad.gauss_rules(
        model, quad.effective_radial(grid.r_max, model, n), max(32, n + 1)
    )
    if c_rule.count <= n:
        c_rule = gauss_legendre(n + 1, -1.0, 1.0)

    alpha, beta = _alpha_beta_polar(p_rule.nodes, c_rule.nodes)
    spin_stack = dicke_powers(alpha, beta, n)  # (n+1, n_p, n_c)
    if not np.all(np.isfinite(spin_stack)):
        raise NumericError("spin factor overflowed; parameters out of range")

    # Radially weighted polar moments M_{lk}(p) and outcome-angle tables,
    # built once. Rows l(l+1) .. (l+1)(l+2)-1 of weighted belong to order l:
    # the real parts of k = 0..l, then their imaginary parts.
    radial_measure = p_rule.weights * p_rule.nodes**2 * momentum_profile(p_rule.nodes, model)
    weighted = np.empty(((n + 1) * (n + 2), p_rule.count))
    theta_coefs = []
    cos_theta = np.cos(grid.polar.nodes)
    i_pow = 1j ** np.arange(n + 1)
    for k in range(n + 1):
        ptab_c = _legendre_normalized(n, k, c_rule.nodes)  # (n-k+1, n_c)
        moments = ((ptab_c * c_rule.weights) @ spin_stack[k].T) * radial_measure
        orders = np.arange(k, n + 1)
        rows = orders * (orders + 1) + k
        weighted[rows] = moments.real
        weighted[rows + orders + 1] = moments.imag
        ptab_t = _legendre_normalized(n, k, cos_theta)
        theta_coefs.append(i_pow[k : n + 1][:, None] * ptab_t)
    del spin_stack  # the largest array; the radial blocks need only the moments

    chunks = _radial_chunks(grid.radial.count)
    payloads = [
        (n, grid.radial.nodes[lo:hi], p_rule.nodes, weighted, theta_coefs)
        for lo, hi in chunks
    ]
    if workers > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(payloads))) as pool:
            blocks = list(pool.map(_field_chunk, payloads))
    else:
        blocks = [_field_chunk(p) for p in payloads]
    values = np.concatenate(blocks, axis=0)

    w_r, w_t = grid.volume_weights()
    density = np.sum(np.abs(values) ** 2, axis=2)
    total = float(w_r @ density @ w_t)
    counts = QuadratureCounts(
        nodes_r=grid.radial.count,
        nodes_theta=grid.polar.count,
        nodes_p_radial=p_rule.count,
        nodes_p_polar=c_rule.count,
        nodes_p_azimuthal=quad.azimuthal_nodes,
        cutoff_sigmas=quad.cutoff_sigmas,
    )
    return AmplitudeField(
        n_spins=n, model=model, grid=grid, counts=counts, values=values, total_probability=total
    )


def position_amplitudes(
    radius: float,
    polar: float,
    n_spins: int,
    model: PointerModel,
    quad: MomentumQuadrature | None = None,
    azimuth: float = 0.0,
) -> DickeVector:
    """Dicke amplitudes of E(r)|up^n> at a single outcome point."""
    if not (radius > 0):
        raise DomainError(f"outcome radius must be positive, got {radius}")
    if not (0.0 <= polar <= math.pi):
        raise DomainError(f"polar angle {polar} outside [0, pi]")
    quad = quad or MomentumQuadrature()
    eps = 1e-9 * max(1.0, radius)
    grid = OutcomeGrid(
        radial=Rule1D(np.array([radius]), np.array([1.0]), (radius - eps, radius)),
        polar=Rule1D(np.array([polar]), np.array([1.0]), (0.0, math.pi)),
    )
    # Node budget keyed to the actual radius, not a grid extent.
    if quad.radial_nodes is None:
        quad = replace(quad, radial_nodes=quad.effective_radial(radius, model, n_spins))
    field_one = build_amplitude_field(n_spins, model, grid, quad)
    amps = field_one.values[0, 0] * np.exp(1j * np.arange(n_spins + 1) * azimuth)
    return DickeVector(n_spins=n_spins, amplitudes=amps)


def hemisphere_masses(field: AmplitudeField) -> tuple[float, float]:
    """Probability in the polar caps on either side of the grid's polar split."""
    split = field.grid.polar_split_index
    if split is None:
        raise DomainError("grid was built without a polar split")
    w_r, w_t = field.grid.volume_weights()
    density = field.density()
    radial_profile = w_r @ density  # (n_theta,)
    return float(radial_profile[:split] @ w_t[:split]), float(radial_profile[split:] @ w_t[split:])


def radial_cumulative(field: AmplitudeField) -> np.ndarray:
    """Cumulative outcome probability up to each radial node."""
    w_r, w_t = field.grid.volume_weights()
    density = field.density()
    return np.cumsum(w_r * (density @ w_t))


def _radial_resolution_floor(r_max: float, spread: float, requested: int) -> int:
    """Outcome radial count able to resolve density shells of width ~spread.

    The conditional outcome is the initial position displaced by the spin
    projection, so the density lives on shells of radial width ~spread; the
    mid-interval Gauss-Legendre spacing pi*r_max/(2 n) must stay below that.
    Capped so pathological spreads degrade into a refinement failure instead
    of an allocation blowup.
    """
    return max(requested, min(int(math.ceil(2.5 * r_max / spread)), 20_000))


def adaptive_outcome_grid(
    n_spins: int,
    model: PointerModel,
    nodes_r: int = 96,
    nodes_theta: int = 64,
    quad: MomentumQuadrature | None = None,
    tail_mass: float = 1e-4,
    polar_split: float | None = None,
) -> OutcomeGrid:
    """Outcome grid with the radial cutoff tightened adaptively.

    Starts from the drift bound r_max = n/2 + 6*spread, scans the radial
    cumulative probability on a coarse field, and cuts at the first node
    exceeding 1 - tail_mass (plus one node of padding), so the discarded
    tail stays strictly below tail_mass. Radial counts are floored so that
    shell-like densities at small spread stay resolved.
    """
    if nodes_r < 1 or nodes_theta < 1:
        raise DomainError(f"need at least one outcome node per axis, got {nodes_r} x {nodes_theta}")
    estimate = 0.5 * n_spins + 6.0 * model.spread
    scan_nodes = _radial_resolution_floor(estimate, model.spread, min(nodes_r, 48))
    scan_grid = build_outcome_grid(estimate, nodes_r=scan_nodes, nodes_theta=min(nodes_theta, 32))
    scan = build_amplitude_field(n_spins, model, scan_grid, quad)
    cumulative = radial_cumulative(scan)
    above = np.nonzero(cumulative > 1.0 - tail_mass)[0]
    if above.size == 0:
        r_cut = estimate
    else:
        pad = min(int(above[0]) + 1, scan_grid.radial.count - 1)
        r_cut = float(scan_grid.radial.nodes[pad])
    return build_outcome_grid(
        r_cut,
        nodes_r=_radial_resolution_floor(r_cut, model.spread, nodes_r),
        nodes_theta=nodes_theta,
        polar_split=polar_split,
    )


def direct_amplitudes_3d(
    r_vec: np.ndarray,
    input_direction: Direction,
    n_spins: int,
    model: PointerModel,
    radial_nodes: int = 64,
    polar_nodes: int = 48,
    azimuthal_nodes: int = 48,
    cutoff_sigmas: float = 8.0,
) -> DickeVector:
    """Brute-force evaluation of E(r)|u^n> by full 3-D momentum quadrature.

    Independent cross-check of the partial-wave synthesis: spherical product
    rule (Gauss-Legendre radial and polar, trapezoid azimuthal), arbitrary
    input direction, no ascent to symmetric-subspace shortcuts beyond the
    binomial expansion of a product state. Intended for tests at small n and
    moderate spread; the node counts must resolve r_max * p_max oscillations.
    """
    n = int(n_spins)
    r_vec = np.asarray(r_vec, dtype=float)
    if r_vec.shape != (3,):
        raise DomainError("outcome must be a 3-vector")
    p_rule = gauss_legendre(radial_nodes, 0.0, cutoff_sigmas * model.momentum_sigma)
    c_rule = gauss_legendre(polar_nodes, -1.0, 1.0)
    phi_rule = trapezoid_periodic(azimuthal_nodes)

    p = p_rule.nodes[:, None, None]
    c = c_rule.nodes[None, :, None]
    phi = phi_rule.nodes[None, None, :]
    sin_pol = np.sqrt(np.clip(1.0 - c * c, 0.0, None))
    half = 0.5 * p
    # Rotation columns for momentum direction (c, phi).
    u11 = np.cos(half) - 1j * c * np.sin(half) + 0.0 * phi
    u21 = -1j * np.sin(half) * sin_pol * np.exp(1j * phi)
    u12 = -1j * np.sin(half) * sin_pol * np.exp(-1j * phi)
    u22 = np.cos(half) + 1j * c * np.sin(half) + 0.0 * phi
    a0 = math.cos(0.5 * input_direction.polar)
    b0 = math.sin(0.5 * input_direction.polar) * np.exp(1j * input_direction.azimuth)
    alpha_u = u11 * a0 + u12 * b0
    beta_u = u21 * a0 + u22 * b0

    px = p * sin_pol * np.cos(phi)
    py = p * sin_pol * np.sin(phi)
    pz = p * c + 0.0 * phi
    phase = np.exp(1j * (r_vec[0] * px + r_vec[1] * py + r_vec[2] * pz))
    measure = (
        (p_rule.weights * p_rule.nodes**2 * momentum_profile(p_rule.nodes, model))[:, None, None]
        * c_rule.weights[None, :, None]
        * phi_rule.weights[None, None, :]
    )
    common = (2.0 * math.pi) ** -1.5 * measure * phase
    amps = np.empty(n + 1, dtype=complex)
    for k in range(n + 1):
        spin = math.sqrt(math.comb(n, k)) * alpha_u ** (n - k) * beta_u**k
        amps[k] = np.sum(common * spin)
    return DickeVector(n_spins=n, amplitudes=amps)
