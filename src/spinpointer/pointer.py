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
the plane wave leaves, per angular order l <= n_spins, the polar moment
M_lk(p) of the k-flips spin factor. Expanded over the momentum direction,
exp(-i p.S) is one rank-l spherical tensor per l, so by the Wigner-Eckart
theorem M_lk(p) = (-1)^k c_lk g_l(p): a Clebsch-Gordan coefficient
c_lk = <j j; l -k | j j-k>, j = n/2, times a reduced moment g_l(p) that is
sin^l(p/2) times a Gegenbauer polynomial in cos(p/2) (Varshalovich,
Moskalev and Khersonskii, Quantum Theory of Angular Momentum, World
Scientific, 1988). The couplings are closed forms; the moments of all
orders follow, per momentum, from a three-term recurrence in l (_miller), so
they cost O(n) per momentum. No polar momentum quadrature is left, and the
field is real at outcome azimuth 0. Only the radial momentum axis keeps the
oscillation burden, and its node count scales with r_max * p_max.

The field is built in two passes. The first runs over blocks of outcome
radii, each the most whole chunks of _CHUNK_RADIAL radii whose table of
j_l(r p), l = 0..n_spins, fits in _BLOCK_CELLS cells. The table's seeds are
closed forms that scipy's spherical_jn only spot-checks, and its higher
orders come from _miller, as the moments' do, with the downward chain
started only as high as the largest argument below l_max needs. Per block,
the radial transform of each order l is one stacked real product, written
into the transforms of the whole grid, and the table is freed before the
next one is built. The second pass synthesises each Dicke component k once
over the whole grid: one stacked product, with one BLAS call per chunk,
straight into the component's own contiguous plane of k-major memory. The
angular coefficients, which depend only on n and the polar rule, are
formed for the whole (l, k) triangle at once and cached.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import spherical_jn

from .errors import CapabilityError, ConvergenceError, DomainError, NumericError
from .quadrature import Rule1D, checked_count, gauss_legendre, scaled_count, trapezoid_periodic
from .spincore import Direction, dicke_expand

# Absolute prefactor of the partial-wave synthesis; see build notes below.
_AMPLITUDE_PREFACTOR = 2.0**1.5 * math.sqrt(math.pi)

# Outcome radii per matrix product. The bits of a GEMM depend on its row
# count, so this stays 16: changing it would move the field's last digits.
_CHUNK_RADIAL = 16

# Nodes per rule: radial momentum, and outcome radius and polar angle alike.
# Gauss node generation is quadratic in the count, and the field's Bessel
# tables grow with it.
MAX_RADIAL_NODES = 20_000


def _capped(count: int, what: str) -> int:
    """``count`` if it is at most MAX_RADIAL_NODES, else a CapabilityError
    naming ``what`` it counts. Every rule's count, of either pass, passes here."""
    if count > MAX_RADIAL_NODES:
        raise CapabilityError(f"quadrature needs {count} {what}, cap {MAX_RADIAL_NODES}")
    return count


# Cells per Bessel table. A block of outcome radii holds as many whole
# chunks as fit, so one table is built per block: the budget bounds the
# table's memory and amortises its setup over the block's chunks. Blocks
# depend only on the grid, n and the momentum count. 2^18 cells (2 MB) left
# the peak memory of the README sweeps flat; 2^20 raised it by about 5 MB.
_BLOCK_CELLS = 2**18

# Cells held by _angular's cache. sweep and optimize meet the same scan, base
# and refined polar rules at every spread. One set holds (n+1)(n+2)/2 rows of
# polar-rule length, so the refined 96-node rule fits up to n = 72; n = 100
# on it needs 494k cells and is rebuilt per call.
_ANGULAR_CELLS = 2**18
_ANGULAR: dict[tuple[int, bytes], tuple[int, tuple[np.ndarray, ...]]] = {}

# Outcome-grid node counts, radius by polar angle, when a caller gives none.
NODES_R, NODES_THETA = 96, 64

# Outcome probability the adaptive grid's radial cut may discard.
_TAIL_MASS = 1e-4

# Pointer spreads every route integrates correctly: the momentum measures
# carry spread^3 (the profile squared) and 1/spread^3 (p^2 dp up to the
# cutoff), and one of them overflows beyond about 1e102 either way; p_max^3
# stays below 6.4e301.
SPREAD_RANGE = (1e-100, 1e100)

# Maclaurin coefficients of j_1(z) / z in z^2 (DLMF 10.53.1),
# c_k = (-1/2)^k / (k! (2k+3)!!); ten terms truncate below 1e-18 relative on
# [0, 1]. Each denominator is an exact integer below 2^53.
_J1_SERIES = tuple(
    (-0.5) ** k / (math.factorial(k) * math.prod(range(3, 2 * k + 4, 2))) for k in range(10))

# Largest |series - scipy| for j_1 on [0, 1] is 5.0e-16 (near z = 0.91);
# the spot check against scipy allows ten times that.
_SEED_TOLERANCE = 5e-15


@dataclass(frozen=True)
class PointerModel:
    """Isotropic Gaussian pointer; spread is the per-axis position sigma-like
    width (position density has variance spread^2 per axis). The coupling is
    fixed at 1: a weaker coupling is a wider spread."""

    spread: float

    def __post_init__(self):
        checked_spread(self.spread)

    @property
    def momentum_sigma(self) -> float:
        """Per-axis standard deviation of the momentum density."""
        return 0.5 / self.spread

    @property
    def p_max(self) -> float:
        """Cutoff momentum of every route, 8 momentum sigmas: the momentum
        density holds 8.2e-14 of its mass beyond it."""
        return 8.0 * self.momentum_sigma


def checked_spread(spread: float) -> float:
    """``spread`` if it lies in SPREAD_RANGE, else a DomainError."""
    lo, hi = SPREAD_RANGE
    if not lo <= spread <= hi:
        raise DomainError(f"pointer spread must lie in [{lo:g}, {hi:g}], got {spread}")
    return spread


def momentum_profile(p, model: PointerModel) -> np.ndarray:
    """Momentum wavefunction (2 spread^2/pi)^(3/4) exp(-spread^2 p^2); unit L2 norm."""
    p = np.asarray(p, dtype=float)
    d2 = model.spread * model.spread
    return (2.0 * d2 / math.pi) ** 0.75 * np.exp(-d2 * p * p)


@dataclass(frozen=True)
class MomentumQuadrature:
    """Spherical momentum-space quadrature, and the one radial count policy.

    Its fields are node counts only: every radial rule ends at the model's
    p_max, 8 momentum sigmas. Each integrand supplies its own automatic
    radial count; an explicit count wins over it, and the refinement pass
    takes scaled_count of the base count. A radial count above
    MAX_RADIAL_NODES, of either pass, is refused before its rule is built,
    and explicit polar and azimuthal counts above it on construction.
    Each route builds its own rules from radial_count: the amplitude field,
    the lower bound and disturbance_exact integrate the polar angle in
    closed form or by recurrence, and the Bloch route fixes its polar and
    azimuth rules by the degree of its integrand. So the polar and
    azimuthal counts reach only the full-tensor disturbance oracle.
    """

    radial_nodes: int | None = None
    polar_nodes: int | None = None
    azimuthal_nodes: int = 16

    def __post_init__(self):
        for name in ("radial_nodes", "polar_nodes", "azimuthal_nodes"):
            v = getattr(self, name)
            if v is not None or name == "azimuthal_nodes":
                checked_count(v, name, minimum=4)
                if name != "radial_nodes":  # radial counts are capped per pass
                    _capped(v, name.replace("_", " "))

    def effective_radial(self, r_max: float, model: PointerModel, n_spins: int = 0) -> int:
        """Automatic radial count for outcome radii up to r_max.

        Follows the oscillation budget ceil(1.5 * (r_max + n_spins/2) * p_max)
        with a floor of 32: the spin factor itself oscillates at rate
        n_spins/2 in the radial momentum, on top of the plane-wave rate r.
        """
        band = r_max + 0.5 * n_spins
        return max(32, int(math.ceil(1.5 * band * model.p_max)))

    def radial_count(self, automatic: int, refined: bool = False) -> int:
        """Radial count of one rule: the explicit count, else the caller's
        automatic one, and scaled_count of that for the refinement pass."""
        count = automatic if self.radial_nodes is None else int(self.radial_nodes)
        return _capped(scaled_count(count) if refined else count, "radial momentum nodes")


@dataclass(frozen=True)
class QuadratureCounts:
    """Effective node counts actually used for one result (CSV fingerprint).

    The field has no polar momentum rule: nodes_p_polar is n+1, the size of
    the polar Gauss-Legendre rule that its closed-form moments equal."""

    nodes_r: int
    nodes_theta: int
    nodes_p_radial: int
    nodes_p_polar: int


@dataclass(frozen=True)
class OutcomeGrid:
    """Product grid over outcome radius and polar angle (azimuth is symmetric).

    The radial rule covers (0, r_max] and the polar rule [0, pi].
    """

    radial: Rule1D
    polar: Rule1D

    @property
    def r_max(self) -> float:
        return self.radial.domain[1]

    def refined(self) -> "OutcomeGrid":
        """The same region with both node counts scaled by the refinement
        factor, on Gauss-Legendre rules over the same domains."""
        return build_outcome_grid(
            self.r_max,
            nodes_r=scaled_count(self.radial.count),
            nodes_theta=scaled_count(self.polar.count),
        )

    def volume_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Radial and polar weight vectors including the 2 pi r^2 sin(theta)
        measure, split so integrals are w_r . M . w_t contractions."""
        w_r = 2.0 * math.pi * self.radial.weights * self.radial.nodes**2
        w_t = self.polar.weights * np.sin(self.polar.nodes)
        return w_r, w_t


def build_outcome_grid(
    r_max: float,
    nodes_r: int = NODES_R,
    nodes_theta: int = NODES_THETA,
) -> OutcomeGrid:
    if not (math.isfinite(r_max) and r_max > 0.0):
        raise DomainError(f"need finite r_max > 0, got {r_max}")
    radial = gauss_legendre(nodes_r, 0.0, r_max)
    return OutcomeGrid(radial=radial, polar=gauss_legendre(nodes_theta, 0.0, math.pi))


@dataclass(frozen=True)
class AmplitudeField:
    """Dicke amplitudes of E(r)|up^n> on an outcome grid, at outcome azimuth 0.

    values[a, b, k] is the k-flips amplitude at radius radial.nodes[a] and
    polar angle polar.nodes[b]. At azimuth 0 every amplitude is real, so
    values is float64; a nonzero outcome azimuth multiplies component k by
    e^(i k azimuth). Its memory is k-major: values is a k-last view of a
    contiguous (n+1, radii, angles) array, so values[..., k] is one
    contiguous plane. density[a, b] is the outcome probability density
    sum_k values[a, b, k]^2, summed plane by plane in k, and
    total_probability its grid integral, which should be 1 up to the
    quadrature tolerance and the discarded radial tail.
    """

    n_spins: int
    grid: OutcomeGrid
    counts: QuadratureCounts
    values: np.ndarray = field(repr=False)
    total_probability: float
    density: np.ndarray = field(repr=False)


def _log_factorials(top: int) -> np.ndarray:
    """log(i!) for i = 0..top."""
    return np.array([math.lgamma(i + 1.0) for i in range(top + 1)])


def _couplings(n: int, l, k, log_fact: np.ndarray) -> np.ndarray:
    """c_lk = <j j; l -k | j j-k>, j = n/2, elementwise over 0 <= k <= l <= n.

    The Racah sum of this coefficient has a single term:
    c_lk^2 = (n+1)! (n-k)! (l+k)! / ((n+l+1)! (n-l)! k! (l-k)!).
    log_fact holds log(i!) up to 2n+1.
    """
    f = log_fact
    return np.exp(0.5 * (f[n + 1] + f[n - k] + f[l + k] - f[n + l + 1] - f[n - l] - f[k] - f[l - k]))


def _recurrence_steps(n: int) -> np.ndarray:
    """e_m = sqrt((n-m+1)(n+m+1) / ((2m-1)(2m+1))) for m = 1..n+1, at index
    m, with e_0 = 0 unused; e_(n+1) = 0. In terms of the moments'
    normalizations A_l (see _reduced_moments), e_m = 2m A_(m-1) / ((2m-1) A_m);
    the closed form needs no factorials."""
    m = np.arange(1.0, n + 2.0)
    return np.concatenate(([0.0], np.sqrt((n - m + 1) * (n + m + 1) / ((2 * m - 1) * (2 * m + 1)))))


def _reduced_moments(n: int, p: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Rows l = 0..n of h_l = i^l g_l(p), the real reduced polar moments.

    The order-0 moment has the closed form (Rodrigues' formula and the
    Laplace integral of the Gegenbauer polynomials)

        M_l0(p) = sqrt((2l+1)/(4 pi)) 2^(l+1) n! l! / (n+l+1)!
                  (-i sin(p/2))^l C^(l+1)_(n-l)(cos(p/2)),

    and g_l = M_l0 / c_l0, so h_l = A_l sin^l(chi) C^(l+1)_(n-l)(cos chi)
    with chi = p/2. These rows satisfy the three-term recurrence

        e_(l+1) h_(l+1) + e_l h_(l-1) = cot(chi) h_l,   l = 1..n,

    with steps[m] = e_m (see _recurrence_steps), whose top is exact:
    e_(n+1) = 0, h_(n+1) = 0. The seeds are closed forms, with
    A_0 = 1/((n+1) sqrt(pi)) and A_1 = 2 sqrt(3/(n(n+2))) A_0,

        h_0 = sin((n+1) chi) / ((n+1) sqrt(pi) sin chi),
        h_1 = -sqrt(3/(n(n+2))) ((n+1) cos((n+1) chi) sin chi
              - sin((n+1) chi) cos chi) / ((n+1) sqrt(pi) sin^2 chi),

    with (n+1) chi taken as an exact sum of two floats (Dekker's product),
    so h_0 keeps its relative accuracy where sin chi is small. _miller runs
    the recurrence, with turning order floor((n+1) |sin chi|) and downward
    ratios h_l / h_(l-1) = e_l / (cot chi - e_(l+1) h_(l+1) / h_l) from the
    exact top; h_1 is read only where the turning order is at least 1, so
    its closed form never cancels. Where sin chi = 0, h_0 takes its limit
    cos^n(chi) / sqrt(pi) and every h_l, l >= 1, is 0.
    """
    chi = 0.5 * p
    s, c = np.sin(chi), np.cos(chi)
    # (n+1) chi = hi + lo exactly: Dekker's product, with chi split at
    # 2^27 + 1 and n + 1 < 2^26 left whole.
    hi = (n + 1) * chi
    split = 134217729.0 * chi
    chi_hi = split - (split - chi)
    lo = (n + 1) * chi_hi - hi + (n + 1) * (chi - chi_hi)
    sin_hi, cos_hi = np.sin(hi), np.cos(hi)
    sin_n, cos_n = sin_hi + lo * cos_hi, cos_hi - lo * sin_hi

    a0 = 1.0 / ((n + 1) * math.sqrt(math.pi))
    h = np.empty((n + 1, p.size))
    with np.errstate(all="ignore"):
        cot = c / s
        h[0] = np.where(s == 0.0, c**n / math.sqrt(math.pi), a0 * sin_n / s)
        h[1] = -a0 * math.sqrt(3.0 / (n * (n + 2))) * ((n + 1) * cos_n * s - sin_n * c) / (s * s)
        _miller(h, np.floor((n + 1) * np.abs(s)), n,
                ratio=lambda l, r, out: np.divide(steps[l], cot - steps[l + 1] * r, out=out),
                step=lambda l, cur, prev, out: np.divide(cot * cur - steps[l] * prev, steps[l + 1], out=out))
    return h


def _legendre_table(l_max: int, x: np.ndarray) -> np.ndarray:
    """Spherical-harmonic-normalized associated Legendre functions, packed.

    Row l(l+1)/2 + m holds P~_{l m}(x), 0 <= m <= l <= l_max, where
    Y_{l m} = P~_{l m} e^(i m phi). Each P~_{m m} is seeded from its log,
    P~_{m+1, m} from it, and every order m <= l-2 of degree l takes one
    upward step at once, stable in this normalization.
    """
    table = np.empty(((l_max + 1) * (l_max + 2) // 2, x.size))
    table[0] = 1.0 / math.sqrt(4.0 * math.pi)
    with np.errstate(divide="ignore"):
        log_1mx2 = np.log(np.clip(1.0 - x * x, 0.0, None))
    for l in range(1, l_max + 1):
        row, prev, prev2 = l * (l + 1) // 2, (l - 1) * l // 2, (l - 2) * (l - 1) // 2
        log_norm = 0.5 * (
            math.log(2 * l + 1)
            - math.log(4.0 * math.pi)
            + math.lgamma(2 * l + 1)
            - 2.0 * math.lgamma(l + 1)
            - l * math.log(4.0)
        )
        table[row + l] = (-1.0 if l % 2 else 1.0) * np.exp(log_norm + 0.5 * l * log_1mx2)
        table[row + l - 1] = x * math.sqrt(2 * l + 1.0) * table[prev + l - 1]
        if l > 1:
            m = np.arange(l - 1)
            a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))[:, None]
            b = -a * np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))[:, None]
            table[row : row + l - 1] = a * x * table[prev : prev + l - 1] + b * table[prev2 : prev2 + l - 1]
    return table


def _angular(n: int, polar_nodes: np.ndarray) -> tuple[np.ndarray, ...]:
    """theta_coefs[k], rows l = k..n of (-1)^k 2^(3/2) sqrt(pi) c_lk P~_lk(cos theta),
    for n and an outcome polar rule; all read-only.

    The coefficients of the whole (l, k) triangle are one array, k-major, and
    theta_coefs[k] is its block of rows for k: one gather from the packed
    Legendre table and one product for every k at once.

    _ANGULAR keeps the most recently used sets, up to _ANGULAR_CELLS cells
    in all, counting 16 cells per array for its header so that many tiny
    sets stay bounded too; a larger set is built per call.
    """
    key = (n, polar_nodes.tobytes())
    entry = _ANGULAR.pop(key, None)
    if entry is None:
        block = np.arange(n + 1, 0, -1)  # rows of k's block: l = k..n
        start = np.cumsum(block) - block
        k = np.repeat(np.arange(n + 1), block)
        l = np.arange(k.size) - start[k] + k
        coefs = _legendre_table(n, np.cos(polar_nodes))[l * (l + 1) // 2 + k]
        sign = np.where(k % 2 == 1, -_AMPLITUDE_PREFACTOR, _AMPLITUDE_PREFACTOR)
        coefs *= (sign * _couplings(n, l, k, _log_factorials(2 * n + 1)))[:, None]
        coefs.setflags(write=False)
        theta_coefs = tuple(np.split(coefs, start[1:]))
        entry = (sum(a.size + 16 for a in theta_coefs), theta_coefs)
    if entry[0] <= _ANGULAR_CELLS:
        _ANGULAR[key] = entry
        while sum(e[0] for e in _ANGULAR.values()) > _ANGULAR_CELLS:
            del _ANGULAR[next(iter(_ANGULAR))]
    return entry[1]


def _row_ranges(count: int, rows: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + rows, count)) for lo in range(0, count, rows)]


def _block_rows(n: int, n_p: int) -> int:
    """Outcome radii per Bessel table: the most whole _CHUNK_RADIAL chunks
    whose (n+1) x rows x n_p table fits in _BLOCK_CELLS, and at least one."""
    return max(1, _BLOCK_CELLS // ((n + 1) * _CHUNK_RADIAL * n_p)) * _CHUNK_RADIAL


def _miller(table: np.ndarray, turn, start: int, ratio, step) -> None:
    """Fill table, column by column, by a three-term recurrence in the row
    index l (Miller's algorithm; W. Gautschi, SIAM Review 9, 24 (1967);
    DLMF 3.6(iii)). Row 0 is given, and row 1 holds its upward value.

    Up to its turning order turn, where the recurrence turns from
    oscillating to decaying, a column recurs upward, with
    step(l, cur, prev, out) giving row l+1 from rows l and l-1. Above it,
    the ratios r_l = row l / row l-1 = ratio(l, r_(l+1), out), run down
    from r = 0 at row start, go straight into the rows and are chained onto
    the upward value. Rows at or below every turning order take the upward
    value alone, rows above the largest the chain alone. Both callbacks
    write their result into out and return it. The ratios are bounded, so
    nothing overflows; upward values discarded above a turning order may
    overflow harmlessly.
    """
    rows = table.shape[0]
    low = int(np.minimum.reduce(turn, axis=None, initial=rows - 1))
    top = int(np.maximum.reduce(turn, axis=None, initial=0))
    for l in range(2, low + 1):
        step(l - 1, table[l - 1], table[l - 2], table[l])
    if low >= rows - 1:
        return
    last = max(low, 1)
    prev, cur = table[last - 1].copy(), table[last].copy()
    r = np.zeros(table.shape[1])
    for l in range(start, low, -1):
        r = ratio(l, r, table[l] if l < rows else r)
    for l in range(low + 1, rows):
        np.multiply(table[l], table[l - 1], out=table[l])
        if l <= top:
            if l > 1:
                prev, cur = cur, step(l - 1, cur, prev, prev)
            np.copyto(table[l], cur, where=l <= turn)


def _bessel_seeds(z: np.ndarray, out: np.ndarray) -> None:
    """Rows j_0(z) and j_1(z) for a flat z >= 0, written into out, a
    (2, z.size) array such as a table's first rows.

    j_0 = sin z / z on every cell, with j_0(0) = 1; on 0 < z <= 1 this is
    bit for bit scipy's j_0. j_1 = (j_0 - cos z) / z above z = 1, scipy's
    own closed form there. At z <= 1 that form cancels, and j_1 is the
    Maclaurin series of _J1_SERIES instead, by Horner in z^2.

    scipy stays as the reference: every call evaluates spherical_jn(1, z) at
    its largest cell with z <= 1 and raises NumericError unless the series
    agrees within _SEED_TOLERANCE.
    """
    j0, j1 = out
    with np.errstate(all="ignore"):
        np.divide(np.sin(z, out=j0), z, out=j0)
        np.divide(np.subtract(j0, np.cos(z, out=j1), out=j1), z, out=j1)
    j0[z == 0.0] = 1.0
    small = z <= 1.0
    zs = z[small]
    if zs.size:
        z2 = zs * zs
        series = z2 * _J1_SERIES[-1]
        for c in _J1_SERIES[-2:0:-1]:
            series += c
            series *= z2
        series += _J1_SERIES[0]
        series *= zs
        j1[small] = series
        top = np.argmax(zs)
        err = abs(series[top] - spherical_jn(1, zs[top]))
        if not err <= _SEED_TOLERANCE:
            raise NumericError(
                f"j_1 series differs from scipy by {err:.3e} at z = {zs[top]!r} "
                f"(tolerance {_SEED_TOLERANCE:.1e})")


def _ratio_start(l_max: int, z_top: float) -> int:
    """Start row of _bessel_table's ratio chain for cells with
    z <= z_top < l_max, by the criterion stated there; one scalar chain
    from cap gives the ratios at z_top."""
    cap = l_max + 16 + math.ceil(8.0 * l_max ** (1.0 / 3.0))
    r = [0.0] * (cap + 2)  # r[m] = j_m / j_(m-1) at z_top, r[cap+1] = 0
    for m in range(cap, l_max, -1):
        r[m] = z_top / (2 * m + 1 - z_top * r[m + 1])
    tail = r[l_max + 1]
    for L in range(l_max + 1, cap):
        tail *= r[L + 1]  # j_(L+1) / j_(l_max)
        if (L - l_max) * tail * tail * (2 * L + 3) < 2.0**-74 * (2 * l_max + 1):
            return L
    return cap


def _bessel_table(l_max: int, z: np.ndarray) -> np.ndarray:
    """Spherical Bessel functions j_l(z) for l = 0..l_max >= 1, stacked on axis 0.

    The seeds j_0 and j_1 come from _bessel_seeds. _miller runs
    j_{l+1} = (2l+1)/z j_l - j_{l-1} (DLMF 10.51.1) upward to the turning
    order max(floor(z), 1), and the ratios j_l / j_{l-1} =
    z / (2l+1 - z r_{l+1}) above it.

    The ratio chain takes r = 0 above its start L, which _ratio_start sizes
    at z*, the largest argument of the cells with z < l_max. A chain with
    r_{L+1} = 0 computes the ratios of j - (j_{L+1} / y_{L+1}) y, so order l
    carries the relative error |j_{L+1} / y_{L+1}| |y_l / j_l| (Gautschi,
    op. cit. at _miller). |y_l / j_l| grows with l, and both factors grow
    with z, so the error at (z*, l_max) bounds every cell and order. By
    j_l y_l ~ -1 / ((2l+1) z) above the turning order it is about
    e_L = (j_{L+1} / j_{l_max})^2 (2L+3) / (2 l_max + 1), with
    j_{L+1} / j_{l_max} = r_{l_max+1} ... r_{L+1} at z*. L is the smallest
    l_max < L < cap = l_max + 16 + ceil(8 l_max^(1/3)) with
    (L - l_max) e_L < 2^-74, or cap if none is. The margin keeps the bits
    of the chain from cap: each of the L - l_max rows can round the two
    chains apart with a chance of about e_L / 2^-53, and near the turning
    order, where the ratios are close to 1, a one-ulp difference fades
    slowly, so the chance that a ratio differs is below about 2^-21. Cells
    with z >= l_max discard their ratios, so they do not widen the chain.

    The cells with z < l_max take the full recurrence: gathered into a
    working table if they are at most half, after every cell recurred upward
    in place, else in place on the whole table, where the other cells keep
    their upward values. Every cell's arithmetic is that of the full
    recurrence, and a mixed table peaks at about 1.5 times its size or less.
    """
    z = np.asarray(z, dtype=float)
    flat = z.ravel()
    table = np.empty((l_max + 1, flat.size))
    _bessel_seeds(flat, table[:2])

    def recur(target, x, turn, start):
        tmp = np.empty_like(x)

        def ratio(l, r, out):
            np.multiply(x, r, out=out)
            np.subtract(2 * l + 1, out, out=out)
            return np.divide(x, out, out=out)

        def step(l, cur, prev, out):
            np.divide(2 * l + 1, x, out=tmp)
            np.multiply(tmp, cur, out=tmp)
            return np.subtract(tmp, prev, out=out)

        _miller(target, turn, start, ratio, step)

    with np.errstate(all="ignore"):
        if l_max > 1:
            below = np.flatnonzero(flat < l_max)
            miller = flat[below]
            start = _ratio_start(l_max, float(miller.max())) if below.size else l_max
            if 2 * below.size > flat.size:
                recur(table, flat, np.maximum(np.floor(flat), 1.0), start)
            else:
                recur(table, flat, l_max, l_max)  # upward only
                if below.size:
                    part = np.empty((l_max + 1, below.size))
                    part[:2] = table[:2, below]
                    recur(part, miller, np.maximum(np.floor(miller), 1.0), start)
                    table[2:, below] = part[2:]
    return table.reshape((l_max + 1,) + z.shape)


def build_amplitude_field(
    n_spins: int,
    model: PointerModel,
    grid: OutcomeGrid,
    quad: MomentumQuadrature | None = None,
) -> AmplitudeField:
    """Assemble the Dicke amplitude field of E(r)|up^n> on the outcome grid.

    Synthesis: with the momentum azimuth integrated exactly and the plane
    wave expanded in partial waves, component k at outcome (r, theta) is

        2^(3/2) sqrt(pi) * sum_{l=k}^{n} i^l P~_{lk}(cos theta)
            * Integral dp p^2 profile(p) j_l(r p) M_{lk}(p)

    with M_{lk}(p) the polar moment of the k-flips spin factor. Truncation at
    l = n is exact because the spin factor is band-limited. By the
    Wigner-Eckart theorem M_{lk} = (-1)^k c_lk g_l, and g_l carries
    (-i)^l, which cancels the i^l: component k is the real sum

        2^(3/2) sqrt(pi) * sum_{l=k}^{n} (-1)^k c_lk P~_{lk}(cos theta) R_l(r),
        R_l(r) = Integral dp p^2 profile(p) j_l(r p) i^l g_l(p)

    (see _couplings and _reduced_moments; Varshalovich et al. 1988). The
    closed forms equal a polar Gauss-Legendre rule of n+1 or more nodes,
    so counts.nodes_p_polar reports n+1. The radially weighted moments are
    (n+1) x N_p floats, and a non-finite one raises NumericError.

    The outcome-angle coefficients (-1)^k c_lk P~_lk(cos theta), formed for
    all (l, k) at once, come from _angular's cache. Each block of outcome
    radii, as many whole chunks of _CHUNK_RADIAL radii as keep its (n+1) x
    radii x momenta table within _BLOCK_CELLS, builds one table of j_l(r p),
    l = 0..n (see _bessel_table; it agrees with scipy's j_l to about 1e-15
    absolute). R_l is one stacked real product of row l with the weighted
    moment of order l, written into the whole grid's transforms, n+1 floats
    per radius; the table is freed before the next block's. Then each
    component k is synthesised once over the whole grid, straight into plane
    k of the k-major values (see AmplitudeField). Every BLAS call takes the
    rows of one chunk, the same whatever the block size or the cache's
    state, so the values depend on neither; the blocks are built one after
    another in this process.
    """
    n = checked_count(n_spins, "n_spins")
    quad = quad or MomentumQuadrature()
    n_p = quad.radial_count(quad.effective_radial(grid.r_max, model, n))
    p_rule = gauss_legendre(n_p, 0.0, model.p_max)

    # Radially weighted reduced moments, row l for order l, and the
    # outcome-angle coefficients of each k, from the cache when held.
    theta_coefs = _angular(n, grid.polar.nodes)
    radial_measure = p_rule.weights * p_rule.nodes**2 * momentum_profile(p_rule.nodes, model)
    weighted = _reduced_moments(n, p_rule.nodes, _recurrence_steps(n)) * radial_measure
    if not np.all(np.isfinite(weighted)):
        raise NumericError("reduced moments are not finite; parameters out of range")

    # Radial transforms of the whole grid, chunk by chunk: parts holds
    # (first radius, transform), transform[c, l, a] being the order-l
    # transform at radius first + c rows + a, one array for the whole
    # _CHUNK_RADIAL-row chunks and one for a partial last chunk.
    count = grid.radial.count
    full = count - count % _CHUNK_RADIAL
    parts = [(lo, np.empty(((hi - lo) // rows, n + 1, rows)))
             for lo, hi, rows in ((0, full, _CHUNK_RADIAL), (full, count, count - full)) if hi > lo]
    for lo, hi in _row_ranges(count, _block_rows(n, p_rule.count)):
        bessel = _bessel_table(n, np.multiply.outer(grid.radial.nodes[lo:hi], p_rule.nodes))
        for first, transform in parts:
            rows = transform.shape[2]
            a, b = max(lo, first), min(hi, first + transform.shape[0] * rows)
            if a >= b:
                continue
            for l in range(n + 1):
                transform[(a - first) // rows : (b - first) // rows, l] = (
                    bessel[l, a - lo : b - lo].reshape(-1, rows, p_rule.count) @ weighted[l])
        del bessel  # before the next block's table is built

    # kmajor[k] is component k on the whole grid, written chunk by chunk.
    kmajor = np.empty((n + 1, count, grid.polar.count))
    for first, transform in parts:
        rows = transform.shape[2]
        stop = first + transform.shape[0] * rows
        for k in range(n + 1):
            np.matmul(transform[:, k:].transpose(0, 2, 1), theta_coefs[k],
                      out=kmajor[k, first:stop].reshape(-1, rows, grid.polar.count))

    w_r, w_t = grid.volume_weights()
    density = kmajor[0] ** 2
    for k in range(1, n + 1):
        density += kmajor[k] ** 2
    counts = QuadratureCounts(
        nodes_r=grid.radial.count,
        nodes_theta=grid.polar.count,
        nodes_p_radial=p_rule.count,
        nodes_p_polar=n + 1,
    )
    return AmplitudeField(
        n_spins=n, grid=grid, counts=counts, values=kmajor.transpose(1, 2, 0),
        total_probability=float(w_r @ density @ w_t), density=density,
    )


def position_amplitudes(
    radius: float,
    polar: float,
    n_spins: int,
    model: PointerModel,
    quad: MomentumQuadrature | None = None,
    azimuth: float = 0.0,
) -> np.ndarray:
    """Dicke amplitudes of E(r)|up^n> at a single outcome point: a complex
    array of n+1 entries, the field's values there times e^(i k azimuth)."""
    if not (math.isfinite(radius) and radius > 0):
        raise DomainError(f"outcome radius must be positive and finite, got {radius}")
    if not (0.0 <= polar <= math.pi):
        raise DomainError(f"polar angle {polar} outside [0, pi]")
    if not math.isfinite(azimuth):
        raise DomainError("azimuth must be finite")
    # The grid ends at the radius, so the field's radial count is keyed to it.
    eps = 1e-9 * max(1.0, radius)
    grid = OutcomeGrid(
        radial=Rule1D(np.array([radius]), np.array([1.0]), (radius - eps, radius)),
        polar=Rule1D(np.array([polar]), np.array([1.0]), (0.0, math.pi)),
    )
    field_one = build_amplitude_field(n_spins, model, grid, quad)
    return field_one.values[0, 0] * np.exp(1j * np.arange(n_spins + 1) * azimuth)


def hemisphere_masses(n_spins: int, model: PointerModel) -> tuple[float, float]:
    """Outcome probability in the upper (theta < pi/2) and lower polar caps.

    The field is built on the adaptive grid's radii with a Gauss-Legendre
    rule of half the default polar count on each cap, so the two masses are
    partial sums of one grid integral and add up to the adaptive grid's
    total_probability to rounding.
    """
    half = NODES_THETA // 2
    upper, lower = (gauss_legendre(half, a, a + 0.5 * math.pi) for a in (0.0, 0.5 * math.pi))
    polar = Rule1D(np.r_[upper.nodes, lower.nodes], np.r_[upper.weights, lower.weights], (0.0, math.pi))
    grid = OutcomeGrid(radial=adaptive_outcome_grid(n_spins, model).radial, polar=polar)
    w_r, w_t = grid.volume_weights()
    radial_profile = w_r @ build_amplitude_field(n_spins, model, grid).density  # (n_theta,)
    return float(radial_profile[:half] @ w_t[:half]), float(radial_profile[half:] @ w_t[half:])


def _radial_resolution_floor(r_max: float, spread: float, requested: int) -> int:
    """Outcome radial count able to resolve density shells of width ~spread.

    The conditional outcome is the initial position displaced by the spin
    projection, so the density lives on shells of radial width ~spread; the
    mid-interval Gauss-Legendre spacing pi*r_max/(2 n) must stay below that.
    """
    return max(requested, int(math.ceil(2.5 * r_max / spread)))


def adaptive_outcome_grid(
    n_spins: int,
    model: PointerModel,
    nodes_r: int = NODES_R,
    nodes_theta: int = NODES_THETA,
    quad: MomentumQuadrature | None = None,
) -> OutcomeGrid:
    """Outcome grid with the radial cutoff tightened adaptively.

    A scan sized by (n, spread) alone, max(48, ceil(2.5 r/spread)) radii by 32
    polar nodes out to the drift bound r = n/2 + 6 spread, is cut one node past
    the first whose cumulative probability exceeds 1 - _TAIL_MASS, so the
    discarded tail stays below 1e-4; a scan that never gets there raises
    ConvergenceError. The radial count is floored so that shells of width
    ~spread stay resolved; the polar rule is Gauss-Legendre over [0, pi]. The
    cap refuses each count where it is first known, before a rule is built
    from it: the refinement pass of each requested outcome count; the scan's
    momentum count, then its radial count; and after the scan, the
    refinement pass of the returned radial count.
    """
    checked_count(n_spins, "n_spins")
    nodes_r = checked_count(nodes_r, "nodes_r")
    nodes_theta = checked_count(nodes_theta, "nodes_theta")
    for name, count in (("nodes_r", nodes_r), ("nodes_theta", nodes_theta)):
        _capped(scaled_count(count), f"outcome nodes in the refinement pass of {name} {count}")
    estimate = 0.5 * n_spins + 6.0 * model.spread
    quad = quad or MomentumQuadrature()
    quad.radial_count(quad.effective_radial(estimate, model, n_spins))
    scan_nodes = _capped(_radial_resolution_floor(estimate, model.spread, 48),
                         f"outcome radial nodes in the scan at spread {model.spread:g}")
    scan_grid = build_outcome_grid(estimate, nodes_r=scan_nodes, nodes_theta=32)
    w_r, w_t = scan_grid.volume_weights()
    density = build_amplitude_field(n_spins, model, scan_grid, quad).density
    cumulative = np.cumsum(w_r * (density @ w_t))
    above = np.flatnonzero(cumulative > 1.0 - _TAIL_MASS)
    if above.size == 0:
        raise ConvergenceError(
            f"outcome scan holds {cumulative[-1]:.10g} of the probability at n={n_spins} "
            f"spread={model.spread:g}, never above 1 - {_TAIL_MASS:g}")
    r_cut = float(scan_grid.radial.nodes[min(int(above[0]) + 1, scan_nodes - 1)])
    nodes_r = _radial_resolution_floor(r_cut, model.spread, nodes_r)
    _capped(scaled_count(nodes_r),
            f"outcome radial nodes in the refinement pass at spread {model.spread:g}")
    return build_outcome_grid(r_cut, nodes_r=nodes_r, nodes_theta=nodes_theta)


def direct_amplitudes_3d(
    r_vec: np.ndarray,
    input_direction: Direction,
    n_spins: int,
    model: PointerModel,
) -> np.ndarray:
    """Brute-force evaluation of E(r)|u^n> by full 3-D momentum quadrature:
    its n+1 Dicke amplitudes, a complex array.

    Independent cross-check of the partial-wave synthesis: spherical product
    rule (Gauss-Legendre radial and polar, trapezoid azimuthal), arbitrary
    input direction, no symmetric-subspace shortcut beyond dicke_expand of
    the rotated product state, contracted with the measure in one product.
    Intended for tests at small n and moderate spread; its 64 x 48 x 48
    nodes must resolve r_max * p_max oscillations.
    """
    n = checked_count(n_spins, "n_spins")
    r_vec = np.asarray(r_vec, dtype=float)
    if r_vec.shape != (3,):
        raise DomainError("outcome must be a 3-vector")
    p_rule = gauss_legendre(64, 0.0, model.p_max)
    c_rule = gauss_legendre(48, -1.0, 1.0)
    phi_rule = trapezoid_periodic(48)

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
    spin = dicke_expand(alpha_u, beta_u, n)
    return common.reshape(-1) @ spin.reshape(-1, n + 1)
