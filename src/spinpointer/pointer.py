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
orders follow, per momentum, from a three-term recurrence in l, upward from
closed seeds at l = 0 and 1 to the momentum's turning order and by downward
ratios from the exact top g_(n+1) = 0 above it, so they cost O(n) per
momentum. No polar momentum quadrature is left, and the field is real at
outcome azimuth 0. Only the radial momentum axis keeps the oscillation
burden, and its node count scales with r_max * p_max as configured.

The field is built in blocks of outcome radii, each the most whole chunks of
_CHUNK_RADIAL radii whose table of j_l(r p), l = 0..n_spins, fits in
_BLOCK_CELLS cells. The table's seeds are j_0 = sin z / z and, for j_1,
the closed form above z = r p = 1 and its Maclaurin series at or below it;
scipy's spherical_jn only spot-checks the series, at one cell per table.
Cells with r p < n_spins take downward ratios (Miller's algorithm) above
l = r p, gathered if they are at most half the table, else in place on all
of it; the rest take the upward recurrence in place. Per block, the radial
transform is one stacked real product per order l, and the angular
synthesis one per Dicke component k, with one BLAS call per chunk. The
angular coefficients, which depend only on n and the polar rule, are formed
for the whole (l, k) triangle at once and cached with the recurrence's
coefficients.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import spherical_jn

from .errors import CapabilityError, DomainError, NumericError
from .quadrature import Rule1D, checked_count, gauss_legendre, scaled_count, trapezoid_periodic
from .spincore import Direction, DickeVector

# Absolute prefactor of the partial-wave synthesis; see build notes below.
_AMPLITUDE_PREFACTOR = 2.0**1.5 * math.sqrt(math.pi)

# Outcome radii per matrix product. The bits of a GEMM depend on its row
# count, so this stays 16: changing it would move the field's last digits.
_CHUNK_RADIAL = 16

# Radial nodes per rule, momentum and outcome alike: Gauss node generation is
# quadratic in the count, and the field's Bessel tables grow with it.
MAX_RADIAL_NODES = 20_000

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
_ANGULAR: dict[tuple[int, bytes], tuple[int, np.ndarray, tuple[np.ndarray, ...]]] = {}

# Outcome-grid node counts, radius by polar angle, when a caller gives none.
NODES_R, NODES_THETA = 96, 64

# Outcome probability the adaptive grid's radial cut may discard.
_TAIL_MASS = 1e-4

# Pointer spreads every route integrates correctly: the momentum measures
# carry spread^3 (the profile squared) and 1/spread^3 (p^2 dp up to the
# cutoff), and one of them overflows beyond about 1e102 either way.
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
    """Spherical momentum-space quadrature, and the one node-count policy.

    Each integrand supplies its own automatic counts; an explicit count wins
    over them, and the refinement pass takes scaled_count of the base count.
    A radial count above MAX_RADIAL_NODES, of either pass, is refused before
    its rule is built. The polar and azimuthal counts only matter where those
    axes are integrated numerically (disturbance, full-tensor oracle, Bloch
    integrals); the amplitude field and the lower bound read the radial
    count alone.
    """

    radial_nodes: int | None = None
    polar_nodes: int | None = None
    azimuthal_nodes: int = 16
    cutoff_sigmas: float = 8.0

    def __post_init__(self):
        for name in ("radial_nodes", "polar_nodes", "azimuthal_nodes"):
            v = getattr(self, name)
            if v is not None or name == "azimuthal_nodes":
                checked_count(v, name, minimum=4)
        if not math.isfinite(self.cutoff_sigmas):
            raise DomainError(f"cutoff_sigmas must be finite, got {self.cutoff_sigmas}")
        if self.cutoff_sigmas < 4:
            raise DomainError(f"cutoff_sigmas below 4 discards real probability mass")

    def p_max(self, model: PointerModel) -> float:
        """Cutoff momentum; one whose radial measure p_max^3 overflows is refused."""
        p_max = self.cutoff_sigmas * model.momentum_sigma
        if not math.isfinite(p_max * p_max * p_max):
            raise DomainError(f"cutoff momentum {p_max:g} is too large for a radial rule")
        return p_max

    def effective_radial(self, r_max: float, model: PointerModel, n_spins: int = 0) -> int:
        """Automatic radial count for outcome radii up to r_max.

        Follows the oscillation budget ceil(1.5 * (r_max + n_spins/2) * p_max)
        with a floor of 32: the spin factor itself oscillates at rate
        n_spins/2 in the radial momentum, on top of the plane-wave rate r.
        """
        band = r_max + 0.5 * n_spins
        return max(32, int(math.ceil(1.5 * band * self.p_max(model))))

    def radial_count(self, automatic: int, refined: bool = False) -> int:
        """Radial count of one rule: the explicit count, else the caller's
        automatic one, and scaled_count of that for the refinement pass."""
        count = automatic if self.radial_nodes is None else int(self.radial_nodes)
        count = scaled_count(count) if refined else count
        if count > MAX_RADIAL_NODES:
            raise CapabilityError(
                f"quadrature needs {count} radial momentum nodes, cap {MAX_RADIAL_NODES}")
        return count

    def gauss_rules(
        self, model: PointerModel, radial: int, polar: int, refined: bool = False
    ) -> tuple[Rule1D, Rule1D]:
        """Gauss-Legendre rules on [0, p_max] and [-1, 1] for automatic counts,
        of the base or the refinement pass. The polar count follows the
        radial policy without its cap. Both counts are resolved, and an
        over-cap one refused, before either rule is built."""
        n_p = self.radial_count(radial, refined)
        n_c = polar if self.polar_nodes is None else int(self.polar_nodes)
        n_c = scaled_count(n_c) if refined else n_c
        return gauss_legendre(n_p, 0.0, self.p_max(model)), gauss_legendre(n_c, -1.0, 1.0)


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
    e^(i k azimuth). total_probability is the grid integral
    of the outcome density and should be 1 up to the quadrature tolerance
    and the discarded radial tail.
    """

    n_spins: int
    model: PointerModel
    grid: OutcomeGrid
    counts: QuadratureCounts
    values: np.ndarray = field(repr=False)
    total_probability: float
    _density: np.ndarray = field(repr=False)

    def density(self) -> np.ndarray:
        """Outcome probability density p(r, theta) on the grid, computed once by the build."""
        return self._density


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

    with steps[m] = e_m (see _recurrence_steps), that is
    h_(l+2) = alpha_l cot(chi) h_(l+1) - beta_l h_l with alpha_l = 1/e_(l+2)
    and beta_l = e_(l+1)/e_(l+2), and its top is exact: e_(n+1) = 0,
    h_(n+1) = 0. The seeds are closed forms, with A_0 = 1/((n+1) sqrt(pi))
    and A_1 = 2 sqrt(3/(n(n+2))) A_0,

        h_0 = sin((n+1) chi) / ((n+1) sqrt(pi) sin chi),
        h_1 = -sqrt(3/(n(n+2))) ((n+1) cos((n+1) chi) sin chi
              - sin((n+1) chi) cos chi) / ((n+1) sqrt(pi) sin^2 chi),

    with (n+1) chi taken as an exact sum of two floats (Dekker's product),
    so h_0 keeps its relative accuracy where sin chi is small. Each momentum
    recurs upward to its turning order floor((n+1) |sin chi|), where the
    recurrence turns from oscillating to decaying, and takes the downward
    ratios h_l / h_(l-1) = e_l / (cot chi - e_(l+1) h_(l+1) / h_l), run from
    the top, above it, chained onto the upward value: the same shape as
    _miller's for j_l. h_1 is read only where the turning order is at least
    1, so its closed form never cancels. Where sin chi = 0, h_0 takes its
    limit cos^n(chi) / sqrt(pi) and the ratios, hence every h_l, l >= 1,
    are 0. The ratios are bounded, so nothing overflows at any n.
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
    turn = np.floor((n + 1) * np.abs(s))
    top = int(np.max(turn, initial=0.0))
    h = np.empty((n + 1, p.size))
    with np.errstate(all="ignore"):
        cot = c / s
        h[0] = np.where(s == 0.0, c**n / math.sqrt(math.pi), a0 * sin_n / s)
        ratio = np.zeros_like(chi)
        for m in range(n, int(np.min(turn, initial=n)), -1):
            ratio = np.divide(steps[m], cot - steps[m + 1] * ratio, out=h[m])
        if top >= 1:
            prev = h[0].copy()
            cur = -a0 * math.sqrt(3.0 / (n * (n + 2))) * ((n + 1) * cos_n * s - sin_n * c) / (s * s)
        for l in range(1, n + 1):
            np.multiply(h[l], h[l - 1], out=h[l])
            if l <= top:
                if l > 1:
                    prev, cur = cur, (cot * cur - steps[l - 1] * prev) / steps[l]
                np.copyto(h[l], cur, where=l <= turn)
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


def _angular(n: int, polar_nodes: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """steps, the coefficients of _reduced_moments' recurrence, and
    theta_coefs[k], rows l = k..n of (-1)^k 2^(3/2) sqrt(pi) c_lk P~_lk(cos theta),
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
        steps = _recurrence_steps(n)
        block = np.arange(n + 1, 0, -1)  # rows of k's block: l = k..n
        start = np.cumsum(block) - block
        k = np.repeat(np.arange(n + 1), block)
        l = np.arange(k.size) - start[k] + k
        coefs = _legendre_table(n, np.cos(polar_nodes))[l * (l + 1) // 2 + k]
        sign = np.where(k % 2 == 1, -_AMPLITUDE_PREFACTOR, _AMPLITUDE_PREFACTOR)
        coefs *= (sign * _couplings(n, l, k, _log_factorials(2 * n + 1)))[:, None]
        for a in (steps, coefs):
            a.setflags(write=False)
        theta_coefs = tuple(np.split(coefs, start[1:]))
        entry = (sum(a.size + 16 for a in (steps, *theta_coefs)), steps, theta_coefs)
    if entry[0] <= _ANGULAR_CELLS:
        _ANGULAR[key] = entry
        while sum(e[0] for e in _ANGULAR.values()) > _ANGULAR_CELLS:
            del _ANGULAR[next(iter(_ANGULAR))]
    return entry[1], entry[2]


def _row_ranges(count: int, rows: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + rows, count)) for lo in range(0, count, rows)]


def _block_rows(n: int, n_p: int) -> int:
    """Outcome radii per Bessel table: the most whole _CHUNK_RADIAL chunks
    whose (n+1) x rows x n_p table fits in _BLOCK_CELLS, and at least one."""
    return max(1, _BLOCK_CELLS // ((n + 1) * _CHUNK_RADIAL * n_p)) * _CHUNK_RADIAL


def _upward(table: np.ndarray, z: np.ndarray) -> None:
    """Rows 2.. of table from its seed rows 0 and 1 by the upward recurrence."""
    for l in range(1, table.shape[0] - 1):
        table[l + 1] = (2 * l + 1) / z * table[l] - table[l - 1]


def _miller(table: np.ndarray, z: np.ndarray) -> None:
    """Rows 2.. of table: upward up to floor(z), Miller ratios above it. The
    ratios go straight into the rows; above the largest floor(z) only their
    chain product runs."""
    l_max = table.shape[0] - 1
    last_upward = np.maximum(np.floor(z), 1.0)
    start = l_max + 16 + math.ceil(8.0 * l_max ** (1.0 / 3.0))
    ratio, tmp = np.zeros_like(z), np.empty_like(z)
    for l in range(start, 1, -1):
        np.multiply(z, ratio, out=tmp)
        np.subtract(2 * l + 1, tmp, out=tmp)
        ratio = np.divide(z, tmp, out=table[l] if l <= l_max else ratio)
    top = np.max(last_upward, initial=1.0)
    prev, cur = table[0].copy(), table[1].copy()
    for l in range(1, l_max):
        np.multiply(table[l + 1], table[l], out=table[l + 1])
        if l < top:
            np.divide(2 * l + 1, z, out=tmp)
            np.multiply(tmp, cur, out=tmp)
            prev, cur = cur, np.subtract(tmp, prev, out=prev)
            np.copyto(table[l + 1], cur, where=l + 1 <= last_upward)


def _bessel_seeds(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Rows j_0(z) and j_1(z) for z >= 0, shape (2,) + z.shape; written into
    out, a (2, z.size) array such as a table's first rows, when one is given.

    j_0 = sin z / z on every cell, with j_0(0) = 1; on 0 < z <= 1 this is
    bit for bit scipy's j_0. j_1 = (j_0 - cos z) / z above z = 1, scipy's
    own closed form there. At z <= 1 that form cancels, and j_1 is the
    Maclaurin series of _J1_SERIES instead, by Horner in z^2.

    scipy stays as the reference: every call evaluates spherical_jn(1, z) at
    its largest cell with z <= 1 and raises NumericError unless the series
    agrees within _SEED_TOLERANCE.
    """
    z = np.asarray(z, dtype=float)
    flat = z.ravel()
    seeds = np.empty((2, flat.size)) if out is None else out
    j0, j1 = seeds
    with np.errstate(all="ignore"):
        np.divide(np.sin(flat, out=j0), flat, out=j0)
        np.divide(np.subtract(j0, np.cos(flat, out=j1), out=j1), flat, out=j1)
    j0[flat == 0.0] = 1.0
    small = flat <= 1.0
    zs = flat[small]
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
    return seeds.reshape((2,) + z.shape)


def _bessel_table(l_max: int, z: np.ndarray) -> np.ndarray:
    """Spherical Bessel functions j_l(z) for l = 0..l_max >= 1, stacked on axis 0.

    The seeds j_0 and j_1 come from _bessel_seeds: closed forms, and the
    Maclaurin series of j_1 where z <= 1, spot-checked against scipy once
    per table. Orders l <= z follow the upward recurrence
    j_{l+1} = (2l+1)/z j_l - j_{l-1}, stable there (DLMF 10.51.1).
    Orders above z come from the ratios r_l = j_l / j_{l-1} =
    z / (2l+1 - z r_{l+1}), recurred downward from r = 0 at l_max plus a
    margin of order l_max^(1/3), the width of the turning region around
    l = z (Miller's algorithm, DLMF 3.6(iii)); they are chained onto the
    upward value at floor(z). The ratios are bounded, so tiny orders
    underflow to 0 and nothing overflows; the upward values discarded above
    z may overflow harmlessly.

    The cells with z < l_max take the full recurrence: gathered into a
    working table if they are at most half, after every cell recurred upward
    in place, else in place on the whole table, where the other cells keep
    their upward values. Every cell's arithmetic is that of the full
    recurrence, and a mixed table peaks at about 1.5 times its size or less.
    """
    z = np.asarray(z, dtype=float)
    flat = z.ravel()
    table = np.empty((l_max + 1, flat.size))
    _bessel_seeds(flat, out=table[:2])
    with np.errstate(all="ignore"):
        if l_max > 1:
            below = np.flatnonzero(flat < l_max)
            if 2 * below.size > flat.size:
                _miller(table, flat)
            else:
                _upward(table, flat)
                if below.size:
                    part = np.empty((l_max + 1, below.size))
                    part[:2] = table[:2, below]
                    _miller(part, flat[below])
                    table[2:, below] = part[2:]
    return table.reshape((l_max + 1,) + z.shape)


def _field_block(
    n: int, r_nodes: np.ndarray, p_nodes: np.ndarray, weighted: np.ndarray, theta_coefs: tuple,
    out: np.ndarray,
) -> None:
    """Write the amplitudes for one block of outcome radii into out, shape
    (radii, angles, n+1).

    One Bessel table serves the whole block. Each order's radial product
    and each component's synthesis is one stacked product over the block's
    whole _CHUNK_RADIAL-row chunks, and one more over a partial last chunk,
    so every BLAS call has the rows of one chunk.
    """
    bessel = _bessel_table(n, np.multiply.outer(r_nodes, p_nodes))
    full = r_nodes.size - r_nodes.size % _CHUNK_RADIAL
    for lo, hi in ((0, full), (full, r_nodes.size)):
        rows = min(hi - lo, _CHUNK_RADIAL)
        if rows == 0:
            continue
        chunks = (hi - lo) // rows
        # transform[c, l, a]: radial transform of the order-l reduced moment
        # at radius lo + c rows + a
        transform = np.empty((chunks, n + 1, rows))
        for l in range(n + 1):
            transform[:, l] = bessel[l, lo:hi].reshape(chunks, rows, -1) @ weighted[l]
        synthesis = out[lo:hi].reshape(chunks, rows, out.shape[1], n + 1)
        for k in range(n + 1):
            synthesis[..., k] = transform[:, k:].transpose(0, 2, 1) @ theta_coefs[k]


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
    so counts.nodes_p_polar reports n+1. The reduced moments of every order
    come from one three-term recurrence in l per momentum node, O(n N_p) in
    all, and stay finite at every n; the radially weighted moments are
    (n+1) x N_p floats, and a non-finite one raises NumericError.

    The outcome-angle coefficients (-1)^k c_lk P~_lk(cos theta), formed for
    all (l, k) at once, and the recurrence's n-only coefficients come from
    _angular's cache.
    Each block of outcome radii, as many whole chunks of _CHUNK_RADIAL
    radii as keep its (n+1) x radii x momenta table within _BLOCK_CELLS,
    builds one table of j_l(r p), l = 0..n, by recurrence from j_0 and j_1
    in closed form, and j_1 from its Maclaurin series where r p <= 1, which
    scipy's spherical_jn spot-checks once per table (see _bessel_seeds and
    _bessel_table; the table agrees with scipy's j_l to about 1e-15
    absolute). R_l is one stacked real product of row l with the weighted
    moment of order l, and the angular synthesis one per k, each making one
    BLAS call per chunk of _CHUNK_RADIAL rows. The blocks are built one
    after another in this process. They depend only on the grid, n and the
    momentum count, and every BLAS call takes the same rows whatever the
    block size or the cache's state, so the values depend on neither.
    """
    n = checked_count(n_spins, "n_spins")
    quad = quad or MomentumQuadrature()
    n_p = quad.radial_count(quad.effective_radial(grid.r_max, model, n))
    p_rule = gauss_legendre(n_p, 0.0, quad.p_max(model))

    # Radially weighted reduced moments, row l for order l, and the
    # outcome-angle coefficients of each k, from the cache when held.
    steps, theta_coefs = _angular(n, grid.polar.nodes)
    radial_measure = p_rule.weights * p_rule.nodes**2 * momentum_profile(p_rule.nodes, model)
    weighted = _reduced_moments(n, p_rule.nodes, steps) * radial_measure
    if not np.all(np.isfinite(weighted)):
        raise NumericError("reduced moments are not finite; parameters out of range")

    values = np.empty((grid.radial.count, grid.polar.count, n + 1))
    for lo, hi in _row_ranges(grid.radial.count, _block_rows(n, p_rule.count)):
        _field_block(n, grid.radial.nodes[lo:hi], p_rule.nodes, weighted, theta_coefs, values[lo:hi])

    w_r, w_t = grid.volume_weights()
    density = values[..., 0] ** 2
    for k in range(1, n + 1):
        density += values[..., k] ** 2
    counts = QuadratureCounts(
        nodes_r=grid.radial.count,
        nodes_theta=grid.polar.count,
        nodes_p_radial=p_rule.count,
        nodes_p_polar=n + 1,
    )
    return AmplitudeField(
        n_spins=n, model=model, grid=grid, counts=counts, values=values,
        total_probability=float(w_r @ density @ w_t), _density=density,
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
    if not math.isfinite(azimuth):
        raise DomainError("azimuth must be finite")
    # The grid ends at the radius, so the field's radial count is keyed to it.
    eps = 1e-9 * max(1.0, radius)
    grid = OutcomeGrid(
        radial=Rule1D(np.array([radius]), np.array([1.0]), (radius - eps, radius)),
        polar=Rule1D(np.array([polar]), np.array([1.0]), (0.0, math.pi)),
    )
    field_one = build_amplitude_field(n_spins, model, grid, quad)
    amps = field_one.values[0, 0] * np.exp(1j * np.arange(n_spins + 1) * azimuth)
    return DickeVector(n_spins=n_spins, amplitudes=amps)


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
    radial_profile = w_r @ build_amplitude_field(n_spins, model, grid).density()  # (n_theta,)
    return float(radial_profile[:half] @ w_t[:half]), float(radial_profile[half:] @ w_t[half:])


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
    Capped at MAX_RADIAL_NODES so pathological spreads degrade into a
    refinement failure instead of an allocation blowup.
    """
    return max(requested, min(int(math.ceil(2.5 * r_max / spread)), MAX_RADIAL_NODES))


def adaptive_outcome_grid(
    n_spins: int,
    model: PointerModel,
    nodes_r: int = NODES_R,
    nodes_theta: int = NODES_THETA,
    quad: MomentumQuadrature | None = None,
) -> OutcomeGrid:
    """Outcome grid with the radial cutoff tightened adaptively.

    Starts from the drift bound r_max = n/2 + 6*spread, scans the radial
    cumulative probability on a coarse field, and cuts at the first node
    exceeding 1 - _TAIL_MASS (plus one node of padding), so the discarded
    tail stays strictly below _TAIL_MASS = 1e-4. Radial counts are floored
    so that shell-like densities at small spread stay resolved. The polar
    rule is one Gauss-Legendre rule over [0, pi].
    """
    checked_count(n_spins, "n_spins")
    if nodes_r < 1 or nodes_theta < 1:
        raise DomainError(f"need at least one outcome node per axis, got {nodes_r} x {nodes_theta}")
    estimate = 0.5 * n_spins + 6.0 * model.spread
    # The scan field's momentum count, resolved (and an over-cap one refused)
    # before its outcome rule, which may be as large, is built.
    quad = quad or MomentumQuadrature()
    quad.radial_count(quad.effective_radial(estimate, model, n_spins))
    scan_nodes = _radial_resolution_floor(estimate, model.spread, min(nodes_r, 48))
    scan_grid = build_outcome_grid(estimate, nodes_r=scan_nodes, nodes_theta=min(nodes_theta, 32))
    scan = build_amplitude_field(n_spins, model, scan_grid, quad)
    cumulative = radial_cumulative(scan)
    above = np.nonzero(cumulative > 1.0 - _TAIL_MASS)[0]
    if above.size == 0:
        r_cut = estimate
    else:
        pad = min(int(above[0]) + 1, scan_grid.radial.count - 1)
        r_cut = float(scan_grid.radial.nodes[pad])
    return build_outcome_grid(
        r_cut,
        nodes_r=_radial_resolution_floor(r_cut, model.spread, nodes_r),
        nodes_theta=nodes_theta,
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
    n = checked_count(n_spins, "n_spins")
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
