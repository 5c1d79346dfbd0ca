"""Spin-1/2 ensembles: directions on the Bloch sphere, symmetric-subspace
(Dicke) vectors, SU(2) rotations, and collective spin operators.

The product state of N identical spins pointing along u lives in the N+1
dimensional symmetric subspace; everything downstream works there. Basis
index k counts flipped spins relative to +z, so k=0 is all-up and the
z projection of basis state k is N/2 - k.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import expm

from .errors import CapabilityError, DomainError, NumericError
from .quadrature import checked_count

# Above this size binomials leave the exact-integer comfort zone and the
# amplitude products underflow stagewise; switch to log-gamma accumulation.
_LOG_SPACE_THRESHOLD = 60


@dataclass(frozen=True)
class Direction:
    """Unit vector given as polar angle from +z and azimuth."""

    polar: float
    azimuth: float

    def __post_init__(self):
        if not (0.0 <= self.polar <= math.pi):
            raise DomainError(f"polar angle {self.polar} outside [0, pi]")
        if not np.isfinite(self.azimuth):
            raise DomainError("azimuth must be finite")

    def as_vector(self) -> np.ndarray:
        st = math.sin(self.polar)
        return np.array(
            [st * math.cos(self.azimuth), st * math.sin(self.azimuth), math.cos(self.polar)]
        )


def direction_from_angles(polar: float, azimuth: float) -> Direction:
    return Direction(polar=float(polar), azimuth=float(azimuth) % (2.0 * math.pi))


def score(u: Direction, w: Direction) -> float:
    """Squared overlap of single-spin states along u and w: (1 + u.w)/2."""
    return 0.5 * (1.0 + float(np.dot(u.as_vector(), w.as_vector())))


@dataclass(frozen=True)
class DickeVector:
    """State(s) in the symmetric subspace; amplitudes[..., k] multiplies basis
    state k. Leading axes, if any, index a batch of states."""

    n_spins: int
    amplitudes: np.ndarray

    def __post_init__(self):
        checked_count(self.n_spins, "n_spins")
        if self.amplitudes.ndim < 1 or self.amplitudes.shape[-1] != self.n_spins + 1:
            raise DomainError(
                f"expected {self.n_spins + 1} amplitudes, got shape {self.amplitudes.shape}"
            )

    def norm_squared(self):
        """Squared norm of each state: a float, or an array over the batch axes."""
        return np.sum(np.abs(self.amplitudes) ** 2, axis=-1)


def su2_rotation(p: np.ndarray) -> np.ndarray:
    """exp(-i p.sigma/2) as a 2x2 matrix; rotation by angle |p| about p-hat.

    The p -> 0 limit is handled through sin(|p|/2)/|p|, which is analytic.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (3,):
        raise DomainError("momentum must be a 3-vector")
    if not np.all(np.isfinite(p)):
        raise DomainError("momentum must be finite")
    angle = float(np.linalg.norm(p))
    half_sinc = 0.5 * np.sinc(angle / (2.0 * math.pi))  # sin(|p|/2)/|p|
    c = math.cos(0.5 * angle)
    px, py, pz = p
    return np.array(
        [
            [c - 1j * half_sinc * pz, -1j * half_sinc * (px - 1j * py)],
            [-1j * half_sinc * (px + 1j * py), c + 1j * half_sinc * pz],
        ]
    )


def rotated_up_amplitudes(p: np.ndarray) -> tuple[complex, complex]:
    """Single-spin amplitudes (alpha, beta) of exp(-i p.sigma/2)|up>."""
    u = su2_rotation(p)
    return complex(u[0, 0]), complex(u[1, 0])


def dicke_expand(alpha, beta, n_spins: int) -> DickeVector:
    """Symmetric expansion of (alpha|up> + beta|down>)^(x n_spins).

    Component k is sqrt(C(n,k)) alpha^(n-k) beta^k, on a last axis after the
    shape of alpha and beta, which are scalars or arrays of one shape. Each
    element's arithmetic is that of a scalar call, so a batch equals its
    scalar calls bit for bit.

    Up to n = 60 the powers are running products, one factor at a time.
    Above it the binomial and the powers are summed in log space and each
    cell takes one exp; integer exponents make any branch of the complex log
    exact. A zero amplitude to the power 0 counts as 1.
    """
    n = checked_count(n_spins, "n_spins")
    a = np.asarray(alpha, dtype=complex)
    b = np.asarray(beta, dtype=complex)
    if a.shape != b.shape:
        raise DomainError(f"alpha and beta shapes differ: {a.shape} vs {b.shape}")
    shape = a.shape
    a = a.reshape(-1)
    b = b.reshape(-1)
    amps = np.empty((a.size, n + 1), dtype=complex)
    if n <= _LOG_SPACE_THRESHOLD:
        powers_a = np.ones((n + 1, a.size), dtype=complex)
        powers_b = np.ones((n + 1, b.size), dtype=complex)
        for j in range(n):
            powers_a[j + 1] = powers_a[j] * a
            powers_b[j + 1] = powers_b[j] * b
        for k in range(n + 1):
            amps[:, k] = math.sqrt(math.comb(n, k)) * powers_a[n - k] * powers_b[k]
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            log_a = np.log(a)
            log_b = np.log(b)
            for k in range(n + 1):
                # Skipping a zero exponent keeps 0 * log(0), which is nan, out.
                expo = 0.5 * (math.lgamma(n + 1) - (math.lgamma(k + 1) + math.lgamma(n - k + 1)))
                if k < n:
                    expo = expo + (n - k) * log_a
                if k > 0:
                    expo = expo + k * log_b
                amps[:, k] = np.exp(expo)
        # A nan here comes from a zero amplitude: the term is a true zero.
        amps[np.isnan(amps)] = 0.0
    return DickeVector(n_spins=n, amplitudes=amps.reshape(shape + (n + 1,)))


def coherent_dicke(direction: Direction, n_spins: int) -> DickeVector:
    """Product state of n spins along the given direction, in the Dicke basis."""
    half = 0.5 * direction.polar
    return dicke_expand(
        math.cos(half), complex(math.cos(direction.azimuth), math.sin(direction.azimuth)) * math.sin(half), n_spins
    )


@dataclass(frozen=True)
class CollectiveOperators:
    """Total-spin matrices on the symmetric subspace (spin J = n/2)."""

    n_spins: int
    sx: np.ndarray = field(repr=False)
    sy: np.ndarray = field(repr=False)
    sz: np.ndarray = field(repr=False)


def collective_operators(n_spins: int) -> CollectiveOperators:
    n = checked_count(n_spins, "n_spins")
    j = 0.5 * n
    m = j - np.arange(n + 1)  # z projection of basis state k
    sz = np.diag(m)
    # s_minus |j,m> = sqrt(j(j+1) - m(m-1)) |j,m-1>; lowering means k -> k+1.
    lower = np.sqrt(j * (j + 1.0) - m[:-1] * (m[:-1] - 1.0))
    sm = np.zeros((n + 1, n + 1))
    sm[np.arange(1, n + 1), np.arange(n)] = lower
    sp = sm.T.copy()
    sx = 0.5 * (sp + sm) + 0j
    sy = -0.5j * (sp - sm)
    return CollectiveOperators(n_spins=n, sx=sx, sy=sy, sz=sz.astype(complex))


@lru_cache(maxsize=4)
def _site_operators(n: int) -> np.ndarray:
    """Read-only (3, n, 2^n, 2^n) stack: entry [axis, site] is sigma_axis / 2
    on that site and the identity on the others, as an explicit Kronecker
    product. Built once per n; the oracle caps n at 4."""
    paulis = [
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    ]
    ops = np.empty((3, n, 2**n, 2**n), dtype=complex)
    for axis in range(3):
        for site in range(n):
            op = np.eye(1, dtype=complex)
            for other in range(n):
                op = np.kron(op, 0.5 * paulis[axis] if other == site else np.eye(2))
            ops[axis, site] = op
    ops.setflags(write=False)
    return ops


def full_tensor_spectrum(p: np.ndarray, n_spins: int):
    """h = p.S on the full 2^n product space and its eigendecomposition.

    Constructs S as explicit Kronecker sums, site by site for each axis (the
    site operators are built once per n, see _site_operators), and hands the
    dense Hermitian stack to numpy's eigh, which runs LAPACK once per slice,
    sidestepping every symmetric-subspace shortcut used elsewhere. p has
    shape (..., 3); returns (h, w, v) with h of shape (..., 2^n, 2^n) and
    h = v diag(w) v^H slice by slice.

    Since (s p).S = s (p.S), a stack of unit directions gives the spectrum
    of every momentum along them: eigenvalues s w on the same eigenvectors.

    Cost grows as 4^n, so requests beyond n=4 are refused; non-finite
    vectors raise DomainError.
    """
    n = checked_count(n_spins, "n_spins")
    if n > 4:
        raise CapabilityError(f"full tensor oracle capped at n_spins=4, got {n}")
    p = np.asarray(p, dtype=float)
    if p.ndim < 1 or p.shape[-1] != 3:
        raise DomainError("momentum must be a 3-vector or a stack of them")
    if not np.all(np.isfinite(p)):
        raise DomainError("momentum must be finite")
    dim = 2**n
    h = np.zeros(p.shape[:-1] + (dim, dim), dtype=complex)
    for axis, site_ops in enumerate(_site_operators(n)):
        for op in site_ops:
            h += p[..., axis, None, None] * op
    w, v = np.linalg.eigh(h)
    return h, w, v


def full_tensor_rotation_oracle(p: np.ndarray, n_spins: int) -> np.ndarray:
    """exp(-i p.S) built on the full 2^n product space, for certification only.

    Takes h = p.S and its eigendecomposition from full_tensor_spectrum and
    forms exp(-i h) = V diag(exp(-i w)) V^H. p has shape (..., 3) and the
    result (..., 2^n, 2^n); a stacked call gives the bits of one call per
    momentum.

    scipy's expm (scaled Pade) stays the reference, an algorithm that shares
    nothing with the eigendecomposition: every call also exponentiates the
    slice of largest 1-norm with it and raises NumericError unless the two
    agree within 1e-13 max(1, |h|_1), so a faulty eigen route cannot pass
    quietly. An empty stack returns its empty result. Refuses n > 4 and
    non-finite momenta, as full_tensor_spectrum does.
    """
    h, w, v = full_tensor_spectrum(p, n_spins)
    u = (v * np.exp(-1j * w)[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))
    norms = np.abs(h).sum(axis=-2).max(axis=-1)
    if norms.size:
        worst = np.unravel_index(np.argmax(norms), norms.shape)
        err = float(np.max(np.abs(u[worst] - expm(-1j * h[worst]))))
        tol = 1e-13 * max(1.0, float(norms[worst]))
        if not err <= tol:
            raise NumericError(f"eigen route differs from expm by {err:.3e} (tolerance {tol:.3e})")
    return u


def dicke_basis_full(n_spins: int) -> np.ndarray:
    """Rows are the symmetric basis states embedded in the 2^n product space."""
    n = checked_count(n_spins, "n_spins")
    if n > 4:
        raise CapabilityError(f"full tensor embedding capped at n_spins=4, got {n}")
    dim = 2**n
    basis = np.zeros((n + 1, dim))
    for idx in range(dim):
        k = bin(idx).count("1")
        basis[k, idx] = 1.0
    norms = np.sqrt(np.sum(basis**2, axis=1))
    return basis / norms[:, None]
