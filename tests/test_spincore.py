"""Spin algebra on the symmetric subspace, certified against the full
2^n product space for small n."""
import math

import numpy as np
import pytest
import scipy.linalg

from spinpointer import spincore
from spinpointer.errors import CapabilityError, DomainError, NumericError
from spinpointer.spincore import (
    CollectiveOperators,
    Direction,
    coherent_dicke,
    collective_operators,
    dicke_basis_full,
    dicke_expand,
    direction_from_angles,
    full_tensor_rotation_oracle,
    rotated_up_amplitudes,
    score,
    su2_rotation,
)


def test_direction_vectors_are_unit():
    rng = np.random.default_rng(11)
    for _ in range(20):
        d = direction_from_angles(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        assert abs(np.linalg.norm(d.as_vector()) - 1.0) < 1e-12


def test_score_solid_angle_values():
    up = direction_from_angles(0.0, 0.0)
    down = direction_from_angles(math.pi, 0.0)
    side = direction_from_angles(math.pi / 2, 0.3)
    assert score(up, up) == pytest.approx(1.0, abs=1e-15)
    assert score(up, down) == pytest.approx(0.0, abs=1e-15)
    assert score(up, side) == pytest.approx(0.5, abs=1e-15)


def test_score_rotation_invariance():
    # The score depends on the angle between the arguments only.
    rng = np.random.default_rng(5)
    u = direction_from_angles(1.1, 0.4)
    w = direction_from_angles(2.0, 5.1)
    base = score(u, w)
    cosang = float(u.as_vector() @ w.as_vector())
    assert base == pytest.approx(0.5 * (1 + cosang), abs=1e-14)
    for _ in range(5):
        az = rng.uniform(0, 2 * math.pi)
        u2 = direction_from_angles(u.polar, u.azimuth + az)
        w2 = direction_from_angles(w.polar, w.azimuth + az)
        assert score(u2, w2) == pytest.approx(base, abs=1e-12)


def test_su2_full_turn_is_minus_identity():
    r = su2_rotation(np.array([0.0, 0.0, 2 * math.pi]))
    assert np.allclose(r, -np.eye(2), atol=1e-12)


def test_su2_pi_about_y_flips_up():
    r = su2_rotation(np.array([0.0, math.pi, 0.0]))
    flipped = r @ np.array([1.0, 0.0])
    assert abs(flipped[0]) < 1e-12
    assert abs(abs(flipped[1]) - 1.0) < 1e-12


def test_su2_inverse_and_unitarity():
    rng = np.random.default_rng(2)
    for _ in range(8):
        p = rng.normal(size=3) * 3.0
        r = su2_rotation(p)
        assert np.allclose(r @ su2_rotation(-p), np.eye(2), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


def test_rotated_up_matches_matrix_column():
    rng = np.random.default_rng(8)
    for _ in range(6):
        p = rng.normal(size=3)
        alpha, beta = rotated_up_amplitudes(p)
        col = su2_rotation(p)[:, 0]
        assert abs(alpha - col[0]) < 1e-14
        assert abs(beta - col[1]) < 1e-14


def test_dicke_expand_two_spins_on_equator():
    a = 1 / math.sqrt(2)
    vec = dicke_expand(a, a, 2)
    assert np.allclose(vec.amplitudes, [0.5, 1 / math.sqrt(2), 0.5], atol=1e-14)


def test_dicke_expand_norm_power_law():
    rng = np.random.default_rng(40)
    for n in (1, 2, 5, 17, 60, 100):
        z = rng.normal(size=4)
        alpha = complex(z[0], z[1]) * 0.6
        beta = complex(z[2], z[3]) * 0.6
        single = abs(alpha) ** 2 + abs(beta) ** 2
        vec = dicke_expand(alpha, beta, n)
        assert vec.norm_squared() == pytest.approx(single**n, rel=1e-10)


@pytest.mark.parametrize("n", [60, 61, 100])
def test_dicke_expand_basis_states_across_log_space_threshold(n):
    # Pole states put all weight on one basis state: 0^0 = 1, not 0.
    top = np.zeros(n + 1)
    top[0] = 1.0
    assert np.array_equal(dicke_expand(1.0, 0.0, n).amplitudes, top)
    assert np.array_equal(dicke_expand(0.0, 1.0, n).amplitudes, top[::-1])
    batched = dicke_expand(np.array([1.0, 0.0]), np.array([0.0, 1.0]), n).amplitudes
    assert np.array_equal(batched, np.stack([top, top[::-1]]))
    assert coherent_dicke(direction_from_angles(0.0, 0.0), n).norm_squared() == 1.0
    phased = dicke_expand(0.0, 1j, n).amplitudes
    assert abs(phased[n] - 1j**n) < 1e-12
    assert np.all(phased[:n] == 0)


@pytest.mark.parametrize("n", [10, 100])
def test_batched_dicke_expand_equals_scalar_calls_bit_for_bit(n):
    rng = np.random.default_rng(n)
    z = rng.normal(size=(4, 5, 4))
    alpha = (z[..., 0] + 1j * z[..., 1]) * 0.5
    beta = (z[..., 2] + 1j * z[..., 3]) * 0.5
    alpha[0, :3] = 0.0
    beta[1, 1:4] = 0.0
    alpha[2, 2] = beta[2, 2] = 0.0
    batched = dicke_expand(alpha, beta, n)
    assert batched.amplitudes.shape == (4, 5, n + 1)
    for idx in np.ndindex(alpha.shape):
        single = dicke_expand(complex(alpha[idx]), complex(beta[idx]), n).amplitudes
        assert np.array_equal(batched.amplitudes[idx], single)
    assert batched.norm_squared().shape == (4, 5)
    with pytest.raises(DomainError):
        dicke_expand(alpha, beta[0], n)


def test_coherent_state_overlap_power_law():
    rng = np.random.default_rng(13)
    for n in (1, 4, 9):
        u = direction_from_angles(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        w = direction_from_angles(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        ov = abs(np.vdot(coherent_dicke(u, n).amplitudes, coherent_dicke(w, n).amplitudes)) ** 2
        assert ov == pytest.approx(score(u, w) ** n, abs=1e-12)


def test_coherent_up_is_top_basis_state():
    vec = coherent_dicke(direction_from_angles(0.0, 0.0), 3)
    expected = np.zeros(4)
    expected[0] = 1.0
    assert np.allclose(vec.amplitudes, expected, atol=1e-14)


def test_collective_operator_algebra():
    for n in (1, 2, 4, 7):
        ops = collective_operators(n)
        assert isinstance(ops, CollectiveOperators)
        for a, b, c in ((ops.sx, ops.sy, ops.sz), (ops.sy, ops.sz, ops.sx), (ops.sz, ops.sx, ops.sy)):
            assert np.allclose(a @ b - b @ a, 1j * c, atol=1e-12)
        j = n / 2.0
        casimir = ops.sx @ ops.sx + ops.sy @ ops.sy + ops.sz @ ops.sz
        assert np.allclose(casimir, j * (j + 1) * np.eye(n + 1), atol=1e-12)


def test_sz_spectrum_is_exact_ladder():
    for n in (1, 3, 10):
        sz = collective_operators(n).sz
        assert np.allclose(np.diag(sz).real, np.arange(n / 2.0, -n / 2.0 - 0.5, -1.0), atol=0)
        assert np.allclose(sz, np.diag(np.diag(sz)), atol=0)


@pytest.mark.parametrize("n", [1, 4, 61])
def test_collective_operators_are_hermitian_and_tridiagonal(n):
    # bloch_post_numeric reads only the main diagonal and the first
    # superdiagonal of each operator.
    ops = collective_operators(n)
    k = np.arange(n + 1)
    outside_band = np.abs(k[:, None] - k[None, :]) > 1
    for op in (ops.sx, ops.sy, ops.sz):
        assert np.array_equal(op, op.conj().T)
        assert not np.any(op[outside_band])


def test_symmetric_rotation_matches_full_tensor():
    rng = np.random.default_rng(20240811)
    for n in range(1, 5):
        basis = dicke_basis_full(n)
        up = np.zeros(2**n, dtype=complex)
        up[0] = 1.0
        for _ in range(4):
            p = rng.normal(size=3) * 2.0
            projected = basis @ (full_tensor_rotation_oracle(p, n) @ up)
            direct = dicke_expand(*rotated_up_amplitudes(p), n)
            assert np.max(np.abs(projected - direct.amplitudes)) < 1e-10


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stacked_oracle_equals_one_call_per_momentum(n):
    rng = np.random.default_rng(30 + n)
    p = rng.normal(size=(6, 3)) * 2.0
    p[0] = 0.0
    stacked = full_tensor_rotation_oracle(p, n)
    assert stacked.shape == (6, 2**n, 2**n)
    for i in range(len(p)):
        assert np.array_equal(stacked[i], full_tensor_rotation_oracle(p[i], n))
    grid = full_tensor_rotation_oracle(p.reshape(2, 3, 3), n)
    assert np.array_equal(grid.reshape(stacked.shape), stacked)


def _product_space_spin(n):
    """S_x, S_y, S_z on the 2^n product space, one embedded site at a time."""
    sigma = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0])]
    return [
        sum(np.kron(np.kron(np.eye(2**site), 0.5 * s), np.eye(2 ** (n - site - 1))) for site in range(n))
        for s in sigma
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_oracle_matches_scipy_expm_slice_by_slice(n):
    rng = np.random.default_rng(40 + n)
    spin = _product_space_spin(n)
    for magnitude in (0.0, 1e-8, 1.0, 13.3, 40.0):
        directions = rng.normal(size=(4, 3))
        p = magnitude * directions / np.linalg.norm(directions, axis=1)[:, None]
        stacked = full_tensor_rotation_oracle(p, n)
        for momentum, u in zip(p, stacked):
            h = sum(component * s for component, s in zip(momentum, spin))
            reference = scipy.linalg.expm(-1j * h)
            assert np.max(np.abs(u - reference)) <= 1e-14 * max(1.0, n * magnitude)


def test_oracle_checks_its_largest_slice_against_expm(monkeypatch):
    expm_calls = []

    def counted_expm(a):
        expm_calls.append(a.shape)
        return scipy.linalg.expm(a)

    monkeypatch.setattr(spincore, "expm", counted_expm)
    p = np.array([[0.1, 0.0, 0.2], [3.0, -4.0, 1.0], [0.0, 1.0, 0.0]])
    full_tensor_rotation_oracle(p, 2)
    full_tensor_rotation_oracle(p[0], 2)
    assert expm_calls == [(4, 4), (4, 4)]

    eigh = np.linalg.eigh

    def shifted(h, shift_slice):
        w, v = eigh(h)
        w = w.copy()
        w[shift_slice] += 1e-9
        return w, v

    # Every eigenvalue shifted by 1e-9 moves u by about 1e-9, far above 1e-13.
    monkeypatch.setattr(np.linalg, "eigh", lambda h: shifted(h, Ellipsis))
    with pytest.raises(NumericError, match="differs from expm"):
        full_tensor_rotation_oracle(p, 2)
    with pytest.raises(NumericError, match="differs from expm"):
        full_tensor_rotation_oracle(p[0], 2)
    # Only the slice of largest 1-norm is checked, and it is the one shifted.
    monkeypatch.setattr(np.linalg, "eigh", lambda h: shifted(h, 1))
    with pytest.raises(NumericError, match="differs from expm"):
        full_tensor_rotation_oracle(p, 2)


def test_oracle_builds_its_kronecker_site_operators_once_per_n(monkeypatch):
    p = np.array([[0.3, -0.1, 0.7], [1.0, 2.0, -0.5]])
    first = full_tensor_rotation_oracle(p, 3)
    kron_calls = []
    kron = np.kron

    def counted_kron(a, b):
        kron_calls.append((np.shape(a), np.shape(b)))
        return kron(a, b)

    monkeypatch.setattr(np, "kron", counted_kron)
    assert np.array_equal(full_tensor_rotation_oracle(p, 3), first)
    assert kron_calls == []
    assert not spincore._site_operators(3).flags.writeable


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_momentum_is_refused(bad):
    with pytest.raises(DomainError, match="finite"):
        su2_rotation(np.array([0.1, bad, 0.2]))
    with pytest.raises(DomainError, match="finite"):
        rotated_up_amplitudes(np.array([bad, 0.0, 0.0]))
    stack = np.zeros((3, 3))
    stack[2, 1] = bad
    for n in (1, 4):
        with pytest.raises(DomainError, match="finite"):
            full_tensor_rotation_oracle(stack, n)
        with pytest.raises(DomainError, match="finite"):
            full_tensor_rotation_oracle(stack[2], n)


def test_full_tensor_basis_is_orthonormal():
    for n in (1, 2, 4):
        basis = dicke_basis_full(n)
        assert np.allclose(basis @ basis.T, np.eye(n + 1), atol=1e-14)


def test_oracle_size_cap():
    with pytest.raises(CapabilityError):
        full_tensor_rotation_oracle(np.array([0.1, 0.2, 0.3]), 5)
    with pytest.raises(CapabilityError):
        dicke_basis_full(5)


@pytest.mark.parametrize("n", [0, -1])
def test_full_tensor_basis_refuses_fewer_than_one_spin(n):
    with pytest.raises(DomainError):
        dicke_basis_full(n)


def test_domain_errors():
    with pytest.raises(DomainError):
        dicke_expand(1.0, 0.0, 0)
    with pytest.raises(DomainError):
        collective_operators(0)
    with pytest.raises(DomainError):
        su2_rotation(np.array([1.0, 2.0]))
    with pytest.raises(DomainError):
        full_tensor_rotation_oracle(np.zeros((4, 2)), 2)
    with pytest.raises(DomainError):
        Direction(polar=4.0, azimuth=0.0)
